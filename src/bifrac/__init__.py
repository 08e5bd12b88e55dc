"""bifrac: bifractional Brownian motion kernel, Gaussian path sampling, and
exact verification of the moment inequality E|X-Y|^a <= E|X+Y|^a and its
Bernstein-function generalization.

``import bifrac`` loads numpy and no bifrac submodule.  Every public name,
and every submodule, is imported on first access (PEP 562) and then cached in
this namespace.  ``_LAZY`` is the one list of public names: every class and
function a submodule defines without a leading underscore is in it, and no
submodule defines ``__all__``.

numpy is loaded first, with OpenBLAS's idle timeout at 2**20 cycles unless
numpy was already imported or the caller set ``OPENBLAS_THREAD_TIMEOUT``.
When this import is the one that loads numpy, the garbage collector is
paused for it, and what the import built is then moved into the oldest
generation (``gc.freeze(); gc.unfreeze()``) unless the caller froze objects
of its own.  The collector is re-enabled only if it was enabled, and a
caller's frozen objects stay frozen.  When numpy was already loaded,
``import bifrac`` makes no garbage-collector call.
"""

import gc
import os
import sys
from importlib import import_module as _import_module

# OpenBLAS starts its worker threads when numpy loads, and each one spins
# for 2**28 cycles (the default, about 0.1 s) before it sleeps, at load and
# again after every BLAS call, burning CPU in a process that does no BLAS
# work meanwhile.  2**20 cycles keeps the threads awake across the many BLAS
# calls of one LAPACK routine.  OpenBLAS reads the variable once, at load;
# it is removed again so that no subprocess or host program sees it.
#
# numpy's import allocates tens of thousands of objects that live as long as
# the process; with the collector on they pass through about 30 young
# collections that free almost nothing.  So the collector is paused for the
# import.  Paused, those objects pile up in the youngest generation, and the
# promotion keeps the first young collection after it from walking them all.
_fresh = "numpy" not in sys.modules
_timeout = _fresh and "OPENBLAS_THREAD_TIMEOUT" not in os.environ
if _fresh:
    _enabled = gc.isenabled()
    gc.disable()
if _timeout:
    os.environ["OPENBLAS_THREAD_TIMEOUT"] = "20"
try:
    # A statement, not _import_module: ``python -X importtime`` reports
    # numpy's own line only for an import statement.
    import numpy
finally:
    if _timeout:
        del os.environ["OPENBLAS_THREAD_TIMEOUT"]
    if _fresh:
        if not gc.get_freeze_count():  # unfreeze would thaw the caller's objects
            gc.freeze()
            gc.unfreeze()
        if _enabled:
            gc.enable()
        del _enabled
del gc, numpy, os, sys, _fresh, _timeout

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_LAZY = {
    name: module
    for module, names in {
        "bernstein": (
            "BernsteinFn",
            "IdentityCheck",
            "SeriesResult",
            "bernstein_from_json",
            "bernstein_gap_exact",
            "bernstein_to_json",
            "elementary_gap_series",
            "eval_f",
            "eval_g",
            "series_identity_check",
        ),
        "counterexample": (
            "BoundChain",
            "CounterFamily",
            "closed_form_violation",
            "family_dist",
            "find_violation",
            "lower_bound_chain",
            "violation_exact",
        ),
        "dists": (
            "DiscreteDist",
            "Sampler",
            "dist_from_json",
            "dist_to_json",
            "expect",
            "expect_pair",
            "normal_sampler",
        ),
        "errors": (
            "BifracError",
            "DegenerateFamilyError",
            "InequalityViolationError",
            "InsufficientSamplesError",
            "InvalidInputError",
            "NegativeArgumentError",
            "NegativeTimeError",
            "NonFiniteError",
            "NotPSDError",
            "NumericalFailureError",
            "OutOfDomainError",
            "SearchExhaustedError",
        ),
        "gpsim": (
            "CovMatrix",
            "PathBatch",
            "PsdVerdict",
            "build_cov_matrix",
            "check_psd",
            "cholesky_factor",
            "sample_paths",
        ),
        "inequality": (
            "GapReport",
            "SupnormBound",
            "gap_exact",
            "gap_mc",
            "gap_tail_integral",
            "gap_via_variance",
            "supnorm_bound",
        ),
        "kernel": (
            "BifParams",
            "TimeGrid",
            "cov",
            "cov_matrix",
            "signed_identity_lhs",
            "validate_params",
        ),
    }.items()
    for name in names
}

# Every submodule: the two that define no public name, then those that do.
_SUBMODULES = {"_rng", "cli", *_LAZY.values()}

__all__ = sorted(_LAZY)


def __getattr__(name):
    if name in _LAZY:
        value = getattr(_import_module(f".{_LAZY[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY) | _SUBMODULES)
