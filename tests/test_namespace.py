"""The package namespace: which modules ``import bifrac`` loads, and that
every public name and submodule resolves on first access.  Each check that
depends on what is already imported runs in a fresh interpreter."""

import json
import subprocess
import sys

import pytest

import bifrac

# Every public name the package exports, by defining module.
EXPORTS = {
    "bernstein": (
        "BernsteinFn",
        "bernstein_from_json",
        "bernstein_gap_exact",
        "bernstein_to_json",
        "elementary_gap_series",
        "eval_f",
        "eval_g",
        "series_identity_check",
    ),
    "counterexample": (
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
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)


def fresh(code: str):
    """Run ``code`` in a new interpreter and return the JSON it prints."""
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout)


def test_import_loads_errors_and_dists_only():
    loaded, has_numpy = fresh(
        "import json, sys, bifrac\n"
        "mods = sorted(m for m in sys.modules if m.split('.')[0] == 'bifrac')\n"
        "print(json.dumps([mods, 'numpy' in sys.modules]))"
    )
    assert loaded == ["bifrac", "bifrac.dists", "bifrac.errors"]
    # dists loads numpy.  This pins bench/run.py, which reads numpy's import
    # time from `python -X importtime -c "import bifrac"`, until ROADMAP
    # item 1 gives numpy its own probe.
    assert has_numpy


def test_submodule_attribute_right_after_import():
    assert fresh("import bifrac; print(bifrac.inequality.MC_CHUNK)") == bifrac.inequality.MC_CHUNK
    assert fresh("import bifrac, json; print(json.dumps(bifrac._rng.__name__))") == "bifrac._rng"


def test_every_export_is_its_module_attribute():
    mismatched = fresh(
        "import importlib, json, bifrac\n"
        f"exports = {EXPORTS!r}\n"
        "print(json.dumps([n for m, names in exports.items() for n in names\n"
        "    if getattr(bifrac, n) is not getattr(importlib.import_module('bifrac.' + m), n)]))"
    )
    assert mismatched == []


def test_all_and_dir_list_the_exports():
    assert sorted(bifrac.__all__) == NAMES
    listed = fresh("import bifrac, json; print(json.dumps(dir(bifrac)))")
    assert set(NAMES) <= set(listed)
    assert set(EXPORTS) <= set(listed)


def test_star_import_binds_all():
    unbound = fresh(
        "import json\n"
        "ns = {}\n"
        "exec('from bifrac import *', ns)\n"
        "import bifrac\n"
        "print(json.dumps([n for n in bifrac.__all__ if ns.get(n) is not getattr(bifrac, n)]))"
    )
    assert unbound == []


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        bifrac.no_such_name
    with pytest.raises(ImportError):
        exec("from bifrac import no_such_name", {})
