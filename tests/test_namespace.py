"""The package namespace: which modules ``import bifrac`` loads, that every
public name and submodule resolves on first access, and how numpy is loaded
(OpenBLAS's idle timeout).  Each check that depends on what is already
imported runs in a fresh interpreter."""

import importlib
import inspect
import json
import os
import subprocess
import sys

import pytest

import bifrac

# Every public name the package exports, by defining module.
EXPORTS = {
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
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)


def fresh(code: str, env=None):
    """Run ``code`` in a new interpreter and return the JSON it prints."""
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout)


def test_import_loads_no_submodule():
    loaded, has_numpy = fresh(
        "import json, sys, bifrac\n"
        "mods = sorted(m for m in sys.modules if m.split('.')[0] == 'bifrac')\n"
        "print(json.dumps([mods, 'numpy' in sys.modules]))"
    )
    assert loaded == ["bifrac"]
    # __init__ loads numpy.  This pins bench/run.py, which reads numpy's
    # import time from `python -X importtime -c "import bifrac"`, until
    # ROADMAP item 1 gives numpy its own probe.
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


def test_every_public_definition_is_exported():
    # A class or function a submodule defines without a leading underscore
    # is a package name: it is listed in __init__._LAZY, the one list.
    unexported = [
        f"{module}.{name}"
        for module, names in EXPORTS.items()
        for name, obj in vars(importlib.import_module(f"bifrac.{module}")).items()
        if not name.startswith("_")
        and (inspect.isclass(obj) or inspect.isfunction(obj))
        and obj.__module__ == f"bifrac.{module}"
        and name not in names
    ]
    assert unexported == []


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


TIMEOUT = "OPENBLAS_THREAD_TIMEOUT"

# Records each os.putenv and os.unsetenv of OPENBLAS_THREAD_TIMEOUT.  (numpy
# itself sets and removes OPENBLAS_MAIN_FREE while it loads.)
AUDIT_ENV = (
    "import json, os, sys\n"
    "writes = []\n"
    "sys.addaudithook(lambda e, a: writes.append(e)\n"
    f"    if e in ('os.putenv', 'os.unsetenv') and a[0] == b{TIMEOUT!r} else None)\n"
)


def env_with_timeout(value=None):
    """This process's environment with OPENBLAS_THREAD_TIMEOUT set to
    ``value``, or without it."""
    env = {k: v for k, v in os.environ.items() if k != TIMEOUT}
    if value is not None:
        env[TIMEOUT] = value
    return env


class TestOpenblasTimeout:
    def test_import_leaves_environ_as_found(self):
        writes, same, present = fresh(
            AUDIT_ENV + "before = dict(os.environ)\n"
            "import bifrac\n"
            f"print(json.dumps([writes, dict(os.environ) == before, {TIMEOUT!r} in os.environ]))",
            env=env_with_timeout(),
        )
        # Set for numpy's import, then removed.
        assert writes == ["os.putenv", "os.unsetenv"]
        assert same and not present

    def test_caller_value_wins(self):
        writes, value = fresh(
            AUDIT_ENV + f"import bifrac\nprint(json.dumps([writes, os.environ[{TIMEOUT!r}]]))",
            env=env_with_timeout("28"),
        )
        assert writes == [] and value == "28"

    def test_caller_value_still_loads_numpy(self):
        # numpy is loaded whether or not bifrac sets the timeout for it.
        assert fresh(
            "import json, sys, bifrac; print(json.dumps('numpy' in sys.modules))",
            env=env_with_timeout("28"),
        )

    def test_numpy_imported_first_is_left_alone(self):
        writes, present = fresh(
            "import numpy\n" + AUDIT_ENV + f"import bifrac\nprint(json.dumps([writes, {TIMEOUT!r} in os.environ]))",
            env=env_with_timeout(),
        )
        assert writes == [] and not present

    def test_importtime_reports_numpy(self):
        # bench/run.py reads numpy's cumulative import time from this line,
        # which an importlib.import_module("numpy") call would not print.
        r = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import bifrac"],
            capture_output=True, text=True, env=env_with_timeout(), check=True,
        )
        assert any(line.split("|")[-1].strip() == "numpy" for line in r.stderr.splitlines())

    def test_idle_blas_threads_sleep(self):
        # OpenBLAS's default timeout, 2**28 cycles, spins each worker for about
        # 0.1 s after numpy loads: 58-85 ms of CPU in this sleep on a 2-vCPU VM.
        cpu_ms = fresh(
            "import json, time, bifrac\n"
            "t = time.process_time()\n"
            "time.sleep(0.3)\n"
            "print(json.dumps((time.process_time() - t) * 1e3))",
            env=env_with_timeout(),
        )
        assert cpu_ms < 20

    def test_blas_results_do_not_depend_on_timeout(self, tmp_path):
        # The timeout changes only when BLAS threads sleep, not how work is
        # split: psd-check and sample print and write the same bytes as under
        # OpenBLAS's default, 28.
        runs = []
        for value in (None, "28"):
            csv = tmp_path / f"paths_{value}.csv"
            outs = [
                subprocess.run(
                    [sys.executable, "-m", "bifrac", *argv],
                    capture_output=True,
                    env=env_with_timeout(value),
                    check=True,
                ).stdout
                for argv in (
                    ("psd-check", "--H", "0.3", "--K", "0.7", "--grid", "0.01:0.01:400"),
                    ("sample", "--H", "0.3", "--K", "0.7", "--grid", "0.01:0.01:300",
                     "--m", "100", "--seed", "3", "--out", str(csv)),
                )
            ]
            runs.append((outs, csv.read_bytes()))
        assert runs[0] == runs[1]
