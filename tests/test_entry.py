"""The process entry ``bifrac.__main__.run``: the console script and
``python -m bifrac`` freeze the garbage collector as the process exits,
while ``cli.main`` and the library leave it alone.  ``import bifrac``
pauses it only while it loads numpy, and leaves it as it found it.

The freeze only skips the interpreter's final collections, so exit codes,
stdout, stderr and written files must be those of ``cli.main``: the golden
cases below are run through ``python -m bifrac`` and compared byte for
byte.
"""

import ast
import gc
import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

import bifrac
from bifrac import cli
from golden import make_golden

GOLDEN = make_golden.HERE
SRC = pathlib.Path(bifrac.__file__).parent


def _bifrac(*args):
    return subprocess.run([sys.executable, "-m", "bifrac", *args], capture_output=True, text=True, timeout=120)


def _script(code):
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "argv,code",
    [
        (["cov", "--H", "0.5", "--K", "1", "--t", "1", "--s", "2"], 0),
        (["cov", "--H", "0.5"], 2),  # a usage error: SystemExit(2)
        (["cov", "--H", "0.5", "--K", "1", "--t", "-1", "--s", "2"], 2),  # a BifracError
    ],
    ids=["success", "usage", "bifrac_error"],
)
def test_main_leaves_the_collector_alone(argv, code, enabled):
    was_enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        try:
            got = cli.main(argv)
        except SystemExit as exc:
            got = exc.code
        assert (got, gc.isenabled(), gc.get_freeze_count()) == (code, enabled, frozen)
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_import_leaves_the_collector_alone():
    code = (
        "import gc; before = gc.isenabled(), gc.get_freeze_count()\n"
        "import bifrac, bifrac.cli\n"
        "print(before == (gc.isenabled(), gc.get_freeze_count()), before[1])"
    )
    r = _script(code)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["True", "0"]


@pytest.mark.parametrize("enabled", [True, False])
def test_import_restores_whether_the_collector_runs(enabled):
    code = f"import gc; gc.{'enable' if enabled else 'disable'}()\nimport bifrac\nprint(gc.isenabled())"
    r = _script(code)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == str(enabled)


def test_import_runs_no_collection_while_numpy_loads():
    code = (
        "import gc, sys\n"
        "assert 'numpy' not in sys.modules\n"
        "before = [s['collections'] for s in gc.get_stats()]\n"
        "import bifrac\n"
        "print([s['collections'] - b for s, b in zip(gc.get_stats(), before)])"
    )
    r = _script(code)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[0, 0, 0]"


def test_import_keeps_a_hosts_frozen_objects_frozen():
    # The promotion after numpy's import would unfreeze them: it is skipped.
    code = (
        "import gc; host = [[] for _ in range(100)]; gc.freeze(); n = gc.get_freeze_count()\n"
        "import bifrac\n"
        "print(n > 0, gc.get_freeze_count() == n, gc.isenabled())"
    )
    r = _script(code)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["True", "True", "True"]


def test_import_after_numpy_makes_no_gc_call():
    code = (
        "import gc, numpy\n"
        "calls = []\n"
        "for name in [n for n in dir(gc) if not n.startswith('_') and callable(getattr(gc, n))]:\n"
        "    setattr(gc, name, lambda *a, _name=name, **k: calls.append(_name))\n"
        "import bifrac, bifrac.cli\n"
        "print(calls)"
    )
    r = _script(code)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_only_the_entry_calls_gc():
    # No library module, cli included, imports gc.  The entry does, and so
    # does the package's __init__, to pause the collector while numpy loads.
    importers = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import) and any(a.name == "gc" for a in node.names):
                importers.add(path.name)
            if isinstance(node, ast.ImportFrom) and node.module == "gc":
                importers.add(path.name)
    assert importers == {"__init__.py", "__main__.py"}


def test_run_freezes_and_atexit_still_runs():
    # The freeze happens as run() returns; atexit handlers run after it.
    code = (
        "import atexit, gc, sys\n"
        "from bifrac.__main__ import run\n"
        "atexit.register(lambda: print('atexit', gc.get_freeze_count() > 0))\n"
        "sys.argv = ['bifrac', 'cov', '--H', '0.5', '--K', '1', '--t', '1', '--s', '2']\n"
        "code = run()\n"
        "print('run', code, gc.get_freeze_count() > 0)\n"
        "sys.exit(code)"
    )
    r = _script(code)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == ["1", "run 0 True", "atexit True"]


@pytest.mark.parametrize("name", ["gap_nearsym_mc", "psd_small", "series", "sample"])
def test_golden_output_through_python_m(name, tmp_path):
    argv = dict(make_golden.cases())[name]
    r = _bifrac(*(a.format(golden=GOLDEN, tmp=tmp_path) for a in argv))
    assert (r.returncode, r.stderr) == (0, "")
    if argv[0] == "sample":
        with open(make_golden.SAMPLE_CSV.format(tmp=tmp_path), "rb") as fh:
            got = hashlib.sha256(fh.read()).hexdigest() + "\n"
    else:
        got = r.stdout
    with open(os.path.join(GOLDEN, "out", f"{name}.txt")) as fh:
        assert got == fh.read()


@pytest.mark.parametrize(
    "args,code,stream,start",
    [
        (["-h"], 0, "stdout", "usage: bifrac [-h]"),
        (["cov", "--help"], 0, "stdout", "usage: bifrac cov [-h]"),
        (["cov", "--H", "0.5"], 2, "stderr", "usage: bifrac cov [-h]"),
        (["gap", "-d", "{tmp}/missing.json", "--alpha", "1", "--route", "exact"], 2, "stderr", "error: "),
        (["counterexample", "--alpha", "2"], 2, "stderr", "error: "),
    ],
    ids=["help", "command_help", "usage", "missing_file", "bifrac_error"],
)
def test_exit_codes_through_python_m(tmp_path, args, code, stream, start):
    r = _bifrac(*(a.format(tmp=tmp_path) for a in args))
    assert r.returncode == code, r.stderr
    assert getattr(r, stream).startswith(start)
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize(
    "exc,code",
    [
        ("bifrac.InequalityViolationError", 3),
        ("bifrac.NotPSDError", 4),
        ("bifrac.SearchExhaustedError", 5),
        ("bifrac.InvalidInputError", 2),
        ("MemoryError", 2),
    ],
)
def test_handler_errors_exit_with_their_codes(exc, code):
    r = _script(_RAISING_HANDLER % exc)
    assert (r.returncode, r.stdout, r.stderr) == (code, "", "error: raised by the handler\n")


def test_defect_prints_traceback_and_exits_1():
    r = _script(_RAISING_HANDLER % "RuntimeError")
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr.startswith("Traceback (most recent call last):")
    assert r.stderr.rstrip().endswith("RuntimeError: raised by the handler")


# A process that enters through run() with the cov handler replaced by one
# that raises the exception class named by %s.
_RAISING_HANDLER = """
import sys
import bifrac
from bifrac import cli
from bifrac.__main__ import run
def handler(args):
    raise %s("raised by the handler")
cli._cmd_cov = handler
sys.argv = ["bifrac", "cov", "--H", "0.5", "--K", "1", "--t", "1", "--s", "2"]
sys.exit(run())
"""
