"""Golden CLI outputs: every case in ``golden/make_golden.py`` must print
the committed bytes.  A failure here is a numerical change of the program;
regenerate with ``PYTHONPATH=src python tests/golden/make_golden.py`` only
when the change is intended, and record why."""

import os

import pytest

from _support import has_avx512, run_without_avx512, strict_json
from golden import make_golden

GOLDEN = make_golden.HERE


@pytest.mark.parametrize("name,argv", make_golden.cases(), ids=[n for n, _ in make_golden.cases()])
def test_golden_output(name, argv, tmp_path):
    with open(os.path.join(GOLDEN, "out", f"{name}.txt")) as fh:
        want = fh.read()
    assert make_golden.run_case(argv, GOLDEN, str(tmp_path)) == want


@pytest.mark.parametrize("name", [n for n, argv in make_golden.cases() if argv[0] != "sample"])
def test_golden_stdout_is_json(name):
    # Every stored stdout (sample stores a CSV hash instead) is strict JSON.
    with open(os.path.join(GOLDEN, "out", f"{name}.txt")) as fh:
        strict_json(fh.read())


# Prints the name of every case whose output differs from its golden file.
_CASES_WITHOUT_AVX512 = """
import os, sys, tempfile
sys.path[:0] = [sys.argv[1]]
from golden import make_golden
with tempfile.TemporaryDirectory() as tmp:
    for name, argv in make_golden.cases():
        with open(os.path.join(make_golden.HERE, "out", name + ".txt")) as fh:
            if make_golden.run_case(argv, make_golden.HERE, tmp) != fh.read():
                print(name)
"""


@pytest.mark.skipif(not has_avx512(), reason="needs a CPU with numpy's X86_V4 kernels")
def test_golden_output_without_avx512_kernels():
    # The goldens were written with numpy's AVX-512 kernels on; a CPU without
    # them must print the same bytes.
    r = run_without_avx512(_CASES_WITHOUT_AVX512)
    assert r.returncode == 0, r.stderr
    assert r.stdout == ""
