"""Golden CLI outputs: every case in ``golden/make_golden.py`` must print
the committed bytes.  A failure here is a numerical change of the program;
regenerate with ``PYTHONPATH=src python tests/golden/make_golden.py`` only
when the change is intended, and record why."""

import os

import pytest

from _support import strict_json
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
