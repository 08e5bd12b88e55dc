"""The error contract: a library call raises only BifracError subclasses, and
no command line makes ``bifrac`` exit 1 or print a traceback.

Any other exception is a defect.  The escapes below were each seen once,
as a bare ValueError, TypeError, OverflowError, RecursionError or numpy
MemoryError; the Hypothesis sweeps then drive every public callable and
generated command lines with adversarial values (NaN, infinities, zeros,
subnormals, +-1e308, bad counts, strings, sequences that are not sequences
of numbers or of pairs).  Each count bound is also called at its least
value, which must be accepted, and one below.  Work is bounded so the sweeps
stay fast: Monte Carlo n <= 10**4, n_terms <= 10**3, m * n <= 10**4 paths,
laws of at most 50 atoms.
"""

import ast
import contextlib
import io
import json
import math
import os
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bifrac
from bifrac import (
    BernsteinFn,
    BifParams,
    BifracError,
    BoundChain,
    CounterFamily,
    CovMatrix,
    DiscreteDist,
    GapReport,
    IdentityCheck,
    InsufficientSamplesError,
    InvalidInputError,
    NegativeArgumentError,
    NonFiniteError,
    OutOfDomainError,
    PathBatch,
    PsdVerdict,
    Sampler,
    SeriesResult,
    SupnormBound,
    TimeGrid,
    bernstein_from_json,
    bernstein_gap_exact,
    bernstein_to_json,
    build_cov_matrix,
    check_psd,
    cholesky_factor,
    closed_form_violation,
    cov,
    cov_matrix,
    dist_from_json,
    dist_to_json,
    elementary_gap_series,
    eval_f,
    eval_g,
    expect,
    expect_pair,
    family_dist,
    find_violation,
    gap_exact,
    gap_mc,
    gap_tail_integral,
    gap_via_variance,
    lower_bound_chain,
    normal_sampler,
    sample_paths,
    series_identity_check,
    signed_identity_lhs,
    supnorm_bound,
    validate_params,
    violation_exact,
)
from bifrac import cli

SRC = pathlib.Path(bifrac.__file__).parent
D = DiscreteDist([(0.0, 0.5), (1.0, 0.5)])
D2 = DiscreteDist([(1.0, 0.5), (2.0, 0.5)])
P = BifParams(0.5, 1.0)
GRID = TimeGrid((1.0, 2.0))


def _settings(n):
    return settings(max_examples=n, deadline=None, derandomize=True, database=None)


# -- escapes seen once, each closed where it arose ------------------------------


def _gap_mc_of(draw):
    return gap_mc(Sampler(draw=draw, moment_hint=math.inf), 1.0, 1000, 1)


ESCAPES = [
    # e*alpha is inf in _in_range's rescaling.
    ("gap_exact_rescale", lambda: gap_exact(DiscreteDist([(3, 0.5), (1e300, 0.5)]), 1e308), NonFiniteError),
    # M**alpha overflows.
    ("closed_form_violation", lambda: closed_form_violation(1e6, 0.5, 2), NonFiniteError),
    ("lower_bound_chain", lambda: lower_bound_chain(CounterFamily(40, 1e-3, 1e9)), NonFiniteError),
    # Counts that are not integers.
    ("gap_mc_n", lambda: gap_mc(D.sampler(), 1.0, 2.5, 1), InvalidInputError),
    ("series_identity_check_n_terms", lambda: series_identity_check(1, 1, 0.5, 10.5), InvalidInputError),
    ("TimeGrid.regular_count", lambda: TimeGrid.regular(0, 1, 2.5), InvalidInputError),
    ("sample_paths_m", lambda: sample_paths(P, GRID, 2.5, 1), InvalidInputError),
    ("gap_mc_seed", lambda: gap_mc(D.sampler(), 1.0, 10, -1), InvalidInputError),
    # More paths than any array holds (fewer that do not fit raise MemoryError).
    ("sample_paths_m_past_any_array", lambda: sample_paths(P, GRID, 10**30, 1), InvalidInputError),
    # A draw whose rng is not a numpy.random.Generator.
    ("sampler_draw_RandomState", lambda: D.sampler().draw(np.random.RandomState(1), 3), InvalidInputError),
    ("normal_sampler_draw_RandomState", lambda: normal_sampler().draw(np.random.RandomState(1), 3), InvalidInputError),
    # Values that are not numbers.
    ("BifParams", lambda: BifParams("a", 1), InvalidInputError),
    ("validate_params", lambda: validate_params("a", 1), InvalidInputError),
    ("cov", lambda: cov(P, "x", 1.0), InvalidInputError),
    ("cov_matrix", lambda: cov_matrix(P, ["a"]), InvalidInputError),
    ("gap_exact_alpha", lambda: gap_exact(D, "a"), InvalidInputError),
    ("DiscreteDist", lambda: DiscreteDist([("a", 1.0)]), InvalidInputError),
    ("GapReport", lambda: GapReport(1.0, "a", "b", "exact"), InvalidInputError),
    # A g whose values are not real numbers.
    ("expect_pair_complex", lambda: expect_pair(D2, lambda u, v: (u + v) + 0j), InvalidInputError),
    ("expect_pair_object", lambda: expect_pair(D2, lambda u, v: (u + v).astype(object)), InvalidInputError),
    ("expect_pair_string", lambda: expect_pair(D2, lambda u, v: (u + v).astype(str)), InvalidInputError),
    ("expect_pair_ragged", lambda: expect_pair(D2, lambda u, v: [[1.0], [1.0, 2.0]]), InvalidInputError),
    # A g whose values do not broadcast to the block.
    ("expect_pair_shape", lambda: expect_pair(D2, lambda u, v: np.ones(5)), InvalidInputError),
    # An f whose value is not a real number, or is an int past double range.
    ("expect_complex", lambda: expect(D, lambda x: 1j), InvalidInputError),
    ("expect_string", lambda: expect(D, lambda x: "a"), InvalidInputError),
    ("expect_none", lambda: expect(D, lambda x: None), InvalidInputError),
    ("expect_bigint", lambda: expect(D, lambda x: 10**400), NonFiniteError),
    # Draws that are not real numbers, copied in by gap_mc.
    ("gap_mc_string_draws", lambda: _gap_mc_of(lambda rng, size: ["a"] * size), InvalidInputError),
    ("gap_mc_none_draws", lambda: _gap_mc_of(lambda rng, size: [None] * size), InvalidInputError),
    (
        "gap_mc_datetime_draws",
        lambda: _gap_mc_of(lambda rng, size: np.zeros(size, "datetime64[s]")),
        InvalidInputError,
    ),
    (
        "gap_mc_ragged_draws",
        lambda: _gap_mc_of(lambda rng, size: [[1.0]] * (size - 1) + [[1.0, 2.0]]),
        InvalidInputError,
    ),
    # Paths that are not real numbers.
    ("PathBatch_string", lambda: PathBatch(GRID, np.full((2, 2), "a"), 1), InvalidInputError),
    ("PathBatch_complex", lambda: PathBatch(GRID, np.ones((2, 2)) + 0j, 1), InvalidInputError),
    ("PathBatch_ragged", lambda: PathBatch(GRID, [[1.0, 2.0], [1.0]], 1), InvalidInputError),
    # Sequences that are not sequences of pairs, or of times.
    ("DiscreteDist_scalar_atom", lambda: DiscreteDist([1.0]), InvalidInputError),
    ("DiscreteDist_scalar", lambda: DiscreteDist(5), InvalidInputError),
    ("DiscreteDist_1_tuple", lambda: DiscreteDist([(1.0,)]), InvalidInputError),
    ("BernsteinFn_scalar_atom", lambda: BernsteinFn(0.5, 1.0, [1.0]), InvalidInputError),
    ("TimeGrid_scalar", lambda: TimeGrid(5), InvalidInputError),
    ("cov_matrix_scalar", lambda: cov_matrix(P, 5), InvalidInputError),
    # Items that are mappings or sets, which unpack in their own order.
    ("DiscreteDist_dict_atom", lambda: DiscreteDist([{1.0: 0, 0.5: 1}, (0.5, 0.5)]), InvalidInputError),
    ("DiscreteDist_set_atom", lambda: DiscreteDist([{0.25, 0.5}, (0.5, 0.5)]), InvalidInputError),
    ("BernsteinFn_dict_atom", lambda: BernsteinFn(0.0, 1.0, [{2.0: "a", 1.0: "b"}]), InvalidInputError),
    ("BernsteinFn_frozenset_atom", lambda: BernsteinFn(0.0, 1.0, [frozenset((2.0, 1.0))]), InvalidInputError),
    # Entries that are not real numbers, or not one row and column per grid point.
    ("check_psd_string", lambda: check_psd(CovMatrix(P, GRID, np.full((2, 2), "a"))), InvalidInputError),
    ("cholesky_factor_1d", lambda: cholesky_factor(CovMatrix(P, GRID, np.ones(2))), InvalidInputError),
    ("CovMatrix_3x3", lambda: CovMatrix(P, GRID, np.eye(3)), InvalidInputError),
    # Entries that are not finite: check_psd gave a verdict, cholesky_factor NaNs.
    ("check_psd_nan", lambda: check_psd(CovMatrix(P, GRID, [[math.nan, 0], [0, 1]])), NonFiniteError),
    ("check_psd_inf", lambda: check_psd(CovMatrix(P, GRID, [[math.inf, 0], [0, 1]])), NonFiniteError),
    ("cholesky_factor_nan", lambda: cholesky_factor(CovMatrix(P, GRID, [[math.nan, 0], [0, 1]])), NonFiniteError),
    ("CovMatrix_minus_inf", lambda: CovMatrix(P, GRID, [[1, 0], [0, -math.inf]]), NonFiniteError),
]


@pytest.mark.parametrize("call,error", [e[1:] for e in ESCAPES], ids=[e[0] for e in ESCAPES])
def test_escape_is_a_bifrac_error(call, error):
    with pytest.raises(error):
        call()


# -- each count bound: the call succeeds at it and raises just past it ------------

BOUNDS = [
    ("sample_paths_m", lambda m: sample_paths(P, GRID, m, 0), 1, InvalidInputError),
    ("sample_paths_seed", lambda seed: sample_paths(P, GRID, 1, seed), 0, InvalidInputError),
    ("gap_mc_n", lambda n: gap_mc(D.sampler(), 1.0, n, 0), 2, InsufficientSamplesError),
    ("gap_mc_seed", lambda seed: gap_mc(D.sampler(), 1.0, 2, seed), 0, InvalidInputError),
    ("gap_mc_workers", lambda workers: gap_mc(D.sampler(), 1.0, 2, 0, workers), 1, InvalidInputError),
    ("TimeGrid.regular_count", lambda count: TimeGrid.regular(0, 1, count), 1, InvalidInputError),
    ("series_identity_check_n_terms", lambda n: series_identity_check(1, 1, 0.5, n), 1, InvalidInputError),
    ("elementary_gap_series_n_terms", lambda n: elementary_gap_series(D, 0.5, n), 1, InvalidInputError),
]


@pytest.mark.parametrize("call,least", [b[1:3] for b in BOUNDS], ids=[b[0] for b in BOUNDS])
def test_count_at_its_bound_is_accepted(call, least):
    call(least)


@pytest.mark.parametrize("call,least,error", [b[1:] for b in BOUNDS], ids=[b[0] for b in BOUNDS])
def test_count_past_its_bound_raises(call, least, error):
    with pytest.raises(error):
        call(least - 1)


# -- each real bound met by comparison: accepted at it, raised just past it ------
# Only the sides that no other test pins.  At t = 5e-324 the series'
# remainder bound does not hold (ROADMAP item 9), so only acceptance is checked.

G = BernsteinFn(0.0, 1.0)
ACCEPTED_AT_BOUND = [
    ("check_psd_tol", lambda: check_psd(build_cov_matrix(P, GRID), tol=5e-324)),
    ("elementary_gap_series_t", lambda: elementary_gap_series(D, 5e-324)),
    ("series_identity_check_t", lambda: series_identity_check(1.0, 1.0, 5e-324, 5)),
    ("gap_via_variance_alpha", lambda: gap_via_variance(D, 2.0)),
    ("validate_params_H", lambda: validate_params(1.0, 1.0)),
]
RAISED_PAST_BOUND = [
    ("eval_g_lam", lambda: eval_g(G, -5e-324), NegativeArgumentError),
    ("eval_f_lam", lambda: eval_f(G, -5e-324), NegativeArgumentError),
    ("gap_via_variance_alpha", lambda: gap_via_variance(D, math.nextafter(2.0, 3.0)), OutOfDomainError),
    ("gap_mc_alpha", lambda: gap_mc(D.sampler(), math.nextafter(2.0, 3.0), 2, 0), OutOfDomainError),
    ("signed_identity_lhs_alpha", lambda: signed_identity_lhs(1.0, 1.0, math.nextafter(2.0, 3.0)), OutOfDomainError),
    ("find_violation_alpha", lambda: find_violation(math.nextafter(40.0, 41.0)), OutOfDomainError),
    ("validate_params_H", lambda: validate_params(math.nextafter(1.0, 2.0), 0.5), OutOfDomainError),
    ("validate_params_K", lambda: validate_params(0.25, math.nextafter(2.0, 3.0)), OutOfDomainError),
]


@pytest.mark.parametrize("call", [b[1] for b in ACCEPTED_AT_BOUND], ids=[b[0] for b in ACCEPTED_AT_BOUND])
def test_real_at_its_bound_is_accepted(call):
    call()


@pytest.mark.parametrize("call,error", [b[1:] for b in RAISED_PAST_BOUND], ids=[b[0] for b in RAISED_PAST_BOUND])
def test_real_past_its_bound_raises(call, error):
    with pytest.raises(error):
        call()


def test_invalid_input_is_a_value_error():
    # Callers' ``except ValueError`` keeps working.
    with pytest.raises(ValueError):
        DiscreteDist([])
    assert issubclass(InvalidInputError, BifracError)


# -- command lines that exit 2 with an error line ------------------------------


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Law and Bernstein files, valid and malformed, by name."""
    tmp = tmp_path_factory.mktemp("contract")
    texts = {
        "law": json.dumps(dist_to_json(D)),
        "g": json.dumps({"a": 0.5, "b": 1.0, "mu": [{"t": 0.5, "w": 2.0}]}),
        "huge": json.dumps({"atoms": [{"x": -1e308, "p": 0.5}, {"x": 1e308, "p": 0.5}]}),
        "bigint": '{"atoms": [{"x": 1%s, "p": 1}]}' % ("0" * 400),
        "digits": '{"atoms": [{"x": 1%s, "p": 1}]}' % ("0" * 5000),
        "nested": "[" * 100_000,
        "broken": "{x",
        "string": json.dumps({"atoms": [{"x": "1.5", "p": 1.0}]}),
        "g_bad": json.dumps({"a": -1.0, "b": 0.0}),
    }
    paths = {name: str(tmp / f"{name}.json") for name in texts}
    for name, text in texts.items():
        pathlib.Path(paths[name]).write_text(text)
    paths["latin1"] = str(tmp / "latin1.json")
    pathlib.Path(paths["latin1"]).write_bytes(b'{"atoms": [{"x": 1, "p": 1, "\xe9": 0}]}')
    paths["missing"] = str(tmp / "missing.json")
    paths["out"] = str(tmp / "out.csv")
    return paths


def _run(argv, seed_env=None):
    """(exit code, stdout, stderr) of ``cli.main(argv)`` in-process, with
    BIFRAC_SEED set to ``seed_env`` (unset for None)."""
    saved = os.environ.pop("BIFRAC_SEED", None)
    if seed_env is not None:
        os.environ["BIFRAC_SEED"] = seed_env
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # a usage error, or -h
                code = exc.code
    finally:
        os.environ.pop("BIFRAC_SEED", None)
        if saved is not None:
            os.environ["BIFRAC_SEED"] = saved
    return code, out.getvalue(), err.getvalue()


CLI_CASES = [
    ("grid_word", "psd-check --H 0.5 --K 1 --grid a:1:3", None, "error: grid spec"),
    ("grid_fraction", "psd-check --H 0.5 --K 1 --grid 1:1:2.5", None, "error: grid spec"),
    ("seed_env_word", "gap -d {law} --alpha 1 --route mc --n 10", "abc", "error: BIFRAC_SEED"),
    ("seed_negative", "gap -d {law} --alpha 1 --route mc --n 10 --seed -1", None, "error: seed"),
    ("sample_seed_negative", "sample --H 0.5 --K 1 --grid 1:1:2 --m 2 --seed -1 --out {out}", None,
     "error: seed"),
    ("not_utf8", "gap -d {latin1} --alpha 1 --route exact", None, "error: malformed JSON: "),
    ("nested", "gap -d {nested} --alpha 1 --route exact", None, "error: malformed JSON: "),
    # Past the interpreter's int digit limit, where it has one.
    ("digits", "gap -d {digits} --alpha 1 --route exact", None, "error: "),
    ("bigint", "gap -d {bigint} --alpha 1 --route exact", None, 'error: "x" is past double range'),
    ("tail_alpha", "gap -d {law} --alpha 2 --route tail", None, "error: route=tail"),
    ("mc_without_n", "gap -d {law} --alpha 1 --route mc --seed 1", None, "error: route=mc"),
    ("rescale", "gap -d {huge} --alpha 1e308 --route exact", None, "error: moments of degree"),
    ("sample_memory", "sample --H 0.5 --K 1 --grid 1:1:2 --m 10000000000000 --seed 1 --out {out}",
     None, "error: "),
    # More paths than any array holds: numpy refuses the shape before allocating.
    ("sample_past_any_array",
     "sample --H 0.5 --K 1 --grid 1:1:2 --m 100000000000000000000 --seed 1 --out {out}",
     None, "error: m paths of 2 points exceed the largest array"),
]


@pytest.mark.parametrize("line,seed_env,err", [c[1:] for c in CLI_CASES], ids=[c[0] for c in CLI_CASES])
def test_cli_input_error_exits_2(files, line, seed_env, err):
    code, out, stderr = _run(line.format(**files).split(), seed_env)
    assert (code, out) == (2, "")
    assert stderr.startswith(err)
    assert stderr.count("\n") == 1


# -- the library sweep ---------------------------------------------------------

SPECIAL = (
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1e308, -1e308, sys.float_info.max, -sys.float_info.max, 1e-300, 1e300, 1.0, -1.0, 0.5,
    1.5, 2.0, 2.5, 40.0, 1e6,
)
reals = st.one_of(st.sampled_from(SPECIAL), st.floats())
finite = st.one_of(
    st.sampled_from([v for v in SPECIAL if math.isfinite(v)]),
    st.floats(allow_nan=False, allow_infinity=False),
)
positive = finite.map(abs).filter(lambda v: v > 0)
# What a caller may hand a real argument: also strings, None and ints past double range.
values = st.one_of(reals, st.sampled_from(["a", "1.5", "", "nan", None, 10**400, -(10**400)]))
# What no sequence of numbers or of pairs is: a scalar or string, a 1- or
# 3-tuple, a nested list, a dict.
malformed = st.one_of(
    values,
    st.tuples(values),
    st.tuples(values, values, values),
    st.lists(st.lists(values, max_size=3), min_size=1, max_size=3),
    st.dictionaries(st.sampled_from(["x", "p", 1.0]), values, max_size=2),
)


def sequences(item, max_size):
    """Lists of ``item``, some with malformed items, and malformed values."""
    return st.one_of(st.lists(st.one_of(item, item, malformed), max_size=max_size), malformed)


def counts(hi):
    """Counts up to ``hi``, and values no count may take."""
    return st.one_of(
        st.integers(-3, hi),
        st.sampled_from([-(2**70), -(10**5000), 2.5, 2.0, math.nan, math.inf, "3", None, True]),
    )


@st.composite
def laws(draw, max_atoms=8):
    xs = draw(st.lists(finite, min_size=1, max_size=max_atoms, unique=True))
    ws = draw(st.lists(st.floats(1e-3, 1.0), min_size=len(xs), max_size=len(xs)))
    total = math.fsum(ws)
    return DiscreteDist([(x, w / total) for x, w in zip(xs, ws)])


@st.composite
def bernsteins(draw):
    mu = draw(st.lists(st.tuples(positive, positive), max_size=3))
    return BernsteinFn(draw(finite.map(abs)), draw(finite.map(abs)), tuple(mu))


@st.composite
def grids(draw, max_points=12):
    pts = draw(st.lists(finite.map(abs), min_size=1, max_size=max_points, unique=True))
    return TimeGrid(tuple(sorted(set(pts))))


params = st.builds(BifParams, positive, positive)  # forced: possibly outside the domain


@st.composite
def cov_matrices(draw):
    """(params, grid, entries): an identity, arrays of the wrong shape or of
    strings, or malformed values."""
    p, g = draw(params), draw(grids(4))
    n = len(g)
    shapes = st.sampled_from([(n, n), (n,), (n, n + 1), (n + 1, n + 1), (1, n, n), ()])
    entries = st.one_of(
        st.just(np.eye(n)),
        shapes.map(np.ones),
        shapes.map(lambda shape: np.full(shape, "a")),
        st.lists(st.lists(values, max_size=n + 1), max_size=n + 1),
        malformed,
    )
    return p, g, draw(entries)


json_values = st.one_of(
    st.none(), st.booleans(), st.integers(-(10**400), 10**400), st.floats(), st.text(max_size=3),
    st.lists(st.integers(), max_size=2),
)
samplers = st.one_of(
    st.just(normal_sampler()),
    laws(50).map(DiscreteDist.sampler),
    st.builds(Sampler, st.just(lambda rng, size: np.zeros(size + 1))),  # wrong shape
    st.builds(Sampler, st.just(lambda rng, size: np.ones(size) * 1j)),  # complex
    st.builds(Sampler, st.just(lambda rng, size: rng.standard_normal(size)), values),
)


def _sample(p, grid, m, seed):
    """sample_paths with at most 10**4 values."""
    if isinstance(m, int) and m * len(grid) > 10**4:
        m = 10**4 // len(grid)
    return sample_paths(p, grid, m, seed)


# Public callable -> (strategy of its argument tuple, how to call it).  A
# callable whose argument is another public type gets it built from values.
CALLS = {
    "BernsteinFn": (st.tuples(values, values, sequences(st.tuples(values, values), 3)), BernsteinFn),
    "BifParams": (st.tuples(values, values), BifParams),
    "BoundChain": (st.tuples(values, values, values), BoundChain),
    "CounterFamily": (st.tuples(values, values, values), CounterFamily),
    "CovMatrix": (cov_matrices(), lambda p, g, e: (check_psd(m := CovMatrix(p, g, e)), cholesky_factor(m))),
    "DiscreteDist": (st.tuples(sequences(st.tuples(values, values), 50)), DiscreteDist),
    "DiscreteDist.sampler": (laws(50), lambda d: d.sampler().draw(np.random.default_rng(0), 100)),
    "GapReport": (st.tuples(values, values, values), lambda a, p, m: GapReport(a, p, m, "exact")),
    "IdentityCheck": (st.tuples(values, values, values), IdentityCheck),
    "PathBatch": (
        st.tuples(grids(4), st.sampled_from([(2, 1), (2, 4), (3,), (0, 2), ()]), values),
        lambda g, shape, seed: PathBatch(g, np.zeros(shape), seed),
    ),
    "PsdVerdict": (st.tuples(st.booleans(), reals), PsdVerdict),
    "Sampler": (st.tuples(st.just(None), reals), Sampler),
    "SeriesResult": (st.tuples(values, values, counts(1000)), SeriesResult),
    "SupnormBound": (st.tuples(reals, reals, reals, reals), SupnormBound),
    "TimeGrid": (st.tuples(sequences(values, 12)), TimeGrid),
    "TimeGrid.regular": (st.tuples(values, values, counts(1000)), TimeGrid.regular),
    "bernstein_from_json": (
        st.one_of(
            json_values,
            st.fixed_dictionaries(
                {"a": json_values, "b": json_values},
                optional={
                    "mu": st.lists(st.fixed_dictionaries({"t": json_values, "w": json_values}), max_size=3)
                },
            ),
        ),
        bernstein_from_json,
    ),
    "bernstein_gap_exact": (st.tuples(laws(50), bernsteins()), bernstein_gap_exact),
    "bernstein_to_json": (bernsteins(), bernstein_to_json),
    "build_cov_matrix": (st.tuples(params, grids()), build_cov_matrix),
    "check_psd": (
        st.tuples(params, grids(), values), lambda p, g, tol: check_psd(build_cov_matrix(p, g), tol)
    ),
    "cholesky_factor": (st.tuples(params, grids()), lambda p, g: cholesky_factor(build_cov_matrix(p, g))),
    "closed_form_violation": (st.tuples(values, values, values), closed_form_violation),
    "cov": (st.tuples(params, values, values), cov),
    "cov_matrix": (st.tuples(params, sequences(values, 12)), cov_matrix),
    "dist_from_json": (
        st.one_of(
            json_values,
            st.fixed_dictionaries(
                {"atoms": st.lists(st.fixed_dictionaries({"x": json_values, "p": json_values}), max_size=4)}
            ),
        ),
        dist_from_json,
    ),
    "dist_to_json": (laws(), dist_to_json),
    "elementary_gap_series": (
        st.tuples(laws(), values, st.one_of(st.none(), counts(1000))),
        elementary_gap_series,
    ),
    "eval_f": (st.tuples(bernsteins(), values), eval_f),
    "eval_g": (st.tuples(bernsteins(), values), eval_g),
    "expect": (laws(50), lambda d: expect(d, lambda x: x * x)),
    "expect_pair": (laws(50), lambda d: expect_pair(d, lambda u, v: np.abs(u + v))),
    "family_dist": (st.tuples(reals, reals, reals), lambda a, c, m: family_dist(CounterFamily(a, c, m))),
    "find_violation": (values, find_violation),
    "gap_exact": (st.tuples(laws(50), values), gap_exact),
    "gap_mc": (st.tuples(samplers, values, counts(10**4), counts(2**70), counts(4)), gap_mc),
    "gap_tail_integral": (laws(50), gap_tail_integral),
    "gap_via_variance": (st.tuples(laws(50), values), gap_via_variance),
    "lower_bound_chain": (
        st.tuples(reals, reals, reals), lambda a, c, m: lower_bound_chain(CounterFamily(a, c, m))
    ),
    "normal_sampler": (st.just(()), normal_sampler),
    "sample_paths": (st.tuples(params, grids(), counts(10**3), counts(2**70)), _sample),
    "series_identity_check": (st.tuples(values, values, values, counts(1000)), series_identity_check),
    "signed_identity_lhs": (st.tuples(values, values, values), signed_identity_lhs),
    "supnorm_bound": (laws(50), supnorm_bound),
    "validate_params": (st.tuples(values, values), validate_params),
    "violation_exact": (
        st.tuples(reals, reals, reals), lambda a, c, m: violation_exact(CounterFamily(a, c, m))
    ),
}


def test_every_public_callable_is_swept():
    public = {
        name
        for name in bifrac.__all__
        if callable(obj := getattr(bifrac, name))
        and not (isinstance(obj, type) and issubclass(obj, BaseException))
    }
    assert {name.split(".")[0] for name in CALLS} == public


@pytest.mark.parametrize("name", sorted(CALLS))
@_settings(60)
@given(data=st.data())
def test_only_bifrac_errors_escape(name, data):
    strategy, call = CALLS[name]
    args = data.draw(strategy, label="args")
    try:
        if isinstance(args, tuple):
            call(*args)
        else:
            call(args)
    except BifracError:
        pass


# -- the command-line sweep ----------------------------------------------------

FLOATS = ["nan", "inf", "-inf", "0", "-0", "5e-324", "-1", "0.5", "1", "1.5", "2", "2.5", "1e308", "a"]
TOKENS = {
    "--grid": ["a:1:3", "1:1:2.5", "1:1", "0:0.5:5", "1:1:3", "nan:1:3", "0:0:3", "-1:1:3",
               "0:1e308:3", "1e-300:1e-300:4", "0:0.1:0", "1:1:-2"],
    "--m": ["-1", "0", "1", "3", "2.5", "a", "100"],
    "--n": ["-1", "0", "1", "2", "1000", "2.5", "a"],
    "--n-terms": ["-1", "0", "1", "3", "1000", "2.5"],
    "--seed": ["-1", "0", "7", str(2**70), "a"],
    "--workers": ["-1", "0", "1", "2", "a"],
    "--tol": FLOATS,
}
FILES = ["law", "huge", "bigint", "digits", "nested", "broken", "string", "latin1", "missing", "g", "g_bad"]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    argv = [command]
    for opt in cli._COMMANDS[command][1]:
        # Leave out an optional option half the time, a required one rarely.
        if not draw(st.integers(0, 19 if opt[2] is cli._REQUIRED else 1)):
            continue
        flag, kind = opt[0].split()[-1], opt[1]
        if kind is bool:
            argv.append(flag)
            continue
        if flag in ("--dist", "--bernstein"):
            value = "{%s}" % draw(st.sampled_from(FILES))
        elif flag == "--out":
            value = "{out}"
        elif isinstance(kind, tuple):
            value = draw(st.sampled_from(kind))
        else:
            value = draw(st.sampled_from(TOKENS.get(flag, FLOATS)))
        argv += [flag, value]
    return argv


@_settings(500)
@given(argv=argvs(), seed_env=st.sampled_from([None, "abc", "-1", "5"]))
def test_cli_never_exits_1(files, argv, seed_env):
    code, out, err = _run([a.format(**files) for a in argv], seed_env)
    assert code in (0, 2, 3, 4, 5), (code, err)
    if code:
        assert "error: " in err and "Traceback" not in err


# -- no bare builtin error is raised by the library ----------------------------

BUILTINS = {"ValueError", "TypeError", "OverflowError"}


def _builtin_raises(path: pathlib.Path):
    """(function name, exception name) of each ``raise`` of a name in
    BUILTINS in the file."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id in BUILTINS:
                    found.append((func, exc.id))
            visit(child, func)

    visit(ast.parse(path.read_text()), None)
    return found


def test_library_raises_no_bare_builtin():
    found = {path.name: _builtin_raises(path) for path in sorted(SRC.glob("*.py"))}
    # Only a defect reaches render_json's TypeError: every value it is given
    # comes from the library.
    assert {name: raises for name, raises in found.items() if raises} == {
        "cli.py": [("render_json", "TypeError")]
    }

