"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines as they complete.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from bifrac import (
    BifParams,
    CounterFamily,
    DiscreteDist,
    TimeGrid,
    bernstein_gap_exact,
    build_cov_matrix,
    check_psd,
    cov,
    expect_pair,
    family_dist,
    find_violation,
    gap_exact,
    gap_tail_integral,
    gap_via_variance,
    lower_bound_chain,
    sample_paths,
    supnorm_bound,
    validate_params,
    violation_exact,
)
from bifrac.bernstein import elementary_gap_series

from _support import (
    mirrored_support_dist,
    random_bernstein,
    random_dist,
    random_domain_params,
)

ALPHAS = (0.1, 0.5, 1.0, 1.3, 1.7, 2.0)
N_SWEEP = 2000


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def sweep():
    """Shared corpus for criteria 1-3: 2000 laws x 6 alphas, exact route."""
    rng = np.random.default_rng(987654321)
    dists = [random_dist(rng, max_atoms=10, lo=-50.0, hi=50.0) for _ in range(N_SWEEP)]
    t0 = time.perf_counter()
    reports = {a: [gap_exact(d, a) for d in dists] for a in ALPHAS}
    elapsed = time.perf_counter() - t0
    return dists, reports, elapsed


def test_criterion_1_inequality_sweep(sweep):
    dists, reports, elapsed = sweep
    failures = 0
    worst = math.inf
    for a in ALPHAS:
        for r in reports[a]:
            margin = r.gap / (r.e_plus + r.e_minus)
            worst = min(worst, margin)
            if r.gap < -1e-10 * (r.e_plus + r.e_minus):
                failures += 1
    ok = failures == 0 and elapsed < 10.0
    _report(
        1,
        "exact gap nonnegative on 2000x6 sweep",
        ok,
        f"failures={failures}/{N_SWEEP * len(ALPHAS)} worst_rel={worst:.3e} runtime={elapsed:.2f}s",
    )


def test_criterion_2_variance_route_equivalence(sweep):
    dists, reports, _ = sweep
    worst = 0.0
    for a in ALPHAS:
        for d, r_exact in zip(dists, reports[a]):
            r_var = gap_via_variance(d, a)
            scale = r_exact.e_plus + r_exact.e_minus
            worst = max(worst, abs(r_var.gap - r_exact.gap) / scale)
    _report(
        2,
        "variance route reenacts exact gap",
        worst <= 1e-10,
        f"worst_rel_disagreement={worst:.3e} (tol 1e-10)",
    )


def test_criterion_3_tail_integral_identity(sweep):
    dists, reports, _ = sweep
    worst = 0.0
    for d, r_exact in zip(dists, reports[1.0]):
        r_tail = gap_tail_integral(d)
        scale = r_exact.e_plus + r_exact.e_minus
        worst = max(worst, abs(r_tail.gap - r_exact.gap) / scale)
    _report(
        3,
        "tail-integral route equals exact route at alpha=1",
        worst <= 1e-12,
        f"worst_rel_disagreement={worst:.3e} (tol 1e-12)",
    )


def test_criterion_4_counterexample_family():
    f = CounterFamily(alpha=3.0, c=0.5, M=100.0)
    closed = violation_exact(f)
    r = gap_exact(family_dist(f), 3.0)
    double_sum = -r.gap
    rel = abs(double_sum - closed) / abs(closed)
    chain = lower_bound_chain(f)
    chain_scale = (
        4.0 * f.p * f.q * 3.0 * 100.0**2 + 8.0 * 100.0**3 * f.q**2 + 8.0 * f.p**2
    )
    ok = (
        closed > 0.0
        and 380.0 < closed < 400.0
        and rel <= 1e-8
        and chain.exact >= chain.bound1 - 1e-10 * chain_scale
        and abs(chain.bound1 - chain.bound2) <= 1e-10 * chain_scale
    )
    found = {}
    for alpha in (2.1, 2.5, 3.0, 5.0, 10.0):
        fa = find_violation(alpha)
        found[alpha] = violation_exact(fa)
        ok = ok and found[alpha] > 0.0
    _report(
        4,
        "alpha=3 violation positive, chain holds, search succeeds",
        ok,
        f"violation={closed:.4f} rel_vs_double_sum={rel:.2e} "
        f"found={{{', '.join(f'{a}: {v:.3g}' for a, v in found.items())}}}",
    )


def test_criterion_5_bernstein_gap_and_series():
    rng = np.random.default_rng(24681357)
    gap_failures = 0
    series_failures = 0
    worst_gap = math.inf
    worst_series = 0.0
    n_series = 0
    for _ in range(500):
        d = random_dist(rng, max_atoms=8, lo=-3.0, hi=3.0)
        g = random_bernstein(rng)
        r = bernstein_gap_exact(d, g)
        scale = r.e_plus + r.e_minus
        worst_gap = min(worst_gap, r.gap / scale if scale else 0.0)
        if r.gap < -1e-10 * scale:
            gap_failures += 1
        for t, _w in g.mu:
            res = elementary_gap_series(d, t)
            direct = expect_pair(
                d, lambda u, v: np.exp(-t * (u - v) ** 2) - np.exp(-t * (u + v) ** 2)
            )
            s_scale = expect_pair(
                d, lambda u, v: np.exp(-t * (u - v) ** 2) + np.exp(-t * (u + v) ** 2)
            )
            diff = abs(res.value - direct)
            n_series += 1
            worst_series = max(worst_series, diff / s_scale)
            # the truncation bound covers the series remainder; 1e-13*scale
            # covers double-precision roundoff of the two routes themselves
            if diff > res.truncation_bound + 1e-13 * s_scale or diff > 1e-10 * s_scale:
                series_failures += 1
    ok = gap_failures == 0 and series_failures == 0
    _report(
        5,
        "Bernstein gap nonnegative and series route agrees",
        ok,
        f"gap_failures={gap_failures}/500 series_failures={series_failures}/{n_series} "
        f"worst_gap_rel={worst_gap:.3e} worst_series_rel={worst_series:.3e}",
    )


def test_criterion_6_kernel_psd():
    rng = np.random.default_rng(1212121)
    min_rel = math.inf
    psd_failures = 0
    for _ in range(20):
        h, k = random_domain_params(rng)
        n = int(rng.integers(2, 33))
        pts = np.unique(rng.uniform(1e-3, 100.0, size=n))
        m = build_cov_matrix(validate_params(h, k), TimeGrid(tuple(pts)))
        v = check_psd(m, tol=1e-8)
        min_rel = min(min_rel, v.min_eig / m.scale)
        if not v.is_psd:
            psd_failures += 1
    forced = build_cov_matrix(BifParams(1.0, 2.0), TimeGrid((1.0, 2.0)))
    matrix_exact = bool(np.array_equal(forced.entries, [[1.0, 6.0], [6.0, 16.0]]))
    forced_verdict = check_psd(forced)
    det = float(np.linalg.det(forced.entries))
    ok = (
        psd_failures == 0
        and matrix_exact
        and not forced_verdict.is_psd
        and abs(det + 20.0) <= 1e-10 * 20.0
    )
    _report(
        6,
        "kernel PSD on domain, (1,2) forced matrix rejected",
        ok,
        f"sweep_failures={psd_failures}/20 worst_min_eig_rel={min_rel:.3e} "
        f"forced=[[1,6],[6,16]] det={det:.6f}",
    )


def test_criterion_7_sampling_calibration():
    t0 = time.perf_counter()
    ok = True
    details = []
    # variance law at (H, K) = (1/2, 0.8): Var B_t = t**0.8
    p = validate_params(0.5, 0.8)
    batch = sample_paths(p, TimeGrid((1.0, 2.0, 4.0)), 100_000, seed=31415)
    for j, t in enumerate((1.0, 2.0, 4.0)):
        x = batch.paths[:, j]
        var = x.var(ddof=1)
        se = np.std((x - x.mean()) ** 2, ddof=1) / np.sqrt(len(x))
        z = (var - t**0.8) / se
        ok = ok and abs(var - t**0.8) <= 4 * se
        details.append(f"var(t={t:g}) z={z:+.2f}")
    # covariance law at K = 1 matches the fBm closed form
    h = 0.7
    p1 = validate_params(h, 1.0)
    g = TimeGrid((1.0, 2.0, 4.0))
    batch1 = sample_paths(p1, g, 100_000, seed=27182)
    for i in range(3):
        for j in range(i, 3):
            prod = (batch1.paths[:, i] - batch1.paths[:, i].mean()) * (
                batch1.paths[:, j] - batch1.paths[:, j].mean()
            )
            emp = prod.mean()
            se = prod.std(ddof=1) / np.sqrt(len(prod))
            closed = 0.5 * (g[i] ** (2 * h) + g[j] ** (2 * h) - abs(g[i] - g[j]) ** (2 * h))
            assert closed == cov(p1, g[i], g[j])
            z = (emp - closed) / se
            ok = ok and abs(emp - closed) <= 4 * se
            details.append(f"cov({g[i]:g},{g[j]:g}) z={z:+.2f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _report(7, "sampling calibration within 4 SE", ok, f"{' '.join(details)} runtime={elapsed:.2f}s")


def test_criterion_8_supnorm_bound():
    rng = np.random.default_rng(55667788)
    failures = 0
    for i in range(200):
        d = mirrored_support_dist(rng) if i % 2 else random_dist(rng)
        b = supnorm_bound(d)
        symmetric_support = b.m_lo == -b.m_hi
        if symmetric_support:
            if b.lhs != b.rhs:
                failures += 1
        else:
            if not b.lhs < b.rhs:
                failures += 1
    _report(
        8,
        "sup-norm bound: equality iff support endpoints mirror",
        failures == 0,
        f"failures={failures}/200",
    )


def test_criterion_9_cli_determinism(tmp_path):
    d = tmp_path / "d.json"
    d.write_text(json.dumps({"atoms": [{"x": 0.0, "p": 0.5}, {"x": 1.0, "p": 0.5}]}))
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"a": 0.5, "b": 1.0, "mu": [{"t": 0.5, "w": 2.0}]}))
    commands = [
        ("cov", "--H", "0.5", "--K", "0.8", "--t", "1.5", "--s", "2.5"),
        ("psd-check", "--H", "0.5", "--K", "0.8", "--grid", "0.5:0.5:8"),
        ("gap", "-d", str(d), "--alpha", "1.3", "--route", "exact"),
        ("gap", "-d", str(d), "--alpha", "1", "--route", "mc", "--n", "100000", "--seed", "17"),
        ("counterexample", "--alpha", "2.5"),
        ("bernstein-gap", "-d", str(d), "-g", str(g)),
        ("series-check", "--x", "1.2", "--y", "-0.7", "--t", "0.9", "--n-terms", "25"),
    ]
    failures = []
    for cmd in commands:
        outs = []
        for _ in range(2):
            r = subprocess.run(
                [sys.executable, "-m", "bifrac", *cmd], capture_output=True
            )
            assert r.returncode == 0, r.stderr
            outs.append(r.stdout)
        if outs[0] != outs[1]:
            failures.append(cmd[0])
    # seeded sampling must reproduce the file byte for byte
    csvs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        r = subprocess.run(
            [
                sys.executable, "-m", "bifrac", "sample",
                "--H", "0.5", "--K", "1", "--grid", "0:0.25:9",
                "--m", "20", "--seed", "404", "--out", str(out),
            ],
            capture_output=True,
        )
        assert r.returncode == 0, r.stderr
        csvs.append(out.read_bytes())
    if csvs[0] != csvs[1]:
        failures.append("sample")
    _report(
        9,
        "seeded commands byte-identical across runs",
        not failures,
        f"checked={len(commands) + 1} failures={failures or 'none'}",
    )
