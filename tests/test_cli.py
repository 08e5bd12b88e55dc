import json
import math
import subprocess
import sys

import pytest

from bifrac import (
    BifracError,
    DegenerateFamilyError,
    DiscreteDist,
    InequalityViolationError,
    InsufficientSamplesError,
    InvalidInputError,
    NegativeArgumentError,
    NegativeTimeError,
    NonFiniteError,
    NotPSDError,
    NumericalFailureError,
    OutOfDomainError,
    SearchExhaustedError,
    dist_to_json,
)
import bifrac.inequality
from bifrac import cli
from bifrac.cli import main, render_json

from _support import strict_json


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "bifrac", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


@pytest.fixture
def dist_file(tmp_path):
    d = DiscreteDist([(0.0, 0.5), (1.0, 0.5)])
    path = tmp_path / "d.json"
    path.write_text(json.dumps(dist_to_json(d)))
    return str(path)


@pytest.fixture
def symmetric_dist_file(tmp_path):
    d = DiscreteDist([(-2.0, 0.5), (2.0, 0.5)])
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(dist_to_json(d)))
    return str(path)


class TestRenderJson:
    def test_seventeen_digits(self):
        assert render_json(1.0) == "1"
        assert render_json(1 / 3) == "0.33333333333333331"
        assert render_json({"a": True, "b": None, "c": [1.5, "x"]}) == (
            '{"a": true, "b": null, "c": [1.5, "x"]}'
        )

    def test_round_trips(self):
        for v in (0.1, 2.0**0.8, -1e-17, 123456.789):
            assert json.loads(render_json(v)) == v

    def test_non_finite_is_null(self):
        assert render_json([math.inf, -math.inf, math.nan, 1.0]) == "[null, null, null, 1]"


class TestCov:
    def test_brownian(self):
        r = run_cli("cov", "--H", "0.5", "--K", "1", "--t", "1", "--s", "2")
        assert r.returncode == 0
        assert r.stdout.strip() == "1"

    def test_force_allows_out_of_domain(self):
        r = run_cli("cov", "--H", "1", "--K", "2", "--t", "1", "--s", "1", "--force")
        assert r.returncode == 0
        assert r.stdout.strip() == "1"  # t^{2HK} = 1
        assert "warning" in r.stderr

    def test_overflow_exits_2(self, capsys):
        assert main(["cov", "--H", "1", "--K", "1", "--t", "1e200", "--s", "1e200"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_out_of_domain_without_force(self):
        r = run_cli("cov", "--H", "1", "--K", "2", "--t", "1", "--s", "1")
        assert r.returncode == 2

    def test_structurally_invalid_even_with_force(self):
        r = run_cli("cov", "--H", "0", "--K", "1", "--t", "1", "--s", "1", "--force")
        assert r.returncode == 2


class TestPsdCheck:
    def test_valid_params_psd(self):
        r = run_cli("psd-check", "--H", "0.5", "--K", "1", "--grid", "1:1:5")
        assert r.returncode == 0
        out = json.loads(r.stdout)
        assert out["psd"] is True

    def test_forced_not_psd(self):
        r = run_cli("psd-check", "--H", "1", "--K", "2", "--grid", "1:1:2", "--force")
        assert r.returncode == 0
        out = json.loads(r.stdout)
        assert out["psd"] is False
        assert out["min_eig"] < 0

    def test_nan_tol_exits_2(self, capsys):
        assert main(["psd-check", "--H", "0.5", "--K", "1", "--grid", "1:1:5", "--tol", "nan"]) == 2
        assert capsys.readouterr().out == ""

    def test_refused_without_force(self):
        r = run_cli("psd-check", "--H", "1", "--K", "2", "--grid", "1:1:2")
        assert r.returncode == 2

    def test_grid_past_any_array_exits_2(self):
        # 10**20 points are refused before any is built.  The child's
        # address space is capped, so a grid that grew would end in
        # MemoryError rather than take the host's memory.
        import resource

        cap = 1 << 30
        r = run_cli(
            "psd-check", "--H", "0.5", "--K", "1", "--grid", "0:1:100000000000000000000",
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        assert (r.returncode, r.stdout, r.stderr) == (2, "", "error: count exceeds the largest array\n")


class TestSample:
    def test_writes_csv_with_zero_column(self, tmp_path):
        out = tmp_path / "paths.csv"
        r = run_cli(
            "sample", "--H", "0.5", "--K", "1", "--grid", "0:1:4",
            "--m", "10", "--seed", "7", "--out", str(out),
        )
        assert r.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t_0,t_1,t_2,t_3"
        assert len(lines) == 11
        assert all(line.split(",")[0] == "0" for line in lines[1:])

    def test_underflowed_covariance_writes_zero_paths(self, tmp_path):
        # psd-check calls this grid PSD with min_eig 0: cov = t*s underflows.
        out = tmp_path / "paths.csv"
        r = run_cli(
            "sample", "--H", "1", "--K", "1", "--grid", "1e-300:1e-300:4",
            "--m", "3", "--seed", "1", "--out", str(out),
        )
        assert r.returncode == 0, r.stderr
        assert out.read_text().splitlines() == ["t_0,t_1,t_2,t_3"] + ["0,0,0,0"] * 3

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("sample", "--H", "0.3", "--K", "1.5", "--grid", "0.5:0.5:6", "--m", "5", "--seed", "99")
        assert run_cli(*args, "--out", str(a)).returncode == 0
        assert run_cli(*args, "--out", str(b)).returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_out_of_domain_exits_2(self, tmp_path):
        r = run_cli(
            "sample", "--H", "1", "--K", "2", "--grid", "1:1:3",
            "--m", "2", "--seed", "0", "--out", str(tmp_path / "x.csv"),
        )
        assert r.returncode == 2

    def test_bad_grid_spec_exits_2(self, tmp_path):
        r = run_cli(
            "sample", "--H", "0.5", "--K", "1", "--grid", "1:0:3",
            "--m", "2", "--seed", "0", "--out", str(tmp_path / "x.csv"),
        )
        assert r.returncode == 2


class TestGap:
    def test_exact_route(self, dist_file):
        r = run_cli("gap", "-d", dist_file, "--alpha", "1", "--route", "exact")
        assert r.returncode == 0
        out = json.loads(r.stdout)
        assert out["gap"] == 0.5 and out["route"] == "exact"

    def test_tail_route_matches_exact(self, dist_file):
        r1 = json.loads(run_cli("gap", "-d", dist_file, "--alpha", "1", "--route", "exact").stdout)
        r2 = json.loads(run_cli("gap", "-d", dist_file, "--alpha", "1", "--route", "tail").stdout)
        assert r1["gap"] == r2["gap"]

    @pytest.mark.parametrize("alpha", ["inf", "nan"])
    @pytest.mark.parametrize(
        "atoms", [[(0.1, 0.5), (0.2, 0.5)], [(0.0, 0.5), (1.0, 0.5)]], ids=["small_atoms", "atom_at_zero"]
    )
    def test_exact_route_rejects_non_finite_alpha(self, tmp_path, atoms, alpha):
        # At alpha = inf the small atoms printed "alpha": null and exited 0.
        path = tmp_path / "d.json"
        path.write_text(json.dumps(dist_to_json(DiscreteDist(atoms))))
        r = run_cli("gap", "-d", str(path), "--alpha", alpha, "--route", "exact")
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr.startswith("error: alpha must be finite")

    def test_tail_requires_alpha_one(self, dist_file):
        r = run_cli("gap", "-d", dist_file, "--alpha", "1.5", "--route", "tail")
        assert r.returncode == 2

    def test_variance_route_symmetric(self, symmetric_dist_file):
        r = run_cli("gap", "-d", symmetric_dist_file, "--alpha", "1.5", "--route", "variance")
        assert r.returncode == 0
        out = json.loads(r.stdout)
        assert abs(out["gap"]) <= 1e-12

    @pytest.mark.parametrize("route", ["exact", "variance"])
    def test_overflow_before_weighting(self, tmp_path, capsys, route):
        # (2e154)**2 overflows, but E|X+Y|**2 = 2e298 + 2e288 does not
        path = tmp_path / "big.json"
        path.write_text(json.dumps(dist_to_json(DiscreteDist([(1e154, 1e-10), (0.0, 1 - 1e-10)]))))
        assert main(["gap", "-d", str(path), "--alpha", "2", "--route", route]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["e_plus"] == pytest.approx(2e298 + 2e288, rel=1e-12)
        path.write_text(json.dumps(dist_to_json(DiscreteDist([(1e160, 0.5), (2e160, 0.5)]))))
        assert main(["gap", "-d", str(path), "--alpha", "2", "--route", route]) == 2
        assert capsys.readouterr().out == ""

    def test_mc_route(self, dist_file):
        r = run_cli(
            "gap", "-d", dist_file, "--alpha", "1", "--route", "mc", "--n", "50000", "--seed", "4"
        )
        assert r.returncode == 0
        out = json.loads(r.stdout)
        assert out["n"] == 50000
        assert abs(out["gap"] - 0.5) <= 4 * out["stderr"]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_mc_overflow_exits_2(self, tmp_path, workers):
        # E|X+Y|**2 is about 9e320, past double range; two chunks, so
        # workers=2 starts a helper thread.
        path = tmp_path / "big.json"
        path.write_text(json.dumps(dist_to_json(DiscreteDist([(1e160, 0.5), (2e160, 0.5)]))))
        n = str(bifrac.inequality.MC_CHUNK + 1000)
        r = run_cli("gap", "-d", str(path), "--alpha", "2", "--route", "mc", "--n", n, "--seed", "1",
                    "--workers", workers)
        assert r.returncode == 2
        assert r.stdout == ""
        assert "Warning" not in r.stderr

    @pytest.mark.parametrize("n", [1000, bifrac.inequality.MC_CHUNK + 1000])
    def test_mc_atoms_near_dbl_max(self, tmp_path, n):
        # x + y and x - y overflow, but every moment is finite: the pairs are
        # drawn from the rescaled law, as the exact route evaluates them.
        path = tmp_path / "big.json"
        path.write_text(json.dumps(dist_to_json(DiscreteDist([(-1.5e308, 0.5), (1.6e308, 0.5)]))))
        args = ("gap", "-d", str(path), "--alpha", "1", "--route", "mc", "--n", str(n), "--seed", "1")
        runs = [run_cli(*args, "--workers", w) for w in ("1", "2")]
        assert [r.returncode for r in runs] == [0, 0], runs[0].stderr
        assert runs[0].stdout == runs[1].stdout
        out = json.loads(runs[0].stdout)
        assert all(math.isfinite(out[k]) for k in ("e_plus", "e_minus", "gap", "stderr"))
        exact = json.loads(run_cli(*args[:5], "--route", "exact").stdout)
        assert out["e_plus"] == pytest.approx(exact["e_plus"], rel=0.1)

    def test_mc_requires_n(self, dist_file):
        r = run_cli("gap", "-d", dist_file, "--alpha", "1", "--route", "mc", "--seed", "4")
        assert r.returncode == 2

    def test_mc_seed_from_env(self, dist_file, tmp_path):
        import os

        env = dict(os.environ, BIFRAC_SEED="4")
        r_env = run_cli("gap", "-d", dist_file, "--alpha", "1", "--route", "mc", "--n", "1000", env=env)
        r_arg = run_cli("gap", "-d", dist_file, "--alpha", "1", "--route", "mc", "--n", "1000", "--seed", "4")
        assert r_env.returncode == 0
        assert r_env.stdout == r_arg.stdout

    def test_mc_without_any_seed(self, dist_file):
        import os

        env = {k: v for k, v in os.environ.items() if k != "BIFRAC_SEED"}
        r = run_cli("gap", "-d", dist_file, "--alpha", "1", "--route", "mc", "--n", "1000", env=env)
        assert r.returncode == 2

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        r = run_cli("gap", "-d", str(bad), "--alpha", "1", "--route", "exact")
        assert r.returncode == 2

    def test_wrong_value_types_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"atoms": [{"x": None, "p": 1.0}]}))
        r = run_cli("gap", "-d", str(bad), "--alpha", "1", "--route", "exact")
        assert r.returncode == 2

    def test_string_number_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"atoms": [{"x": "1.5", "p": 1.0}]}))
        assert main(["gap", "-d", str(bad), "--alpha", "1", "--route", "exact"]) == 2
        assert capsys.readouterr().err.startswith('error: "x" must be a JSON number')

    def test_missing_file_exits_2(self, tmp_path):
        r = run_cli("gap", "-d", str(tmp_path / "none.json"), "--alpha", "1", "--route", "exact")
        assert r.returncode == 2

    def test_negative_variance_exits_3(self, monkeypatch, capsys, dist_file):
        rows = bifrac.kernel._cov_rows
        monkeypatch.setattr(bifrac.kernel, "_cov_rows", lambda p, ts: lambda lo, hi, work: -rows(p, ts)(lo, hi, work))
        assert main(["gap", "-d", dist_file, "--alpha", "1", "--route", "variance"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Var of kernel functional")

    def test_workers_do_not_change_output(self, dist_file):
        base = run_cli(
            "gap", "-d", dist_file, "--alpha", "1", "--route", "mc",
            "--n", "200000", "--seed", "5",
        )
        multi = run_cli(
            "gap", "-d", dist_file, "--alpha", "1", "--route", "mc",
            "--n", "200000", "--seed", "5", "--workers", "4",
        )
        assert base.stdout == multi.stdout


class TestCounterexampleCmd:
    def test_alpha_three(self):
        r = run_cli("counterexample", "--alpha", "3")
        assert r.returncode == 0
        out = json.loads(r.stdout)
        assert out["violation"] > 0
        assert out["c"] == 0.75
        assert out["threshold"] == 1.5
        assert out["below_threshold"] is True
        assert out["bound1"] == out["bound2"]

    def test_alpha_two_exits_2(self):
        assert run_cli("counterexample", "--alpha", "2").returncode == 2

    def test_alpha_just_above_two(self):
        out = json.loads(run_cli("counterexample", "--alpha", "2.1").stdout)
        assert out["violation"] > 0


class TestBernsteinGapCmd:
    def test_square_function(self, dist_file, tmp_path):
        g = tmp_path / "g.json"
        g.write_text(json.dumps({"a": 0.0, "b": 1.0, "mu": []}))
        r = run_cli("bernstein-gap", "-d", dist_file, "-g", str(g))
        assert r.returncode == 0
        out = json.loads(r.stdout)
        assert out["gap"] == 1.0
        assert out["alpha"] is None

    def test_constant_function(self, dist_file, tmp_path):
        g = tmp_path / "g.json"
        g.write_text(json.dumps({"a": 2.0, "b": 0.0, "mu": []}))
        out = json.loads(run_cli("bernstein-gap", "-d", dist_file, "-g", str(g)).stdout)
        assert out["gap"] == 0.0

    def test_huge_atoms_with_b_zero(self, tmp_path, capsys):
        # (2e199)**2 overflows in F, but with b = 0 F stays below a + sum(w)
        d = tmp_path / "d.json"
        d.write_text(json.dumps(dist_to_json(DiscreteDist([(3e200, 0.3), (-1e199, 0.3), (1.0, 0.4)]))))
        g = tmp_path / "g.json"
        g.write_text(json.dumps({"a": 0.5, "b": 0.0, "mu": [{"t": 0.7, "w": 1.2}, {"t": 1e-3, "w": 0.4}]}))
        assert main(["bernstein-gap", "-d", str(d), "-g", str(g)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["e_plus"], out["e_minus"]) == (2.0245799566579428, 1.556)

    @pytest.mark.parametrize(
        "atoms,g,gap",
        [
            ([(0.0, 0.5), (1.0, 0.5)], {"a": 0, "b": 0, "mu": [{"t": 1e308, "w": 1}]}, 0.25),
            ([(-1e-150, 0.5), (1e-150, 0.5)], {"a": 0, "b": 1e308}, 0.0),
        ],
        ids=["t", "b"],
    )
    def test_coefficient_past_quarter_dbl_max(self, tmp_path, capsys, atoms, g, gap):
        # 4*t or 4*b overflows alone, but not against uv = 0
        d = tmp_path / "d.json"
        d.write_text(json.dumps(dist_to_json(DiscreteDist(atoms))))
        (tmp_path / "g.json").write_text(json.dumps(g))
        assert main(["bernstein-gap", "-d", str(d), "-g", str(tmp_path / "g.json")]) == 0
        out, err = capsys.readouterr()
        assert strict_json(out)["gap"] == gap
        assert err == ""

    def test_e_plus_past_double_range_exits_2(self, tmp_path):
        # F = a = DBL_MAX on every pair: each term is finite, e_plus is not.
        d = tmp_path / "d.json"
        d.write_text(json.dumps(dist_to_json(DiscreteDist([(float(x), 0.2) for x in range(5)]))))
        g = tmp_path / "g.json"
        g.write_text(json.dumps({"a": sys.float_info.max, "b": 0, "mu": []}))
        r = run_cli("bernstein-gap", "-d", str(d), "-g", str(g))
        assert r.returncode == 2
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1

    def test_malformed_bernstein_exits_2(self, dist_file, tmp_path):
        g = tmp_path / "g.json"
        g.write_text(json.dumps({"a": -1.0, "b": 0.0}))
        assert run_cli("bernstein-gap", "-d", dist_file, "-g", str(g)).returncode == 2


class TestSeriesCheckCmd:
    def test_basic(self):
        r = run_cli("series-check", "--x", "1", "--y", "1", "--t", "0.5", "--n-terms", "30")
        assert r.returncode == 0
        out = json.loads(r.stdout)
        assert out["lhs"] == pytest.approx(1.0 - math.exp(-2.0), rel=1e-15)
        assert abs(out["lhs"] - out["rhs_partial"]) <= out["remainder_bound"] + 1e-15

    def test_infinite_remainder_bound_is_null(self):
        r = run_cli("series-check", "--x", "10", "--y", "10", "--t", "1", "--n-terms", "3")
        assert r.returncode == 0
        out = strict_json(r.stdout)
        assert out["remainder_bound"] is None
        assert out["lhs"] == 1.0

    def test_billion_terms_stop_early(self):
        # every term past the first hundred or so is 0.0
        args = ["series-check", "--x", "1", "--y", "1", "--t", "0.5", "--n-terms"]
        r = subprocess.run(
            [sys.executable, "-m", "bifrac", *args, "1000000000"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert r.returncode == 0
        out = strict_json(r.stdout)
        assert out == {**strict_json(run_cli(*args, "1000").stdout), "remainder_bound": 0.0}

    def test_bad_t_exits_2(self):
        assert run_cli("series-check", "--x", "1", "--y", "1", "--t", "0", "--n-terms", "5").returncode == 2

    @pytest.mark.parametrize("x", ["1e8", "1e77"])
    def test_peak_past_2_53_exits_2(self, x):
        # The walk would start at n = |xy| > 2**53, where the float term
        # index no longer changes, and never meet a 0.0.
        args = ["series-check", "--x", x, "--y", x, "--t", "1", "--n-terms", str(10**200)]
        r = subprocess.run(
            [sys.executable, "-m", "bifrac", *args], capture_output=True, text=True, timeout=60
        )
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr.startswith("error: the series peak n = ")

    def test_nan_x_exits_2(self, capsys):
        assert main(["series-check", "--x", "nan", "--y", "1", "--t", "1", "--n-terms", "3"]) == 2
        assert capsys.readouterr().out == ""


class TestImportCost:
    def test_cli_import_leaves_out_thread_pool(self):
        # gap_mc starts plain threads: concurrent.futures (and logging with
        # it) never loads, here or in any subcommand (below).
        code = "import sys, bifrac.cli; print('concurrent.futures' in sys.modules)"
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "False"

    def test_import_leaves_out_numpy_random(self):
        # numpy.random (about 16 ms) loads with the first generator or sampler.
        code = "import sys, bifrac.cli; print('numpy.random' in sys.modules)"
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "False"

    # Every bifrac module a subcommand loads beyond bifrac, cli, errors and
    # dists.  So `gap` never loads gpsim, bernstein or counterexample,
    # kernel only on the variance route and _guide only on the mc route,
    # `cov`, `psd-check` and `sample`
    # never load inequality, bernstein or counterexample, and `bernstein-gap`
    # and `series-check` never load kernel.
    GAP = {"inequality", "_rng"}
    GRID = {"gpsim", "kernel", "_rng"}
    BERNSTEIN = {"bernstein", "inequality", "_rng"}

    @pytest.mark.parametrize(
        "argv,modules",
        [
            pytest.param("cov --H 0.5 --K 1 --t 1 --s 2", {"kernel"}, id="cov"),
            pytest.param("psd-check --H 1 --K 2 --grid 1:1:2 --force", GRID, id="psd-check"),
            pytest.param(
                "sample --H 0.5 --K 1 --grid 0:1:4 --m 3 --seed 7 --out {tmp}/p.csv", GRID, id="sample"
            ),
            pytest.param("gap -d {dist} --alpha 1 --route exact", GAP, id="gap-exact"),
            pytest.param("gap -d {dist} --alpha 1 --route tail", GAP, id="gap-tail"),
            pytest.param("gap -d {dist} --alpha 1.5 --route variance", GAP | {"kernel"}, id="gap-variance"),
            pytest.param(
                "gap -d {dist} --alpha 1 --route mc --n 140000 --seed 1 --workers 2",
                GAP | {"_guide"},
                id="gap-mc",
            ),
            pytest.param("counterexample --alpha 3", {"counterexample"}, id="counterexample"),
            pytest.param("bernstein-gap -d {dist} -g {tmp}/g.json", BERNSTEIN, id="bernstein-gap"),
            pytest.param("series-check --x 1 --y 1 --t 0.5 --n-terms 5", BERNSTEIN, id="series-check"),
        ],
    )
    def test_subcommand_loads_only_its_modules(self, tmp_path, dist_file, argv, modules):
        (tmp_path / "g.json").write_text('{"a": 0.0, "b": 1.0, "mu": [{"t": 0.5, "w": 2.0}]}')
        args = argv.format(dist=dist_file, tmp=tmp_path).split()
        r = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "bifrac", *args], capture_output=True, text=True
        )
        assert r.returncode == 0, r.stderr
        loaded = {
            line.rsplit("|", 1)[1].strip()
            for line in r.stderr.splitlines()
            if line.startswith("import time:") and "[us]" not in line
        }
        expected = {"bifrac", "bifrac.cli", "bifrac.dists", "bifrac.errors"}
        assert {m for m in loaded if m.split(".")[0] == "bifrac"} == expected | {
            f"bifrac.{m}" for m in modules
        }
        # The command line is parsed without argparse and what it imports,
        # and gap_mc's threads need no concurrent.futures or logging.
        assert not loaded & {"argparse", "gettext", "locale", "concurrent.futures", "logging"}
        # json loads only for a command that reads or writes JSON.
        assert ("json" in loaded) == (args[0] not in {"cov", "sample"})


# Each argv with the namespace the argparse parser of earlier releases
# returned for it; the parser must return the same attributes and types.
PARSED = [
    ("cov --H 0.5 --K 1 --t 1 --s 2", {"command": "cov", "H": 0.5, "K": 1.0, "t": 1.0, "s": 2.0, "force": False}),
    ("cov --H=0.5 --K=1 --t=-1 --s=2 --force", {"command": "cov", "H": 0.5, "K": 1.0, "t": -1.0, "s": 2.0, "force": True}),
    ("cov --force --s 2 --t 1 --K 1 --H 0.5 --H 0.25", {"command": "cov", "H": 0.25, "K": 1.0, "t": 1.0, "s": 2.0, "force": True}),
    ("psd-check --H 0.5 --K 1 --grid 1:1:5", {"command": "psd-check", "H": 0.5, "K": 1.0, "grid": "1:1:5", "tol": 1e-08, "force": False}),
    ("psd-check --H 0.5 --K 1 --grid 0:0.5:3 --tol nan --force", {"command": "psd-check", "H": 0.5, "K": 1.0, "grid": "0:0.5:3", "tol": math.nan, "force": True}),
    ("psd-check --H 0.5 --K 1 --grid 0:0.5:3 --tol 1e-8", {"command": "psd-check", "H": 0.5, "K": 1.0, "grid": "0:0.5:3", "tol": 1e-08, "force": False}),
    ("psd-check --H 0.5 --K 1 --grid 0:0.5:3 --to=-.5", {"command": "psd-check", "H": 0.5, "K": 1.0, "grid": "0:0.5:3", "tol": -0.5, "force": False}),
    ("sample --H 0.5 --K 1 --grid 0:1:4 --m 10 --seed 7 --out p.csv", {"command": "sample", "H": 0.5, "K": 1.0, "grid": "0:1:4", "m": 10, "seed": 7, "out": "p.csv"}),
    ("sample --H 0.5 --K 1 --grid 0:1:4 --m 10 --out p.csv", {"command": "sample", "H": 0.5, "K": 1.0, "grid": "0:1:4", "m": 10, "seed": None, "out": "p.csv"}),
    ("sample --H 0.5 --K 1 --gr 0:1:4 --m 3 --se -7 --o p.csv", {"command": "sample", "H": 0.5, "K": 1.0, "grid": "0:1:4", "m": 3, "seed": -7, "out": "p.csv"}),
    ("sample --H 0.5 --K 1 --grid 0:1:4 --m 3 --s 1 --out p.csv", {"command": "sample", "H": 0.5, "K": 1.0, "grid": "0:1:4", "m": 3, "seed": 1, "out": "p.csv"}),
    ("gap -d d.json --alpha 1 --route exact", {"command": "gap", "dist": "d.json", "alpha": 1.0, "route": "exact", "n": None, "seed": None, "workers": 1}),
    ("gap --dist d.json --alpha 1.5 --route mc --n 1000000 --seed 1 --workers 4", {"command": "gap", "dist": "d.json", "alpha": 1.5, "route": "mc", "n": 1000000, "seed": 1, "workers": 4}),
    ("gap --dist=a.json -d b.json --alpha=2 --route=tail --route variance", {"command": "gap", "dist": "b.json", "alpha": 2.0, "route": "variance", "n": None, "seed": None, "workers": 1}),
    ("gap --di d.json --al 3 --ro mc --n 5 --se 3 --w 2", {"command": "gap", "dist": "d.json", "alpha": 3.0, "route": "mc", "n": 5, "seed": 3, "workers": 2}),
    ("gap -d d.json --alpha -1 --route exact", {"command": "gap", "dist": "d.json", "alpha": -1.0, "route": "exact", "n": None, "seed": None, "workers": 1}),
    ("gap -dd.json --alpha 1 --route exact", {"command": "gap", "dist": "d.json", "alpha": 1.0, "route": "exact", "n": None, "seed": None, "workers": 1}),
    ("gap -d=d.json --alpha 1 --route exact", {"command": "gap", "dist": "d.json", "alpha": 1.0, "route": "exact", "n": None, "seed": None, "workers": 1}),
    ("gap -d - --alpha 1 --route exact", {"command": "gap", "dist": "-", "alpha": 1.0, "route": "exact", "n": None, "seed": None, "workers": 1}),
    ("counterexample --alpha 3", {"command": "counterexample", "alpha": 3.0}),
    ("counterexample --alpha inf", {"command": "counterexample", "alpha": math.inf}),
    ("bernstein-gap -d d.json -g g.json", {"command": "bernstein-gap", "dist": "d.json", "bernstein": "g.json"}),
    ("bernstein-gap --bernstein g.json --dist d.json -g h.json", {"command": "bernstein-gap", "dist": "d.json", "bernstein": "h.json"}),
    ("series-check --x 1 --y -1.82148 --t 0.5 --n-terms 30", {"command": "series-check", "x": 1.0, "y": -1.82148, "t": 0.5, "n_terms": 30}),
    ("series-check --x nan --y 1e-8 --t 1E3 --n-terms 1000000000", {"command": "series-check", "x": math.nan, "y": 1e-08, "t": 1000.0, "n_terms": 1000000000}),
    ("series-check --x 1 --y 1 --t 0.5 --n 7", {"command": "series-check", "x": 1.0, "y": 1.0, "t": 0.5, "n_terms": 7}),
    ("series-check --x 1 --y 1 --t 0.5 --n-terms=007", {"command": "series-check", "x": 1.0, "y": 1.0, "t": 0.5, "n_terms": 7}),
    ("series-check --x 1 --y 1 --t 0.5 --n-terms -3", {"command": "series-check", "x": 1.0, "y": 1.0, "t": 0.5, "n_terms": -3}),
]

# Options of each subcommand, as its -h lists them.
OPTIONS = {
    "cov": ["--H", "--K", "--t", "--s", "--force"],
    "psd-check": ["--H", "--K", "--grid", "--tol", "--force"],
    "sample": ["--H", "--K", "--grid", "--m", "--seed", "--out"],
    "gap": ["-d", "--dist", "--alpha", "--route", "--n", "--seed", "--workers"],
    "counterexample": ["--alpha"],
    "bernstein-gap": ["-d", "--dist", "-g", "--bernstein"],
    "series-check": ["--x", "--y", "--t", "--n-terms"],
}


class TestParseArgs:
    @pytest.mark.parametrize("argv,expected", PARSED, ids=[argv for argv, _ in PARSED])
    def test_accepted(self, argv, expected):
        # repr tells 1 from 1.0 and matches nan to nan
        got = vars(cli.parse_args(argv.split()))
        assert {k: repr(v) for k, v in got.items()} == {k: repr(v) for k, v in expected.items()}

    def test_negative_exponent_and_inf_are_values(self):
        # argparse took only -digits[.digits] as a value, and refused these.
        got = cli.parse_args("series-check --x -1e-8 --y -inf --t 1 --n-terms 3".split())
        assert (got.x, got.y) == (-1e-8, -math.inf)

    @pytest.mark.parametrize(
        "argv,message",
        [
            ("cov --H 1 --K 1 --t 1", "the following arguments are required: --s"),
            ("gap --alpha 1 --route exact", "the following arguments are required: -d/--dist"),
            ("cov --H 1 --K 1 --t 1 --s 1 --bogus", "unrecognized arguments: --bogus"),
            ("cov --H 1 --K 1 --t 1 --s 1 extra", "unrecognized arguments: extra"),
            ("cov --H 1 --K 1 --t 1 --s 1 --", "unrecognized arguments: --"),
            ("cov --H 1 --K 1 --t 1 --s 1 --force=1", "argument --force: ignored explicit argument '1'"),
            ("cov --H x --K 1 --t 1 --s 1", "argument --H: invalid float value: 'x'"),
            ("sample --H 0.5 --K 1 --grid 0:1:4 --m 1.5 --out p.csv", "argument --m: invalid int value: '1.5'"),
            ("gap -d d.json --alpha 1 --route fast", "argument --route: invalid choice: 'fast'"),
            ("gap -d d.json --alpha 1 --rou ex", "argument --route: invalid choice: 'ex'"),
            ("gap -d d.json --alpha 1 --route", "argument --route: expected one argument"),
            ("gap -d -x.json --alpha 1 --route exact", "argument -d/--dist: expected one argument"),
            ("", "the following arguments are required: command"),
            ("nope", "argument command: invalid choice: 'nope'"),
            ("co --H 1", "argument command: invalid choice: 'co'"),
        ],
    )
    def test_rejected(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: bifrac")
        assert message in err.splitlines()[-1]

    def test_top_level_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: bifrac")
        assert all(f"  {command} " in out for command in OPTIONS)
        # The exit codes are listed; notes on the code behind them are not.
        for line in ("0  success", "2  input or domain error", "3  an inequality nonnegativity",
                     "4  numerical factorization failure", "5  violation search exhausted"):
            assert line in out
        for note in ("_COMMANDS", "gc.freeze", "garbage collector", "imports"):
            assert note not in out

    @pytest.mark.parametrize("command", OPTIONS)
    @pytest.mark.parametrize("flag", ["-h", "--help", "--he"])
    def test_command_help(self, capsys, command, flag):
        # Help wins over the required options that are missing.
        with pytest.raises(SystemExit) as exc:
            main([command, flag])
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith(f"usage: bifrac {command} [-h]") and err == ""
        listed = set(out.replace(",", " ").split())
        assert set(OPTIONS[command]) <= listed


class TestInProcessMain:
    def test_main_returns_exit_code(self, capsys, dist_file):
        assert main(["gap", "-d", dist_file, "--alpha", "1", "--route", "exact"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["gap"] == 0.5

    def test_main_domain_error(self, capsys):
        assert main(["cov", "--H", "1", "--K", "2", "--t", "1", "--s", "1"]) == 2


class TestExitCodes:
    """Every exception family reaching ``main`` maps to its documented code."""

    @pytest.mark.parametrize(
        "exc,code",
        [
            (InequalityViolationError("gap below tolerance"), 3),
            (NotPSDError("factorization failed"), 4),
            (NumericalFailureError("eigvalsh failed"), 4),
            (SearchExhaustedError("cap reached"), 5),
            (BifracError("generic"), 2),
            (OutOfDomainError("K <= 2"), 2),
            (NonFiniteError("nan"), 2),
            (NegativeTimeError("t < 0"), 2),
            (NegativeArgumentError("r < 0"), 2),
            (DegenerateFamilyError("one atom"), 2),
            (InsufficientSamplesError("n < 2"), 2),
            (InvalidInputError("malformed input"), 2),
            (OSError("no such file"), 2),
            (FileNotFoundError("missing.json"), 2),
            (MemoryError("Unable to allocate 7.28 PiB"), 2),
        ],
        ids=lambda v: type(v).__name__ if isinstance(v, BaseException) else str(v),
    )
    def test_exception_maps_to_code(self, monkeypatch, capsys, exc, code):
        def fail(args):
            raise exc

        monkeypatch.setattr(cli, "_cmd_series_check", fail)
        argv = ["series-check", "--x", "1", "--y", "1", "--t", "1", "--n-terms", "1"]
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_other_exceptions_propagate(self, monkeypatch):
        def fail(args):
            raise RuntimeError("a defect, not an input error")

        monkeypatch.setattr(cli, "_cmd_series_check", fail)
        with pytest.raises(RuntimeError):
            main(["series-check", "--x", "1", "--y", "1", "--t", "1", "--n-terms", "1"])

    @pytest.mark.parametrize(
        "exc",
        [ValueError("bad value"), TypeError("bad type"), OverflowError("too large")],
        ids=lambda v: type(v).__name__,
    )
    def test_builtin_exception_propagates(self, monkeypatch, exc):
        # The library raises only BifracError subclasses, so a bare builtin
        # reaching main is a defect too, and must not be reported as an
        # input error.
        def fail(args):
            raise exc

        monkeypatch.setattr(cli, "_cmd_series_check", fail)
        with pytest.raises(type(exc)):
            main(["series-check", "--x", "1", "--y", "1", "--t", "1", "--n-terms", "1"])

    def test_malformed_json_file_maps_to_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{x")
        assert main(["gap", "-d", str(bad), "--alpha", "1", "--route", "exact"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: malformed JSON: Expecting property name")
