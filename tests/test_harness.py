"""Config round-trips, experiment orchestration, emission and the CLI."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ergorate
from ergorate import errors, harness, sharpness
from ergorate.arithmetic import CLASSIFY_MAX_K
from ergorate.cli import main as cli_main
from ergorate.dynamics import GridSweep
from ergorate.errors import ConfigError, Timeout, Uncertified, deadline, tick
from ergorate.harness import (KERNEL_MAX_Q, ExperimentConfig, emit_csv,
                              emit_json, json_text,
                              resolve_observable, resolve_schedule,
                              resolve_system, run_approx_experiment,
                              run_kernel_experiment, run_rate_experiment,
                              run_sharpness_experiment, run_skew_experiment)


KERNEL_RUN = {"frequencies": ["golden", "pq:rule:index"],
              "n_values": [1000, 100000], "max_q": 317811}
SKEW_RUN = {"d": 2, "frequency": "golden", "k": [1, 0],
            "n_values": [1000, 3162, 10000, 31623, 100000], "x_batch": 4}
# one small run of each kind
SMALL_RUNS = {
    "rate": (run_rate_experiment, {"system": "rotation1d:golden",
                                   "observable": "cos", "schedule": "list:100",
                                   "grid": 64}),
    "kernel": (run_kernel_experiment, {"frequencies": ["golden"],
                                       "n_values": [100], "max_q": 300}),
    "sharp": (run_sharpness_experiment, {"frequency": "pq:rule:spike:7,1000",
                                         "alpha": 0.5, "m_values": [6]}),
    "skew": (run_skew_experiment, dict(SKEW_RUN, n_values=[100])),
    "approx": (run_approx_experiment, {"n_values": [16]}),
}


def _strict_json(text: str):
    """json.loads that rejects the NaN / Infinity tokens JSON does not have."""

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("kind", sorted(SMALL_RUNS))
@pytest.mark.parametrize("budget", ["abc", math.nan, 0.0, -1.0, math.inf, True])
def test_bad_budget_fails_at_the_boundary(kind, budget):
    # "abc" died with a TypeError traceback, NaN turned the budget off
    run, values = SMALL_RUNS[kind]
    with pytest.raises(ConfigError, match="budget_s"):
        run(ExperimentConfig(dict(values, budget_s=budget)))


@pytest.mark.parametrize("kind", sorted(SMALL_RUNS))
@pytest.mark.parametrize("bits", [200.7, 63, True, "256"])
def test_bad_precision_fails_at_the_boundary(kind, bits):
    # 200.7 ran silently at 200 bits
    run, values = SMALL_RUNS[kind]
    with pytest.raises(ConfigError, match="precision_bits"):
        run(ExperimentConfig(dict(values, precision_bits=bits)))


_RATE_TEXT = "observable = cos\nschedule = list:100\ngrid = 64\n"


@pytest.mark.parametrize("command,text,key", [
    # AttributeError, TypeError and TypeError tracebacks (exit 1)
    ("rate", "system = [rotation1d:golden]\n" + _RATE_TEXT, "system"),
    ("sharp", "frequency = pq:rule:spike:7,1000\nalpha = [0.5]\nm_values = 6\n",
     "alpha"),
    ("kernel", "frequencies = golden\nn_values = 100\nmax_q = 300\nout_dir = true\n",
     "out_dir"),
    # k = 10 was not iterable; as a list of one it has the wrong length
    ("skew", "frequency = golden\nk = 10\nn_values = 100\n", "k must have length"),
    # exit 0: wall times in the CSV, and no CSV at all
    ("rate", "system = rotation1d:golden\ntimings = no\n" + _RATE_TEXT, "timings"),
    ("rate", "system = rotation1d:golden\nformat = xml\n" + _RATE_TEXT, "format"),
])
def test_a_value_of_the_wrong_shape_exits_2(tmp_path, monkeypatch, capsys,
                                            command, text, key):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(text + "out_dir = out\n" * ("out_dir" not in text))
    assert cli_main(["--config", "run.cfg", command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind,key", [("kernel", "frequencies"),
                                      ("kernel", "n_values"),
                                      ("skew", "n_values"), ("sharp", "m_values")])
def test_a_lone_value_of_a_list_key_is_a_list_of_one(kind, key):
    # n_values = 1000 and m_values = 6 died with a TypeError, while
    # frequencies = golden already ran
    run, values = SMALL_RUNS[kind]
    (lone,) = values[key]
    got = run(ExperimentConfig(dict(values, **{key: lone})))
    want = run(ExperimentConfig(values))
    assert got.pop("config_hash") != want.pop("config_hash")
    assert got == want


@pytest.mark.parametrize("kind", sorted(SMALL_RUNS))
def test_a_whole_number_budget_runs(kind):
    run, values = SMALL_RUNS[kind]
    run(ExperimentConfig(dict(values, budget_s=300)))


class TestConfig:
    def test_round_trip(self):
        cfg = ExperimentConfig({
            "system": "rotation1d:golden",
            "grid": 1024,
            "budget_s": 1.5,
            "timings": False,
            "n_values": [100, 1000],
            "label": "x y",
        })
        cfg2 = ExperimentConfig.parse(cfg.serialize())
        assert cfg2.values == cfg.values
        assert cfg2.config_hash() == cfg.config_hash()

    def test_typing(self):
        cfg = ExperimentConfig.parse(
            "a = 3\nb = 2.5\nc = true\nd = hello\ne = [1, 2.5, x]\n"
        )
        assert cfg.values == {"a": 3, "b": 2.5, "c": True, "d": "hello",
                              "e": [1, 2.5, "x"]}

    def test_comments_and_blanks(self):
        cfg = ExperimentConfig.parse("# hi\n\nx = 1  # trailing\n")
        assert cfg.values == {"x": 1}

    def test_parse_error_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            ExperimentConfig.parse("x = 1\nbroken line\n")

    def test_bad_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            ExperimentConfig.parse("3x = 1\n")

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="missing required"):
            ExperimentConfig({}).require("system")


class TestResolvers:
    def test_systems(self):
        s1 = resolve_system("rotation1d:golden")
        assert s1.kind == "rotation" and s1.dim == 1
        s2 = resolve_system("rotationd:sqrt2m1,sqrt3m1")
        assert s2.kind == "rotation" and s2.dim == 2
        s3 = resolve_system("skew:3:golden")
        assert s3.kind == "skew" and s3.dim == 3
        with pytest.raises(ConfigError):
            resolve_system("bogus:1")

    def test_schedules(self):
        sys = resolve_system("rotation1d:golden")
        geo = resolve_schedule("geometric:100,1000,2", sys)
        assert geo == [100, 200, 400, 800]
        conv = resolve_schedule("convergents:100", sys)
        assert conv == [1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
        lst = resolve_schedule("list:5,2,9", sys)
        assert lst == [2, 5, 9]
        with pytest.raises(ConfigError):
            resolve_schedule("list:0,100", sys)
        # no convergent denominator is <= 0: this exited 0 with no points
        with pytest.raises(ConfigError, match="schedule"):
            resolve_schedule("convergents:0", sys)
        # the steps ran to inf, and int(inf) ended in OverflowError
        for bound in ("inf", "1e400", "1.7976931348623157e308"):
            with pytest.raises(ConfigError, match="inside the doubles"):
                resolve_schedule(f"geometric:100,{bound},2", sys)

    def test_observables(self):
        sys = resolve_system("rotation1d:golden")
        lac = resolve_observable("lacunary:holder:0.5", sys)
        assert lac.n_modes > 50
        resolve_observable("cos", sys)
        sys2 = resolve_system("rotationd:sqrt2m1,sqrt3m1")
        sep = resolve_observable("poly_plus_dist:4:0.5:3", sys2)
        assert sep.dim == 2 and sep.trig is not None
        with pytest.raises(ConfigError, match="nosuch"):
            resolve_observable("nosuch", sys)

    @pytest.mark.parametrize("system", ["rotationd:golden,sqrt2m1",
                                        "skew:2:golden"])
    @pytest.mark.parametrize("key", ["weierstrass_w:0.5", "coboundary",
                                     "lacunary:holder:0.5"])
    def test_a_one_dimensional_observable_needs_a_one_dimensional_system(
            self, capsys, system, key):
        # on the rotation its 1-tuple modes each filled a whole row of the
        # spectrum (sup_dev 16x too large at grid 16); on the skew product
        # the sweep died in numpy
        with pytest.raises(ConfigError, match=f"{key!r} has dimension 1, not 2"):
            resolve_observable(key, resolve_system(system))
        rc = cli_main(["rate", "--system", system, "--observable", key,
                       "--schedule", "list:1000", "--grid", "16"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err

    def test_a_width_that_cannot_certify_the_modes_is_refused(self):
        # a kept mode q errs by up to q * 2^-(bits+1) in its phase: at 192
        # bits the alpha = 0.3 series keeps a 143-bit q, and alpha = 0.15
        # measured sup_dev 6.1e-8 off, far above its 1e-12 tail
        for alpha, need in ((0.3, 207), (0.15, 356)):
            key = f"lacunary:holder:{alpha}"
            with pytest.raises(Uncertified, match=f"precision_bits >= {need}"):
                resolve_observable(key, resolve_system("rotation1d:golden"))
            with pytest.raises(Uncertified):
                resolve_observable(key, resolve_system("rotation1d:golden", need - 1))
            phi = resolve_observable(key, resolve_system("rotation1d:golden", need))
            assert phi.bits == need and max(phi.qs).bit_length() == need - 64


class TestRateExperiment:
    def test_the_run_width_reaches_system_observable_and_points(self, monkeypatch):
        seen = []
        real = harness.sup_deviation

        def recording(sys, phi, N, grid, sweep=None):
            res = real(sys, phi, N, grid, sweep)
            seen.append((sys.bits, phi.bits, res.argmax_x.bits))
            return res

        monkeypatch.setattr(harness, "sup_deviation", recording)
        run_rate_experiment(ExperimentConfig({
            "system": "rotation1d:golden", "observable": "lacunary:holder:0.5",
            "schedule": "list:100,200", "grid": 64, "precision_bits": 256}))
        assert seen == [(256, 256, 256)] * 2

    def test_coboundary_rate_slope(self):
        cfg = ExperimentConfig({
            "system": "rotation1d:golden",
            "observable": "coboundary:0.6180339887498949",
            "schedule": "geometric:100,10000,4",
            "grid": 128,
        })
        series = run_rate_experiment(cfg)
        assert series.fitted_slope <= -0.9

    def test_dk_under_envelope_at_convergents(self):
        cfg = ExperimentConfig({
            "system": "rotation1d:golden",
            "observable": "dist_pow:0.5",
            "schedule": "convergents:2000",
            "grid": 512,
            "envelope": "dk:alpha=0.5",
        })
        series = run_rate_experiment(cfg)
        # envelope q^-alpha with fitted scale <= analytic Holder norm
        assert series.envelope_scale <= 1.0 + 0.5 ** 0.5

    def test_skew_single_mode_cross_check(self, golden):
        from ergorate.dynamics import (CharSweep, SystemSpec, TorusPoint,
                                       char_birkhoff_skew, sup_deviation)
        from ergorate.kernels import Holder, Observable

        sys = SystemSpec.skew(2, golden)
        phi = Observable(
            dim=2,
            fn=lambda x, out=None: np.cos(2 * np.pi * x[..., 0], out=out),
            modulus=Holder(1.0), norm_est=1 + 2 * np.pi, mean_hint=0.0)
        N, G = 400, 16
        res = sup_deviation(sys, phi, N, G)
        best = 0.0
        one = 1 << 192
        for i in range(G):
            for j in range(G):
                x = TorusPoint((i * (one // G), j * (one // G)), 192)
                c = char_birkhoff_skew(CharSweep(golden, (1, 0), x), N)
                best = max(best, abs(c.value.real) / N)
        assert res.sup_dev == pytest.approx(best, abs=1e-9)

    def test_budget_timeout(self):
        cfg = ExperimentConfig({
            "system": "rotation1d:golden",
            "observable": "dist_pow:0.5",
            "schedule": "geometric:100,100000,2",
            "grid": 1024,
            "budget_s": 1e-9,
        })
        with pytest.raises(Timeout):
            run_rate_experiment(cfg)

    def test_budget_stops_a_single_huge_n(self):
        # the budget is checked per orbit chunk, not only between points
        cfg = ExperimentConfig({
            "system": "rotation1d:golden",
            "observable": "dist_pow:0.5",
            "schedule": "list:10000000",
            "budget_s": 0.5,
        })
        t0 = time.monotonic()
        with pytest.raises(Timeout):
            run_rate_experiment(cfg)
        assert time.monotonic() - t0 < 2.0

    def test_budget_stops_a_single_huge_n_on_a_skew_product(self):
        # skew products take the same resumable route, checked per chunk
        cfg = ExperimentConfig({
            "system": "skew:2:golden",
            "observable": "dist_pow:0.5",
            "schedule": "list:10000000",
            "grid": 16,
            "budget_s": 0.5,
        })
        t0 = time.monotonic()
        with pytest.raises(Timeout):
            run_rate_experiment(cfg)
        assert time.monotonic() - t0 < 2.0

    def test_budget_stops_a_single_huge_n_on_a_separable_axis_term(self):
        # the axis term's 1-d sweep shares the run's budget check
        cfg = ExperimentConfig({
            "system": "rotationd:sqrt2m1,sqrt3m1",
            "observable": "poly_plus_dist:8:0.5:5",
            "schedule": "list:10000000",
            "grid": 64,
            "budget_s": 0.5,
        })
        t0 = time.monotonic()
        with pytest.raises(Timeout):
            run_rate_experiment(cfg)
        assert time.monotonic() - t0 < 2.0

    def test_separable_axis_terms_walk_one_orbit(self, monkeypatch):
        # the translation_2d schedule tops out at N = 100,000; each axis
        # term's 1-d sweep resumes from the last point instead of
        # restarting at j = 0 for every one
        real = GridSweep.sums
        steps = {}

        def counting(self, N):
            j = self.j
            out = real(self, N)
            if self.sys.dim == 1:
                key = self.sys.freqs
                steps[key] = steps.get(key, 0) + self.j - j
            return out

        monkeypatch.setattr(GridSweep, "sums", counting)
        run_rate_experiment(ExperimentConfig({
            "system": "rotationd:sqrt2m1,sqrt3m1",
            "observable": "poly_plus_dist:8:0.5:5",
            "schedule": "geometric:100,100000,3.1622776601683795",
            "grid": 64,
        }))
        assert list(steps.values()) == [100000]

    def test_a_nan_point_makes_the_fits_nan(self, tmp_path, monkeypatch):
        # a NaN sup_dev must not drop out of the slope and envelope fits
        real = harness.sup_deviation

        def nan_at_89(sys, phi, N, *args):
            res = real(sys, phi, N, *args)
            if N == 89:
                res.sup_dev = math.nan
            return res

        monkeypatch.setattr(harness, "sup_deviation", nan_at_89)
        monkeypatch.chdir(tmp_path)
        series = run_rate_experiment(ExperimentConfig({
            "system": "rotation1d:golden",
            "observable": "dist_pow:0.5",
            "schedule": "convergents:10000",
            "grid": 1024,
            "envelope": "dk:alpha=0.5",
            "out_dir": "out",
        }))
        assert math.isnan(series.fitted_slope)
        assert math.isnan(series.envelope_scale)
        assert math.isnan(series.tail_ratio)
        (manifest,) = (tmp_path / "out").glob("*-manifest.json")
        summary = _strict_json(manifest.read_text())["summary"]
        assert summary == {"fitted_slope": None, "envelope_scale": None,
                           "tail_ratio": None}

    def test_golden_bytes_of_the_grid_route(self, tmp_path, monkeypatch):
        # recorded before the route resumed one orbit per run: the pointwise
        # grid field keeps its summation order bit for bit
        monkeypatch.chdir(tmp_path)
        run_rate_experiment(ExperimentConfig({
            "system": "rotation1d:golden",
            "observable": "dist_pow:0.5",
            "schedule": "convergents:10000",
            "grid": 1024,
            "envelope": "dk:alpha=0.5",
            "out_dir": "out",
        }))
        digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                   for f in (tmp_path / "out").iterdir()}
        assert digests == {
            "rate-d517dba324bb019c.csv":
                "054efac0cffc855f7de5e4da7859387acf4914b84ada3108379e8bc16930081b",
            "rate-d517dba324bb019c-manifest.json":
                "c01b60c1ee75e180226531bda1963b334da539407da7753068eb32e4e3170354",
        }

    @pytest.mark.parametrize("run, digests", [
        ({"system": "rotation1d:golden", "observable": "lacunary:holder:0.5",
          "schedule": "geometric:100,100000,2", "grid": 1024},
         {"rate-f845a1f276a6cfe6.csv":
          "71800ad093e138b06751c31933f119e755556d8fc88f57dcc0a5106e49ce3b90",
          "rate-f845a1f276a6cfe6-manifest.json":
          "6c1ba8043fb130bed08ebc6109611f08fe6118eef2926d8832435e8046b781e9"}),
        ({"system": "rotationd:sqrt2m1,sqrt3m1",
          "observable": "poly_plus_dist:8:0.5:5",
          "schedule": "geometric:100,10000,3.1622776601683795", "grid": 64},
         {"rate-f35db98a5a0e4c7c.csv":
          "fe2e491ceed2778dcc1cb271dc8fc5742fbdfe665ffe6547aa3c10a1b0c64897",
          "rate-f35db98a5a0e4c7c-manifest.json":
          "62ad5670b646d94bc4c8821e2cda21324e753d48cb7c962e13d4837d20aad9d9"}),
    ], ids=["lacunary", "poly_plus_dist"])
    def test_golden_bytes_of_the_closed_form_route(self, tmp_path, monkeypatch,
                                                   run, digests):
        # recorded while each fixed mode still had its own exp_sum_avg_fp
        # call: the array form of the fixed modes keeps every byte
        monkeypatch.chdir(tmp_path)
        run_rate_experiment(ExperimentConfig(dict(run, out_dir="out")))
        assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                for f in (tmp_path / "out").iterdir()} == digests


class TestKernelExperiment:
    def test_q2_exact_single_pair(self):
        from ergorate.arithmetic import Frequency
        from oracles import exp_sum_avg

        cfg = ExperimentConfig({
            "frequencies": ["sqrt2m1"],
            "n_values": [50],
            "max_q": 2,
        })
        out = run_kernel_experiment(cfg)
        assert len(out["rows"]) == 1
        row = out["rows"][0]
        f = Frequency.parse("sqrt2m1")
        expect = 2 * abs(exp_sum_avg(f.fixed_point(), 192, 50))
        assert row["sum"] == pytest.approx(expect, abs=1e-12)

    def test_cap_holds_small_sweep(self):
        cfg = ExperimentConfig({
            "frequencies": ["golden", "pq:rule:index"],
            "n_values": [1000, 10000],
            "max_q": 300,
        })
        out = run_kernel_experiment(cfg)
        assert out["within_cap"] and out["max_ratio"] <= 10

    def test_n0_fails_closed(self):
        # N = 0 used to give NaN ratios, max_ratio 0.0 and within_cap True
        cfg = ExperimentConfig({"frequencies": ["golden"], "n_values": [0],
                                "max_q": 300})
        with pytest.raises(ConfigError):
            run_kernel_experiment(cfg)

    def test_golden_bytes_of_the_ladder(self, tmp_path, monkeypatch):
        # re-recorded when the table's sines came from angle addition: 30 of
        # the 66 rows moved, `sum` by at most 9.2e-13 relative (6.6e-11
        # absolute) and `ratio` by at most 9.2e-13 relative (7.8e-13
        # absolute), both at golden q = 317811, N = 100000; max_ratio and
        # the manifest did not move, and the rows keep their (q, N) order
        monkeypatch.chdir(tmp_path)
        run_kernel_experiment(ExperimentConfig(dict(KERNEL_RUN, out_dir="out")))
        digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                   for f in (tmp_path / "out").iterdir()}
        assert digests == {
            "kernel-bb6927fb3cd829c8.csv":
                "5975adbee18510f69d201f8b51f78204febcac665d3881462a05f02e13025b04",
            "kernel-bb6927fb3cd829c8-manifest.json":
                "75461538a468c10514c7499dfff9fe819700107dfc27fddf8687bd619f7c6103",
        }

    def test_one_table_alive_at_a_time(self):
        # one float array of q_top - 1 = 317,810 values is 2.5 MB, and the
        # run peaked at 3.0 MB; two such arrays peaked at 5.5 MB, and a
        # ladder that summed each rung afresh at 12.4 MB
        tracemalloc.start()
        try:
            run_kernel_experiment(ExperimentConfig(dict(KERNEL_RUN)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_a_max_q_above_the_cap_is_refused_before_any_work(
            self, monkeypatch):
        # max_q = 10^8 built a 63,245,985-term table, 536 MB peak RSS
        monkeypatch.setattr(harness, "expand_cf", None)
        with pytest.raises(ConfigError, match=f"max_q must be int in "
                                              f"\\[2, {KERNEL_MAX_Q}\\]"):
            run_kernel_experiment(ExperimentConfig(dict(
                KERNEL_RUN, max_q=KERNEL_MAX_Q + 1)))
        top = ExperimentConfig({"max_q": KERNEL_MAX_Q})
        assert top.get("max_q") == KERNEL_MAX_Q

    def test_the_budget_stops_the_table_build(self, monkeypatch):
        # the first budget check raises, inside the first table's build
        built = []
        real = harness.kernel_table
        monkeypatch.setattr(harness, "kernel_table",
                            lambda *args: built.append(real(*args)))
        with pytest.raises(Timeout, match="kernel"):
            run_kernel_experiment(ExperimentConfig(dict(KERNEL_RUN,
                                                        budget_s=1e-9)))
        assert built == []

    def test_non_finite_ratio_fails_the_cap(self, monkeypatch):
        from ergorate import harness
        from ergorate.dynamics import KernelSumResult

        monkeypatch.setattr(harness, "kernel_sum", lambda table, idx: KernelSumResult(
            table.cf.q_at(idx), table.N, 1.0, float("nan")))
        cfg = ExperimentConfig({"frequencies": ["golden"], "n_values": [100],
                                "max_q": 300})
        out = run_kernel_experiment(cfg)
        assert out["max_ratio"] == 0.0  # max() drops the NaNs
        assert out["within_cap"] is False

    @pytest.mark.parametrize("key", ["frequencies", "n_values"])
    def test_an_empty_list_fails_at_the_boundary(self, key):
        # reported within_cap: true over 0 rows
        cfg = ExperimentConfig({"frequencies": ["golden"], "n_values": [100],
                                key: []})
        with pytest.raises(ConfigError, match=key):
            run_kernel_experiment(cfg)

    def test_no_row_is_not_within_the_cap(self):
        # 1/5 has no convergent denominator in 2..max_q
        out = run_kernel_experiment(ExperimentConfig({
            "frequencies": ["pq:[5,2]"], "n_values": [10], "max_q": 2}))
        assert out["rows"] == [] and out["within_cap"] is False


class TestSkewExperiment:
    def test_golden_bytes_of_the_resumed_sums(self, tmp_path, monkeypatch):
        # re-recorded when degree 2 moved to the chirp route: max_char_sum
        # moved by at most 3.8e-12 (at N = 10^5, the direct sum's drift),
        # scale by 5.6e-16 and tail_ratio by 7.1e-15
        monkeypatch.chdir(tmp_path)
        run_skew_experiment(ExperimentConfig(dict(SKEW_RUN, out_dir="out")))
        digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                   for f in (tmp_path / "out").iterdir()}
        assert digests == {
            "skew-621cbfd272c7bff4.csv":
                "a70943fc7f7e42201e8078c3fa1083782941be560f6a1ec4a693b6c0fa9308f1",
            "skew-621cbfd272c7bff4-manifest.json":
                "e4851183031c08ee9b8cfcfda3b0b91a3ef7bc0988785534b2bb00966d57929a",
        }

    @pytest.mark.parametrize("n_values", [[0, 1000], [1000, -5], []])
    def test_n_below_1_fails_at_the_boundary(self, n_values):
        with pytest.raises(ConfigError, match="n_values"):
            run_skew_experiment(ExperimentConfig(dict(SKEW_RUN, n_values=n_values)))

    def test_the_budget_stops_a_single_huge_n(self):
        # the chirp route of degree 2 ticks once per block of 2^16 rows, and
        # the direct sum of degree 3 once per chunk: N = 10^9 ran past 15 s
        # under budget_s = 2 before either ticked, and the chirp now sums
        # N = 10^9 in well under a second, so d = 2 takes N = 10^15
        for d, k, N in ((2, [1, 0], 10 ** 15), (3, [1, 0, 0], 10 ** 9)):
            t0 = time.monotonic()
            tracemalloc.start()
            try:
                with pytest.raises(Timeout, match="skew"):
                    run_skew_experiment(ExperimentConfig(dict(
                        SKEW_RUN, d=d, k=k, n_values=[N], budget_s=0.5)))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert time.monotonic() - t0 < 2.0, d
            assert peak < 64 * 2 ** 20, d

    def test_the_budget_is_checked_once_per_start_point(self, monkeypatch):
        # a sum of degree 1 never ticks, and the run ticked once per N: with
        # 20,000 start points a run overran a 0.5 s budget by seconds
        real = harness.char_birkhoff_skew
        late = []

        def slow(sweep, N):
            res = real(sweep, N)
            time.sleep(0.005)
            late.append(time.monotonic() > errors._DEADLINE.get()[0])
            return res

        monkeypatch.setattr(harness, "char_birkhoff_skew", slow)
        with pytest.raises(Timeout, match="skew"):
            run_skew_experiment(ExperimentConfig(dict(
                SKEW_RUN, k=[0, 1], n_values=[1000], x_batch=40,
                budget_s=0.05)))
        assert late.count(True) <= 1 and len(late) < 41

    def test_a_schedule_that_steps_back_restarts_its_sweeps(self):
        back = run_skew_experiment(ExperimentConfig(dict(
            SKEW_RUN, n_values=[100000, 1000, 31623])))
        rows = {r["N"]: r for r in run_skew_experiment(
            ExperimentConfig(dict(SKEW_RUN)))["rows"]}
        assert back["rows"] == [rows[N] for N in (100000, 1000, 31623)]

    def test_nan_character_sum_fails_the_gates(self, monkeypatch):
        real = harness.char_birkhoff_skew
        calls = []

        def nan_on_a_later_call(*args):
            res = real(*args)
            calls.append(1)
            if len(calls) == 4:  # neither the first x nor the first N
                res.value = complex(math.nan, 0.0)
            return res

        monkeypatch.setattr(harness, "char_birkhoff_skew", nan_on_a_later_call)
        out = run_skew_experiment(ExperimentConfig({
            "d": 2, "frequency": "golden", "k": [1, 0],
            "n_values": [100, 200, 400], "x_batch": 1,
        }))
        assert math.isnan(out["rows"][1]["max_char_sum"])
        assert math.isnan(out["scale"]) and math.isnan(out["tail_ratio"])


class TestBudgetClock:
    @pytest.mark.parametrize("budget", [{}, {"budget_s": 60}])
    def test_a_run_keeps_an_earlier_outer_deadline(self, budget):
        # a run inside a scenario stops at the scenario's end, with no
        # budget of its own or a later one
        with pytest.raises(Timeout, match="outer exceeded budget of 1e-09s"):
            with deadline(1e-9, "outer"):
                run_approx_experiment(ExperimentConfig({"n_values": [16],
                                                        **budget}))

    def test_the_outer_deadline_is_back_after_an_inner_timeout(self):
        with deadline(0.3, "outer"):
            with pytest.raises(Timeout, match="approx run"):
                run_approx_experiment(ExperimentConfig(
                    {"n_values": [16], "budget_s": 1e-9}))
            time.sleep(0.3)
            with pytest.raises(Timeout, match="outer exceeded budget of 0.3s"):
                tick()

    def test_tick_outside_every_deadline_never_raises(self):
        with deadline(1e-9, "spent"):
            time.sleep(0.01)
            with pytest.raises(Timeout, match="spent"):
                tick()
        tick()


class TestApproxExperiment:
    def test_the_budget_is_checked_once_per_degree(self, monkeypatch):
        # approx read no budget: a huge degree ran on past any budget_s
        degrees = []

        def error(phi, kernel):
            degrees.append(len(kernel) // 2)
            return 0.0

        monkeypatch.setattr(harness, "approximation_error", error)
        with pytest.raises(Timeout, match="approx"):
            run_approx_experiment(ExperimentConfig(
                {"n_values": [16, 32], "budget_s": 1e-9}))
        assert degrees == [16]

    def test_rows_and_manifest_are_emitted(self, tmp_path):
        # approx wrote an unhashed approx.csv and no manifest
        cfg = ExperimentConfig({"observable": "dist_pow:0.5",
                                "n_values": [16, 32], "out_dir": str(tmp_path),
                                "format": "both"})
        rows = run_approx_experiment(cfg)
        stem = f"approx-{cfg.config_hash()}"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"{stem}-manifest.json", f"{stem}.csv", f"{stem}.json"]
        manifest = _strict_json((tmp_path / f"{stem}-manifest.json").read_text())
        assert manifest["kind"] == "approx" and manifest["config"] == cfg.values
        assert json.loads((tmp_path / f"{stem}.json").read_text()) == rows
        assert [r["n"] for r in rows] == [16, 32]

    def test_degrees_above_the_cap_are_refused_before_any_work(self, monkeypatch):
        # n_values = [100000000] ran on past 20 s; jackson_coeffs(n) costs
        # O(n^2), and its int64 centre n^3 / 12 overflows near n = 4.8e6
        def refuse(n):
            raise AssertionError(f"built a degree-{n} kernel")

        monkeypatch.setattr(harness, "jackson_coeffs", refuse)
        cap = harness.APPROX_MAX_N
        for ns in ([cap + 1], [16, 10 ** 8]):
            with pytest.raises(ConfigError, match=f"APPROX_MAX_N = {cap}"):
                run_approx_experiment(ExperimentConfig({"n_values": ns}))

    def test_the_cap_itself_runs(self):
        (row,) = run_approx_experiment(ExperimentConfig(
            {"observable": "cos", "n_values": [harness.APPROX_MAX_N]}))
        assert row["n_coeffs"] == 2 * harness.APPROX_MAX_N - 3
        assert row["sup_error"] < 1e-5

    def test_defaults(self):
        rows = run_approx_experiment(ExperimentConfig())
        assert [r["n"] for r in rows] == [16, 32, 64, 128]
        assert rows == run_approx_experiment(ExperimentConfig({
            "system": "rotation1d:golden", "observable": "dist_pow:0.5",
            "n_values": [16, 32, 64, 128]}))


class TestSharpnessExperiment:
    def test_spike_verdicts(self):
        cfg = ExperimentConfig({
            "frequency": "pq:rule:spike:7,1000",
            "alpha": 0.5,
            "m_values": [6],
        })
        out = run_sharpness_experiment(cfg)
        rep = out["reports"][0]
        assert rep["hypothesis"] == "ok"
        assert rep["passed"] is True
        assert rep["identity_gap"] < 1e-10

    def test_a_nan_window_fails_the_verdict(self, monkeypatch):
        # window l = 1 of m = 6, after the finite l = 0: min() kept the
        # finite ratio and the report passed
        phi = resolve_observable("lacunary:holder:0.5",
                                 resolve_system("rotation1d:pq:rule:spike:7,1000"))
        (x1,) = sharpness.start_points(phi, 6, [1])
        real = sharpness.measure_average

        def measure(phi, omega, x, N):
            return math.nan if x == x1 else real(phi, omega, x, N)

        monkeypatch.setattr(sharpness, "measure_average", measure)
        out = run_sharpness_experiment(ExperimentConfig({
            "frequency": "pq:rule:spike:7,1000", "alpha": 0.5,
            "m_values": [6],
        }))
        rep = out["reports"][0]
        assert math.isnan(rep["min_ratio"])
        assert rep["passed"] is False

    def test_the_budget_stops_a_single_huge_window(self):
        # one window of N = q_14 = 185,066,460,993 steps read no budget
        # until it was done, and built its tables whole (1.8 GB); the check
        # is now read once per block of rows
        t0 = time.monotonic()
        tracemalloc.start()
        try:
            with pytest.raises(Timeout, match="sharp"):
                run_sharpness_experiment(ExperimentConfig({
                    "frequency": "pq:rule:index", "alpha": 0.5,
                    "m_values": [14], "budget_s": 0.5}))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.monotonic() - t0 < 3.0
        assert peak < 64 * 2 ** 20

    def test_the_default_schedule_stops_at_the_cap(self):
        # without m_values the index witnesses ran on to m = 24, a window of
        # q_24 = 1.36e24 steps that only budget_s ended
        out = run_sharpness_experiment(ExperimentConfig({
            "frequency": "pq:rule:index", "alpha": 0.5}))
        assert [r["m"] for r in out["reports"]] == list(range(2, 13))
        assert out["reports"][-1]["q_m"] <= harness.SHARP_MAX_Q
        assert out["n_modes"] == 25

    def test_an_empty_default_schedule_names_the_cap(self):
        with pytest.raises(ConfigError, match=r"q_m <= SHARP_MAX_Q = 2\^32"):
            run_sharpness_experiment(ExperimentConfig({
                "frequency": "golden", "alpha": 0.5}))

    def test_golden_reports_hypothesis(self):
        cfg = ExperimentConfig({
            "frequency": "golden",
            "alpha": 0.5,
            "m_values": [6],
        })
        out = run_sharpness_experiment(cfg)
        rep = out["reports"][0]
        assert rep["passed"] is None
        assert "not met" in rep["hypothesis"]

    @pytest.mark.parametrize("key,value", [
        ("gap_constant", math.nan), ("gap_constant", 0.0),
        ("gap_constant", -1.0), ("gap_constant", math.inf),
        ("range_constant", math.nan), ("range_constant", 0.0),
        ("range_constant", math.inf), ("ratio_floor", math.nan),
        ("ratio_floor", -math.inf), ("l_cap", -1), ("l_cap", math.nan),
        ("l_cap", math.inf), ("witness_constant", math.nan), ("tol", math.nan),
        ("gap_constant", 10.0), ("range_constant", 0.125),
        ("ratio_floor", 0.1), ("l_cap", 256), ("witness_constant", 1.0),
        ("tol", 1e-12),
    ])
    def test_bad_knobs_fail_at_the_boundary(self, key, value):
        # these keys are constants of ergorate.sharpness: a config naming one,
        # even at its value, is refused rather than silently ignored
        cfg = ExperimentConfig({"frequency": "golden", "alpha": 0.5,
                                "m_values": [5], key: value})
        with pytest.raises(ConfigError, match=key):
            run_sharpness_experiment(cfg)

    def test_golden_bytes_of_the_sharp_route(self, tmp_path, monkeypatch):
        # recorded when measure_average first summed each row as cos alpha_a
        # C - sin alpha_a S from cached inner-table totals (rows of B steps,
        # B = N up to 1024 and ceil(sqrt N) above, in blocks of _SUB rows):
        # every window, aggregate and oracle sum keeps its bytes
        monkeypatch.chdir(tmp_path)
        for freq, ms in (("pq:rule:spike:7,1000", [6]),
                         ("pq:rule:index", [4, 5, 6, 7, 8])):
            run_sharpness_experiment(ExperimentConfig({
                "frequency": freq, "alpha": 0.5, "m_values": ms,
                "out_dir": "out"}))
        digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                   for f in (tmp_path / "out").iterdir()}
        assert digests == {
            "sharp-d0c53ac9bd265d1b.csv":
                "7a1d720f3ba2be2c900e4f105d03129aed4a9357c5245b42bd56552cb56e7a56",
            "sharp-d0c53ac9bd265d1b-manifest.json":
                "8db420003b5b4526fc30cf11ad18712bda9b93f42237ed0aec301a10690ed100",
            "sharp-5ef339079e12cbb0.csv":
                "b765d2d7839c29872fae85572e1214081f3709ee8137cc934b0d4e72402d82dd",
            "sharp-5ef339079e12cbb0-manifest.json":
                "382505a729874e5a849aa8a166a438c85b9fab68a4c97400b7a03d53b8c475a4",
        }

    def test_unknown_weight(self):
        cfg = ExperimentConfig({"frequency": "golden", "weight": "nosuch",
                                "m_values": [2]})
        with pytest.raises(ConfigError):
            run_sharpness_experiment(cfg)

    def test_analytic_weight_matches_resolver(self):
        freq = "pq:rule:exp_gap:5"
        out = run_sharpness_experiment(ExperimentConfig({
            "frequency": freq, "weight": "analytic", "m_values": [5],
        }))
        phi = resolve_observable("lacunary:analytic",
                                 resolve_system("rotation1d:" + freq))
        assert out["n_modes"] == phi.n_modes
        assert out["tail_bound"] == phi.tail_bound


class TestEmission:
    @staticmethod
    def _run_twice(tmp_path, kind, cfg_text, run):
        outs = []
        for n in (1, 2):
            out_dir = tmp_path / f"{kind}{n}"
            cfg = ExperimentConfig.parse(cfg_text)
            cfg.values["out_dir"] = str(out_dir)
            run(cfg)
            csvs = sorted(out_dir.glob(f"{kind}-*.csv"))
            assert len(csvs) == 1
            outs.append(csvs[0].read_bytes())
        assert outs[0] == outs[1]

    def test_csv_deterministic(self, tmp_path):
        self._run_twice(tmp_path, "rate", (
            "system = rotation1d:golden\n"
            "observable = dist_pow:0.5\n"
            "schedule = list:100,200\n"
            "grid = 64\n"
            "format = both\n"
        ), run_rate_experiment)
        self._run_twice(tmp_path, "kernel", (
            "frequencies = [golden, pq:rule:index]\n"
            "n_values = [1000, 100000]\n"
            "max_q = 20000\n"
        ), run_kernel_experiment)
        self._run_twice(tmp_path, "skew", (
            "d = 3\n"
            "frequency = golden\n"
            "k = [1, 0, 0]\n"
            "n_values = [1000, 5000]\n"
            "x_batch = 2\n"
        ), run_skew_experiment)

    def test_numpy_float_cells_print_as_numbers(self, tmp_path):
        path = tmp_path / "t.csv"
        emit_csv([{"gap": np.float64(2.5e-16), "n": np.int64(3), "x": 0.1}],
                 path)
        assert path.read_text() == "gap,n,x\n2.5e-16,3,0.1\n"

    def test_a_rewrite_leaves_only_the_new_bytes(self, tmp_path):
        # the writers overwrite in place and then cut the file to length
        path = tmp_path / "t.out"
        path.write_text("x" * 1000)
        emit_csv([{"a": 1}], path)
        assert path.read_bytes() == b"a\n1\n"
        emit_json({"b": [2]}, path)
        assert path.read_bytes() == b'{\n  "b": [\n    2\n  ]\n}\n'
        emit_csv([], path)
        assert path.read_bytes() == b""

    def test_json_text_maps_non_finite_to_null(self):
        obj = {"a": [np.float64("nan"), np.float32("inf"), (1.5, -math.inf)],
               "b": {"c": np.float64(0.25)}}
        assert _strict_json(json_text(obj)) == {"a": [None, None, [1.5, None]],
                                                "b": {"c": 0.25}}

    def test_manifest_embeds_config(self, tmp_path):
        cfg = ExperimentConfig.parse(
            "system = rotation1d:golden\nobservable = cos\n"
            "schedule = list:50\ngrid = 64\n"
        )
        cfg.values["out_dir"] = str(tmp_path)
        series = run_rate_experiment(cfg)
        manifests = list(tmp_path.glob("rate-*-manifest.json"))
        assert len(manifests) == 1
        man = json.loads(manifests[0].read_text())
        assert man["config"]["system"] == "rotation1d:golden"
        assert man["config_hash"] == series.config_hash

    def test_csv_round_trip_readback(self, tmp_path):
        rows = [{"a": 1, "b": 2.5, "c": "x"}, {"a": 2, "b": 0.1, "c": "y"}]
        path = tmp_path / "t.csv"
        emit_csv(rows, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "a,b,c"
        back = []
        for line in lines[1:]:
            a, b, c = line.split(",")
            back.append({"a": int(a), "b": float(b), "c": c})
        assert back == rows


# the README's 100-digit decimal frequency, pi - 3
PI100 = ("0.1415926535897932384626433832795028841971693993751"
         "058209749445923078164062862089986280348253421170679")


class TestCli:
    def test_cf(self, capsys):
        assert cli_main(["cf", "--freq", "golden", "--max-q", "13"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["q"] == [1, 2, 3, 5, 8, 13]

    def test_classify(self, capsys):
        rc = cli_main(["classify", "--freq", "golden", "--max-q", "10000",
                       "--k-max", "100"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["gamma_sdc"] > 0

    @pytest.mark.parametrize("system", ["rotationd:sqrt2m1,sqrt3m1",
                                        "skew:2:golden"])
    def test_approx_refuses_a_system_above_one_dimension(self, capsys, system):
        # exited 2 with numpy's "shape-mismatch for sum"
        assert cli_main(["approx", "--system", system]) == 2
        assert "one-dimensional" in capsys.readouterr().err

    def test_approx_refuses_a_degree_above_the_cap(self, capsys):
        assert cli_main(["approx", "--n-values", "100000000"]) == 2
        assert "APPROX_MAX_N" in capsys.readouterr().err

    def test_classify_has_no_witness_constant(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["classify", "--freq", "golden", "--witness-constant", "2"])
        assert exc.value.code == 2
        assert "--witness-constant" in capsys.readouterr().err

    def test_classify_of_an_empty_prefix_exit_code(self, capsys):
        # printed a report over no convergents; q_1 = 3 > 2 leaves none
        assert cli_main(["classify", "--freq", "pq:rule:const:3",
                         "--max-q", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "empty certified prefix" in captured.err

    @pytest.mark.parametrize("argv,message", [
        (["classify", "--freq", "golden", "--max-q", "0"],
         "--max-q must be int in [1, inf), got 0"),
        (["classify", "--freq", "golden", "--k-max", "1"],
         f"--k-max must be int in [2, {CLASSIFY_MAX_K}], got 1"),
        (["ostrowski", "--freq", "golden", "-n", "0"],
         "-n must be int in [1, inf), got 0"),
    ])
    def test_int_flag_refusals_name_the_flag(self, capsys, argv, message):
        # printed "empty certified prefix", "k_max must be >= 2" and
        # "N must be >= 1", which named no flag
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    def test_a_k_max_above_the_cap_is_refused_before_any_work(
            self, capsys, monkeypatch):
        # --k-max 10^8 scanned ||k omega|| one big integer at a time for
        # minutes; the refusal names the flag and expands no fraction
        from ergorate import cli
        monkeypatch.setattr(cli, "expand_cf", None)
        assert cli_main(["classify", "--freq", "golden", "--k-max",
                         str(CLASSIFY_MAX_K + 1)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            f"error: --k-max must be int in [2, {CLASSIFY_MAX_K}], "
            f"got {CLASSIFY_MAX_K + 1}\n")

    def test_decimal_fixed_point_refusal_exit_code(self, capsys):
        # 100 decimal digits enclose the value within 10^-100, about 2^-332,
        # so no enclosure they give can certify 1100 bits
        rc = cli_main(["--precision-bits", "1100", "classify",
                       "--freq", f"dec:{PI100}"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("envelope", [
        "dc:alpha=0.5", "transd:alpha=0.5", "transd:alpha=0.5,A=3.0",
        "skew:alpha=0.5", "modulus:alpha=0.5", "sdc:foo=1",
        "sdc:alpha=0.5,modulus=1",
    ])
    def test_bad_envelope_exit_code(self, capsys, envelope):
        # each died with a TypeError traceback at the first shape call
        rc = cli_main(["rate", "--system", "rotation1d:golden",
                       "--observable", "cos", "--schedule", "list:100,200,300",
                       "--grid", "64", "--envelope", envelope])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_ostrowski(self, capsys):
        assert cli_main(["ostrowski", "--freq", "sqrt2m1", "-n", "29"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["digits"][-1] == 1

    def test_rate(self, capsys, tmp_path):
        rc = cli_main([
            "--out-dir", str(tmp_path), "rate",
            "--system", "rotation1d:golden",
            "--observable", "dist_pow:0.5",
            "--schedule", "list:100,200,400",
            "--grid", "64",
            "--envelope", "sdc:alpha=0.5",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["points"]) == 3
        assert list(tmp_path.glob("rate-*.csv"))

    def test_kernel(self, capsys):
        rc = cli_main(["kernel", "--frequencies", "golden",
                       "--n-values", "1000", "--max-q", "100"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["within_cap"]

    def test_approx(self, capsys):
        rc = cli_main(["approx", "--observable", "dist_pow:0.5",
                       "--n-values", "16,32"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out[0]["sup_error"] > out[1]["sup_error"]

    def test_sharp(self, capsys):
        rc = cli_main(["sharp", "--frequency", "pq:rule:spike:7,1000",
                       "--alpha", "0.5", "--m-values", "6"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["reports"][0]["passed"] is True

    def test_skew(self, capsys):
        rc = cli_main(["skew", "--frequency", "golden", "--d", "2",
                       "--k", "1,0", "--n-values", "1000,2000"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["scale"] > 0

    def test_scenario(self, capsys):
        rc = cli_main(["scenario", "cf_suite"])
        assert rc == 0
        assert "[PASS] cf_suite" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["rate", "--system", "rotation1d:golden", "--observable", "cos",
         "--schedule", "list:100", "--grid", "64"],
        ["skew", "--frequency", "golden", "--d", "2", "--k", "1,0",
         "--n-values", "1000"],
        ["approx", "--observable", "lacunary:holder:0.5", "--n-values", "16"],
        ["sharp", "--alpha", "0.5", "--frequency", "pq:rule:spike:7,1000",
         "--m-values", "6"],
    ])
    def test_any_width_runs(self, argv, capsys):
        # from 1,024 bits 2**bits is no double: each died with OverflowError
        assert cli_main(["--precision-bits", "1100", *argv]) == 0

    def test_an_uncertified_series_exits_2(self, capsys):
        # at 64 bits this printed lower_dev_at_0 4.3e-9 off and passed: both
        # routes share the rounded omega, so identity_gap read 0.0
        rc = cli_main(["--precision-bits", "64", "sharp", "--frequency",
                       "pq:rule:spike:7,1000", "--alpha", "0.5", "--m-values", "6"])
        assert rc == 2
        assert "precision_bits >= 149" in capsys.readouterr().err

    def test_a_fractional_width_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("precision_bits = 200.7\nsystem = rotation1d:golden\n"
                       "observable = cos\nschedule = list:100\ngrid = 64\n")
        assert cli_main(["--config", str(cfg), "rate"]) == 2
        assert "precision_bits" in capsys.readouterr().err

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "system = rotation1d:golden\nobservable = cos\n"
            "schedule = list:100\ngrid = 64\n"
        )
        assert cli_main(["--config", str(cfg), "rate"]) == 0

    def test_nan_gap_constant_exit_code(self, capsys, tmp_path):
        # golden m = 5 reported "hypothesis: ok" and passed with this file
        cfg = tmp_path / "sharp.cfg"
        cfg.write_text("frequency = golden\nm_values = [5]\ngap_constant = nan\n")
        assert cli_main(["--config", str(cfg), "sharp"]) == 2
        assert "gap_constant" in capsys.readouterr().err

    @pytest.mark.parametrize("command,text", [
        ("rate", "system = rotation1d:golden\nobservable = cos\n"
                 "schedule = list:100,200,300\ngrid = 64\n"),
        ("sharp", "frequency = pq:rule:spike:7,1000\nalpha = 0.5\n"
                  "m_values = [6]\n"),
    ], ids=["rate", "sharp"])
    def test_a_closed_stdout_is_no_error(self, tmp_path, command, text):
        # `ergorate ... | head -3` ended in a BrokenPipeError traceback, exit 1
        (tmp_path / "run.cfg").write_text(text + "out_dir = out\n")
        src = str(Path(ergorate.__file__).resolve().parents[1])
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "ergorate.cli", "--config", "run.cfg",
                 command], cwd=tmp_path, stdout=write_end,
                stderr=subprocess.PIPE, text=True, timeout=120,
                env=dict(os.environ, PYTHONPATH=src))
        finally:
            os.close(write_end)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert len(list((tmp_path / "out").glob(f"{command}-*"))) == 2

    def test_error_exit_code(self, capsys):
        rc = cli_main(["cf", "--freq", "dec:0.123", "--max-q", "10"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_non_finite_summary_is_strict_json(self, capsys, tmp_path):
        # one schedule point leaves the slope and the envelope fit undefined
        rc = cli_main(["--out-dir", str(tmp_path), "rate",
                       "--system", "rotation1d:golden", "--observable", "cos",
                       "--schedule", "list:100", "--grid", "64"])
        assert rc == 0
        out = _strict_json(capsys.readouterr().out)
        assert out["fitted_slope"] is None
        (manifest,) = tmp_path.glob("rate-*-manifest.json")
        summary = _strict_json(manifest.read_text())["summary"]
        assert summary["fitted_slope"] is None and summary["tail_ratio"] is None

    def test_unknown_observable_exit_code(self, capsys):
        rc = cli_main(["rate", "--system", "rotation1d:golden",
                       "--observable", "nosuch", "--schedule", "list:100",
                       "--grid", "64"])
        assert rc == 2
        assert "nosuch" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["kernel", "--frequencies", "golden", "--n-values", "1,a"],
        ["sharp", "--frequency", "golden", "--m-values", "1,a"],
        ["skew", "--frequency", "golden", "--d", "2", "--k", "1,a"],
        ["skew", "--frequency", "golden", "--d", "2", "--k", "1,0",
         "--n-values", "1,a"],
        ["approx", "--n-values", "1,a"],
    ])
    def test_malformed_int_list_exit_code(self, capsys, argv):
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'a'" in err

    def test_skew_step_below_the_double_range_exit_code(self, capsys,
                                                         tmp_path):
        # omega = (sqrt5 - 1) / 2^1091 has a 1100-bit step whose sine is
        # 0.0: the degree-1 closed form divided by it and died with a
        # ZeroDivisionError traceback
        rc = cli_main(["--out-dir", str(tmp_path), "--precision-bits", "1100",
                       "skew", "--frequency", f"surd:(-1,1,5,{2 ** 1091})",
                       "--d", "2", "--k", "0,1", "--n-values", "7"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_mode_index_past_the_series_exit_code(self, capsys):
        rc = cli_main(["sharp", "--frequency", "golden", "--alpha", "0.5",
                       "--m-values", "1000"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "m=1000" in err
        assert len(err.strip().splitlines()) == 1

    def test_approx_creates_out_dir(self, capsys, tmp_path):
        out = tmp_path / "new" / "dir"
        rc = cli_main(["--out-dir", str(out), "approx",
                       "--observable", "dist_pow:0.5", "--n-values", "16"])
        assert rc == 0
        (csv,) = out.glob("approx-*.csv")
        assert csv.read_text().startswith("n,")

    @pytest.mark.parametrize("argv,needle", [
        (["kernel", "--frequencies", "golden", "--n-values", "1000",
          "--max-q", "0"], "max_q"),
        (["kernel", "--frequencies", "golden", "--n-values", "1000",
          "--max-q", "1"], "max_q"),
        (["--precision-bits", "0", "cf", "--freq", "golden"], "bits"),
        (["--precision-bits", "0", "rate", "--system", "rotation1d:golden",
          "--observable", "cos", "--schedule", "list:100", "--grid", "64"],
         "bits"),
        (["rate", "--system", "rotation1d:golden", "--observable",
          "lacunary:holder", "--schedule", "list:100"], "exponent"),
        (["rate", "--system", "rotation1d:golden", "--observable",
          "lacunary:holder:0", "--schedule", "list:100"], "exponent"),
        (["skew", "--frequency", "golden", "--d", "2", "--k", "0,0",
          "--n-values", "1000"], "nonzero"),
    ] + [
        (["rate", "--system", "rotation1d:golden", "--observable", key,
          "--schedule", "list:100"], "tolerance")
        for key in ("lacunary:holder:0.5:0", "lacunary:holder:0.5:nan",
                    "lacunary:holder:0.5:-1", "lacunary:holder:0.5:inf",
                    "lacunary:holder:0.5:x", "lacunary:holder:0.5:1e-300",
                    "lacunary:analytic:0",
                    "lacunary:analytic:-1e-12")
    ] + [  # too small: q^-alpha / (1 - 2^-alpha) overflows or divides by 0
        (["rate", "--system", "rotation1d:golden", "--observable",
          f"lacunary:holder:{alpha}", "--schedule", "list:100"], "exponent")
        for alpha in ("1e-10", "1e-17")
    ])
    def test_zero_valued_flags_exit_code(self, capsys, argv, needle):
        # 0 and 1 are explicit values, not "flag absent"; a missing or zero
        # Holder exponent, an all-zero k and a lacunary tolerance outside
        # (0, inf) fail closed, not with a traceback
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and needle in err
