"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They run single experiments and single passes in-process (about a minute
in all), not the timed runs.
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
import workloads as wl
from spans import Tracer

REFS = wl.load_refs()
COUNTS = ("_calls", "orbit_steps", "field_cells", "mode_steps", "kernel_terms",
          "char_steps", "windows", "n_modes", "cf_terms", "emit_bytes",
          "rows", "eval_points", "hypothesis_not_met")


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return Path("out")


@pytest.mark.parametrize("seed", [0, 21])
def test_seeded_inputs_pass_the_gate(seed, out_dir):
    """The workload seed changes the random inputs, and every variant has
    references that its outputs meet."""
    variant = wl.variant_of(seed)
    seeded = [(name, e) for name, exps in wl.WORKLOADS.items()
              for e in exps if e["seeded"]]
    assert seeded
    for name, exp in seeded:
        cfg, result = wl.run_experiment(exp, variant, out_dir)
        rows = wl.extract(exp["kind"], result)
        refs = REFS[name][exp["label"]][wl.ref_key(exp, variant)]
        assert wl.gate_ok(exp, result)
        assert len(rows) == len(refs)
        assert all(wl.row_ok(exp["kind"], g, r) for g, r in zip(rows, refs))
        other = REFS[name][exp["label"]][wl.ref_key(exp, (variant + 1) % wl.N_VARIANTS)]
        assert rows != other


def test_seed_maps_to_recorded_variant():
    for seed in (0, 1, 15, 16, 12345, 2 ** 40 + 3):
        v = wl.variant_of(seed)
        for name, exps in wl.WORKLOADS.items():
            for e in exps:
                assert wl.ref_key(e, v) in REFS[name][e["label"]]


def _traced_counts(name: str, out_dir) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        res = wl.PassResult()
        wl.run_pass(name, 0, out_dir, REFS, res)
    finally:
        tracer.uninstall()
    assert res.failed == 0 and res.done == wl.operation_count(name, 0, REFS)
    return {k: v for k, v in tracer.metrics().items() if k.endswith(COUNTS)
            or k == "sharpness.tail_bound"}


@pytest.mark.parametrize("name", ["sharp_windows", "exact_sums"])
def test_traced_counts_repeat_exactly(name, out_dir):
    wl.run_pass(name, 0, out_dir, REFS, wl.PassResult())  # fill caches
    first = _traced_counts(name, out_dir)
    second = _traced_counts(name, out_dir)
    assert first == second
    assert first["harness.emit_bytes"] > 0
    if name == "sharp_windows":
        assert first["sharpness.measure_average_calls"] == 703
        assert first["sharpness.hypothesis_not_met"] > 0
    else:
        assert first["dynamics.kernel_terms"] > 0
        assert first["dynamics.char_steps"] > 0


def test_uninstall_restores_the_library():
    from ergorate import arithmetic, harness, sharpness

    before = (harness.sup_deviation, harness.expand_cf,
              arithmetic.Frequency.fixed_point, sharpness.measure_average)
    tracer = Tracer()
    tracer.install()
    assert harness.sup_deviation is not before[0]
    tracer.uninstall()
    after = (harness.sup_deviation, harness.expand_cf,
             arithmetic.Frequency.fixed_point, sharpness.measure_average)
    assert after == before


def test_rows_fail_on_non_finite_and_off_reference_values():
    ref = {"N": 100, "sup_dev": 0.25}
    assert wl.row_ok("rate", dict(ref), ref)
    assert not wl.row_ok("rate", {"N": 100, "sup_dev": math.nan}, ref)
    assert not wl.row_ok("rate", {"N": 100, "sup_dev": 0.25 * (1 + 1e-8)}, ref)
    assert not wl.row_ok("rate", {"N": 101, "sup_dev": 0.25}, ref)
    skew = {"N": 10, "q": 8, "max_char_sum": 3.0}
    assert not wl.row_ok("skew", {**skew, "max_char_sum": 3.0 + 2e-9}, skew)
    assert not wl.row_ok("skew", {**skew, "max_char_sum": math.inf}, skew)


def test_gates_fail_closed_on_nan():
    kernel = wl.WORKLOADS["exact_sums"][0]
    # max(0.0, nan) keeps 0.0, so the library's own within_cap can pass NaN
    assert not wl.gate_ok(kernel, {"max_ratio": math.nan, "cap": 10.0,
                                   "within_cap": True})
    skew = wl.WORKLOADS["exact_sums"][1]
    assert not wl.gate_ok(skew, {"scale": math.nan, "rows": []})


def test_overrun_fails_the_unfinished_operations(out_dir, monkeypatch):
    monkeypatch.setitem(bench.PASS_CAP_S, "sharp_windows", 0.05)
    run = bench.Run("sharp_windows", 0)
    _, overran = run.one_pass(out_dir)
    assert overran
    assert run.attempted == run.ops and run.failed == run.ops


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(Path(__file__).parent, tmp_path / "perfbench")
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sharp_windows",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
