"""Workload definitions, output extraction and the correctness gate.

A workload is a fixed list of experiments run through the public
``harness.run_*_experiment`` entry points, each writing its CSV and manifest
to an output directory as the CLI does.  One *operation* is one schedule
point (rate), one (q, N) cell (kernel), one character-sum row (skew) or one
``m`` report (sharp).  Every operation is compared with reference values
recorded by ``record_refs.py`` from the library source; nothing is compared
with the same run's own output.

The workload seed feeds only the random inputs: the coefficient seed of
``poly_plus_dist`` and the start-point seed of the skew character sums.  It
is reduced modulo ``N_VARIANTS`` so that every seed has recorded references.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if not (SRC / "ergorate" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no ergorate source tree under {SRC}")
sys.path.insert(0, str(SRC))

from ergorate import harness  # noqa: E402
from ergorate.arithmetic import Frequency, expand_cf  # noqa: E402
from ergorate.envelopes import Envelope  # noqa: E402
from ergorate.harness import ExperimentConfig  # noqa: E402

REFS_PATH = Path(__file__).resolve().parent / "refs.json"
N_VARIANTS = 16
POLY_SEED_BASE = 5   # translation_2d scenario's poly_plus_dist seed
SKEW_SEED_BASE = 7   # weyl_envelope scenario's start-point seed

# Tolerances: the acceptance scenarios' own, never looser.
SUP_DEV_REL = 1e-9       # sup_dev, kernel sums, sharpness ratios (relative)
CHAR_SUM_ABS = 1e-9      # character sums (absolute)
IDENTITY_ABS = 1e-10     # decomposition identity and window averages

# Denjoy-Koksma bound for ||x||^0.5: sup_dev * q^a <= ||phi||_a = 0.5^a + 1.
DK_NORM = 0.5 ** 0.5 + 1.0


def _exp(label, kind, seeded=False, **values):
    return {"label": label, "kind": kind, "seeded": seeded, "values": values}


# Every schedule and every m list is explicit: budget_s is checked only
# between points, so a default witness schedule could run unbounded.
WORKLOADS = {
    # Per-mode O(N) character sums (lacunary and trig modes); no big-integer
    # register loops and no pointwise observable evaluation on the grid.
    "rate_modes": [
        _exp("lacunary_golden", "rate",
             system="rotation1d:golden", observable="lacunary:holder:0.5",
             schedule="geometric:100,1000000,2", grid=1024,
             envelope="sdc:alpha=0.5"),
        _exp("translation_2d", "rate", seeded=True,
             system="rotationd:sqrt2m1,sqrt3m1",
             observable="poly_plus_dist:8:0.5:{poly_seed}",
             schedule="geometric:100,100000,3.1622776601683795", grid=64,
             envelope="transd:alpha=0.5,A=3.0,d=2"),
    ],
    # O(N*G) pointwise evaluation of an observable with no finite spectrum.
    "rate_grid": [
        _exp("dist_pow_convergents", "rate",
             system="rotation1d:golden", observable="dist_pow:0.5",
             schedule="convergents:100000", grid=1024,
             envelope="dk:alpha=0.5"),
    ],
    # Python big-integer register loops: kernel sums, skew character sums
    # and the brute-force skew deviation field; no mode sums.
    "exact_sums": [
        _exp("kernel", "kernel", frequencies=["golden", "pq:rule:index"],
             n_values=[1000, 100000], max_q=317811, ratio_cap=10.0),
        _exp("skew_d2", "skew", seeded=True, d=2, frequency="golden",
             k=[1, 0], n_values=[1000, 3162, 10000, 31623, 100000],
             eps=0.05, x_batch=4, seed="{skew_seed}"),
        _exp("skew_d3", "skew", seeded=True, d=3, frequency="golden",
             k=[1, 0, 0], n_values=[1000, 10000, 100000],
             eps=0.05, x_batch=4, seed="{skew_seed}"),
        _exp("skew_rate", "rate", system="skew:2:golden",
             observable="dist_pow:0.5", schedule="geometric:100,3200,2",
             grid=16),
    ],
    # The mode-sum mathematics of rate_modes as many short window averages,
    # plus hypothesis-not-met reports; the only sharpness-layer workload.
    "sharp_windows": [
        _exp("spike_7", "sharp", frequency="pq:rule:spike:7,1000",
             alpha=0.5, m_values=[6]),
        _exp("spike_9", "sharp", frequency="pq:rule:spike:9,3000",
             alpha=0.5, m_values=[8]),
        _exp("spike_11", "sharp", frequency="pq:rule:spike:11,20000",
             alpha=0.5, m_values=[10]),
        _exp("index", "sharp", frequency="pq:rule:index", alpha=0.5,
             m_values=[4, 5, 6, 7, 8, 9]),
        _exp("exp_gap", "sharp", frequency="pq:rule:exp_gap:5",
             weight="analytic", m_values=[3, 4, 5]),
    ],
}

# Looked up on the module at call time, so a traced run sees its wrappers.
RUNNERS = {
    "rate": "run_rate_experiment",
    "kernel": "run_kernel_experiment",
    "sharp": "run_sharpness_experiment",
    "skew": "run_skew_experiment",
}


def variant_of(seed: int) -> int:
    return seed % N_VARIANTS


def ref_key(exp: dict, variant: int) -> str:
    return str(variant) if exp["seeded"] else "*"


def config_values(exp: dict, variant: int) -> dict:
    """The experiment's config with the workload seed substituted."""
    subs = {"poly_seed": POLY_SEED_BASE + variant,
            "skew_seed": SKEW_SEED_BASE + variant}
    out = {}
    for key, val in exp["values"].items():
        if isinstance(val, str) and "{" in val:
            val = val.format(**subs)
            val = int(val) if val.isdigit() else val
        out[key] = val
    return out


def resolve(exp: dict, variant: int) -> None:
    """The config resolution an experiment performs before its first point:
    system, observable and schedule for rate runs, the continued-fraction
    expansions for the others."""
    v = config_values(exp, variant)
    kind = exp["kind"]
    if kind == "rate":
        sys_spec = harness.resolve_system(v["system"])
        harness.resolve_observable(v["observable"], sys_spec)
        harness.resolve_schedule(v["schedule"], sys_spec)
    elif kind == "kernel":
        for text in v["frequencies"]:
            expand_cf(Frequency.parse(text), max_q=v["max_q"])
    elif kind == "sharp":
        sys_spec = harness.resolve_system("rotation1d:" + v["frequency"])
        weight = ("lacunary:analytic" if v.get("weight") == "analytic"
                  else f"lacunary:holder:{v['alpha']}")
        harness.resolve_observable(weight, sys_spec)
    elif kind == "skew":
        omega = Frequency.parse(v["frequency"])
        k = v["k"]
        first = next(i for i, ki in enumerate(k) if ki)
        lead = omega.scale(k[first], math.factorial(v["d"] - first))
        expand_cf(lead, max_q=max(v["n_values"]) * 64)


# ---------------------------------------------------------------------------
# outputs: one list of operation rows per experiment
# ---------------------------------------------------------------------------


def extract(kind: str, result) -> list:
    """The per-operation values the gate compares, as JSON-ready rows."""
    if kind == "rate":
        return [{"N": int(n), "sup_dev": float(v)} for n, v in result.points]
    if kind == "kernel":
        return [{"frequency": r["frequency"], "q": int(r["q"]),
                 "N": int(r["N"]), "sum": float(r["sum"])}
                for r in result["rows"]]
    if kind == "skew":
        return [{"N": int(r["N"]), "q": int(r["q"]),
                 "max_char_sum": float(r["max_char_sum"])}
                for r in result["rows"]]
    rows = []
    for r in result["reports"]:
        row = {"m": int(r["m"]), "q_m": int(r["q_m"]),
               "identity_gap": float(r["identity_gap"]),
               "lower_dev_at_0": float(r["lower_dev_at_0"]),
               "hypothesis_ok": r["hypothesis"] == "ok"}
        if row["hypothesis_ok"]:
            row.update({"min_ratio": float(r["min_ratio"]),
                        "l_bar": int(r["l_bar"]), "N_m": int(r["N_m"]),
                        "ratio_Nm": float(r["ratio_Nm"]),
                        "passed": bool(r["passed"])})
        rows.append(row)
    return rows


def _rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _finite(row: dict) -> bool:
    return all(math.isfinite(v) for v in row.values()
               if isinstance(v, float))


def row_ok(kind: str, got: dict, ref: dict) -> bool:
    """One operation against its reference; a non-finite value fails."""
    if not _finite(got):
        return False
    exact = [k for k, v in ref.items() if not isinstance(v, float)]
    if any(got.get(k) != ref[k] for k in exact):
        return False
    if kind == "rate":
        return _rel_close(got["sup_dev"], ref["sup_dev"], SUP_DEV_REL)
    if kind == "kernel":
        return _rel_close(got["sum"], ref["sum"], SUP_DEV_REL)
    if kind == "skew":
        return abs(got["max_char_sum"] - ref["max_char_sum"]) <= CHAR_SUM_ABS
    ok = (got["identity_gap"] < IDENTITY_ABS
          and abs(got["lower_dev_at_0"] - ref["lower_dev_at_0"]) <= IDENTITY_ABS)
    if ref["hypothesis_ok"]:
        ok = ok and all(_rel_close(got[k], ref[k], SUP_DEV_REL)
                        for k in ("min_ratio", "ratio_Nm"))
    return ok


def gate_ok(exp: dict, result) -> bool:
    """The experiment-level gates of the acceptance scenarios.  Each is
    written so that a NaN fails it."""
    kind = exp["kind"]
    v = exp["values"]
    if kind == "rate":
        if not math.isfinite(result.fitted_slope):
            return False
        if v.get("envelope", "").startswith("sdc"):
            # rate_envelope: slope range, scale dominance, tail tightness
            if not (-0.65 <= result.fitted_slope <= -0.40
                    and result.tail_ratio >= 0.05):
                return False
        if v.get("envelope", "").startswith("dk"):
            # Denjoy-Koksma at every convergent
            if not all(dev * n ** 0.5 <= DK_NORM for n, dev in result.points):
                return False
        if "envelope" in v:
            env = Envelope.parse(v["envelope"])
            scale = result.envelope_scale
            if not (0 < scale < math.inf):
                return False
            return all(dev <= scale * env.shape(n) * (1 + 1e-12)
                       for n, dev in result.points if n >= 3)
        return True
    if kind == "kernel":
        r = result["max_ratio"]
        return math.isfinite(r) and r <= result["cap"]
    if kind == "skew":
        # weyl_envelope: one finite scale dominates every N
        scale = result["scale"]
        return (0 < scale < math.inf and all(
            r["max_char_sum"] <= scale * r["weyl_shape"] * (1 + 1e-12)
            for r in result["rows"]))
    return True


def emitted_ok(kind: str, out_dir: Path, result_hash: str, n_rows: int) -> bool:
    """The CSV and manifest were written and the CSV holds every row."""
    csv = out_dir / f"{kind}-{result_hash}.csv"
    manifest = out_dir / f"{kind}-{result_hash}-manifest.json"
    if not (csv.is_file() and manifest.is_file()):
        return False
    lines = csv.read_text().splitlines()
    return len(lines) == n_rows + 1 and json.loads(manifest.read_text())["kind"] == kind


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------


class PassResult:
    """Operation tallies of one pass.  `done` counts the operations of the
    experiments that finished, so an interrupted pass can fail the rest."""

    def __init__(self):
        self.done = 0
        self.failed = 0
        self.errors: list = []


def load_refs() -> dict:
    return json.loads(REFS_PATH.read_text())


def run_experiment(exp: dict, variant: int, out_dir: Path):
    values = config_values(exp, variant)
    values["out_dir"] = str(out_dir)
    cfg = ExperimentConfig(values)
    return cfg, getattr(harness, RUNNERS[exp["kind"]])(cfg)


def run_pass(name: str, variant: int, out_dir: Path, refs: dict,
             res: PassResult) -> None:
    """Run every experiment of a workload once and check every operation.

    An exception fails every operation of its experiment; a failed gate or
    missing output file likewise.  Interrupts derived from BaseException
    (the wall-clock cap) propagate to the caller with `res` up to date.
    """
    for exp in WORKLOADS[name]:
        kind = exp["kind"]
        ref_rows = refs[name][exp["label"]][ref_key(exp, variant)]
        n_ops = len(ref_rows)
        try:
            cfg, result = run_experiment(exp, variant, out_dir)
        except Exception as exc:  # any library error fails the operations
            bad = n_ops
            res.errors.append(f"{exp['label']}: {type(exc).__name__}: {exc}")
        else:
            rows = extract(kind, result)
            whole_ok = (gate_ok(exp, result) and len(rows) == n_ops
                        and emitted_ok(kind, out_dir, cfg.config_hash(), n_ops))
            bad = n_ops if not whole_ok else sum(
                not row_ok(kind, got, ref) for got, ref in zip(rows, ref_rows))
            if bad:
                res.errors.append(f"{exp['label']}: {bad} of {n_ops} operations "
                                  f"failed the check (gate ok: {whole_ok})")
        res.failed += bad
        res.done += n_ops


def operation_count(name: str, variant: int, refs: dict) -> int:
    return sum(len(refs[name][e["label"]][ref_key(e, variant)])
               for e in WORKLOADS[name])
