"""Experiment configuration, sweep orchestration and CSV/JSON emission.

Config files are flat key = value text (see CONFIG_GRAMMAR).  Identical
configs produce identical output bytes: iteration order is fixed, floats are
emitted with shortest round-trip repr, and wall-clock timings only enter the
CSV when explicitly enabled.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from sys import float_info
from typing import Optional, Sequence

import numpy as np

from . import sharpness
from .arithmetic import (DEFAULT_BITS, Frequency, borel_bernstein_schedule,
                         expand_cf, find_convergent_at_scale)
from .dynamics import (CharSweep, GridSweep, SystemSpec, TorusPoint,
                       char_birkhoff_skew, kernel_sum, kernel_table,
                       sup_deviation)
from .envelopes import Envelope, fit_scale, weyl_bound
from .errors import ConfigError, Timeout
from .kernels import (Observable, approximation_error, jackson_coeffs,
                      make_dist_pow, make_observable, make_separable,
                      random_real_trigpoly)
from .sharpness import AnalyticWeight, HolderWeight, build_lacunary

CONFIG_GRAMMAR = """\
Config grammar (one pair per line):

    key = value          # trailing comments allowed
    # full-line comment

Keys are [a-z_][a-z0-9_]* strings.  Values are typed by shape:
    123                  -> int
    1.5e-3               -> float
    true / false         -> bool
    [v1, v2, ...]        -> list of the above
    anything else        -> string (quotes optional, stripped)
A comma or # inside double quotes is text: a list splits only at commas,
and a comment starts only at a #, outside them.  Inside quotes, "" is one
". Text holds no line break.  A key appears once.  Serialization orders
keys alphabetically and quotes text where needed, so
parse(serialize(cfg)) == cfg.
"""


def _parse_scalar(text: str):
    t = text.strip()
    if t.startswith('"') and t.endswith('"') and len(t) >= 2:
        return t[1:-1].replace('""', '"')
    if t in ("true", "false"):
        return t == "true"
    for cast in (int, float):
        try:
            return cast(t)
        except ValueError:
            pass
    return t


def _format_scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, str):  # quoted where it would read back as another value
        if (v and _parse_scalar(v) == v and v[:1] + v[-1:] != "[]"
                and not any(c in v for c in ',"#')):
            return v
        return '"' + v.replace('"', '""') + '"'
    return str(v)


def _split_unquoted(text: str, sep: str) -> list:
    """text cut at each sep that lies outside double quotes."""
    parts, start, quoted = [], 0, False
    for i, c in enumerate(text):
        if c == '"':
            quoted = not quoted
        elif c == sep and not quoted:
            parts.append(text[start:i])
            start = i + 1
    return parts + [text[start:]]


# Each config key: its type and domain, and the commands that read it.  A
# number is read as a float; a list key takes a lone value as a list of one,
# each item in the domain.  Each key is also the flag --<key> (with _ as -) of
# the runs that read it; a key every run reads is a top-level flag, which the
# other commands in its row read too.
_EVERY_RUN = "rate kernel approx sharp skew"
KERNEL_MAX_Q = 1 << 24  # a kernel table of max_q doubles is 128 MB
_KEYS = {
    "precision_bits": ("int in [64, inf)", _EVERY_RUN + " cf classify ostrowski"),
    "budget_s": ("number in (0, inf)", _EVERY_RUN),
    "out_dir": ("text", _EVERY_RUN + " scenario"),
    "format": ("text in {csv, json, both}", _EVERY_RUN),
    "system": ("text", "rate approx"), "observable": ("text", "rate approx"),
    "schedule": ("text", "rate"), "envelope": ("text", "rate"),
    "grid": ("int in [16, inf)", "rate"), "timings": ("bool", "rate"),
    "frequencies": ("nonempty text list", "kernel"),
    "n_values": ("nonempty int list in [1, inf)", "kernel approx skew"),
    "max_q": (f"int in [2, {KERNEL_MAX_Q}]", "kernel"),
    "ratio_cap": ("number in (0, inf)", "kernel"),
    "frequency": ("text", "sharp skew"),
    "weight": ("text in {holder, analytic}", "sharp"),
    "alpha": ("number in (0, 1]", "sharp"),
    "m_values": ("nonempty int list in [1, inf)", "sharp"),
    "d": ("int in [2, inf)", "skew"), "k": ("nonempty int list", "skew"),
    "eps": ("number in [0, 1]", "skew"), "x_batch": ("int in [0, inf)", "skew"),
    "seed": ("int in [0, inf)", "skew"),
}


def _fits(v, kind: str, domain: str) -> bool:
    """Whether v is of kind (an int, a number, a bool or text) and inside
    domain: an interval such as "(0, 1]", a set such as "{csv, json}", or ""."""
    if type(v) not in {"int": (int,), "number": (int, float), "bool": (bool,),
                       "text": (str,)}[kind]:
        return False
    if domain[:1] not in ("[", "("):
        return not domain or v in domain[1:-1].split(", ")
    lo, hi = (float(b) for b in domain[1:-1].split(","))
    return (lo <= v if domain[0] == "[" else lo < v) and (
        v <= hi if domain[-1] == "]" else v < hi) and (
        kind == "int" or abs(v) <= float_info.max)  # a number is a double


@dataclass
class ExperimentConfig:
    values: dict = field(default_factory=dict)

    def start(self, run: str):
        """Refuse a key that `run` does not read, and a value outside its
        key's type and domain, before the run does any work.  Returns the
        run's budget check, which raises Timeout once budget_s has passed."""
        for key in self.values:
            if run not in _KEYS.get(key, ("", ""))[1].split():
                raise ConfigError(f"{run} does not read config key {key}")
            self.get(key)
        budget, t0 = self.get("budget_s"), time.monotonic()

        def check_budget():
            if budget is not None and time.monotonic() - t0 > budget:
                raise Timeout(f"{run} run exceeded budget of {budget}s")
        return check_budget

    def get(self, key: str, default=None):
        """The value of key, checked against its type and domain in _KEYS,
        or default when the key is absent."""
        if key not in self.values:
            return default
        v, (shape, _) = self.values[key], _KEYS[key]
        kind, _, domain = shape.removeprefix("nonempty ").partition(" in ")
        many = kind.endswith(" list")
        items = v if many and isinstance(v, list) else [v]
        if not items or not all(_fits(i, kind.split()[0], domain) for i in items):
            raise ConfigError(f"config key {key} must be {shape}, got {v!r}")
        return items if many else float(v) if kind == "number" else v

    def require(self, key: str):
        if key not in self.values:
            raise ConfigError(f"missing required config key {key!r}")
        return self.get(key)

    def serialize(self) -> str:
        lines = []
        for key in sorted(self.values):
            v = self.values[key]
            if isinstance(v, list):
                body = "[" + ", ".join(_format_scalar(x) for x in v) + "]"
            else:
                body = _format_scalar(v)
            lines.append(f"{key} = {body}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.serialize().encode()).hexdigest()[:16]

    @staticmethod
    def parse(text: str) -> "ExperimentConfig":
        values: dict = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = _split_unquoted(raw, "#")[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
            key, _, body = (part.strip() for part in line.partition("="))
            if not key.isidentifier():
                raise ConfigError(f"line {lineno}: bad key {key!r}")
            if key in values:
                raise ConfigError(f"line {lineno}: config key {key} given twice")
            if body.startswith("[") and body.endswith("]"):
                inner = body[1:-1].strip()
                values[key] = (
                    [_parse_scalar(x) for x in _split_unquoted(inner, ",")]
                    if inner else []
                )
            else:
                values[key] = _parse_scalar(body)
        return ExperimentConfig(values)


# ---------------------------------------------------------------------------
# resolution: systems, observables, schedules
# ---------------------------------------------------------------------------


def resolve_system(text: str, bits: int = DEFAULT_BITS) -> SystemSpec:
    """"rotation1d:<freq>", "rotationd:<freq>,<freq>,..." or "skew:<d>:<freq>",
    every frequency at `bits` fractional bits."""
    kind, _, body = text.partition(":")
    if kind == "rotation1d":
        return SystemSpec.rotation(Frequency.parse(body, bits))
    if kind == "rotationd":
        return SystemSpec.rotation_d([Frequency.parse(p, bits)
                                      for p in body.split(",")])
    if kind == "skew":
        d_text, _, freq_text = body.partition(":")
        return SystemSpec.skew(int(d_text), Frequency.parse(freq_text, bits))
    raise ConfigError(f"unknown system {text!r}")


def resolve_observable(key: str, sys: SystemSpec) -> Observable:
    """Registry keys plus system-coupled constructions.

    lacunary:holder:<alpha>   lacunary series on the system frequency,
    lacunary:analytic         truncated at sharpness.TAIL_TOL
    poly_plus_dist:<deg>:<alpha>:<seed>  fixed random trig poly + ||x_1||^alpha
    """
    name, *params = key.split(":")
    match name, params:
        case "lacunary", ["holder", alpha]:
            alpha = float(alpha)
            if not 0 < alpha <= 1:
                raise ConfigError(f"Holder exponent must be in (0, 1], got {alpha}")
            # a tail ~ C q^-alpha below TAIL_TOL/4 leaves the doubling bound room
            geo = 1.0 / (1.0 - 2.0 ** -alpha)
            try:
                target = int((8 * geo / sharpness.TAIL_TOL) ** (1 / alpha)) + 10
            except OverflowError:
                raise ConfigError(f"Holder exponent {alpha} is too small: the series"
                                  f" would need modes beyond any double") from None
            weight = HolderWeight(alpha)
        case "lacunary", ["analytic"]:
            weight, target = AnalyticWeight(), 10 ** 12
        case "lacunary", _:
            raise ConfigError(f"{key!r} is neither lacunary:holder:<exponent> nor "
                              f"lacunary:analytic (the tolerance is fixed at "
                              f"sharpness.TAIL_TOL = {sharpness.TAIL_TOL})")
        case "poly_plus_dist", [deg, alpha, seed]:
            deg = int(deg)
            if deg < 0:
                raise ConfigError(f"poly_plus_dist degree must be >= 0, got {deg}")
            poly = random_real_trigpoly(sys.dim, deg, seed=int(seed), scale=0.25)
            dist = make_dist_pow(float(alpha), dim=1)
            return make_separable(sys.dim, poly, [(0, dist)])
        case _:
            try:
                return make_observable(key, sys.dim)
            except KeyError as exc:
                raise ConfigError(exc.args[0]) from None
    cf = expand_cf(sys.freqs[0], max_q=target)
    return build_lacunary(cf, weight)


def resolve_schedule(text: str, sys: SystemSpec) -> list[int]:
    """"geometric:lo,hi,factor", "convergents:max_q", or "list:n1,n2,..."."""
    kind, _, body = text.partition(":")
    if kind == "geometric":
        lo_s, hi_s, f_s = body.split(",")
        lo, hi, f = float(lo_s), float(hi_s), float(f_s)
        if not (lo >= 1 and hi >= lo and f > 1):
            raise ConfigError(f"bad geometric schedule {text!r}")
        out = []
        x = lo
        while x <= hi * (1 + 1e-9):
            n = int(round(x))
            if not out or n > out[-1]:
                out.append(n)
            x *= f
        return out
    if kind == "convergents":
        cf = expand_cf(sys.freqs[0], max_q=int(body))
        if not cf.q:
            raise ConfigError(f"schedule {text!r} has no points")
        return [int(q) for q in cf.q]
    if kind == "list":
        out = sorted({int(x) for x in body.split(",")})
        if out[0] < 1:
            raise ConfigError(f"schedule values must be >= 1 in {text!r}")
        return out
    raise ConfigError(f"unknown schedule {text!r}")


# ---------------------------------------------------------------------------
# rate experiments
# ---------------------------------------------------------------------------


@dataclass
class RateSeries:
    points: list                 # (N, sup_dev), sorted by N
    fitted_slope: float
    envelope: Optional[Envelope]
    envelope_scale: float
    tail_ratio: float
    rows: list                   # CSV rows
    config_hash: str = ""


def run_rate_experiment(cfg: ExperimentConfig) -> RateSeries:
    check_budget = cfg.start("rate")
    sys = resolve_system(cfg.require("system"),
                         cfg.get("precision_bits", DEFAULT_BITS))
    phi = resolve_observable(cfg.require("observable"), sys)
    schedule = resolve_schedule(cfg.require("schedule"), sys)
    grid = cfg.get("grid", 1024 if sys.dim == 1 else 64)
    env = (Envelope.parse(cfg.get("envelope"))
           if "envelope" in cfg.values else None)
    timings = cfg.get("timings", False)
    # one orbit for the whole schedule, checked against the budget per chunk
    sweep = GridSweep(sys, phi, grid, check=check_budget)

    points, rows = [], []
    for N in schedule:
        t0 = time.monotonic()
        res = sup_deviation(sys, phi, N, grid, sweep)
        wall = (time.monotonic() - t0) * 1000.0
        points.append((N, res.sup_dev))
        rows.append({
            "system": cfg.require("system"),
            "N": N,
            "grid": grid,
            "sup_dev": res.sup_dev,
            "argmax": ";".join(f"{v:.9f}" for v in res.argmax_x.to_floats()),
            "wall_ms": round(wall, 3) if timings else 0.0,
        })
        check_budget()

    # not v <= 0, unlike v > 0, keeps a NaN point, so the fits turn NaN
    pos = [(n, v) for n, v in points if not v <= 0]
    if len(pos) >= 2:
        slope = float(np.polyfit(np.log([n for n, _ in pos]),
                                 np.log([v for _, v in pos]), 1)[0])
    else:
        slope = math.nan
    scale, tail = (math.nan, math.nan)
    in_domain = [(n, v) for n, v in pos if n >= 3]  # envelope domain
    if env is not None and len(in_domain) >= 3:
        scale, tail = fit_scale(in_domain, env)
    series = RateSeries(
        points=points, fitted_slope=slope, envelope=env,
        envelope_scale=scale, tail_ratio=tail, rows=rows,
        config_hash=cfg.config_hash(),
    )
    _maybe_emit(cfg, "rate", rows, extra={
        "fitted_slope": slope, "envelope_scale": scale, "tail_ratio": tail,
    })
    return series


def run_kernel_experiment(cfg: ExperimentConfig) -> dict:
    """Sweep (q_n, N), recording sum_{1<=|k|<q} |E_N(k omega)| ratios."""
    check_budget = cfg.start("kernel")
    bits = cfg.get("precision_bits", DEFAULT_BITS)
    N_list = cfg.require("n_values")
    max_q = cfg.get("max_q", 6765)
    cap = cfg.get("ratio_cap", 10.0)
    rows = []
    max_ratio = 0.0
    all_finite = True
    for ftext in cfg.require("frequencies"):
        omega = Frequency.parse(ftext, bits)
        cf = expand_cf(omega, max_q=max_q)
        ladder = [idx for idx in range(1, cf.certified_len + 1)
                  if cf.q_at(idx) >= 2]
        if not ladder:
            continue
        # one table per N serves the whole ladder; it is released before
        # the next N's is built
        columns = []
        for N in N_list:
            table = kernel_table(cf, N, cf.q_at(ladder[-1]) - 1, check_budget)
            column = []
            for idx in ladder:
                column.append(kernel_sum(table, idx))
                check_budget()
            columns.append(column)
            del table
        for rung in zip(*columns):  # rows in (q, N) order
            for r in rung:
                rows.append({
                    "frequency": ftext, "q": r.q, "N": r.N,
                    "sum": r.total, "ratio": r.ratio,
                })
                max_ratio = max(max_ratio, r.ratio)
                all_finite = all_finite and math.isfinite(r.ratio)
    table = {"rows": rows, "max_ratio": max_ratio, "cap": cap,
             "within_cap": bool(rows) and all_finite and max_ratio <= cap,
             "config_hash": cfg.config_hash()}
    _maybe_emit(cfg, "kernel", rows, extra={"max_ratio": max_ratio, "cap": cap})
    return table


# jackson_coeffs(n) takes O(n^2) time (1.0 s at this cap, 4.1 s at 2^16 on a
# 2-CPU Xeon), and its int64 centre, n^3 / 12, overflows near n = 4.8e6
APPROX_MAX_N = 1 << 15


def run_approx_experiment(cfg: ExperimentConfig) -> list:
    """The sup distance from the observable to its degree-n Jackson
    smoothing (kernels.approximate), one row per n."""
    check_budget = cfg.start("approx")
    ns = cfg.get("n_values", [16, 32, 64, 128])
    if max(ns) > APPROX_MAX_N:
        raise ConfigError(f"n must be <= APPROX_MAX_N = {APPROX_MAX_N}, "
                          f"got {max(ns)}")
    system = cfg.get("system", "rotation1d:golden")
    sys = resolve_system(system, cfg.get("precision_bits", DEFAULT_BITS))
    if sys.dim > 1:
        raise ConfigError(f"approx samples one-dimensional points only; system "
                          f"{system} has dimension {sys.dim}")
    phi = resolve_observable(cfg.get("observable", "dist_pow:0.5"), sys)
    rows = []
    for n in ns:
        kernel = jackson_coeffs(n)
        rows.append({"n": n, "sup_error": approximation_error(phi, kernel),
                     "n_coeffs": int(np.count_nonzero(kernel))})
        check_budget()
    _maybe_emit(cfg, "approx", rows, extra={})
    return rows


def run_sharpness_experiment(cfg: ExperimentConfig) -> dict:
    """Decomposition identity plus window and aggregate lower bounds."""
    check_budget = cfg.start("sharp")
    weight = cfg.get("weight", "holder")
    if weight != "holder" and "alpha" in cfg.values:
        raise ConfigError(f"alpha is read only with weight = holder, "
                          f"got weight = {weight}")
    observable = (f"lacunary:holder:{cfg.get('alpha', 0.5)}"
                  if weight == "holder" else f"lacunary:{weight}")
    phi = resolve_observable(observable, resolve_system(
        "rotation1d:" + cfg.require("frequency"),
        cfg.get("precision_bits", DEFAULT_BITS)))
    ms = cfg.get("m_values") or [m for m in borel_bernstein_schedule(phi.cf)
                                 if 2 <= m < phi.n_modes]
    if not ms:
        raise ConfigError(f"nothing to measure: without m_values, the witness "
                          f"schedule has no m in [2, {phi.n_modes})")
    reports, x0 = [], TorusPoint.zero(1, phi.bits)
    for m in ms:
        rep = sharpness.decompose(phi, m, x0, check_budget)
        entry = {"m": m, "q_m": rep.q_m, "identity_gap": rep.identity_gap,
                 "lower_dev_at_0": rep.lower_dev}
        try:
            lb = sharpness.verify_lower_bound(phi, m, check=check_budget)
            nm = sharpness.verify_Nm_bound(phi, lb, check_budget)
            entry.update({
                "hypothesis": "ok",
                "min_ratio": lb.min_ratio,
                "l_bar": lb.l_bar,
                "N_m": nm.N_m,
                "ratio_Nm": nm.ratio,
                "passed": bool(lb.min_ratio > 0
                               and nm.ratio >= sharpness.RATIO_FLOOR),
            })
        except sharpness.HypothesisNotMet as exc:
            entry.update({"hypothesis": f"not met: {exc}", "passed": None})
        reports.append(entry)
    out = {"reports": reports, "config_hash": cfg.config_hash(),
           "n_modes": phi.n_modes, "tail_bound": phi.tail_bound}
    _maybe_emit(cfg, "sharp", reports, extra={"n_modes": phi.n_modes})
    return out


def run_skew_experiment(cfg: ExperimentConfig) -> dict:
    """Character-sum magnitudes against the Weyl envelope across N."""
    check_budget = cfg.start("skew")
    bits = cfg.get("precision_bits", DEFAULT_BITS)
    d = cfg.get("d", 2)
    omega = Frequency.parse(cfg.require("frequency"), bits)
    k = tuple(cfg.require("k"))
    if len(k) != d or not any(k):
        raise ConfigError(f"k must have length d={d} and a nonzero entry, got {list(k)}")
    N_list = cfg.require("n_values")
    eps = cfg.get("eps", 0.05)
    n_points = cfg.get("x_batch", 4)

    rng = np.random.default_rng(cfg.get("seed", 7))
    xs = [TorusPoint.from_floats(rng.random(d), bits) for _ in range(n_points)]
    xs.append(TorusPoint.zero(d, bits))

    # one sweep per start point; a schedule that steps back restarts them
    sweeps = [CharSweep(omega, k, x, check_budget) for x in xs]
    lead = omega.scale(sweeps[0].leading_num, sweeps[0].leading_den)
    lead_cf = expand_cf(lead, max_q=max(N_list) * 64)

    rows = []
    for N in N_list:
        if N < sweeps[0].j:
            sweeps = [CharSweep(omega, k, x, check_budget) for x in xs]
        # np.max, unlike max, propagates a NaN, so the gates below fail on it
        best = float(np.max([abs(char_birkhoff_skew(sweep, N).value)
                             for sweep in sweeps]))
        _, q = find_convergent_at_scale(lead_cf, N)
        rows.append({
            "N": N, "q": q, "max_char_sum": best,
            "weyl_shape": weyl_bound(d, q, N, eps),
        })
        check_budget()
    shapes = [r["max_char_sum"] / r["weyl_shape"] for r in rows]
    scale = float(np.max(shapes))
    tail = float(np.max(shapes[-max(1, len(shapes) // 3):])) / scale
    out = {"rows": rows, "scale": scale, "tail_ratio": tail, "d": d, "eps": eps,
           "config_hash": cfg.config_hash()}
    _maybe_emit(cfg, "skew", rows, extra={"scale": scale, "tail_ratio": tail})
    return out


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _format_cell(v) -> str:
    if isinstance(v, float):
        return repr(float(v))  # a numpy float64 would print as np.float64(...)
    return str(v)


def emit_csv(rows: Sequence[dict], path) -> None:
    """Deterministic CSV: column order from the first row, repr floats."""
    path = Path(path)
    if not rows:
        path.write_text("")
        return
    cols = list(rows[0].keys())
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(_format_cell(row[c]) for c in cols))
    path.write_text("\n".join(lines) + "\n")


def json_text(obj) -> str:
    """Strict JSON: every NaN or infinite float, numpy floats included,
    becomes null, so no bare NaN/Infinity token is ever written."""

    def finite(v):
        if isinstance(v, dict):
            return {k: finite(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [finite(x) for x in v]
        if isinstance(v, (float, np.floating)) and not math.isfinite(v):
            return None
        return v

    return json.dumps(finite(obj), indent=2, sort_keys=True, allow_nan=False,
                      default=str)


def emit_json(obj, path) -> None:
    Path(path).write_text(json_text(obj) + "\n")


def _maybe_emit(cfg: ExperimentConfig, kind: str, rows, extra: dict) -> None:
    out_dir, fmt = cfg.get("out_dir"), cfg.get("format", "csv")
    if not out_dir:
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{kind}-{cfg.config_hash()}"
    if fmt in ("csv", "both"):
        emit_csv(rows, out / f"{stem}.csv")
    if fmt in ("json", "both"):
        emit_json(rows, out / f"{stem}.json")
    manifest = {
        "kind": kind,
        "config": cfg.values,
        "config_hash": cfg.config_hash(),
        "summary": extra,
    }
    emit_json(manifest, out / f"{stem}-manifest.json")
