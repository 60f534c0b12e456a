"""Command-line entry points.

Subcommands map onto the library's main surfaces: continued fractions,
Diophantine classification, rate/kernel/sharpness/skew experiments,
trigonometric approximation tables, Ostrowski digits, and the named
verification scenarios.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .arithmetic import (DEFAULT_BITS, Frequency, classify, expand_cf,
                         ostrowski_digits)
from .errors import ConfigError, ErgorateError
from .harness import (CONFIG_GRAMMAR, ExperimentConfig, emit_csv, emit_json,
                      json_text, resolve_observable, resolve_system,
                      run_kernel_experiment, run_rate_experiment,
                      run_sharpness_experiment, run_skew_experiment)
from .kernels import approximation_errors
from .scenarios import SCENARIOS, run_scenario


def _load_config(args, overrides: dict) -> ExperimentConfig:
    values = (ExperimentConfig.parse(Path(args.config).read_text()).values
              if args.config else {})
    overrides.update(precision_bits=args.precision_bits, out_dir=args.out_dir,
                     format=args.format)
    values.update((k, v) for k, v in overrides.items() if v is not None)
    return ExperimentConfig(values)


def _int_list(text):
    """Comma-separated integers, or None when absent.  Parsed in the command,
    not by argparse, so a malformed list exits 2 through main."""
    return None if text is None else [int(x) for x in text.split(",")]


def _bits(args) -> int:
    return DEFAULT_BITS if args.precision_bits is None else args.precision_bits


def _print(out) -> None:
    """Print text, or any other value as strict JSON.  Once a reader has
    closed stdout early, print to devnull: the command still finishes its run,
    writes its files and exits cleanly."""
    try:
        print(out if isinstance(out, str) else json_text(out), flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def cmd_cf(args) -> int:
    if args.max_q < 1:
        raise ValueError(f"--max-q must be >= 1, got {args.max_q}")
    omega = Frequency.parse(args.freq, _bits(args))
    cf = expand_cf(omega, max_q=args.max_q)
    _print(cf.to_json())
    return 0


def cmd_classify(args) -> int:
    cf = expand_cf(Frequency.parse(args.freq, _bits(args)), max_q=args.max_q)
    rep = classify(cf, k_max=args.k_max)
    _print({
        "gamma_sdc": rep.gamma_sdc,
        "sdc_argmin_k": rep.sdc_argmin_k,
        "gamma_dc": rep.gamma_dc,
        "A_dc": rep.A_dc,
        "beta_estimate": rep.beta_estimate,
        "bb_witnesses": list(rep.bb_witnesses),
        "k_max": rep.k_max,
    })
    return 0


def cmd_rate(args) -> int:
    cfg = _load_config(args, {
        "system": args.system, "observable": args.observable,
        "schedule": args.schedule, "grid": args.grid,
        "envelope": args.envelope,
    })
    series = run_rate_experiment(cfg)
    _print({
        "points": series.points,
        "fitted_slope": series.fitted_slope,
        "envelope_scale": series.envelope_scale,
        "tail_ratio": series.tail_ratio,
        "config_hash": series.config_hash,
    })
    return 0


def cmd_kernel(args) -> int:
    cfg = _load_config(args, {"frequencies": args.frequency,
                              "n_values": _int_list(args.n_values),
                              "max_q": args.max_q})
    out = run_kernel_experiment(cfg)
    _print({"max_ratio": out["max_ratio"], "within_cap": out["within_cap"],
            "rows": len(out["rows"])})
    return 0


def cmd_approx(args) -> int:
    sys_spec = resolve_system(args.system or "rotation1d:golden", _bits(args))
    if sys_spec.dim > 1:
        raise ConfigError(f"approx samples one-dimensional points only; --system "
                          f"{args.system} has dimension {sys_spec.dim}")
    phi = resolve_observable(args.observable, sys_spec)
    rows = approximation_errors(phi, _int_list(args.n_values))
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        emit_csv(rows, out / "approx.csv")
    _print(rows)
    return 0


def cmd_sharp(args) -> int:
    cfg = _load_config(args, {"frequency": args.frequency, "alpha": args.alpha,
                              "m_values": _int_list(args.m_values)})
    out = run_sharpness_experiment(cfg)
    _print(out)
    return 0


def cmd_skew(args) -> int:
    cfg = _load_config(args, {"frequency": args.frequency, "d": args.d,
                              "k": _int_list(args.k),
                              "n_values": _int_list(args.n_values)})
    out = run_skew_experiment(cfg)
    _print({"scale": out["scale"], "tail_ratio": out["tail_ratio"],
            "rows": out["rows"]})
    return 0


def cmd_ostrowski(args) -> int:
    omega = Frequency.parse(args.freq, _bits(args))
    cf = expand_cf(omega, max_q=max(args.n, 2))
    digits = ostrowski_digits(cf, args.n)
    _print({"N": args.n, "digits": digits,
            "q": [int(q) for q in cf.q[: len(digits)]]})
    return 0


def cmd_scenario(args) -> int:
    names = sorted(SCENARIOS) if args.name == "all" else [args.name]
    worst = 0
    for name in names:
        verdict = run_scenario(name)
        status = "PASS" if verdict["passed"] else "FAIL"
        _print(f"[{status}] {name} ({verdict['elapsed_s']}s)")
        if args.verbose:
            _print(verdict)
        if args.out_dir:
            out = Path(args.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            emit_json(verdict, out / f"scenario-{name}.json")
        worst = max(worst, 0 if verdict["passed"] else 1)
    return worst


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ergorate",
        description="Birkhoff-average convergence rates over torus dynamics",
        epilog=CONFIG_GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("--config", help="flat key=value config file")
    ap.add_argument("--precision-bits", type=int, dest="precision_bits")
    ap.add_argument("--out-dir", dest="out_dir")
    ap.add_argument("--format", choices=["csv", "json", "both"])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cf", help="continued-fraction expansion")
    p.add_argument("--freq", required=True)
    p.add_argument("--max-q", type=int, default=10 ** 4)
    p.set_defaults(fn=cmd_cf)

    p = sub.add_parser("classify", help="Diophantine classification report")
    p.add_argument("--freq", required=True)
    p.add_argument("--max-q", type=int, default=10 ** 6)
    p.add_argument("--k-max", type=int, default=10 ** 4)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("rate", help="Birkhoff-rate sweep against an envelope")
    p.add_argument("--system")
    p.add_argument("--observable")
    p.add_argument("--schedule")
    p.add_argument("--grid", type=int)
    p.add_argument("--envelope")
    p.set_defaults(fn=cmd_rate)

    p = sub.add_parser("kernel", help="averaged exponential-sum ratios")
    p.add_argument("--frequency", action="append")
    p.add_argument("--n-values")
    p.add_argument("--max-q", type=int)
    p.set_defaults(fn=cmd_kernel)

    p = sub.add_parser("approx", help="trigonometric approximation errors")
    p.add_argument("--observable", default="dist_pow:0.5")
    p.add_argument("--system")
    p.add_argument("--n-values", default="16,32,64,128")
    p.set_defaults(fn=cmd_approx)

    p = sub.add_parser("sharp", help="lacunary lower-bound measurements")
    p.add_argument("--frequency")
    p.add_argument("--alpha", type=float)
    p.add_argument("--m-values")
    p.set_defaults(fn=cmd_sharp)

    p = sub.add_parser("skew", help="skew-product character sums vs envelope")
    p.add_argument("--frequency")
    p.add_argument("--d", type=int)
    p.add_argument("--k")
    p.add_argument("--n-values")
    p.set_defaults(fn=cmd_skew)

    p = sub.add_parser("ostrowski", help="mixed-radix digits of an integer")
    p.add_argument("--freq", required=True)
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(fn=cmd_ostrowski)

    p = sub.add_parser("scenario", help="run a named verification scenario")
    p.add_argument("name", help="scenario name or 'all'")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_scenario)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ErgorateError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
