"""Command-line entry points.

Subcommands map onto the library's main surfaces: continued fractions,
Diophantine classification, Ostrowski digits, the named verification
scenarios, and the five runs (rate, kernel, approx, sharp, skew).  A run's
flags are its config keys (harness._KEYS): `--n-values` sets `n_values`, and
takes the value a config file would.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .arithmetic import (CLASSIFY_MAX_K, DEFAULT_BITS, Frequency, classify,
                         expand_cf, ostrowski_digits)
from .errors import ConfigError, ErgorateError
from .harness import (_KEYS, CONFIG_GRAMMAR, ExperimentConfig, _fits,
                      _parse_scalar, emit_json, json_text,
                      run_approx_experiment, run_kernel_experiment,
                      run_rate_experiment, run_sharpness_experiment,
                      run_skew_experiment)
from .scenarios import SCENARIOS, run_scenario

# each run: its help line, its runner, and the part of its result it prints
_RUNS = {
    "rate": ("Birkhoff-rate sweep against an envelope", run_rate_experiment,
             lambda s: {"points": s.points, "fitted_slope": s.fitted_slope,
                        "envelope_scale": s.envelope_scale,
                        "tail_ratio": s.tail_ratio,
                        "config_hash": s.config_hash}),
    "kernel": ("averaged exponential-sum ratios", run_kernel_experiment,
               lambda out: {"max_ratio": out["max_ratio"],
                            "within_cap": out["within_cap"],
                            "rows": len(out["rows"])}),
    "approx": ("trigonometric approximation errors", run_approx_experiment,
               lambda rows: rows),
    "sharp": ("lacunary lower-bound measurements", run_sharpness_experiment,
              lambda out: out),
    "skew": ("skew-product character sums vs envelope", run_skew_experiment,
             lambda out: {"scale": out["scale"], "tail_ratio": out["tail_ratio"],
                          "rows": out["rows"]}),
}
# the keys every run reads are top-level flags
_TOP_KEYS = [key for key, (_, runs) in _KEYS.items()
             if set(_RUNS) <= set(runs.split())]


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _add_key_flag(parser, key: str) -> None:
    """--<key>, whose value is parsed as a config file's: a text list takes
    one item per flag, any other list comma-separated items."""
    shape = _KEYS[key][0]
    if "text list" in shape:
        kw = {"type": _parse_scalar, "action": "append"}
    elif " list" in shape:
        kw = {"type": lambda t: [_parse_scalar(x) for x in t.split(",")]}
    else:
        kw = {"type": _parse_scalar}
    parser.add_argument(_flag(key), dest=key, help=shape, **kw)


def _add_int_flag(parser, flag: str, shape: str, **kw) -> None:
    """An int flag of a command that is not a run, parsed as a run flag is.
    A value not of `shape` ("int", or "int in <domain>") raises ConfigError,
    which argparse lets through to main: one error line, exit code 2."""
    def parse(text):
        v = _parse_scalar(text)
        if not _fits(v, "int", shape.partition(" in ")[2]):
            raise ConfigError(f"{flag} must be {shape}, got {v!r}")
        return v

    parser.add_argument(flag, type=parse, help=shape, **kw)


def _print(out) -> None:
    """Print text, or any other value as strict JSON.  Once a reader has
    closed stdout early, print to devnull: the command still finishes its run,
    writes its files and exits cleanly."""
    try:
        print(out if isinstance(out, str) else json_text(out), flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def cmd_run(args) -> int:
    """The run named by the command: config file values, then flags."""
    values = (ExperimentConfig.parse(Path(args.config).read_text()).values
              if args.config else {})
    values.update((k, v) for k, v in vars(args).items()
                  if k in _KEYS and v is not None)
    _, runner, shown = _RUNS[args.command]
    _print(shown(runner(ExperimentConfig(values))))
    return 0


def cmd_cf(args) -> int:
    omega = Frequency.parse(args.frequency, args.precision_bits or DEFAULT_BITS)
    cf = expand_cf(omega, max_q=args.max_q)
    _print(cf.to_json())
    return 0


def cmd_classify(args) -> int:
    omega = Frequency.parse(args.frequency, args.precision_bits or DEFAULT_BITS)
    cf = expand_cf(omega, max_q=args.max_q)
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


def cmd_ostrowski(args) -> int:
    omega = Frequency.parse(args.frequency, args.precision_bits or DEFAULT_BITS)
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
    ap.add_argument("--config", help="flat key=value config file of a run")
    for key in _TOP_KEYS:
        _add_key_flag(ap, key)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cf", help="continued-fraction expansion")
    p.add_argument("--frequency", required=True)
    _add_int_flag(p, "--max-q", "int in [1, inf)", default=10 ** 4)
    p.set_defaults(fn=cmd_cf)

    p = sub.add_parser("classify", help="Diophantine classification report")
    p.add_argument("--frequency", required=True)
    _add_int_flag(p, "--max-q", "int in [1, inf)", default=10 ** 6)
    _add_int_flag(p, "--k-max", f"int in [2, {CLASSIFY_MAX_K}]", default=10 ** 4)
    p.set_defaults(fn=cmd_classify)

    for run, (help_text, _, _) in _RUNS.items():
        p = sub.add_parser(run, help=help_text)
        for key, (_, runs) in _KEYS.items():
            if run in runs.split() and key not in _TOP_KEYS:
                _add_key_flag(p, key)
        p.set_defaults(fn=cmd_run)

    p = sub.add_parser("ostrowski", help="mixed-radix digits of an integer")
    p.add_argument("--frequency", required=True)
    _add_int_flag(p, "-n", "int in [1, inf)", required=True)
    p.set_defaults(fn=cmd_ostrowski)

    p = sub.add_parser("scenario", help="run a named verification scenario")
    p.add_argument("name", help="scenario name or 'all'")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_scenario)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # a top-level flag the command does not read is refused, not dropped,
        # and one it reads is checked as its config key
        for key in ("config", *_TOP_KEYS):
            readers = _RUNS if key == "config" else _KEYS[key][1].split()
            if getattr(args, key) is not None and args.command not in readers:
                raise ConfigError(f"{args.command} does not read {_flag(key)}")
        ExperimentConfig({k: getattr(args, k) for k in _TOP_KEYS
                          if getattr(args, k) is not None}).start(args.command)
        return args.fn(args)
    except (ErgorateError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
