"""ergorate benchmark: the four experiment routes end to end.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the library is imported from ``src/`` beside this
directory.  Workloads are defined in ``workloads.py``.

--trace 0 runs timed passes of the workload (every operation of every pass
checked against the recorded references) until --seconds have been measured
and at least MIN_TIMED_PASSES passes ran, and reports
  sweep_s      median wall time of one checked pass,
  setup_s      median over SETUP_PROBES fresh processes of importing
               ergorate and resolving the workload's configs,
  peak_rss_mb  peak resident memory of this process.
--trace 1 runs every acceptance scenario once, then one untraced pass and
one pass with per-layer spans and counters (``spans.py``), and reports the
per-layer metrics, the scenario times and trace_overhead_s (the traced pass
minus the untraced one).

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the line before it carries sample counts, per-pass
times, run metadata and any failure messages.  Every run is capped: a pass
or scenario that overruns its cap is interrupted and its unfinished
operations count as failed.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import workloads as wl  # noqa: E402  (imports ergorate from src/)

SETUP_PROBES = 5
# A process's first pass of rate_modes runs ~15% slower than later ones
# (allocator growth); two passes make every run's median the same mix.
MIN_TIMED_PASSES = 2
RUN_LIMIT_S = 170.0          # every run ends well inside 180 s
PROBE_TIMEOUT_S = 30.0
SCENARIO_CAP_S = 60.0
# Per-pass caps, about four times a pass on a 2-CPU Xeon at 2 GHz.
PASS_CAP_S = {"rate_modes": 80.0, "rate_grid": 60.0, "exact_sums": 40.0,
              "sharp_windows": 20.0}


class Overrun(BaseException):
    """Raised by the wall-clock cap; not an Exception, so library handlers
    cannot swallow it."""


def _on_alarm(signum, frame):
    raise Overrun()


@contextlib.contextmanager
def capped(seconds: float):
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 1e-3))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


class Run:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.variant = wl.variant_of(seed)
        self.refs = wl.load_refs()
        self.ops = wl.operation_count(workload, self.variant, self.refs)
        self.deadline = _T0 + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def left(self) -> float:
        return self.deadline - time.perf_counter()

    def one_pass(self, out_dir: Path) -> tuple[float, bool]:
        """One checked pass; returns its wall time and whether it overran."""
        res = wl.PassResult()
        overran = False
        t0 = time.perf_counter()
        try:
            with capped(min(PASS_CAP_S[self.workload], self.left())):
                wl.run_pass(self.workload, self.variant, out_dir, self.refs, res)
        except Overrun:
            overran = True
            res.failed += self.ops - res.done
            res.errors.append(f"pass overran its cap; {self.ops - res.done} "
                              f"operations unfinished")
        dt = time.perf_counter() - t0
        self.attempted += self.ops
        self.failed += res.failed
        self.errors.extend(res.errors)
        return dt, overran

    def passes(self, out_dir: Path, seconds: float, at_least: int) -> list:
        """Checked, timed passes until `seconds` are measured and at least
        `at_least` passes ran; stops early on an overrun."""
        times = []
        while self.left() > 0:
            dt, overran = self.one_pass(out_dir)
            times.append(dt)
            if overran or (len(times) >= at_least and sum(times) >= seconds):
                break
        return times


def setup_times(workload: str, seed: int) -> list:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def probe(workload: str, seed: int) -> None:
    """Set-up as a user pays it: this fresh process has imported ergorate
    (through workloads) and now resolves every config of the workload."""
    variant = wl.variant_of(seed)
    for exp in wl.WORKLOADS[workload]:
        wl.resolve(exp, variant)
    print(time.perf_counter() - _T0)


def run_scenarios(run: Run) -> dict:
    from ergorate.scenarios import SCENARIOS, run_scenario

    out = {}
    checks_failed = 0
    for name in SCENARIOS:
        t0 = time.perf_counter()
        try:
            with capped(min(SCENARIO_CAP_S, run.left())):
                verdict = run_scenario(name)
        except Overrun:
            verdict = {"passed": False, "checks": [{"ok": False}]}
            run.errors.append(f"scenario {name} overran its cap")
        except Exception as exc:  # a crashing scenario is a failed scenario
            verdict = {"passed": False, "checks": [{"ok": False}]}
            run.errors.append(f"scenario {name}: {type(exc).__name__}: {exc}")
        out[f"scenarios.{name}_s"] = time.perf_counter() - t0
        bad = sum(not c["ok"] for c in verdict["checks"])
        if not verdict["passed"]:
            run.errors.append(f"scenario {name} failed")
            bad = max(bad, 1)
        checks_failed += bad
    out["scenarios.checks_failed"] = checks_failed
    return out


def metadata() -> dict:
    head = wl.ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            loose = wl.ROOT / ".git" / ref[5:]
            if loose.is_file():
                commit = loose.read_text().strip()
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((wl.SRC / "ergorate").glob("*.py")))
    return {"commit": commit, "python": platform.python_version(),
            "numpy": numpy.__version__, "cpu_count": os.cpu_count(),
            "src_lines": src_lines}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if ".ns_per_" in name:
        return "ns"
    if name == "sharpness.tail_bound":
        return "1"
    if name == "fail_ratio":
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: time import plus config resolution")
    args = ap.parse_args(argv)
    if args.setup_probe:
        probe(args.workload, args.seed)
        return 0

    setups = setup_times(args.workload, args.seed)
    run = Run(args.workload, args.seed)
    work_root = wl.ROOT / ".perfbench_tmp"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    detail = {"workload": args.workload, "seed": args.seed,
              "variant": run.variant, "setup_probes_s": setups,
              "operations_per_pass": run.ops}
    cwd = os.getcwd()
    # Outputs go to a fixed relative out_dir, so the config hashes and the
    # emitted bytes are the same on every run.
    os.chdir(work)
    try:
        out_dir = Path("out")
        if args.trace:
            from spans import Tracer

            # The scenarios run first and warm the process for both passes.
            scenarios = run_scenarios(run)
            times = run.passes(out_dir, 0.0, 1)
            tracer = Tracer()
            tracer.install()
            try:
                traced, _ = run.one_pass(out_dir)
            finally:
                tracer.uninstall()
            detail["traced_pass_s"] = traced
            metrics = tracer.metrics()
            metrics["trace_overhead_s"] = traced - statistics.median(times)
            metrics.update(scenarios)
            metrics["fail_ratio"] = run.failed / run.attempted
        else:
            times = run.passes(out_dir, args.seconds, MIN_TIMED_PASSES)
            metrics = {
                "sweep_s": statistics.median(times),
                "setup_s": statistics.median(setups),
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()
    correct = run.failed == 0 and not run.errors
    detail.update({"timed_passes": len(times), "pass_s": times,
                   "errors": run.errors, "meta": metadata()})
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
