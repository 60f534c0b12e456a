"""Record the reference outputs the correctness gate compares against.

    python3 perfbench/record_refs.py

Runs every experiment of every workload once (seeded experiments once per
input variant) and writes ``perfbench/refs.json``.  Run it only on a library
commit whose outputs are trusted: every later run of the benchmark is
checked against these values.  Experiment-level gates must hold on every
variant, or nothing is written.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads as wl


def main() -> int:
    work_root = wl.ROOT / ".perfbench_tmp"
    work_root.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(dir=work_root))
    refs: dict = {}
    failed = []
    try:
        for name, exps in wl.WORKLOADS.items():
            refs[name] = {}
            for exp in exps:
                variants = range(wl.N_VARIANTS) if exp["seeded"] else [0]
                refs[name][exp["label"]] = by_variant = {}
                for v in variants:
                    cfg, result = wl.run_experiment(exp, v, out_dir)
                    if not wl.gate_ok(exp, result):
                        failed.append(f"{name}/{exp['label']} variant {v}")
                    by_variant[wl.ref_key(exp, v)] = wl.extract(exp["kind"], result)
                    print(f"{name}/{exp['label']} variant {v}", file=sys.stderr)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()
    if failed:
        print("gates failed: " + ", ".join(failed), file=sys.stderr)
        return 1
    wl.REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
