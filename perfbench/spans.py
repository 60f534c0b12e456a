"""Per-layer spans and counters, recorded from outside the library.

``Tracer.install`` replaces each traced library function, in every
``ergorate`` module namespace that binds it, by a wrapper that records a
span (self time: its duration minus the spans nested inside it) and the
work counters of that call.  ``uninstall`` puts the originals back.  The
library itself is not edited.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import workloads  # noqa: F401  (puts the library's src/ on sys.path)
from ergorate import arithmetic, dynamics, envelopes, harness, sharpness
from ergorate.errors import HypothesisNotMet
from ergorate.kernels import SeparableObservable


def _modes(phi) -> int:
    """Modes a mode-split deviation field sums over (0 for pointwise)."""
    if hasattr(phi, "qs") and hasattr(phi, "weights"):
        return sum(1 for w in phi.weights if w != 0.0)
    if isinstance(phi, SeparableObservable) and phi.trig is not None:
        return len(phi.trig.coeffs)
    return 0


class Tracer:
    def __init__(self):
        self.busy = defaultdict(float)      # span key -> self seconds
        self.count = defaultdict(int)       # counter key -> integer count
        self.tail_bound = 0.0               # largest lacunary tail bound
        self.inclusive = defaultdict(float)  # span key -> total seconds
        self._child = []                    # child time of each open span
        self._saved = []                    # (module, attr, original)

    # -- spans --------------------------------------------------------------

    def wrap(self, fn, key, after=None):
        """A wrapper timing fn under `key`; after(args, result) counts."""

        def traced(*args, **kwargs):
            self._child.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._child.pop()
                self.busy[key] += dt - child
                self.inclusive[key] += dt
                if self._child:
                    self._child[-1] += dt
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ergorate"
                                   or mod_name.startswith("ergorate.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _replace(self, original, key, after=None):
        self._patch(original, self.wrap(original, key, after))

    # -- counters -----------------------------------------------------------

    def _observable(self, phi):
        """Trace the pointwise evaluations of a resolved observable."""
        leaves = ([sub for _, sub in phi.axis_terms]
                  if isinstance(phi, SeparableObservable) else [phi])
        for leaf in leaves:
            dim = leaf.dim

            def count(args, result, dim=dim):
                self.count["kernels.eval_calls"] += 1
                self.count["kernels.eval_points"] += getattr(args[0], "size", 1) // dim

            leaf.fn = self.wrap(leaf.fn, "kernels.eval", count)
        return phi

    def install(self) -> None:
        c = self.count

        def cf_done(args, cf):
            c["arithmetic.expand_cf_calls"] += 1
            c["arithmetic.cf_terms"] += cf.certified_len

        def fp_done(args, _):
            c["arithmetic.fixed_point_calls"] += 1

        def sup_done(args, _):
            sys_spec, phi, N, grid = args[:4]
            c["dynamics.sup_deviation_calls"] += 1
            c["dynamics.orbit_steps"] += N
            c["dynamics.field_cells"] += N * grid ** sys_spec.dim
            c["dynamics.mode_steps"] += N * _modes(phi)

        def kernel_done(args, res):
            c["dynamics.kernel_sum_calls"] += 1
            c["dynamics.kernel_terms"] += max(res.q - 1, 0)

        def char_done(args, res):
            c["dynamics.char_sum_calls"] += 1
            c["dynamics.char_steps"] += res.N

        def esa_done(args, _):
            c["dynamics.exp_sum_avg_fp_calls"] += 1

        def lac_done(args, phi):
            c["sharpness.build_lacunary_calls"] += 1
            c["sharpness.n_modes"] += phi.n_modes
            self.tail_bound = max(self.tail_bound, phi.tail_bound)

        def avg_done(args, _):
            phi, N = args[0], args[3]
            c["sharpness.measure_average_calls"] += 1
            c["sharpness.mode_steps"] += N * _modes(phi)

        def fit_done(args, _):
            c["envelopes.fit_calls"] += 1

        def csv_done(args, _):
            c["harness.rows"] += len(args[0])
            c["harness.emit_bytes"] += args[1].stat().st_size

        def json_done(args, _):
            c["harness.emit_bytes"] += args[1].stat().st_size

        self._replace(arithmetic.expand_cf, "arithmetic.expand_cf", cf_done)
        fixed_point = arithmetic.Frequency.fixed_point
        self._saved.append((arithmetic.Frequency, "fixed_point", fixed_point))
        arithmetic.Frequency.fixed_point = self.wrap(
            fixed_point, "arithmetic.fixed_point", fp_done)

        self._replace(dynamics.sup_deviation, "dynamics.sup_deviation", sup_done)
        self._replace(dynamics.kernel_sum, "dynamics.kernel_sum", kernel_done)
        self._replace(dynamics.char_birkhoff_skew, "dynamics.char_sum", char_done)
        self._replace(dynamics.exp_sum_avg_fp, "dynamics.exp_sum_avg_fp", esa_done)

        self._replace(sharpness.build_lacunary, "sharpness.build_lacunary", lac_done)
        self._replace(sharpness.measure_average, "sharpness.measure_average",
                      avg_done)
        for fn in (sharpness.decompose, sharpness.verify_Nm_bound):
            self._replace(fn, "sharpness.bounds")
        self._patch(sharpness.verify_lower_bound,
                    self._lower_bound(sharpness.verify_lower_bound))

        self._replace(envelopes.fit_scale, "envelopes.fit", fit_done)
        self._replace(harness.emit_csv, "harness.emit", csv_done)
        self._replace(harness.emit_json, "harness.emit", json_done)
        for fn in (harness.run_rate_experiment, harness.run_kernel_experiment,
                   harness.run_sharpness_experiment, harness.run_skew_experiment,
                   harness.resolve_system, harness.resolve_schedule):
            self._replace(fn, "harness.self")
        resolve_observable = harness.resolve_observable
        self._patch(resolve_observable, self.wrap(
            lambda key, sys_spec: self._observable(resolve_observable(key, sys_spec)),
            "harness.self"))

    def _lower_bound(self, fn):
        def counted(*args, **kwargs):
            try:
                res = fn(*args, **kwargs)
            except HypothesisNotMet:
                self.count["sharpness.hypothesis_not_met"] += 1
                raise
            self.count["sharpness.windows"] += len(res.entries)
            return res

        return self.wrap(counted, "sharpness.bounds")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- report -------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics: self times in seconds, counts, margins."""
        b, c = self.busy, self.count

        def ns_per(key_s, key_n):
            return b[key_s] * 1e9 / c[key_n] if c[key_n] else 0.0

        return {
            "arithmetic.expand_cf_s": b["arithmetic.expand_cf"],
            "arithmetic.expand_cf_calls": c["arithmetic.expand_cf_calls"],
            "arithmetic.cf_terms": c["arithmetic.cf_terms"],
            "arithmetic.fixed_point_s": b["arithmetic.fixed_point"],
            "arithmetic.fixed_point_calls": c["arithmetic.fixed_point_calls"],
            "kernels.eval_s": b["kernels.eval"],
            "kernels.eval_calls": c["kernels.eval_calls"],
            "kernels.eval_points": c["kernels.eval_points"],
            "kernels.ns_per_point": ns_per("kernels.eval", "kernels.eval_points"),
            "dynamics.sup_deviation_s": b["dynamics.sup_deviation"],
            "dynamics.sup_deviation_total_s":
                self.inclusive["dynamics.sup_deviation"],
            "dynamics.sup_deviation_calls": c["dynamics.sup_deviation_calls"],
            "dynamics.orbit_steps": c["dynamics.orbit_steps"],
            "dynamics.field_cells": c["dynamics.field_cells"],
            "dynamics.mode_steps": c["dynamics.mode_steps"],
            "dynamics.kernel_sum_s": b["dynamics.kernel_sum"],
            "dynamics.kernel_sum_calls": c["dynamics.kernel_sum_calls"],
            "dynamics.kernel_terms": c["dynamics.kernel_terms"],
            "dynamics.ns_per_kernel_term":
                ns_per("dynamics.kernel_sum", "dynamics.kernel_terms"),
            "dynamics.char_sum_s": b["dynamics.char_sum"],
            "dynamics.char_sum_calls": c["dynamics.char_sum_calls"],
            "dynamics.char_steps": c["dynamics.char_steps"],
            "dynamics.ns_per_char_step":
                ns_per("dynamics.char_sum", "dynamics.char_steps"),
            "dynamics.exp_sum_avg_fp_s": b["dynamics.exp_sum_avg_fp"],
            "dynamics.exp_sum_avg_fp_calls": c["dynamics.exp_sum_avg_fp_calls"],
            "sharpness.build_lacunary_s": b["sharpness.build_lacunary"],
            "sharpness.build_lacunary_calls": c["sharpness.build_lacunary_calls"],
            "sharpness.n_modes": c["sharpness.n_modes"],
            "sharpness.tail_bound": self.tail_bound,
            "sharpness.measure_average_s": b["sharpness.measure_average"],
            "sharpness.measure_average_calls":
                c["sharpness.measure_average_calls"],
            "sharpness.mode_steps": c["sharpness.mode_steps"],
            "sharpness.bounds_s": b["sharpness.bounds"],
            "sharpness.windows": c["sharpness.windows"],
            "sharpness.hypothesis_not_met": c["sharpness.hypothesis_not_met"],
            "envelopes.fit_s": b["envelopes.fit"],
            "envelopes.fit_calls": c["envelopes.fit_calls"],
            "harness.self_s": b["harness.self"],
            "harness.emit_s": b["harness.emit"],
            "harness.emit_bytes": c["harness.emit_bytes"],
            "harness.rows": c["harness.rows"],
        }
