"""Named end-to-end verification scenarios.

Each scenario measures one headline property at desk scale and records
its checks and details on a verdict.  run_scenario runs it under its
wall-clock budget and returns the verdict dict: {name, passed, elapsed_s,
budget_s, within_budget, checks, details}.  The acceptance test suite runs
them all; the CLI exposes them by name.
"""

from __future__ import annotations

import math
import time
from typing import Callable

import numpy as np

from .arithmetic import (DecimalString, Frequency, PartialQuotients,
                         borel_bernstein_schedule, closest_return, expand_cf,
                         golden_mean, sqrt2_minus_1)
from .dynamics import (CharSweep, GridSweep, SystemSpec, TorusPoint,
                       birkhoff_sum, char_birkhoff_skew, grid_point, iterate,
                       step, sup_deviation)
from .envelopes import Envelope, fit_scale
from .errors import ErgorateError, Timeout, deadline, tick
from .harness import (ExperimentConfig, resolve_observable, resolve_schedule,
                      resolve_system, run_kernel_experiment,
                      run_rate_experiment, run_sharpness_experiment,
                      run_skew_experiment)
from .kernels import (_grid_spectrum, approximation_error, coeff_sum,
                      dirichlet, fejer, fejer_coeffs, jackson_closed_form,
                      jackson_coeffs, make_dist_pow)
from .sharpness import (HolderWeight, build_lacunary, decompose,
                        measure_average, slow_rate_point)

# scenario_jackson's pair: Jackson's kernel, optimal, then Fejer's
SMOOTHING_KERNELS = (jackson_coeffs, fejer_coeffs)

# pi - 3 to 100 digits; any high-precision decimal in (0,1) works here
PI_MINUS_3 = ("0.1415926535897932384626433832795028841971693993751"
              "058209749445923078164062862089986280348253421170679")


class _Verdict:
    """The checks and details a scenario records; run_scenario adds the
    name, the time and the budget."""

    def __init__(self):
        self.checks: list = []
        self.details: dict = {}

    def check(self, label: str, ok: bool, value=None):
        self.checks.append({"label": label, "ok": bool(ok), "value": value})


def _test_frequencies():
    return {
        "golden": golden_mean(),
        "sqrt2m1": sqrt2_minus_1(),
        "a_m=m": Frequency(PartialQuotients((), "index")),
        "decimal": Frequency(DecimalString(PI_MINUS_3)),
    }


# Schedule points up to this N also check the closed-form deviation field
# against a direct orbit sum.
ORACLE_MAX_N = 10 ** 4


def _field_oracle_gap(res, direct) -> float:
    """Largest |field - (direct(x) - mean)| over the argmax and two fixed
    grid points of a sup_deviation result; NaN if any side is NaN."""
    G, d, bits = res.grid_size, res.field.ndim, res.argmax_x.bits
    picks = [np.unravel_index(int(np.argmax(np.abs(res.field))), res.field.shape),
             (G // 3,) * d, (2 * G // 3,) * d]
    return float(np.max([
        abs(res.field[idx] - (direct(grid_point(idx, G, bits)) - res.mean_used))
        for idx in picks
    ]))


def scenario_cf_suite(v: _Verdict) -> None:
    """Recurrences, approximation sandwich, doubling, and over every
    certified q_n <= 1e4 one exact scan of ||j w||, 1 <= j < q_n, for both
    best-approximation minimality and the gap lemma ||j w|| > 1/(2 q_n)."""
    for label, omega in _test_frequencies().items():
        cf = expand_cf(omega, max_q=10 ** 4)
        M = cf.certified_len
        w = omega.fixed_point()
        one = 1 << omega.fractional_bits
        v.details[label] = {"certified_len": M, "q_max": cf.q[-1] if M else 0}
        rec_ok = all(
            cf.p_at(n + 1) == cf.a_at(n + 1) * cf.p_at(n) + cf.p_at(n - 1)
            and cf.q_at(n + 1) == cf.a_at(n + 1) * cf.q_at(n) + cf.q_at(n - 1)
            for n in range(1, M)
        )
        v.check(f"{label}: recurrences exact", rec_ok)
        doubling = all(cf.q_at(n + 2) >= 2 * cf.q_at(n) for n in range(1, M - 1))
        v.check(f"{label}: doubling q_(n+2) >= 2 q_n", doubling)
        if not cf.terminated:
            sandwich = True
            for n in range(1, M):
                err = abs(cf.q_at(n) * w - cf.p_at(n) * one)  # |q_n w - p_n| * 2^bits
                lo_ok = 2 * err * cf.q_at(n + 1) > one
                hi_ok = err * cf.q_at(n + 1) < one
                if not (lo_ok and hi_ok):
                    sandwich = False
                    break
            v.check(f"{label}: sandwich 1/(2q') < |q w - p| < 1/q'", sandwich)
        best_ok = gap_ok = True
        margin = math.inf  # min of ||j w|| * 2 q_n; 2 at q_n = 1, with no j
        for n in range(1, M + 1):
            tick()
            q = cf.q_at(n)
            closest = closest_return(omega, q)
            at_q = q * w % one
            best_ok &= closest > min(at_q, one - at_q)
            gap_ok &= closest * 2 * q > one  # exact integer comparison
            margin = min(margin, closest * 2 * q / one)
        v.details[label]["gap_min_margin"] = margin
        v.check(f"{label}: exhaustive best-approximation minimality", best_ok)
        v.check(f"{label}: gap ||j w|| > 1/(2 q_n) for 1 <= j < q_n", gap_ok,
                margin)
        tick()


def scenario_denjoy_koksma(v: _Verdict) -> None:
    """sup_dev * q^alpha <= ||phi||_alpha at every convergent q <= 1e4.

    Each alpha walks one orbit through all the convergents; the fields at
    q <= ORACLE_MAX_N are checked against birkhoff_sum / q, which runs a
    fresh exact orbit from each grid point."""
    omega = golden_mean()
    sys = SystemSpec.rotation(omega)
    cf = expand_cf(omega, max_q=10 ** 4)
    qs = [int(q) for q in cf.q]
    for alpha in (0.3, 0.5, 1.0):
        phi = make_dist_pow(alpha)
        norm = phi.norm_est  # analytic Holder norm of ||x||^alpha
        sweep = GridSweep(sys, phi, 1024)
        scaled, gaps = [], []
        for q in qs:
            res = sup_deviation(sys, phi, q, 1024, sweep)
            scaled.append(res.sup_dev * q ** alpha)
            if q <= ORACLE_MAX_N:
                gaps.append(_field_oracle_gap(
                    res, lambda x: birkhoff_sum(sys, phi, x, q) / q))
        # np.max, unlike max, propagates a NaN, which then fails the checks
        worst, gap = float(np.max(scaled)), float(np.max(gaps))
        v.details[f"alpha={alpha}"] = {"max_dev_qalpha": worst, "norm": norm,
                                       "field_vs_direct": gap}
        v.check(f"alpha={alpha}: sup_dev * q^a <= {norm:.4f}", worst <= norm, worst)
        v.check(f"alpha={alpha}: field matches birkhoff_sum / q for q <= 1e4 "
                "(1e-10)", gap <= 1e-10, gap)


def scenario_rate_envelope(v: _Verdict) -> None:
    """Global rate for the in-class extremal observable: log-log slope in
    [-0.65, -0.40] and one envelope scale dominating all N with a tail that
    stays within 20x."""
    cfg = ExperimentConfig({
        "system": "rotation1d:golden",
        "observable": "lacunary:holder:0.5",
        "schedule": "geometric:100,1000000,2",
        "grid": 1024,
        "envelope": "sdc:alpha=0.5",
    })
    series = run_rate_experiment(cfg)
    v.details["points"] = series.points
    v.details["slope"] = series.fitted_slope
    v.details["scale"] = series.envelope_scale
    v.details["tail_ratio"] = series.tail_ratio
    v.check("slope in [-0.65, -0.40]",
            -0.65 <= series.fitted_slope <= -0.40, series.fitted_slope)
    env = series.envelope
    env.scale = series.envelope_scale
    dominated = all(val <= env.value(n) * (1 + 1e-12)
                    for n, val in series.points)
    v.check("fitted scale dominates all points", dominated)
    v.check("tail ratio >= 0.05 (envelope within 20x at the tail)",
            series.tail_ratio >= 0.05, series.tail_ratio)
    # measure_average sums each mode directly along the orbit with exact
    # phases; birkhoff_sum would feed phi double-rounded orbit points, whose
    # 2^-54 error the modes q ~ 1e25 blow up far past 1e-10
    sys = resolve_system(cfg.require("system"))
    phi = resolve_observable(cfg.require("observable"), sys)
    gaps = []
    for N, _ in series.points:
        if N <= ORACLE_MAX_N:
            res = sup_deviation(sys, phi, N, cfg.require("grid"))
            gaps.append(_field_oracle_gap(
                res, lambda x: measure_average(phi, phi.cf.omega, x, N)))
    gap = float(np.max(gaps))  # NaN propagates and fails the check
    v.details["field_vs_direct"] = gap
    v.check("field matches the direct orbit sum for N <= 1e4 (1e-10)",
            gap <= 1e-10, gap)


def scenario_kernel_lemma(v: _Verdict) -> None:
    """sum_{1<=|k|<q} |E_N(k w)| stays below 10 * q log(q) / N."""
    cfg = ExperimentConfig({
        "frequencies": ["golden", "pq:rule:index"],
        "n_values": [1000, 10000, 100000],
        "max_q": 6765,
        "ratio_cap": 10.0,
    })
    table = run_kernel_experiment(cfg)
    v.details["max_ratio"] = table["max_ratio"]
    v.details["n_rows"] = len(table["rows"])
    v.check("max ratio <= 10", table["within_cap"], table["max_ratio"])


def scenario_jackson(v: _Verdict) -> None:
    """Approximation error slope and Fourier decay for ||x||^0.5, Jackson
    against Fejer smoothing on ||x||, plus kernel identities."""
    phi = make_dist_pow(0.5)
    ns = [16, 32, 64, 128, 256]
    errs = [approximation_error(phi, jackson_coeffs(n)) for n in ns]
    slope = float(np.polyfit(np.log(ns), np.log(errs), 1)[0])
    v.details["errors"] = dict(zip(ns, errs))
    v.details["slope"] = slope
    v.check("error slope in [-0.65, -0.35]", -0.65 <= slope <= -0.35, slope)

    # the decay lemma |phi_hat(k)| <= ||phi|| w(1/|k|) / 2, at k = 2, -2, 3,
    # -3, ..., from one FFT of 8 points per degree
    k_max = ns[-1]
    spec = _grid_spectrum(phi, 8 * k_max)
    ks = [k for m in range(2, k_max + 1) for k in (m, -m)]
    ratios = np.array([abs(spec[k]) / (phi.norm_est * phi.modulus(1.0 / abs(k)))
                       for k in ks])
    worst = float(np.max(ratios))  # NaN propagates and fails the check
    v.details["decay_max_ratio"] = worst
    v.details["decay_argmax_k"] = ks[int(np.argmax(ratios))]
    v.check(f"Fourier decay |c_k| <= ||phi|| w(1/|k|) / 2 for 2 <= |k| <= {k_max}",
            worst <= 0.5, worst)

    # Fejer smoothing is not optimal: on the Lipschitz ||x||, n * err stays
    # level under Jackson's kernel but grows by ln(4) / pi^2 per 4x under Fejer's
    lip = make_dist_pow(1.0)
    ns4 = [16, 64, 256, 1024, 4096]
    jack, fej = (np.array([n * approximation_error(lip, build(n)) for n in ns4])
                 for build in SMOOTHING_KERNELS)
    rise = math.log(4) / (2 * math.pi ** 2)
    v.details["n_err_jackson"] = dict(zip(ns4, jack.tolist()))
    v.details["n_err_fejer"] = dict(zip(ns4, fej.tolist()))
    v.check("||x||: n * err spans < ln(4) / (2 pi^2) under Jackson, rises by "
            "more per 4x under Fejer", np.ptp(jack) < rise <= np.min(np.diff(fej)),
            [float(np.ptp(jack)), float(np.min(np.diff(fej)))])

    rng = np.random.default_rng(3)
    xs = rng.random(1000)
    ok_d = ok_f = True
    for n in (4, 16, 64):
        ok_d &= bool(np.max(np.abs(dirichlet(n, xs) - coeff_sum(np.ones(2 * n + 1), xs))) < 1e-10)
        ok_f &= bool(np.max(np.abs(fejer(n, xs) - coeff_sum(fejer_coeffs(n), xs))) < 1e-10)
    v.check("Dirichlet closed form == coefficient sum (1e-10)", ok_d)
    v.check("Fejer closed form == coefficient sum (1e-10)", ok_f)
    norm_ok = all(jackson_coeffs(n)[n] == 1.0 for n in (2, 5, 8, 33, 256))
    v.check("smoothing kernel mass exactly 1 in coefficient space", norm_ok)
    closed = jackson_closed_form(40, xs)
    v.check("kernel coefficient form == closed form (1e-10)",
            bool(np.max(np.abs(coeff_sum(jackson_coeffs(40), xs) - closed)) < 1e-10))


def scenario_skew_exactness(v: _Verdict) -> None:
    """Closed-form iterates match step composition bit for bit; character
    sums match direct evaluation to 1e-9."""
    omega = golden_mean()
    rng = np.random.default_rng(17)
    for d in (2, 3, 4):
        sys = SystemSpec.skew(d, omega)
        ok = True
        for s in range(100):
            tick()
            x = TorusPoint.from_floats(rng.random(d), sys.bits)
            z = x
            for j in range(1, 1001):
                z = step(sys, z)
                if iterate(sys, x, j).coords != z.coords:
                    ok = False
                    break
            if not ok:
                break
        v.check(f"d={d}: closed form == composition (bit exact)", ok)
    # character sums vs direct summation
    gaps = []
    for d in (2, 3):
        sys = SystemSpec.skew(d, omega)
        for trial in range(3):
            x = TorusPoint.from_floats(rng.random(d), sys.bits)
            k = tuple(int(v_) for v_ in rng.integers(-3, 4, size=d))
            if not any(k):
                k = (1,) + (0,) * (d - 1)
            N = 1000
            res = char_birkhoff_skew(CharSweep(omega, k, x), N)
            acc = 0.0 + 0.0j
            z = x
            kv = np.array(k, dtype=float)
            for j in range(N):
                acc += np.exp(2j * math.pi * float(kv @ z.to_floats()))
                z = step(sys, z)
            gaps.append(abs(res.value - acc))
    worst = float(np.max(gaps))  # NaN propagates and fails the check
    v.details["char_vs_direct_worst"] = worst
    v.check("character sums match direct evaluation (1e-9)", worst < 1e-9, worst)


def scenario_weyl_envelope(v: _Verdict) -> None:
    """One fitted scale dominates the measured quadratic-phase sums under
    N^(1+eps) (1/q + 1/N + q/N^d)^delta with q the convergent scale of the
    leading coefficient."""
    cfg = ExperimentConfig({
        "d": 2,
        "frequency": "golden",
        "k": [1, 0],
        "n_values": [1000, 3162, 10000, 31623, 100000],
        "eps": 0.05,
        "x_batch": 4,
        "seed": 7,
    })
    out = run_skew_experiment(cfg)
    v.details.update({k: out[k] for k in ("scale", "tail_ratio")})
    v.details["rows"] = out["rows"]
    dominated = all(
        r["max_char_sum"] <= out["scale"] * r["weyl_shape"] * (1 + 1e-12)
        for r in out["rows"]
    )
    v.check("single fitted scale dominates all N", dominated, out["scale"])
    v.check("scale is finite and positive",
            0 < out["scale"] < math.inf, out["scale"])


def scenario_sharpness(v: _Verdict) -> None:
    """Resonant-mode lower bounds on the spiked frequency (a_7 = 1000): the
    sharpness experiment at m = 6, whose decomposition identity is checked
    against the direct trigonometric sum."""
    (rep,) = run_sharpness_experiment(ExperimentConfig({
        "frequency": "pq:rule:spike:7,1000", "alpha": 0.5, "m_values": [6],
    }))["reports"]
    v.details["identity_gap"] = rep["identity_gap"]
    v.check("decomposition identity (1e-10)", rep["identity_gap"] < 1e-10,
            rep["identity_gap"])
    # a report whose gap hypothesis fails has no ratios: NaN fails the checks
    for key in ("min_ratio", "l_bar", "N_m", "ratio_Nm"):
        v.details[key] = rep.get(key, math.nan)
    v.check("window averages: dev * q_m^a >= 0.1 at every admitted l",
            v.details["min_ratio"] >= 0.1, v.details["min_ratio"])
    v.check("aggregate bound at N_m: ratio >= 0.1",
            v.details["ratio_Nm"] >= 0.1, v.details["ratio_Nm"])


def scenario_limitations_schedule(v: _Verdict) -> None:
    """On a_m = m every index m in [4, 12] is a witness: the q_m-step
    average at 0 clears 0.05 / q_m^alpha.

    Every average is the mode-by-mode geometric evaluation of the truncated
    series, and decompose checks each against the direct trigonometric
    measurement (1e-10).
    """
    cf = expand_cf(Frequency(PartialQuotients((), "index")), max_q=10 ** 27)
    phi = build_lacunary(cf, HolderWeight(0.5))
    witnesses = borel_bernstein_schedule(cf)
    v.check("witness schedule covers [4, 12]",
            all(m in witnesses for m in range(4, 13)))
    x0 = TorusPoint.zero(1, phi.bits)
    reps = [decompose(phi, m, x0) for m in range(4, 13)]
    # np.max, unlike max, propagates a NaN, which then fails the check
    agree = float(np.max([rep.identity_gap for rep in reps]))
    v.details["route_agreement"] = agree
    v.check("direct and geometric routes agree (1e-10)", agree < 1e-10, agree)
    for rep in reps:
        dev = rep.sigma_m + rep.sigma_gt + rep.sigma_lt
        floor = 0.05 * rep.q_m ** -0.5
        v.details[f"m={rep.m}"] = {"q_m": rep.q_m, "dev": dev, "floor": floor,
                                   "identity_gap": rep.identity_gap}
        v.check(f"m={rep.m}: average at 0 >= 0.05/q_m^0.5", dev >= floor, dev)


def scenario_liouville_slow_rate(v: _Verdict) -> None:
    """Exponential-gap frequency with the analytic-weight series: the
    deviation at N_m ~ q_{m+1} still exceeds 0.1 e^{-q_m}."""
    phi = resolve_observable("lacunary:analytic",
                             resolve_system("rotation1d:pq:rule:exp_gap:5"))
    for m in (3, 4, 5):
        r = slow_rate_point(phi, m)
        threshold = 0.1 * math.exp(-r.q_m)
        v.details[f"m={m}"] = {
            "q_m": r.q_m, "N_m": r.N_m, "dev": r.lower_dev_Nm,
            "threshold": threshold,
            "q_m1": int(phi.cf.q_at(m + 1)),
        }
        v.check(f"m={m}: deviation at N_m exceeds 0.1 e^-q_m",
                r.lower_dev_Nm > threshold, r.lower_dev_Nm)


def scenario_translation_2d(v: _Verdict) -> None:
    """2-torus translation by (sqrt2-1, sqrt3-1): measured deviations sit
    under a translation envelope with a scale that is stable in N.  One
    sweep serves the schedule, so the axis term walks one orbit."""
    sys = resolve_system("rotationd:sqrt2m1,sqrt3m1")
    phi = resolve_observable("poly_plus_dist:8:0.5:5", sys)
    schedule = resolve_schedule("geometric:100,100000,3.1622776601683795", sys)
    env = Envelope(kind="transd", alpha=0.5, A=3.0, d=2)
    sweep = GridSweep(sys, phi, 64)
    points = []
    gaps = []
    for N in schedule:
        res = sup_deviation(sys, phi, N, 64, sweep)
        points.append((N, res.sup_dev))
        if N <= ORACLE_MAX_N:
            gaps.append(_field_oracle_gap(
                res, lambda x: birkhoff_sum(sys, phi, x, N) / N))
    gap = float(np.max(gaps))  # NaN propagates and fails the check
    v.details["points"] = points
    v.details["field_vs_direct"] = gap
    v.check("field matches birkhoff_sum / N for N <= 1e4 (1e-10)",
            gap <= 1e-10, gap)
    scale, tail_ratio = fit_scale(points, env)
    v.details["scale"] = scale
    v.details["tail_ratio"] = tail_ratio
    split = max(3, (2 * len(points)) // 3)
    early = points[:split]
    scale_early, _ = fit_scale(early, env) if len(early) >= 3 else (scale, 0)
    # np.max, unlike max, propagates a NaN, which then fails the check
    late_max = float(np.max([val / env.shape(n) for n, val in points[split:]]))
    v.details["scale_early"] = scale_early
    v.details["late_over_early"] = late_max / scale_early
    v.check("envelope scale stable: late points stay under the early fit",
            late_max <= scale_early * 1.05, late_max / scale_early)
    v.check("scale finite and positive", 0 < scale < math.inf, scale)


# each scenario with its wall-clock budget in seconds
SCENARIOS: dict[str, tuple[Callable[[_Verdict], None], float]] = {
    "cf_suite": (scenario_cf_suite, 10.0),
    "denjoy_koksma": (scenario_denjoy_koksma, 60.0),
    "rate_envelope": (scenario_rate_envelope, 300.0),
    "kernel_lemma": (scenario_kernel_lemma, 60.0),
    "jackson": (scenario_jackson, 60.0),
    "skew_exactness": (scenario_skew_exactness, 30.0),
    "weyl_envelope": (scenario_weyl_envelope, 120.0),
    "sharpness": (scenario_sharpness, 60.0),
    "limitations_schedule": (scenario_limitations_schedule, 60.0),
    "liouville_slow_rate": (scenario_liouville_slow_rate, 60.0),
    "translation_2d": (scenario_translation_2d, 180.0),
}


def run_scenario(name: str) -> dict:
    """Run scenario `name` under its budget: a scenario that outlasts it
    stops at its next tick() and fails with one more check, its Timeout."""
    if name not in SCENARIOS:
        raise ErgorateError(f"unknown scenario {name!r}; choices: {sorted(SCENARIOS)}")
    scenario, budget_s = SCENARIOS[name]
    v, t0 = _Verdict(), time.monotonic()
    try:
        with deadline(budget_s, f"{name} scenario"):
            scenario(v)
            tick()
    except Timeout as exc:
        v.check(str(exc), False)
    elapsed = time.monotonic() - t0
    return {
        "name": name,
        "passed": all(c["ok"] for c in v.checks),
        "elapsed_s": round(elapsed, 3),
        "budget_s": budget_s,
        "within_budget": elapsed < budget_s,
        "checks": v.checks,
        "details": v.details,
    }
