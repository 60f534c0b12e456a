"""Lacunary lower-bound constructions and the three-part decomposition."""

import dataclasses
import math

import numpy as np
import pytest

from ergorate.arithmetic import Frequency, PartialQuotients, expand_cf
from ergorate.dynamics import (_BLOCK_CELLS, SystemSpec, TorusPoint,
                               birkhoff_sum, limbs_from_ints)
from ergorate.errors import HypothesisNotMet, Uncertified
from ergorate import sharpness
from ergorate.harness import resolve_observable, resolve_system
from ergorate.kernels import Holder
from ergorate.sharpness import (AnalyticWeight, HolderWeight,
                                LacunaryObservable,
                                borel_bernstein_schedule, build_lacunary,
                                closed_form_average, decompose,
                                measure_average, slow_rate_point,
                                start_points, verify_Nm_bound,
                                verify_lower_bound)
from oracles import (fourier_coefficient, lacunary_seminorm,
                     measure_average_libm, measure_average_mpmath,
                     measure_average_per_mode, measure_average_per_term,
                     sampled_holder_quotient)

BITS = 192


@pytest.fixture(scope="module")
def golden_deep_cf(golden):
    return expand_cf(golden, max_q=10 ** 27)


@pytest.fixture(scope="module")
def golden_lac(golden_deep_cf):
    return build_lacunary(golden_deep_cf, HolderWeight(0.5), tol=1e-12)


@pytest.fixture(scope="module")
def spike_cf(spike_freq):
    return expand_cf(spike_freq, max_q=10 ** 27)


@pytest.fixture(scope="module")
def spike_lac(spike_cf):
    return build_lacunary(spike_cf, HolderWeight(0.5), tol=1e-12)


class TestBuild:
    def test_weights_are_reciprocal_roots(self, golden_lac, golden_deep_cf):
        for k in range(1, 6):
            q = golden_deep_cf.q_at(k)
            assert golden_lac.mode_weight(k) == pytest.approx(q ** -0.5)

    def test_holder1_weights(self, golden_deep_cf):
        phi = build_lacunary(golden_deep_cf, HolderWeight(1.0), tol=1e-10)
        assert phi.weights[:4] == (1.0, 0.5, 1 / 3, 0.2)
        # phi(0) = sum of weights (all cosines are 1 at 0)
        assert phi.fn(0.0) == pytest.approx(sum(phi.weights))

    def test_fourier_is_set_once_from_the_modes(self, golden_lac):
        # w cos(2 pi q x) = Re (w/2)(e(qx) + e(-qx)), mode after mode
        want = [((s * q,), w / 2)
                for q, w in zip(golden_lac.qs, golden_lac.weights)
                for s in (1, -1)]
        assert list(golden_lac.fourier.items()) == want

    def test_tail_below_tolerance(self, golden_lac):
        assert golden_lac.tail_bound <= 1e-12

    def test_analytic_truncation_short(self, golden_deep_cf):
        phi = build_lacunary(golden_deep_cf, AnalyticWeight(), tol=1e-12)
        assert phi.n_modes <= 40
        # smallest dropped mode weight is already below tolerance
        assert math.exp(-golden_deep_cf.q_at(phi.n_modes + 1)) < 1e-12

    def test_nan_modulus_fails_closed(self, golden_deep_cf):
        # a NaN weight at one mode, after finite ones (max() dropped it from
        # the seminorm bound), makes the norm estimate NaN
        class NanAtFive(HolderWeight):
            def __call__(self, q):
                return math.nan if q == 5 else super().__call__(q)

        phi = build_lacunary(golden_deep_cf, NanAtFive(0.5), tol=1e-6)
        assert 5 in phi.qs
        assert math.isnan(phi.norm_est)

    def test_nan_at_one_seminorm_scale_fails_closed(self, golden_deep_cf,
                                                    monkeypatch):
        # a NaN weight also makes sum(weights) NaN; a NaN modulus at one
        # scale of the seminorm bound, after finite ones, reaches only the
        # bound, where max() would drop it
        class Gappy(Holder):
            def __call__(self, h):
                return math.nan if h == 2.0 ** -10 else super().__call__(h)

        monkeypatch.setattr(sharpness, "Holder", Gappy)
        phi = build_lacunary(golden_deep_cf, HolderWeight(0.5), tol=1e-6)
        assert math.isfinite(sum(phi.weights))
        assert math.isnan(phi.norm_est)

    @pytest.mark.parametrize("frequency", ["golden", "pq:rule:index",
                                           "pq:rule:spike:7,1000"])
    @pytest.mark.parametrize("weight", ["holder:0.5", "analytic"])
    def test_norm_estimate_equals_the_scalar_loop(self, frequency, weight):
        # the seminorm bound sums each scale over mode arrays, in the order
        # of the loop that adds one mode at a time
        phi = resolve_observable(f"lacunary:{weight}",
                                 resolve_system(f"rotation1d:{frequency}"))
        assert phi.n_modes >= 3
        assert phi.norm_est == float(sum(phi.weights)) + lacunary_seminorm(phi)

    def test_log_holder_tail_diverges(self, golden_deep_cf):
        # 400 doublings shrink q^-0.1 only by 2^-40, far above the 1e-30 stop
        with pytest.raises(Uncertified, match="weight tail does not converge"):
            build_lacunary(golden_deep_cf, HolderWeight(0.1), tol=1e-12)

    def test_mode_coefficient_is_half_weight(self, golden):
        # small truncation so quadrature sees no aliasing from far modes
        cf = expand_cf(golden, max_q=1000)
        phi = build_lacunary(cf, HolderWeight(1.0), tol=5e-3)
        q2 = phi.mode_q(2)
        c = fourier_coefficient(phi, q2, quad_points=8 * phi.mode_q(phi.n_modes))
        assert c == pytest.approx(phi.mode_weight(2) / 2, abs=1e-9)

    def test_zero_mean(self, golden_lac):
        assert golden_lac.mean_hint == 0.0

    def test_holder_regularity_sampled(self, golden_lac):
        q = sampled_holder_quotient(golden_lac, 0.5, n_pairs=300)
        assert q <= golden_lac.norm_est


class TestModeIndex:
    @pytest.mark.parametrize("where", ["zero", "past_top"])
    def test_out_of_range_fails_closed(self, spike_lac, where):
        # m = 0 once read the last mode, and verify_lower_bound then ran a
        # window average of about 1e25 steps
        m = 0 if where == "zero" else spike_lac.n_modes + 1
        for call in (spike_lac.mode_q, spike_lac.mode_weight,
                     lambda m: verify_lower_bound(spike_lac, m),
                     lambda m: decompose(spike_lac, m, TorusPoint.zero(1, BITS))):
            with pytest.raises(ValueError, match="outside 1.."):
                call(m)

    def test_ends_of_the_range(self, spike_lac):
        K = spike_lac.n_modes
        assert spike_lac.mode_q(1) == spike_lac.qs[0]
        assert spike_lac.mode_q(K) == spike_lac.qs[-1]
        assert spike_lac.mode_weight(K) == spike_lac.weights[-1]


class TestDecompose:
    def test_identity_at_zero(self, spike_lac):
        rep = decompose(spike_lac, 6, TorusPoint.zero(1, BITS))
        assert rep.identity_gap < 1e-10

    def test_identity_random_points(self, golden_lac, rng):
        for m in (3, 5, 8, 10):
            x = TorusPoint.from_floats([rng.random()], BITS)
            rep = decompose(golden_lac, m, x)
            assert rep.identity_gap < 1e-10

    def test_top_mode_has_empty_high_tail(self, golden_deep_cf):
        # analytic weights truncate within a handful of modes, so the q_K-step
        # window at the top mode stays computable
        phi = build_lacunary(golden_deep_cf, AnalyticWeight(), tol=1e-12)
        rep = decompose(phi, phi.n_modes, TorusPoint.from_floats([0.3], BITS))
        assert rep.sigma_gt == 0.0
        assert rep.identity_gap < 1e-10

    def test_first_mode_has_empty_low_tail(self, golden_lac):
        rep = decompose(golden_lac, 1, TorusPoint.from_floats([0.3], BITS))
        assert rep.sigma_lt == 0.0

    def test_against_generic_birkhoff_sum(self, golden, golden_deep_cf):
        # the per-mode measurement route equals the generic orbit route
        phi = build_lacunary(golden_deep_cf, HolderWeight(0.5), tol=1e-3)
        sys = SystemSpec.rotation(golden)
        x = TorusPoint.from_floats([0.37], BITS)
        N = 144
        generic = birkhoff_sum(sys, phi, x, N) / N
        fast = measure_average(phi, golden, x, N)
        assert fast == pytest.approx(generic, abs=1e-9)

    def test_routes_agree(self, golden_lac, golden, rng):
        x = TorusPoint.from_floats([rng.random()], BITS)
        for N in (13, 233, 4181):
            a = measure_average(golden_lac, golden, x, N)
            b = closed_form_average(golden_lac, x, N)
            assert a == pytest.approx(b, abs=1e-13)

    def test_identity_of_the_index_series_at_m9(self):
        # N = q_9 = 740,785 over 25 modes, where a double ramp fl(j s) + ph0
        # leaves a gap of 3.1e-14
        phi = resolve_observable("lacunary:holder:0.5", resolve_system(
            "rotation1d:pq:rule:index", BITS))
        rep = decompose(phi, 9, TorusPoint.zero(1, BITS))
        assert rep.q_m == 740785
        assert rep.identity_gap < 1e-15

    @pytest.mark.parametrize("N", [1, 13, 4181])
    def test_direct_sum_equals_the_per_mode_oracle(self, golden_lac, golden, N):
        # limb phase tables for every mode at once and blocks of several
        # modes keep every mode's sum bit for bit
        for x in (TorusPoint.zero(1, BITS), TorusPoint.from_floats([0.37], BITS)):
            assert (measure_average(golden_lac, golden, x, N)
                    == measure_average_per_mode(golden_lac, golden, x, N))

    def test_direct_sum_across_a_chunk_boundary(self, golden, golden_deep_cf):
        # B = 1030: 1031 rows of one mode, 15 to a block, the last of 21 steps
        phi = build_lacunary(golden_deep_cf, HolderWeight(0.5), tol=1e-3)
        x = TorusPoint.from_floats([0.61], BITS)
        N = (1 << 20) + 12345
        assert (measure_average(phi, golden, x, N)
                == measure_average_per_mode(phi, golden, x, N))

    def test_direct_sum_of_analytic_weights(self, golden, golden_deep_cf):
        # truncation drops the weights that underflow to 0.0; a zero left
        # inside the series is skipped, not summed as 0 * mode_sum
        phi = build_lacunary(golden_deep_cf, AnalyticWeight(), tol=1e-12)
        holed = dataclasses.replace(
            phi, weights=phi.weights[:2] + (0.0,) + phi.weights[3:])
        x = TorusPoint.from_floats([0.2], BITS)
        for series in (phi, holed):
            for N in (1, 89, 4181):
                assert (measure_average(series, golden, x, N)
                        == measure_average_per_mode(series, golden, x, N))

    # N = C/64, C/2 and C = 128^2 (C = _BLOCK_CELLS = 2^14), one step off
    # each; N = 1024, the last single row, and 1025, the first table of
    # rows (B = 33, a last row of 2 steps); N = 1089 = 33^2, a full last row
    @pytest.mark.parametrize("N", [
        _BLOCK_CELLS // 64, _BLOCK_CELLS // 64 + 1, 1024, 1025, 1089,
        _BLOCK_CELLS // 2, _BLOCK_CELLS // 2 + 1, _BLOCK_CELLS - 1,
        _BLOCK_CELLS, _BLOCK_CELLS + 1])
    def test_direct_sum_at_block_boundaries(self, golden_lac, golden,
                                            golden_deep_cf, N):
        analytic = build_lacunary(golden_deep_cf, AnalyticWeight(), tol=1e-12)
        holed = dataclasses.replace(
            analytic, weights=analytic.weights[:2] + (0.0,) + analytic.weights[3:])
        single = dataclasses.replace(golden_lac, qs=golden_lac.qs[:1],
                                     weights=golden_lac.weights[:1])
        assert golden_lac.n_modes == 122
        x = TorusPoint.from_floats([0.43], BITS)
        for series in (golden_lac, single, holed):
            assert (measure_average(series, golden, x, N)
                    == measure_average_per_mode(series, golden, x, N))

    def test_a_replaced_series_derives_its_own_steps(self, golden,
                                                      golden_deep_cf):
        # the mode steps are kept per instance, out of the fields: a series
        # made by dataclasses.replace from a measured one derives its own
        phi = build_lacunary(golden_deep_cf, AnalyticWeight(), tol=1e-12)
        x = TorusPoint.from_floats([0.29], BITS)
        measure_average(phi, golden, x, 89)
        one, w_fp = 1 << BITS, golden.fixed_point()
        single = dataclasses.replace(phi, qs=phi.qs[1:2],
                                     weights=phi.weights[1:2])
        holed = dataclasses.replace(
            phi, weights=phi.weights[:2] + (0.0,) + phi.weights[3:])
        assert (89, 89) in phi._inner_totals
        for series in (single, holed):
            assert "_inner_totals" not in vars(series)
            steps, live, live_steps = series._steps
            assert steps == [q * w_fp % one for q in series.qs]
            assert live == [(q, w) for q, w in zip(series.qs, series.weights)
                            if w != 0.0]
            assert np.array_equal(live_steps, limbs_from_ints(
                [q * w_fp % one for q, _ in live], BITS))
            (x3,) = start_points(series, 1, [3])
            assert x3.coords == (3 * series.qs[0] * w_fp % one,)
            for N in (1, 89, 4181):
                assert (measure_average(series, golden, x, N)
                        == measure_average_per_mode(series, golden, x, N))

    # B = 4098, A = 4098: two blocks of each table, a last row of 55 steps;
    # and B = A = 4100 with a last row of 4097 steps, past the first block
    @pytest.mark.parametrize("N", [(1 << 24) + 12345, 4100 * 4099 + 4097])
    def test_direct_sum_across_blocks_of_rows(self, golden, golden_deep_cf,
                                              N):
        phi = build_lacunary(golden_deep_cf, HolderWeight(0.5), tol=1e-3)
        x = TorusPoint.from_floats([0.61], BITS)
        assert -(-N // (math.isqrt(N - 1) + 1)) > sharpness._SUB
        assert (measure_average(phi, golden, x, N)
                == measure_average_per_mode(phi, golden, x, N))

    @pytest.mark.parametrize("N", [1, 13, 1024, 1025, 1089, 1200, 4181])
    def test_direct_sum_in_blocks_of_seven_rows(self, golden_lac, golden,
                                                monkeypatch, N):
        # many blocks of both tables, and last rows on and off their edges
        # (N = 1200: B = A = 35, five full blocks, a last row of 10 steps);
        # a fresh series, whose totals are summed in these blocks
        monkeypatch.setattr(sharpness, "_SUB", 7)
        x = TorusPoint.from_floats([0.43], BITS)
        for series in (dataclasses.replace(golden_lac),
                       dataclasses.replace(golden_lac, qs=golden_lac.qs[:1],
                                           weights=golden_lac.weights[:1])):
            assert (measure_average(series, golden, x, N)
                    == measure_average_per_mode(series, golden, x, N))

    def test_the_check_is_called_once_per_block(self, golden_lac, golden,
                                                monkeypatch):
        # N = 1025: B = 33 and 32 rows, so 5 blocks of each table at 7 rows
        # a block; the inner totals are summed once, on the first call
        monkeypatch.setattr(sharpness, "_SUB", 7)
        phi = dataclasses.replace(golden_lac)
        x = TorusPoint.from_floats([0.43], BITS)
        calls = []
        first = measure_average(phi, golden, x, 1025, lambda: calls.append(1))
        assert len(calls) == 5 + 5
        calls.clear()
        assert first == measure_average(phi, golden, x, 1025,
                                        lambda: calls.append(1))
        assert len(calls) == 5
        calls.clear()
        measure_average(phi, golden, x, 13, lambda: calls.append(1))
        assert len(calls) == 2 + 1  # B = N = 13: one row

    def test_the_series_keeps_no_inner_table(self, golden, golden_deep_cf):
        # only each mode's four totals per (B, tail), not the B phases
        phi = build_lacunary(golden_deep_cf, HolderWeight(0.5), tol=1e-3)
        x = TorusPoint.from_floats([0.61], BITS)
        for N in (1, 89, 1025, 4181, (1 << 20) + 12345):
            measure_average(phi, golden, x, N)
        K = len(phi._steps[1])
        assert sorted(phi._inner_totals) == [
            (1, 1), (33, 2), (65, 21), (89, 89), (1031, 22)]
        assert all(t.shape == (4, K, 1) for t in phi._inner_totals.values())

    @pytest.mark.parametrize("N", [1, 13, 1024, 1025, 4181, (1 << 20) + 12345])
    def test_direct_sum_near_the_per_term_sum(self, golden, golden_deep_cf, N):
        # every term formed and summed by rows, as before the row sums were
        # factored through the inner totals
        phi = build_lacunary(golden_deep_cf, HolderWeight(0.5), tol=1e-3)
        x = TorusPoint.from_floats([0.61], BITS)
        assert (measure_average(phi, golden, x, N)
                == pytest.approx(measure_average_per_term(phi, golden, x, N),
                                 abs=1e-14))

    @pytest.mark.parametrize("N", [1, 13, 1024, 1025, 4181, (1 << 20) + 12345])
    def test_direct_sum_near_the_libm_sum(self, golden, golden_deep_cf, N):
        # one libm cosine per term from the double ramp fl(j s) + ph0
        phi = build_lacunary(golden_deep_cf, HolderWeight(0.5), tol=1e-3)
        x = TorusPoint.from_floats([0.61], BITS)
        assert (measure_average(phi, golden, x, N)
                == pytest.approx(measure_average_libm(phi, golden, x, N),
                                 abs=1e-12))

    @pytest.mark.parametrize("N", [1, 2, 13, 89])
    def test_direct_sum_near_the_mpmath_sum(self, golden_lac, golden, N):
        # exact phases and every cosine and sum in mpmath
        for x in (TorusPoint.zero(1, BITS), TorusPoint.from_floats([0.37], BITS)):
            assert (measure_average(golden_lac, golden, x, N)
                    == pytest.approx(measure_average_mpmath(golden_lac, golden,
                                                            x, N), abs=1e-14))

    @pytest.mark.parametrize("N", [0, -3])
    def test_direct_sum_needs_one_step(self, golden_lac, golden, N):
        # N = 0 divided by zero and N = -3 returned -0.0
        with pytest.raises(ValueError, match="N must be >= 1"):
            measure_average(golden_lac, golden, TorusPoint.zero(1, BITS), N)


class TestTailBounds:
    def test_high_tail_domination(self, golden_lac):
        # |Sigma_{>m}| <= C / q_{m+1}^alpha over a grid of x; for all-ones
        # tails the true constant is sum phi^{-j/2} = 4.67, so 5 is sharp-ish
        for m in (4, 7, 10):
            qm1 = golden_lac.mode_q(m + 1)
            bound = 5.0 * qm1 ** -0.5
            for xv in np.linspace(0, 1, 17, endpoint=False):
                rep = decompose(golden_lac, m, TorusPoint.from_floats([xv], BITS))
                assert abs(rep.sigma_gt) <= bound

    def test_low_tail_scale(self, spike_lac):
        # |Sigma_{<m}| <= scale * m q_{m-1}^{1-alpha} / q_{m+1}, stable scale
        scales = []
        for m in (5, 6, 7):
            rep = decompose(spike_lac, m, TorusPoint.zero(1, BITS))
            qm1 = spike_lac.mode_q(m + 1)
            qprev = spike_lac.mode_q(m - 1)
            shape = m * qprev ** 0.5 / qm1
            scales.append(abs(rep.sigma_lt) / shape)
        assert max(scales) < 20.0


class TestLowerBounds:
    def test_spike_window_positivity(self, spike_lac):
        lb = verify_lower_bound(spike_lac, 6)
        assert lb.min_ratio >= 0.1
        assert lb.l_bar == lb.entries[-1][0]  # every window positive

    def test_spike_l0_near_one(self, spike_lac):
        lb = verify_lower_bound(spike_lac, 6, l_values=[0])
        # at l = 0 the resonant mode contributes nearly its full weight
        assert lb.min_ratio >= 0.4

    def test_single_mode_matches_formula(self, spike_freq, spike_cf):
        # truncate to one mode: the window average IS the resonant term
        from ergorate.dynamics import exp_sum_avg_fp

        full = build_lacunary(spike_cf, HolderWeight(0.5), tol=1e-12)
        m = 6
        q = full.mode_q(m)
        w = full.mode_weight(m)
        solo = LacunaryObservable(
            dim=1, fn=full.fn, modulus=full.modulus, norm_est=w,
            mean_hint=0.0, cf=spike_cf, qs=(q,), weights=(w,), tail_bound=0.0,
        )
        w_fp = spike_freq.fixed_point()
        one = 1 << BITS
        for l in (0, 3, 11):
            x = TorusPoint(((l * q * w_fp) % one,), BITS)
            measured = measure_average(solo, spike_freq, x, q)
            e = exp_sum_avg_fp((q * w_fp) % one, BITS, q)
            phase = ((q * x.coords[0]) % one) / one
            expect = w * (e * np.exp(2j * np.pi * phase)).real
            assert measured == pytest.approx(expect, abs=1e-12)

    def test_golden_hypothesis_not_met(self, golden_lac):
        with pytest.raises(HypothesisNotMet):
            verify_lower_bound(golden_lac, 6)

    def test_positivity_breaks_beyond_range(self, spike_lac):
        # sweep far past the admitted range: positivity must eventually fail,
        # and the breakdown point sits beyond the certified range constant
        q6, q7 = spike_lac.mode_q(6), spike_lac.mode_q(7)
        l_hi = int(0.6 * q7 / q6)
        lb = verify_lower_bound(spike_lac, 6, l_values=range(l_hi))
        negatives = [l for l, dev in lb.entries if dev <= 0]
        assert negatives, "window averages should fail far beyond the range"
        assert min(negatives) > q7 / (8 * q6)

    def test_nm_bound(self, spike_lac):
        nm = verify_Nm_bound(spike_lac, verify_lower_bound(spike_lac, 6))
        assert nm.ratio >= 0.1
        assert nm.N_m % spike_lac.mode_q(6) == 0

    def test_aggregate_telescopes_window_averages(self, spike_lac, spike_freq):
        # phi^{(L q)}(0) = sum_l phi^{(q)}(l q omega): the aggregate average
        # is exactly the mean of the window averages
        m, L = 6, 9
        q = spike_lac.mode_q(m)
        w_fp = spike_freq.fixed_point()
        one = 1 << BITS
        windows = [
            measure_average(spike_lac, spike_freq,
                            TorusPoint(((l * q * w_fp) % one,), BITS), q)
            for l in range(L)
        ]
        agg = measure_average(spike_lac, spike_freq,
                              TorusPoint.zero(1, BITS), L * q)
        assert agg == pytest.approx(float(np.mean(windows)), abs=1e-12)


class TestSchedule:
    def test_index_rule_all(self, index_rule_freq):
        cf = expand_cf(index_rule_freq, max_q=10 ** 9)
        sched = borel_bernstein_schedule(cf)
        assert sched == tuple(range(1, cf.certified_len))

    def test_golden_only_first(self, golden_cf):
        assert borel_bernstein_schedule(golden_cf) == (1,)

    def test_one_rule_behind_every_import(self):
        import ergorate
        from ergorate import arithmetic
        assert (borel_bernstein_schedule is arithmetic.borel_bernstein_schedule
                is ergorate.borel_bernstein_schedule)

    def test_alternating_square_rule(self):
        f = Frequency(PartialQuotients((), "square_even"))
        cf = expand_cf(f, max_q=10 ** 12)
        sched = borel_bernstein_schedule(cf)
        # witnesses are the m with a_{m+1} = (m+1)^2 >= m: the even-square
        # positions are at odd m; odd positions carry a = 1 >= m only at m=1
        expect = tuple(m for m in range(1, cf.certified_len)
                       if cf.a_at(m + 1) >= m)
        assert sched == expect
        assert all(m == 1 or (m + 1) % 2 == 0 for m in sched)


class TestSlowRate:
    def test_exp_gap_points(self):
        f = Frequency(PartialQuotients((), "exp_gap", (5,)))
        cf = expand_cf(f, max_q=None, stop_product=1 << 420)
        phi = build_lacunary(cf, AnalyticWeight(), tol=1e-12)
        for m in (3, 4, 5):
            r = slow_rate_point(phi, m)
            assert r.lower_dev_Nm > 0.1 * math.exp(-r.q_m)

    def test_matched_rate_interpretation(self):
        # with the exponential gap rule, e^{-q_m} ~ 1/q_{m+1}: the measured
        # deviation at the aggregated time tracks the matched slow rate
        f = Frequency(PartialQuotients((), "exp_gap", (5,)))
        cf = expand_cf(f, max_q=None, stop_product=1 << 420)
        phi = build_lacunary(cf, AnalyticWeight(), tol=1e-12)
        m = 5
        r = slow_rate_point(phi, m)
        rho_at_gap_scale = 1.0 / cf.q_at(m + 1)  # rho(t) = e^{-Gamma^{-1}(t)}
        assert r.lower_dev_Nm >= 0.1 * rho_at_gap_scale
