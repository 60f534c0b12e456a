"""Orbits, Birkhoff sums, exponential sums and skew-product character sums."""

import cmath
import dataclasses
import hashlib
import math
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergorate import dynamics, kernels
from ergorate.arithmetic import (Frequency, PartialQuotients, expand_cf,
                                 fp_signed, golden_mean, sqrt2_minus_1)
from ergorate.dynamics import (CharSweep, GridSweep, SystemSpec, TorusPoint,
                               birkhoff_sum, char_birkhoff_skew,
                               exp_sum_avg_fp, exp_sums_fp, grid_point,
                               iterate, kernel_sum, kernel_table,
                               orbit_floats, step, sup_deviation)
from ergorate.errors import DimensionTooLarge
from ergorate.harness import resolve_observable, resolve_system
from ergorate.kernels import (Holder, Observable, TrigPoly, make_coboundary,
                              make_cos, make_dist_pow, make_weierstrass,
                              random_real_trigpoly)
from ergorate.sharpness import decompose, measure_average
from oracles import (char_sum_mpmath, dist_to_Z_mod, exp_sum_avg, float_value,
                     grid_sums_one_pass, grid_sums_per_point,
                     spectral_sums_per_N)

BITS = 192
ONE = 1 << BITS


@pytest.fixture(scope="module")
def rot(golden):
    return SystemSpec.rotation(golden)


class TestTorusPoint:
    def test_wraparound_exact(self, rot, golden):
        x = TorusPoint((ONE - 1,), BITS)
        y = step(rot, x)
        assert y.coords == (golden.fixed_point() - 1,)

    def test_from_floats_reduces(self):
        x = TorusPoint.from_floats([1.25, -0.25], BITS)
        assert np.allclose(x.to_floats(), [0.25, 0.75])

    def test_rejects_unreduced(self):
        with pytest.raises(ValueError):
            TorusPoint((ONE,), BITS)

    def test_only_outside_coordinates_are_checked(self, golden, monkeypatch):
        # step and iterate reduce their own results, so they skip the check
        checked = []
        check = TorusPoint.__post_init__
        monkeypatch.setattr(TorusPoint, "__post_init__",
                            lambda self: (checked.append(self), check(self)))
        x = TorusPoint((ONE - 1, 5, 7), BITS)
        TorusPoint.from_floats([0.5], BITS)
        assert len(checked) == 2
        skew = SystemSpec.skew(3, golden)
        y, z = step(skew, x), iterate(skew, x, 12)
        assert len(checked) == 2
        assert y == iterate(skew, x, 1)
        assert z == TorusPoint(z.coords, BITS)


class TestSystemSpec:
    def test_omega_fp_computed_once(self, golden, monkeypatch):
        calls = []
        fixed_point = Frequency.fixed_point

        def counted(self):
            calls.append(self.fractional_bits)
            return fixed_point(self)

        monkeypatch.setattr(Frequency, "fixed_point", counted)
        sys = SystemSpec.skew(3, golden)
        x = TorusPoint.zero(3, BITS)
        for _ in range(5):
            x = step(sys, x)
        iterate(sys, x, 7)
        list(orbit_floats(sys, x, 10))
        assert calls == [BITS]
        # the cached value is not a field: equality and hashing ignore it
        fresh = SystemSpec.skew(3, golden)
        assert fresh == sys and hash(fresh) == hash(sys)
        assert fresh.omega_fp == sys.omega_fp


    def test_frequencies_share_one_width(self, golden):
        with pytest.raises(ValueError, match="width"):
            SystemSpec.rotation_d([golden, sqrt2_minus_1(256)])

    @pytest.mark.parametrize("case", [
        "measure_average", "decompose", "birkhoff_sum", "iterate",
        "step", "CharSweep", "another omega", "omega at another width"])
    def test_a_point_or_frequency_of_another_width_is_refused(self, case):
        # a 256-bit point on the 192-bit golden rotation: measure_average read
        # 0.10819 where the 192-bit point gives 0.00922, birkhoff_sum died
        # with an OverflowError, and iterate reduced the point mod 2^192
        sys = resolve_system("rotation1d:golden")
        phi = resolve_observable("lacunary:holder:0.5", sys)
        x, x192 = (TorusPoint.from_floats([0.3], b) for b in (256, BITS))
        calls = {
            "measure_average": lambda: measure_average(phi, sys.freqs[0], x, 1000),
            "decompose": lambda: decompose(phi, 3, x),
            "birkhoff_sum": lambda: birkhoff_sum(sys, phi, x, 1000),
            "iterate": lambda: iterate(sys, x, 5),
            "step": lambda: step(sys, x),
            "CharSweep": lambda: CharSweep(sys.freqs[0], (1, 0),
                                           TorusPoint.zero(2, 256)),
            "another omega": lambda: measure_average(phi, sqrt2_minus_1(),
                                                     x192, 1000),
            "omega at another width": lambda: measure_average(
                phi, golden_mean(256), x192, 1000),
        }
        match = "frequency of the series" if "omega" in case else "256-bit point"
        with pytest.raises(ValueError, match=match):
            calls[case]()


class TestIterate:
    def test_rotation_identity(self, rot):
        x = TorusPoint.from_floats([0.25], BITS)
        assert iterate(rot, x, 0).coords == x.coords

    def test_rotation_matches_wide_product(self, rot, golden):
        # orbit advanced step by step equals frac(x + N*omega) exactly
        w = golden.fixed_point()
        x = TorusPoint.from_floats([0.123], BITS)
        z = x
        N = 10 ** 5
        for _ in range(N):
            z = step(rot, z)
        assert z.coords[0] == (x.coords[0] + N * w) % ONE

    def test_orbit_accumulation_drift_free_1e7(self, golden):
        # the accumulation scheme used by the orbit generators carries zero
        # drift: after 1e7 exact additions the state equals the wide product
        w = golden.fixed_point()
        x0 = TorusPoint.from_floats([0.123], BITS).coords[0]
        c = x0
        N = 10 ** 7
        for _ in range(N):
            c = (c + w) % ONE
        assert c == (x0 + N * w) % ONE

    def test_orbit_generator_matches_wide_product(self, rot, golden):
        w = golden.fixed_point()
        x = TorusPoint.from_floats([0.375], BITS)
        N = 10 ** 6
        last = None
        for buf in orbit_floats(rot, x, N):
            last = buf[-1]
        expect = ((x.coords[0] + (N - 1) * w) % ONE) / ONE
        assert last == expect  # same exact integer, same rounding

    def test_skew_two_steps_manual(self, golden):
        sys = SystemSpec.skew(2, golden)
        w = golden.fixed_point()
        x = TorusPoint.from_floats([0.3, 0.7], BITS)
        got = iterate(sys, x, 2)
        expect = ((x.coords[0] + 2 * x.coords[1] + w) % ONE,
                  (x.coords[1] + 2 * w) % ONE)
        assert got.coords == expect

    def test_skew_d3_j7_composition(self, golden, rng):
        sys = SystemSpec.skew(3, golden)
        x = TorusPoint.from_floats(rng.random(3), BITS)
        z = x
        for _ in range(7):
            z = step(sys, z)
        assert iterate(sys, x, 7).coords == z.coords

    @pytest.mark.parametrize("kind,dim", [("rotation1d", 1), ("rotationd", 2),
                                          ("skew", 3)])
    def test_closed_form_equals_composition(self, kind, dim, golden, sqrt2m1, rng):
        if kind == "rotation1d":
            sys = SystemSpec.rotation(golden)
        elif kind == "rotationd":
            sys = SystemSpec.rotation_d([golden, sqrt2m1])
        else:
            sys = SystemSpec.skew(dim, golden)
        for _ in range(20):
            x = TorusPoint.from_floats(rng.random(dim), BITS)
            z = x
            for j in range(1, 101):
                z = step(sys, z)
                assert iterate(sys, x, j).coords == z.coords


class TestBirkhoffSum:
    def test_single_step(self, rot):
        phi = make_cos()
        x = TorusPoint.from_floats([0.2], BITS)
        assert birkhoff_sum(rot, phi, x, 1) == pytest.approx(
            math.cos(2 * math.pi * 0.2), abs=1e-12)

    def test_constant(self, rot):
        phi = Observable(dim=1, fn=lambda x: np.full(np.shape(x), 2.0),
                         modulus=Holder(1.0), norm_est=2.0, mean_hint=2.0)
        assert birkhoff_sum(rot, phi, TorusPoint.zero(1, BITS), 500) == \
            pytest.approx(1000.0, abs=1e-9)

    def test_against_mpmath_oracle(self, rot):
        mpmath.mp.dps = 80
        w = (mpmath.sqrt(5) - 1) / 2
        acc = mpmath.mpf(0)
        for j in range(1000):
            acc += mpmath.cos(2 * mpmath.pi * mpmath.frac(j * w))
        got = birkhoff_sum(rot, make_cos(), TorusPoint.zero(1, BITS), 1000)
        assert got == pytest.approx(float(acc), abs=1e-10)

    def test_additivity(self, rot, rng):
        phi = make_dist_pow(0.5)
        x = TorusPoint.from_floats([rng.random()], BITS)
        N, M = 700, 300
        whole = birkhoff_sum(rot, phi, x, N + M)
        part = birkhoff_sum(rot, phi, x, N) + \
            birkhoff_sum(rot, phi, iterate(rot, x, N), M)
        assert whole == pytest.approx(part, rel=1e-10)


def exp_sum_direct(t: float, N: int) -> complex:
    """Brute-force oracle for the geometric form."""
    acc = 0.0 + 0.0j
    for j in range(N):
        acc += cmath.exp(2j * math.pi * math.fmod(j * t, 1.0))
    return acc / N


def _t_fp(t: float) -> int:
    """t * 2**192 as an integer; exact for any double t."""
    return int(t * 2.0 ** BITS)


class TestExpSum:
    def test_integer_t(self):
        assert exp_sum_avg_fp(_t_fp(3.0), BITS, 7) == 1.0 + 0.0j

    def test_half(self):
        assert abs(exp_sum_avg_fp(_t_fp(0.5), BITS, 2)) < 1e-15

    def test_closed_vs_direct(self, rng):
        for t in rng.random(20):
            for N in (3, 100, 1000):
                d = abs(exp_sum_avg_fp(_t_fp(t), BITS, N) - exp_sum_direct(t, N))
                assert d < 1e-10

    def test_fp_variant_matches(self, golden):
        w = golden.fixed_point()
        for k in (1, 5, 89):
            a = exp_sum_avg_fp((k * w) % ONE, BITS, 500)
            b = exp_sum_direct(k * float_value(golden), 500)
            assert abs(a - b) < 1e-9

    @given(st.floats(1e-6, 0.999999), st.integers(1, 10 ** 5))
    @settings(max_examples=200, deadline=None)
    def test_bounds(self, t, N):
        v = abs(exp_sum_avg_fp(_t_fp(t), BITS, N))
        assert v <= 1.0
        norm_t = min(t, 1 - t)
        if norm_t >= 1e-6:
            # |1 - e(t)| >= 4 ||t|| makes |E_N| * N * ||t|| <= 1 sharp
            assert v * N * norm_t <= 1.0 + 1e-9


def _mp_exp_sum_avg(t_fp: int, N: int) -> complex:
    """(1/N) sum_{j<N} e(j t) at 80 digits, for the same fixed-point t."""
    with mpmath.workdps(80):
        t = mpmath.mpf(t_fp % ONE) / ONE
        if t == 0:
            return 1.0 + 0.0j
        return complex(mpmath.expjpi((N - 1) * t) * mpmath.sinpi(N * t)
                       / (N * mpmath.sinpi(t)))


def _assert_rel(t_fp: int, N: int, rel: float = 1e-14) -> None:
    got = exp_sum_avg_fp(t_fp, BITS, N)
    ref = _mp_exp_sum_avg(t_fp, N)
    assert abs(got - ref) <= rel * abs(ref), (t_fp, N, got, ref)


_RESONANT = {
    "golden": golden_mean(),
    "sqrt2m1": sqrt2_minus_1(),
    "a_m=m": Frequency(PartialQuotients((), "index")),
}


@pytest.fixture(scope="module")
def resonant_cfs():
    return {k: expand_cf(f, max_q=10 ** 12) for k, f in _RESONANT.items()}


class TestExpSumAccuracy:
    """exp_sum_avg_fp against 80-digit mpmath at <= 1e-14 relative error."""

    def test_golden_regression(self, golden):
        # near resonance (||q omega|| ~ 3e-10) the old 1 - e(t) form lost
        # 5.8e-9 relative accuracy to cancellation
        t_fp = (1836311903 * golden.fixed_point()) % ONE
        _assert_rel(t_fp, 7)

    @given(st.integers(0, ONE - 1), st.integers(1, 10 ** 9))
    @settings(max_examples=200, deadline=None)
    def test_any_phase(self, t_fp, N):
        _assert_rel(t_fp, N)

    @given(name=st.sampled_from(sorted(_RESONANT)), n=st.integers(1, 60),
           k=st.integers(1, 3), near=st.booleans(),
           n_rule=st.sampled_from(["7", "q", "3q+1", "123457", "1e6",
                                   "q_next", "q_next_minus_1", "any"]),
           any_n=st.integers(1, 10 ** 7))
    @settings(max_examples=300, deadline=None)
    def test_resonant_phases(self, resonant_cfs, name, n, k, near, n_rule,
                             any_n):
        # t = k q_n omega sits near an integer; with N = q_{n+1} (near=False,
        # t = k omega) N t sits near one as well
        cf = resonant_cfs[name]
        n = min(n, cf.certified_len - 1)
        q, q_next = cf.q_at(n), cf.q_at(n + 1)
        w = _RESONANT[name].fixed_point()
        t_fp = (k * (q if near else 1) * w) % ONE
        N = {"7": 7, "q": q, "3q+1": 3 * q + 1, "123457": 123457,
             "1e6": 10 ** 6, "q_next": q_next, "q_next_minus_1": q_next - 1,
             "any": any_n}[n_rule]
        _assert_rel(t_fp, max(N, 1))

    def test_constant_mode_is_exact(self):
        for N in (1, 7, 10 ** 6):
            for t_fp in (0, ONE, 5 * ONE):
                assert N * exp_sum_avg_fp(t_fp, BITS, N) == N


class TestFpFloats:
    """dynamics._fp_floats against int / int, the correctly rounded
    quotient, on both sides of its 1022-bit rule."""

    @pytest.mark.parametrize("bits", [64, 192, 1022, 1023, 1100])
    def test_equals_int_division(self, bits):
        one = 1 << bits
        vals = [0, 1, one - 1, one >> 1, 12345, 3 << bits - 2]
        # halfway between two doubles, (2m + 1) 2^s with m of 53 bits, rounds
        # to the even neighbour: m even, then m odd; and one unit either side
        for m in (1 << 52, (1 << 53) - 1):
            for s in (1, bits // 2 - 27, bits - 54):  # below 2^bits
                vals += [(2 * m + 1 << s) + e for e in (-1, 0, 1)]
        # below 2^(bits - 1022) a quotient is subnormal, or rounds to 0.0
        tiny = [1 << 25, 1 << 26, 3 << 25, (1 << 77) + 1, (1 << 78) - 1]
        if bits > 1022:
            vals += [v >> 1100 - bits for v in tiny]
        gen = random.Random(bits)
        vals += [gen.getrandbits(gen.randrange(1, bits)) for _ in range(200)]
        vals += [-v for v in vals]
        want = [v / one for v in vals]
        got = dynamics._fp_floats(vals, bits).tolist()
        assert [g.hex() for g in got] == [w.hex() for w in want]
        if bits == 1100:  # the subnormal quotients are there
            assert any(0 < w < sys.float_info.min for w in want)

    def test_empty(self):
        assert dynamics._fp_floats([], BITS).shape == (0,)


class TestExpSumsArray:
    """exp_sums_fp, E_N as arrays, against the scalar oracle exp_sum_avg,
    value for value."""

    @pytest.mark.parametrize("bits", [64, 192, 1100])
    @pytest.mark.parametrize("N", [1, 2, 7, 10 ** 6, 2 ** 53 + 1, 10 ** 18])
    def test_equals_the_scalar_oracle(self, bits, N):
        # float(N) rounds as Python's int * float does, past 2^53 too
        one = 1 << bits
        w = Frequency.parse("golden", bits).fixed_point()
        cf = expand_cf(Frequency.parse("golden", bits), max_q=10 ** 12)
        ts = [0, one >> 1, 1, one - 1, w, one - w, 12345 * w % one]
        ts += [cf.q_at(n) * w % one for n in (5, 20, cf.certified_len)]
        # resonant: N t within a few ulp of an integer
        ts += [(m * one // N + e) % one for m in (1, 3) for e in (-1, 0, 1)]
        ts = [fp_signed(t, bits) for t in ts]
        sines = [math.sin(math.pi * (t / one)) for t in ts]
        # at 1100 bits t = +-1 has the sine 0.0 (see below)
        ts, sines = zip(*[(t, s) for t, s in zip(ts, sines) if s or not t])
        sines = np.array(sines)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            re, im = exp_sums_fp(ts, sines, bits, N)
        assert list(sines) == list(dynamics._step_sines(ts, bits))
        # the two clamps differ on NaN alone, which the ratio never is: its
        # numerator sin(pi r) is finite, and its denominator N sin(pi t) is
        # nonzero wherever the sine is, as |sin(pi t)| >= sin(pi 2^-1074)
        assert max(-1.0, min(1.0, math.nan)) == 1.0
        assert np.isnan(np.clip(math.nan, -1.0, 1.0))
        assert not np.isnan(re).any() and not np.isnan(im).any()
        for t, a, b in zip(ts, re, im):
            want = exp_sum_avg(t % one, bits, N)
            # == ignores the sign of a zero, which can differ where N t is an
            # integer; a spectrum starts at +0.0, so it never holds -0.0
            assert (a, b) == (want.real, want.imag), t

    def test_a_sine_below_the_double_range_is_masked(self):
        # at 1100 bits t = 2^-1100 has the sine 0.0: it is masked to its
        # limit, the ratio 1
        assert exp_sum_avg_fp(1, 1100, 7) == 1 + 0j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            re, im = exp_sums_fp([0, 1, -1], np.zeros(3), 1100, 7)
        assert list(re) == [1.0] * 3 and abs(im).max() < 1e-300

    def test_n_below_1_is_refused(self):
        with pytest.raises(ValueError, match="N must be"):
            exp_sums_fp([1], np.ones(1), BITS, 0)


class TestKernelSum:
    def test_q2_single_pair(self, golden):
        f = Frequency(PartialQuotients((), "const", (2,)))  # sqrt2 - 1
        cf = expand_cf(f, max_q=100)
        res = kernel_sum(kernel_table(cf, 50, 1), 1)  # q_1 = 2
        expect = 2 * abs(exp_sum_avg_fp(f.fixed_point(), BITS, 50))
        assert res.total == pytest.approx(expect, abs=1e-12)

    def test_golden_q89_ratio(self, golden, golden_cf):
        idx = list(golden_cf.q).index(89) + 1
        res = kernel_sum(kernel_table(golden_cf, 10 ** 4, 88), idx)
        assert res.ratio <= 8.0

    def test_ratio_sweep_bounded(self, golden, golden_cf):
        ratios = []
        for idx in range(1, golden_cf.certified_len + 1):
            q = golden_cf.q_at(idx)
            if q < 13 or q > 6765:
                continue
            table = kernel_table(golden_cf, 10 ** 5, q - 1)
            ratios.append(kernel_sum(table, idx).ratio)
        assert ratios and max(ratios) <= 10.0
        assert min(ratios) > 0
        assert max(ratios) / min(ratios) < 50  # spread recorded and finite


class TestThreeGapStructure:
    @pytest.mark.parametrize("freq_name", ["golden", "sqrt2"])
    def test_arc_occupancy(self, freq_name, golden, sqrt2m1):
        omega = golden if freq_name == "golden" else sqrt2m1
        cf = expand_cf(omega, max_q=1000)
        w = omega.fixed_point()
        for n in range(1, cf.certified_len + 1):
            q = cf.q_at(n)
            if q < 2 or q > 1000:
                continue
            # arcs [j/2q, (j+1)/2q): each holds at most one of k*omega,
            # 1 <= k < q, and the two arcs flanking 0 hold none
            seen = set()
            t = 0
            for k in range(1, q):
                t = (t + w) % ONE
                arc = (t * 2 * q) >> BITS
                assert arc not in seen
                seen.add(arc)
                assert arc not in (0, 2 * q - 1)


class TestSupDeviation:
    def test_zero_observable(self, rot):
        phi = Observable(dim=1, fn=lambda x, out=None: np.zeros(np.shape(x)),
                         modulus=Holder(1.0), norm_est=0.0, mean_hint=0.0)
        assert sup_deviation(rot, phi, 100, 64).sup_dev == 0.0

    def test_coboundary_rate(self, rot, golden):
        phi = make_coboundary(float_value(golden))
        for N in (100, 1000):
            res = sup_deviation(rot, phi, N, 128)
            assert res.sup_dev <= 2.0 / N + 1e-12

    def test_denjoy_koksma_at_convergents(self, rot, golden, golden_cf):
        phi = make_dist_pow(0.5)
        norm = 1.0 + 0.5 ** 0.5
        for q in golden_cf.q:
            if q > 1000:
                break
            res = sup_deviation(rot, phi, int(q), 1024)
            assert res.sup_dev * q ** 0.5 <= norm

    def test_bounded_by_two_sup(self, rot):
        phi = make_cos()
        res = sup_deviation(rot, phi, 37, 64)
        assert res.sup_dev <= 2.0 * 1.0

    def test_n1_equals_grid_max(self, rot):
        phi = make_dist_pow(0.5)
        res = sup_deviation(rot, phi, 1, 256)
        xs = np.arange(256) / 256
        expect = np.max(np.abs(phi.fn(xs) - phi.mean_hint))
        assert res.sup_dev == pytest.approx(expect, abs=1e-12)

    def test_grid_budget(self, golden, sqrt2m1):
        sys = SystemSpec.rotation_d([golden, sqrt2m1, golden])
        phi = Observable(dim=3, fn=lambda x, out=None: x[..., 0] * 0.0,
                         modulus=Holder(1.0), norm_est=0.0, mean_hint=0.0)
        with pytest.raises(DimensionTooLarge):
            sup_deviation(sys, phi, 10, 1024)

    @pytest.mark.parametrize("key", ["lacunary:holder:0.5", "dist_pow:0.5",
                                     "cos"])
    def test_n0_fails_closed(self, rot, key):
        phi = resolve_observable(key, rot)
        with pytest.raises(ValueError):
            sup_deviation(rot, phi, 0, 64)

    def test_skew_small_grid_runs(self, golden):
        sys = SystemSpec.skew(2, golden)
        phi = Observable(
            dim=2,
            fn=lambda x, out=None: np.cos(2 * np.pi * x[..., 0], out=out),
            modulus=Holder(1.0), norm_est=1 + 2 * np.pi, mean_hint=0.0)
        res = sup_deviation(sys, phi, 50, 16)
        assert 0 <= res.sup_dev <= 2.0


class TestGridSweep:
    """One orbit per schedule on the pointwise grid route: each field equals
    that of a fresh pass to its N, bit for bit."""

    @pytest.mark.parametrize("G", [16, 64, 1024])
    def test_fields_equal_fresh_passes(self, rot, G):
        phi = make_dist_pow(0.5)
        sweep = GridSweep(rot, phi, G)
        c = sweep.chunk  # 2**15 rows at G = 16 and 64, 4096 at G = 1024
        # 1 is repeated as in a convergent schedule; the rest straddle the
        # first and second chunk boundaries and repeat a point
        for N in [1, 1, 63, c - 1, c, c, c + 1, 2 * c + 5]:
            res = sup_deviation(rot, phi, N, G, sweep)
            fresh = sup_deviation(rot, phi, N, G)
            assert sweep.j == N
            assert np.array_equal(res.field, fresh.field)
            assert res.sup_dev == fresh.sup_dev
            assert res.argmax_x == fresh.argmax_x
            assert np.array_equal(grid_sums_one_pass(rot, phi, N, G) / N
                                  - phi.mean(), res.field)

    def test_a_block_allocates_nothing(self, rot, monkeypatch):
        # once the chunk's orbit is converted (its limb arrays are not
        # counted), the blocks work in the sweep's point and value buffers
        sweep = GridSweep(rot, make_dist_pow(0.5), 1024)
        c = sweep.chunk  # 4096 rows of 1024 cells, in blocks of 16 rows
        sweep.sums(c)
        orbit_floats = dynamics._chain_floats

        def then_reset_the_peak(*args):
            orbit_floats(*args)
            tracemalloc.reset_peak()

        monkeypatch.setattr(dynamics, "_chain_floats", then_reset_the_peak)
        tracemalloc.start()
        try:
            sweep.sums(2 * c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sweep.j == 2 * c
        assert peak < c * 8 + (64 << 10)  # the orbit array plus 64 KB

    def test_resuming_behind_the_sweep_fails_closed(self, rot):
        phi = make_dist_pow(0.5)
        sweep = GridSweep(rot, phi, 64)
        sup_deviation(rot, phi, 100, 64, sweep)
        with pytest.raises(ValueError, match="past"):
            sup_deviation(rot, phi, 99, 64, sweep)

    def test_sweep_of_another_run_fails_closed(self, rot, sqrt2m1):
        phi = make_dist_pow(0.5)
        sweep = GridSweep(rot, phi, 64)
        other_sys = SystemSpec.rotation(sqrt2m1)
        for args in [(other_sys, phi, 100, 64), (rot, make_dist_pow(0.3), 100, 64),
                     (rot, phi, 100, 128)]:
            with pytest.raises(ValueError, match="built for another"):
                sup_deviation(*args, sweep)
        assert sweep.j == 0

    def test_budget_check_runs_per_chunk(self, rot, monkeypatch):
        calls = []
        sweep = GridSweep(rot, make_dist_pow(0.5), 1024)
        monkeypatch.setattr(dynamics, "tick", lambda: calls.append(sweep.j))
        c = sweep.chunk
        sup_deviation(rot, sweep.phi, 3 * c + 7, 1024, sweep)
        assert calls == [c, 2 * c, 3 * c]

    def test_other_routes_ignore_the_sweep(self, rot):
        phi = make_cos()
        sweep = GridSweep(rot, phi, 64)
        res = sup_deviation(rot, phi, 1000, 64, sweep)
        assert sweep.j == 0
        assert np.array_equal(res.field, sup_deviation(rot, phi, 1000, 64).field)

    def test_the_route_is_chosen_when_the_sweep_is_built(self, rot):
        # sums(N) serves the closed form it read from phi.fourier at
        # construction, and never evaluates phi.fn on it
        phi = dataclasses.replace(make_cos(), fn=_boom)
        sweep = GridSweep(rot, phi, 64)
        phi.fourier = None
        got = sweep.sums(1000) / 1000
        assert sweep.j == 0
        want = _direct_field(rot, make_cos(), 1000, 64)
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_closed_forms_build_no_pointwise_state(self):
        # the G**3 cell state (about 17 MB here) waits for the first sums
        sys = resolve_system("rotationd:sqrt2m1,sqrt3m1,golden")
        phi = resolve_observable("poly_plus_dist:2:0.5:5", sys)
        tracemalloc.start()
        try:
            sweep = GridSweep(sys, phi, 64)
            sup_deviation(sys, phi, 1000, 64, sweep)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert sweep.j == 0
        assert held < 1 << 20


def _pointwise_case(name):
    golden, s2 = golden_mean(), sqrt2_minus_1()
    if name == "rot2":
        return SystemSpec.rotation_d([golden, s2]), make_dist_pow(0.5, 2)
    d = int(name[-1])
    return SystemSpec.skew(d, golden), make_dist_pow(0.5, d)


def _sampled_cells(G, d, n=14, seed=3):
    """The corner cells and n random ones of the (G,) * d grid."""
    rng = np.random.default_rng(seed)
    picks = [tuple(c) for c in rng.integers(0, G, size=(n, d))]
    return [(0,) * d, (G - 1,) * d] + picks


class TestGridSweepEverySystem:
    """The one pointwise route on skew products and d-dim rotations: each
    cell rides the orbit of 0 plus an exact integer offset mod grid.  The
    fields agree with one exact orbit per grid point to 1e-12 and resume
    bit for bit."""

    @pytest.mark.parametrize("G", [16, 64])
    @pytest.mark.parametrize("name", ["skew2", "skew3", "rot2"])
    def test_fields_match_per_point_orbits(self, name, G):
        sys, phi = _pointwise_case(name)
        sweep = GridSweep(sys, phi, G)
        c = sweep.chunk
        # skew3 at grid 64 has 2**18 cells a row, so it stops after a few
        # rows; the chunk boundaries are straddled at grid 16
        Ns = ([1, 7] if name == "skew3" and G == 64
              else [1, c - 1, c, c + 1, 2 * c + 5])
        cells = _sampled_cells(G, sys.dim)
        for N in Ns:
            res = sup_deviation(sys, phi, N, G, sweep)
            fresh = sup_deviation(sys, phi, N, G)
            assert sweep.j == N
            assert res.field.shape == (G,) * sys.dim
            assert np.array_equal(res.field, fresh.field)
            assert res.argmax_x == fresh.argmax_x
            expect = grid_sums_per_point(sys, phi, N, G, cells) / N - phi.mean()
            got = np.array([res.field[idx] for idx in cells])
            assert np.max(np.abs(got - expect)) <= 1e-12

    def test_grid_not_a_power_of_two(self):
        sys, phi = _pointwise_case("skew2")
        G = 24
        N = GridSweep(sys, phi, G).chunk + 1
        res = sup_deviation(sys, phi, N, G)
        expect = grid_sums_per_point(sys, phi, N, G) / N - phi.mean()
        assert np.max(np.abs(res.field - expect)) <= 1e-12

    def test_skew_offsets_follow_the_chains(self, golden):
        # after j steps the cell g sits at iterate(g / G, j) - iterate(0, j)
        sys = SystemSpec.skew(3, golden)
        G = 16
        sweep = GridSweep(sys, make_dist_pow(0.5, 3), G)
        j = 1000
        sweep.sums(j)
        base = iterate(sys, TorusPoint.zero(3, BITS), j)
        for cell in _sampled_cells(G, 3):
            start = TorusPoint(tuple(int(g) * (ONE // G) for g in cell), BITS)
            x = iterate(sys, start, j)
            want = [((a - b) % ONE) // (ONE // G)
                    for a, b in zip(x.coords, base.coords)]
            flat = np.ravel_multi_index(cell, (G,) * 3)
            assert list(sweep._offsets[:, flat]) == want

    def test_budget_check_runs_per_chunk(self, monkeypatch):
        sys, phi = _pointwise_case("skew2")
        calls = []
        sweep = GridSweep(sys, phi, 64)
        monkeypatch.setattr(dynamics, "tick", lambda: calls.append(sweep.j))
        c = sweep.chunk
        sup_deviation(sys, phi, 3 * c + 7, 64, sweep)
        assert calls == [c, 2 * c, 3 * c]

    def test_the_observable_sees_unreduced_points_in_0_2(self, golden):
        # phi.fn is 1-periodic, so the sweep passes orbit point plus offset
        # without reducing it mod 1
        sys = SystemSpec.skew(2, golden)
        dist = make_dist_pow(0.5, 2)
        seen = []

        def record(x, out=None):
            seen.append((x.min(), x.max()))
            return dist.fn(x, out=out)

        phi = dataclasses.replace(dist, fn=record)
        sweep = GridSweep(sys, phi, 16)
        sweep.sums(sweep.chunk + 1)
        assert min(lo for lo, _ in seen) >= 0.0
        assert 1.0 <= max(hi for _, hi in seen) < 2.0
        assert np.array_equal(sweep.sums(sweep.j),
                              GridSweep(sys, dist, 16).sums(sweep.j))

    @pytest.mark.parametrize("name, key", [
        ("skew:2:golden", "cos"), ("skew:2:golden", "poly_plus_dist:1:0.5:3"),
        ("skew:2:golden", "degree4"), ("skew:3:golden", "poly_plus_dist:2:0.5:3")])
    def test_trig_fields_on_a_skew_product_match_per_point_orbits(self, name,
                                                                  key):
        # the closed form against one orbit per point, at N on both sides
        # of the 4096-step chunk of the moving modes and of the pointwise
        # chunk of the axis term
        sys = resolve_system(name)
        phi = (random_real_trigpoly(2, 4, seed=4).to_observable()
               if key == "degree4" else resolve_observable(key, sys))
        sweep = GridSweep(sys, phi, 16)
        c = sweep.chunk
        cells = _sampled_cells(16, sys.dim)
        for N in sorted({4095, 4097, c - 1, c + 1}):
            res = sup_deviation(sys, phi, N, 16, sweep)
            expect = grid_sums_per_point(sys, phi, N, 16, cells) / N - phi.mean()
            got = np.array([res.field[idx] for idx in cells])
            assert np.max(np.abs(got - expect)) <= 1e-12

    @pytest.mark.parametrize("name", ["skew2", "rot2"])
    def test_a_one_dimensional_observable_is_refused(self, name):
        sys, _ = _pointwise_case(name)
        with pytest.raises(ValueError, match="dimension"):
            GridSweep(sys, make_weierstrass(Holder(0.5)), 16)

    def test_closed_forms_serve_skew_products(self, golden):
        # a finite spectrum on a skew product takes the closed form, never
        # phi.fn: the constant mode and a mode of the last axis alone are
        # fixed, and every other mode moves by the dual map
        sys = SystemSpec.skew(2, golden)
        phi = TrigPoly(2, {(0, 0): 0.25, (0, 3): 0.2 - 0.1j, (0, -3): 0.2 + 0.1j,
                           (1, 0): 0.5, (-1, 2): 0.3j, (1, -2): -0.3j}
                       ).to_observable()
        sweep = GridSweep(sys, dataclasses.replace(phi, fn=_boom), 16)
        cells = np.unravel_index(sweep._cells, (16, 16))
        assert list(zip(*map(list, cells))) == [(0, 0), (0, 3), (0, 13)]
        assert len(sweep._phases) == 3 and sweep._axes == []
        field = sweep.sums(50)
        assert sweep.j == 0  # the open chunk only adds to a copy
        expect = grid_sums_per_point(sys, phi, 50, 16)
        assert np.max(np.abs(field - expect)) / 50 <= 1e-12

    @pytest.mark.parametrize("name", ["skew:2:golden", "skew:3:golden"])
    def test_resumed_closed_forms_equal_fresh_ones(self, name):
        # a rising schedule across two chunk boundaries, repeating an N
        sys = resolve_system(name)
        phi = random_real_trigpoly(sys.dim, 2, seed=6).to_observable()
        sweep = GridSweep(sys, phi, 16)
        for N in [1, 4095, 4096, 4097, 4097, 8191, 8192, 8193, 9000]:
            got = sweep.sums(N)
            assert sweep.j == N // 4096 * 4096
            assert np.array_equal(got, GridSweep(sys, phi, 16).sums(N))

    def test_closed_forms_tick_once_per_whole_chunk(self, monkeypatch):
        sys = resolve_system("skew:2:golden")
        sweep = GridSweep(sys, make_cos(2), 16)
        calls = []
        monkeypatch.setattr(dynamics, "tick", lambda: calls.append(sweep.j))
        sweep.sums(3 * 4096 + 5)
        assert calls == [4096, 2 * 4096, 3 * 4096]

    def test_closed_forms_bound_their_memory(self):
        # 720 moving modes: one table of all of them per chunk peaked at
        # 586 MB; blocks of modes keep each limb table at 8 MB
        sys = resolve_system("skew:3:golden")
        phi = resolve_observable("poly_plus_dist:4:0.5:3", sys)
        tracemalloc.start()
        try:
            GridSweep(sys, phi, 16).sums(5000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20


class TestBlockBudget:
    """Blocks of the pointwise route hold at most _BLOCK_CELLS values, in
    column tiles when one row holds more: every cell's sum keeps its order,
    so the fields keep the bytes of whole-row blocks of 2**16 cells."""

    # sha256 of sums(N) over a rising schedule of one sweep, recorded with
    # whole-row blocks; the chunk is 256 rows in all three cases
    DIGESTS = {
        ("skew:2:golden", 256): [
            (1, "1c0504af64c5d70de84dba6bb56792a6557621c0df09f1595d085c34e0d338a2"),
            (255, "7d3d0906b0d384d7f955eb3113a15cb9cdb5b669a198824620b3305739a96197"),
            (256, "c12592bf149f2654460d377f6c3d07daf4c86bb0eedf03b96422fec4e8c2a6e5"),
            (300, "6e3b834c138df946a033a85eb044d7c940884d3ffb6e2219fb3c0860a33c4e78"),
        ],
        ("skew:3:golden", 64): [
            (1, "44662bcce08308e86328bc8942746b9c8d1bacff4beb42cfc73b6dc3a5b952d4"),
            (100, "6b5d60ef9e6e8c009e3a25758a0be88f3169f187edb8971c6a86a816b0394308"),
            (257, "b93ec255a70bc68607c6af69e28f418da0116e43f0d61f30c284d4c856753921"),
        ],
        ("rotationd:golden,sqrt2m1", 256): [
            (1, "1c0504af64c5d70de84dba6bb56792a6557621c0df09f1595d085c34e0d338a2"),
            (255, "dd5175cd35b079ebafba80a61e513d352941b7126bd2e655482140c0d5ddd806"),
            (256, "e7cb57de4c1ea83a493e53cfe684502c974e353a0a03be924aa93e4993cb364d"),
            (300, "3ecded777ff6327de37df6e74263489a501005fda6a768a44ec418184248bf36"),
        ],
    }

    @pytest.mark.parametrize("name, G", list(DIGESTS))
    def test_tiled_rows_keep_their_bytes(self, name, G):
        sys = resolve_system(name)
        sweep = GridSweep(sys, resolve_observable("dist_pow:0.5", sys), G)
        got = [(N, hashlib.sha256(sweep.sums(N).tobytes()).hexdigest())
               for N, _ in self.DIGESTS[name, G]]
        assert got == self.DIGESTS[name, G]
        assert sweep._tile * sys.dim <= dynamics._BLOCK_CELLS < G ** sys.dim

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts Linux minor page faults")
    def test_a_fresh_sweep_reuses_its_block_memory(self):
        # about 35,600 faults with blocks of 2**16 cells: each 512 KB
        # temporary was a fresh mapping
        code = textwrap.dedent("""
            import resource
            from ergorate.dynamics import GridSweep
            from ergorate.harness import resolve_observable, resolve_system
            rot = resolve_system("rotation1d:golden")
            sweep = GridSweep(rot, resolve_observable("dist_pow:0.5", rot), 1024)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            sweep.sums(10000)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
        src = str(Path(dynamics.__file__).parents[1])
        run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=120, check=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert int(run.stdout) < 2000


class TestSeparableAxisSweeps:
    """A separable observable on a rotation sums each axis term on its own
    1-d sweep, built with the parent sweep and resumed with it."""

    @staticmethod
    def _case():
        sys = resolve_system("rotationd:sqrt2m1,sqrt3m1")
        return sys, resolve_observable("poly_plus_dist:8:0.5:5", sys)

    def test_resumed_fields_equal_fresh_ones(self):
        sys, phi = self._case()
        sweep = GridSweep(sys, phi, 64)
        ((axis, sub),) = sweep._axes
        assert axis == 0 and sub.sys.dim == 1
        c = sub.chunk
        for N in [1, 1, 100, c - 1, c, c + 1, 2 * c + 5]:
            res = sup_deviation(sys, phi, N, 64, sweep)
            assert sub.j == N and sweep.j == 0
            fresh = sup_deviation(sys, phi, N, 64)
            assert np.array_equal(res.field, fresh.field)
            assert res.argmax_x == fresh.argmax_x

    def test_axis_sweeps_take_the_budget_check(self, monkeypatch):
        sys, phi = self._case()
        calls = []
        sweep = GridSweep(sys, phi, 64)
        ((_, sub),) = sweep._axes
        monkeypatch.setattr(dynamics, "tick", lambda: calls.append(sub.j))
        c = sub.chunk
        sup_deviation(sys, phi, 2 * c + 3, 64, sweep)
        assert calls == [c, 2 * c]

    def test_skew_products_sum_axis_terms_together(self, golden,
                                                    monkeypatch):
        # the trig part goes by the closed form; the axis terms share one
        # pointwise sweep of the whole system, which never evaluates it
        sys = SystemSpec.skew(2, golden)
        phi = resolve_observable("poly_plus_dist:2:0.5:5", sys)
        sweep = GridSweep(sys, phi, 16)
        ((axis, sub),) = sweep._axes
        assert axis is None and sub.sys is sys and not sub._closed
        monkeypatch.setattr(phi.trig, "eval", _boom)
        sup_deviation(sys, phi, 10, 16, sweep)
        assert sub.j == 10 and sweep.j == 0


def _floor_case(name):
    golden = golden_mean()
    if name == "rotation1d":
        return SystemSpec.rotation(golden), make_dist_pow(0.5), 1024
    if name == "skew2":
        return SystemSpec.skew(2, golden), make_dist_pow(0.5, 2), 16
    sys = resolve_system("rotationd:sqrt2m1,sqrt3m1")
    return sys, resolve_observable("poly_plus_dist:8:0.5:5", sys), 64


class TestFieldsUnderTheModOracle:
    """dist_to_Z is |t - rint(t)|; with the np.mod form in its place every
    pointwise field is the same bit for bit, as a sweep passes t >= 0."""

    @pytest.mark.parametrize("name", ["rotation1d", "skew2", "poly_plus_dist2"])
    def test_fields_equal_np_mod_fields(self, name, monkeypatch):
        sys, phi, G = _floor_case(name)
        probe = GridSweep(sys, phi, G)
        # the sweep that evaluates dist_to_Z: a separable term's own axis
        c = (probe._axes[0][1] if probe._axes else probe).chunk
        Ns = [1, c - 1, c, c + 1]

        def fields():
            sweep = GridSweep(sys, phi, G)
            return [sup_deviation(sys, phi, N, G, sweep).field for N in Ns]

        floor_fields = fields()
        calls = []

        def oracle(t, out=None):
            calls.append(1)
            return dist_to_Z_mod(t)

        monkeypatch.setattr(kernels, "dist_to_Z", oracle)
        mod_fields = fields()
        assert calls, "the field route never called dist_to_Z"
        for got, want in zip(floor_fields, mod_fields):
            assert np.array_equal(got, want)


def _direct_field(sys, phi, N, G):
    """S_N phi / N - mean on the grid, summed along the orbit at every cell:
    on d <= 2 axes, a TrigPoly's fn, or a SeparableObservable's trig part,
    as sum_k c_k prod_i e(k_i (x_i + g_i / G)) over the coefficients it
    evaluates, from per-axis tables of the factors; a separable's axis
    terms, and any other phi.fn, pointwise."""
    d = sys.dim
    orbit = np.concatenate(list(orbit_floats(sys, TorusPoint.zero(d, BITS), N)))
    poly, pointwise = getattr(phi.fn, "__self__", None), None
    if isinstance(phi, kernels.SeparableObservable):
        poly, axis_terms = phi.trig, phi.axis_terms
        pointwise = lambda x: sum(sub.fn(x[..., axis]) for axis, sub in axis_terms)
    if not isinstance(poly, kernels.TrigPoly) or d > 2:
        poly, pointwise = None, phi.fn
    total = np.zeros((G,) * d, dtype=complex)
    if poly is not None:
        modes = np.array(list(poly.coeffs), dtype=float).reshape(-1, d)
        coeffs = np.array(list(poly.coeffs.values()), dtype=complex)
        for lo in range(0, N, 64):
            xs = orbit[lo:lo + 64].reshape(-1, d)
            # table i: the (rows, G, n) factors e(k_i (x_i + g / G))
            tables = [np.exp(2j * np.pi * modes[:, i] * (
                xs[:, i, None, None] + np.arange(G)[:, None] / G))
                for i in range(d)]
            terms = tables[0] * coeffs
            if d == 1:
                total += terms.sum(axis=(0, 2))
            else:  # the sum over rows and modes of each cell (g_0, g_1)
                total += np.tensordot(terms, tables[1], axes=([0, 2], [0, 2]))
    if pointwise is not None:
        axes = np.meshgrid(*([np.arange(G) / G] * d), indexing="ij")
        pts = np.stack(axes, axis=-1) if d > 1 else axes[0]
        for lo in range(0, N, 64):
            xs = orbit[lo:lo + 64].reshape((-1,) + (1,) * d + orbit.shape[1:])
            total += pointwise(np.mod(pts + xs, 1.0)).sum(axis=0)
    return total.real / N - phi.mean()


def _direct_lacunary_field(sys, phi, N, G):
    """Direct orbit sum with exact mode phases at every grid point: the
    double-rounded orbit points fed to phi.fn are too coarse for q ~ 1e25."""
    return np.array([
        measure_average(phi, sys.freqs[0], grid_point((g,), G, BITS), N)
        for g in range(G)
    ]) - phi.mean()


def _spectral_case(name):
    golden, s2 = golden_mean(), sqrt2_minus_1()
    rot1 = SystemSpec.rotation(golden)
    rot2 = SystemSpec.rotation_d([golden, s2])
    if name == "trig1":
        return rot1, random_real_trigpoly(1, 5, seed=2).to_observable()
    if name == "trig2":
        return rot2, random_real_trigpoly(2, 2, seed=1).to_observable()
    if name == "cos1":
        return rot1, make_cos(1)
    if name == "cos2":
        return rot2, make_cos(2)
    if name == "coboundary":
        return rot1, make_coboundary(float_value(golden))
    if name == "weierstrass":
        return rot1, make_weierstrass(Holder(0.5))
    if name == "lacunary":
        sys = resolve_system("rotation1d:golden")
        return sys, resolve_observable("lacunary:holder:0.5", sys)
    sys = resolve_system("rotationd:sqrt2m1,sqrt3m1")
    return sys, resolve_observable("poly_plus_dist:1:0.5:5", sys)


def _boom(x, out=None):
    raise AssertionError("the spectral route evaluated phi pointwise")


class TestSpectralRoute:
    """Closed-form fields of finite-spectrum observables against direct
    orbit sums on the same grid."""

    @pytest.mark.parametrize("G", [16, 64])
    @pytest.mark.parametrize("N", [1, 7, 100, 1000])
    @pytest.mark.parametrize("name", ["trig1", "trig2", "cos1", "cos2",
                                      "coboundary", "weierstrass", "lacunary",
                                      "poly_plus_dist"])
    def test_field_matches_direct_sum(self, name, N, G):
        sys, phi = _spectral_case(name)
        # the trig part of poly_plus_dist goes through the closed form, and
        # only its axis term is evaluated pointwise
        res = sup_deviation(sys, dataclasses.replace(phi, fn=_boom), N, G)
        direct = (_direct_lacunary_field if name == "lacunary"
                  else _direct_field)(sys, phi, N, G)
        assert res.field.shape == (G,) * sys.dim
        assert np.max(np.abs(res.field - direct)) <= 1e-10
        assert abs(res.sup_dev - np.max(np.abs(direct))) <= 1e-10

    @pytest.mark.parametrize("name", ["rotation1d", "rotationd",
                                      "poly_plus_dist"])
    def test_fields_equal_phases_formed_at_every_N(self, name):
        # the sweep forms each mode's phase k . omega and cell k mod G once;
        # every field, over a schedule that repeats an N, equals the closed
        # form with both formed from scratch at that N, bit for bit
        G = 16
        golden, s2 = golden_mean(), sqrt2_minus_1()
        if name == "rotation1d":  # 3 and 3 + G share cell 3
            sys = SystemSpec.rotation(golden)
            phi = TrigPoly(1, {(3,): 0.3 - 0.2j, (-3,): 0.3 + 0.2j,
                               (3 + G,): 0.1 + 0.4j, (-3 - G,): 0.1 - 0.4j,
                               (5,): 0.25}).to_observable()
        elif name == "rotationd":  # (1, 2) and (1 + G, 2 - G) share a cell
            sys = SystemSpec.rotation_d([golden, s2])
            phi = TrigPoly(2, {(1, 2): 0.2 + 0.1j, (-1, -2): 0.2 - 0.1j,
                               (1 + G, 2 - G): 0.3j, (-1 - G, G - 2): -0.3j,
                               (0, 7): 0.5}).to_observable()
        else:  # degree 8 at G = 16: the modes 8 and -8 of an axis share a cell
            sys = resolve_system("rotationd:sqrt2m1,sqrt3m1")
            phi = resolve_observable("poly_plus_dist:8:0.5:5", sys)
        spectrum = phi.trig.coeffs if name == "poly_plus_dist" else phi.fourier
        cells = [tuple(ki % G for ki in k) for k in spectrum]
        assert len(set(cells)) < len(cells)
        sweep = GridSweep(sys, phi, G)
        for N in [1, 7, 7, 100, 1000]:
            want = spectral_sums_per_N(sys, spectrum, N, G)
            for axis, term in getattr(phi, "axis_terms", ()):
                shape = [1] * sys.dim
                shape[axis] = G
                axis_sys = SystemSpec.rotation(sys.freqs[axis])
                want = want + grid_sums_one_pass(axis_sys, term, N, G).reshape(shape)
            assert np.array_equal(sweep.sums(N), want)

    @pytest.mark.parametrize("N", [7, 100])
    def test_aliased_modes_add(self, rot, N):
        # 3 and 3 + 16 share the grid index 3 mod 16
        G = 16
        poly = TrigPoly(1, {(3,): 0.3 - 0.2j, (-3,): 0.3 + 0.2j,
                            (3 + G,): 0.1 + 0.4j, (-3 - G,): 0.1 - 0.4j})
        phi = poly.to_observable()
        res = sup_deviation(rot, phi, N, G)
        assert np.max(np.abs(res.field - _direct_field(rot, phi, N, G))) <= 1e-10

    @pytest.mark.parametrize("N", [1, 7, 1000])
    def test_constant_mode(self, rot, N):
        phi = TrigPoly(1, {(0,): 0.75 + 0j, (1,): 0.5, (-1,): 0.5}).to_observable()
        res = sup_deviation(rot, phi, N, 16)
        assert np.max(np.abs(res.field - _direct_field(rot, phi, N, 16))) <= 1e-10
        const = TrigPoly(1, {(0,): 0.75 + 0j}).to_observable()
        assert sup_deviation(rot, const, N, 16).sup_dev == 0.0


class TestCharSums:
    def test_pure_last_axis_is_geometric(self, golden, rng):
        d = 2
        x = TorusPoint.from_floats(rng.random(d), BITS)
        k = (0, 3)
        N = 200
        sweep = CharSweep(golden, k, x)
        res = char_birkhoff_skew(sweep, N)
        wv = float_value(golden)
        expect = abs((1 - cmath.exp(2j * math.pi * N * 3 * wv))
                     / (1 - cmath.exp(2j * math.pi * 3 * wv)))
        assert abs(res.value) == pytest.approx(expect, abs=1e-6)
        assert sweep.degree == 1
        assert (sweep.leading_num, sweep.leading_den) == (3, 1)

    def test_n1(self, golden, rng):
        x = TorusPoint.from_floats(rng.random(2), BITS)
        res = char_birkhoff_skew(CharSweep(golden, (1, 2), x), 1)
        f = x.to_floats()
        assert res.value == pytest.approx(
            cmath.exp(2j * math.pi * (f[0] + 2 * f[1])), abs=1e-12)

    @pytest.mark.parametrize("d,k", [(2, (1, 0)), (3, (2, -1, 1)), (4, (0, 1, 0, 2))])
    def test_matches_composition_oracle(self, d, k, golden, rng):
        sys = SystemSpec.skew(d, golden)
        x = TorusPoint.from_floats(rng.random(d), BITS)
        N = 300
        res = char_birkhoff_skew(CharSweep(golden, k, x), N)
        acc = 0.0 + 0.0j
        z = x
        kv = np.array(k, dtype=float)
        for _ in range(N):
            acc += cmath.exp(2j * math.pi * float(kv @ z.to_floats()))
            z = step(sys, z)
        assert abs(res.value - acc) < 1e-9

    @pytest.mark.parametrize("d,k", [(2, (0, 1)), (2, (0, -3)), (3, (0, 0, 2))])
    def test_degree_one_matches_the_direct_sum(self, d, k, golden, rng):
        x = TorusPoint.from_floats(rng.random(d), BITS)
        sweep = CharSweep(golden, k, x)
        assert sweep.degree == 1
        assert char_birkhoff_skew(sweep, 0).value == 0
        for N in [1, 2, 4095, 4097, 10 ** 5]:
            res = char_birkhoff_skew(sweep, N)
            assert abs(res.value - sweep.value(N)) < 1e-10, N
        assert sweep.j == 10 ** 5 // dynamics._SUB * dynamics._SUB

    @pytest.mark.parametrize("at_zero", [True, False])
    def test_a_step_below_the_double_range_sums_to_n_e_d0(self, at_zero, rng):
        # omega = (sqrt5 - 1) / 2^1091 is about 633 / 2^1100, whose sine is
        # 0.0: E_N takes its limit 1, so the sum is N e(D0)
        bits = 1100
        omega = Frequency.parse(f"surd:(-1,1,5,{2 ** 1091})", bits)
        x = (TorusPoint.zero(2, bits) if at_zero
             else TorusPoint.from_floats(rng.random(2), bits))
        sweep = CharSweep(omega, (0, 1), x)
        assert sweep.degree == 1 and 0 < sweep.diffs[1] < 1 << 10
        assert math.sin(math.pi * (sweep.diffs[1] / (1 << bits))) == 0.0
        turn = 2 * math.pi * (sweep.diffs[0] / (1 << bits))
        e_d0 = complex(math.cos(turn), math.sin(turn))
        for N in (1, 7):
            assert char_birkhoff_skew(sweep, N).value == N * e_d0, N
        assert e_d0 == 1 or not at_zero
        # at N = 10^6 the phase (N - 1) D1 / 2 is a subnormal, not 0.0
        value = char_birkhoff_skew(sweep, 10 ** 6).value
        assert abs(value - 10 ** 6 * e_d0) < 1e-300
        # the direct sum of the exact phases agrees
        assert abs(char_birkhoff_skew(sweep, 7).value - sweep.value(7)) < 1e-12

    def test_degree_classification(self, golden, rng):
        x = TorusPoint.from_floats(rng.random(4), BITS)
        sweep = CharSweep(golden, (0, 2, 0, 1), x)
        char_birkhoff_skew(sweep, 10)
        assert sweep.degree == 3
        assert (sweep.leading_num, sweep.leading_den) == (2, math.factorial(3))


# (d, k, bits) of the degree-2 phases that take the chirp route
CHIRP_CASES = [(2, (1, 0), BITS), (2, (-3, 2), BITS), (3, (0, 1, 0), BITS),
               (2, (1, 0), 1100)]


class TestChirpSums:
    def test_matches_an_mpmath_sum_of_the_exact_phases(self, golden, rng):
        sys = SystemSpec.skew(2, golden)
        x = TorusPoint.from_floats(rng.random(2), BITS)
        res = char_birkhoff_skew(CharSweep(golden, (1, 0), x), 20000)
        assert abs(res.value - char_sum_mpmath(sys, (1, 0), x, 20000)) < 1e-12

    @pytest.mark.parametrize("capped", [False, True])
    @pytest.mark.parametrize("d,k,bits", CHIRP_CASES)
    def test_matches_the_direct_sum(self, d, k, bits, capped, rng,
                                    monkeypatch):
        # B^2 - 1, B^2 and B^2 + 1 for B = 64, or for the capped B = 16,
        # whose rows then fill several blocks of 16 with a partial last row
        Ns = [1, 2, 3, 4095, 4096, 4097, 10 ** 5, 10 ** 6]
        if capped:
            monkeypatch.setattr(dynamics, "_CHIRP_ROW", 16)
            monkeypatch.setattr(dynamics, "_CHIRP_BLOCK", 16)
            Ns = [1, 2, 3, 255, 256, 257, 4097, 10 ** 5]
        omega = Frequency.parse("golden", bits)
        x = TorusPoint.from_floats(rng.random(d), bits)
        sweep = CharSweep(omega, k, x)
        assert sweep.degree == 2
        for N in Ns:
            res = char_birkhoff_skew(CharSweep(omega, k, x), N)
            assert abs(res.value - sweep.value(N)) < 1e-10, N

    def test_the_check_is_called_once_per_block(self, golden, rng,
                                                monkeypatch):
        # N = 4097 is 256 rows of B = 16 in 16 blocks, and one more step
        monkeypatch.setattr(dynamics, "_CHIRP_ROW", 16)
        monkeypatch.setattr(dynamics, "_CHIRP_BLOCK", 16)
        calls = []
        monkeypatch.setattr(dynamics, "tick", lambda: calls.append(1))
        sweep = CharSweep(golden, (1, 0), TorusPoint.from_floats(rng.random(2), BITS))
        char_birkhoff_skew(sweep, 4097)
        assert len(calls) == 16 and sweep.j == 0

    def test_n_below_0_is_refused(self, golden):
        sweep = CharSweep(golden, (1, 0), TorusPoint.zero(2, BITS))
        assert char_birkhoff_skew(sweep, 0).value == 0
        with pytest.raises(ValueError, match="N must be >= 0"):
            char_birkhoff_skew(sweep, -1)


class TestCharSweep:
    # these pin the direct sum itself, so they call sweep.value(N): a phase
    # of degree 2 reaches char_birkhoff_skew's chirp route instead
    @pytest.mark.parametrize("d,k", [(2, (1, 0)), (3, (1, 0, 0)),
                                     (3, (2, -1, 1))])
    def test_resumed_sums_equal_fresh_ones(self, d, k, golden, rng):
        # N on both sides of the 4096-step chunk, and the same N twice
        for x in (TorusPoint.from_floats(rng.random(d), BITS),
                  TorusPoint.zero(d, BITS)):
            sweep = CharSweep(golden, k, x)
            for N in (1, 4095, 4096, 4097, 8192, 8192, 100000):
                got = sweep.value(N)
                want = CharSweep(golden, k, x).value(N)
                assert got == want
                assert sweep.j == N // dynamics._SUB * dynamics._SUB

    def test_the_check_is_called_once_per_chunk(self, golden, rng,
                                                monkeypatch):
        # a skew run at N = 10^9 read no budget until the sweep was done
        x = TorusPoint.from_floats(rng.random(2), BITS)
        calls = []
        sweep = CharSweep(golden, (1, 0), x)
        monkeypatch.setattr(dynamics, "tick", lambda: calls.append(sweep.j))
        got = sweep.value(3 * dynamics._SUB + 5)
        assert calls == [dynamics._SUB * i for i in (1, 2, 3)]
        assert got == CharSweep(golden, (1, 0), x).value(3 * dynamics._SUB + 5)

    def test_a_sweep_past_n_or_for_another_sum_is_refused(self, golden, rng):
        x = TorusPoint.from_floats(rng.random(2), BITS)
        sweep = CharSweep(golden, (1, 0), x)
        sweep.value(5000)
        with pytest.raises(ValueError, match="past N"):
            sweep.value(4095)
        # behind the open chunk, not behind the sweep
        sweep.value(4500)

    @pytest.mark.parametrize("k", [(1, 0, 0), (1,), (0, 0), (0, 0, 0)])
    def test_a_k_of_another_length_or_of_zeros_is_refused(self, golden, k):
        # d is len(k); it must be the dimension of the start point
        x = TorusPoint.from_floats([0.25, 0.5], BITS)
        with pytest.raises(ValueError, match="k must have one entry"):
            CharSweep(golden, k, x)
