"""Continued fractions, best approximations, classification, numeration.

Expected values tagged by provenance: hand recurrences and classical
expansions are asserted directly; anything subtler is recomputed here by an
independent oracle (mpmath at 80 digits, brute-force scans, greedy replay).
"""

import hashlib
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergorate import arithmetic
from ergorate.arithmetic import (CLASSIFY_MAX_K, DecimalString, Frequency,
                                 PartialQuotients, QuadraticSurd, classify,
                                 closest_return, dist_to_Z, expand_cf,
                                 find_convergent_at_scale, fp_from_float,
                                 golden_mean, ostrowski_digits,
                                 sqrt2_minus_1)
from ergorate.errors import (NotIrrational, PrecisionExhausted, Uncertified)
from oracles import (dist_to_Z_exact, dist_to_Z_mod, float_value,
                     fp_from_float_double, norm_k_omega, ostrowski_value)

PI100 = ("0.1415926535897932384626433832795028841971693993751"
         "058209749445923078164062862089986280348253421170679")


class TestDistToZ:
    def test_below_midpoint(self):
        assert dist_to_Z(0.25) == 0.25

    def test_symmetry(self):
        assert dist_to_Z(0.75) == 0.25

    def test_integer(self):
        assert dist_to_Z(3.0) == 0.0

    @given(st.floats(-50, 50, allow_nan=False))
    def test_range_and_period(self, t):
        v = dist_to_Z(t)
        assert 0.0 <= v <= 0.5
        assert abs(dist_to_Z(t + 1.0) - v) < 1e-9

    @given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=1,
                    max_size=40))
    def test_array_matches_scalars(self, ts):
        got = dist_to_Z(np.array(ts).reshape(-1, 1))
        assert got.shape == (len(ts), 1)
        assert got.ravel().tolist() == [dist_to_Z(t) for t in ts]

    def test_an_array_input_is_left_unchanged(self):
        # the result reuses a new array, never the caller's
        t = np.array([-0.75, 0.3, 1.6, 2.0])
        got = dist_to_Z(t)
        assert t.tolist() == [-0.75, 0.3, 1.6, 2.0]
        assert not np.shares_memory(got, t)
        assert got.tolist() == [0.25, 0.3, dist_to_Z(1.6), 0.0]

    def test_integer_arrays_give_doubles(self):
        got = dist_to_Z(np.array([-1, 0, 3]))
        assert got.dtype == np.float64 and got.tolist() == [0.0, 0.0, 0.0]


def _assert_same_doubles(got, want):
    """Equal values, NaN where NaN, and equal sign bits elsewhere."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    num = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[num]), np.signbit(want[num]))


# integral, tiny, half-integral near the end of the fractional doubles
# (2**52 - 0.5 is the largest; 2**52 + 0.5 rounds to 2**52), huge, and the
# double just below 1
EDGES = [s * v for v in (0.0, 1e-20, 2.0 ** 52 - 0.5, 2.0 ** 52 + 0.5,
                         2.0 ** 53, 1e300, math.inf) for s in (1.0, -1.0)]
EDGES += [1.0 - 2.0 ** -53, 0.5, math.nan]
NON_NEGATIVE_EDGES = [t for t in EDGES if not t < 0]  # -0.0 and NaN stay


class TestDistToZMatchesMod:
    """dist_to_Z is |t - rint(t)|; on t >= 0, every input a sweep passes, it
    equals the np.mod form of tests/oracles.py bit for bit, sign bit
    included."""

    @given(st.floats(min_value=0.0, allow_infinity=True,
                     allow_subnormal=True))
    def test_every_non_negative_double(self, t):
        with np.errstate(invalid="ignore"):
            _assert_same_doubles(dist_to_Z(t), dist_to_Z_mod(t))

    @given(st.lists(st.floats(min_value=0.0, allow_subnormal=True),
                    min_size=1, max_size=40))
    def test_column_arrays(self, ts):
        t = np.array(ts).reshape(-1, 1)
        with np.errstate(invalid="ignore"):
            _assert_same_doubles(dist_to_Z(t), dist_to_Z_mod(t))

    def test_edges(self):
        t = np.array(NON_NEGATIVE_EDGES)
        with np.errstate(invalid="ignore"):
            got = dist_to_Z(t)
            _assert_same_doubles(got, dist_to_Z_mod(t))
        assert not np.signbit(got[:2]).any()  # +-0.0 give +0.0

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(5).integers(0, 2 ** 63, size=1 << 16,
                                                 dtype=np.uint64)
        t = bits.view(np.float64)  # the sign bit cleared
        with np.errstate(invalid="ignore"):
            _assert_same_doubles(dist_to_Z(t), dist_to_Z_mod(t))

    def test_strided_first_coordinate(self):
        # the skew route's input: the first coordinate of a (rows, cells, d)
        # block in [0, 2), a view with a stride of d doubles
        x = np.random.default_rng(9).uniform(0.0, 2.0, size=(5, 64, 3))
        t = x[..., 0]
        assert not t.flags.contiguous
        _assert_same_doubles(dist_to_Z(t), dist_to_Z_mod(t))

    @pytest.mark.parametrize("t", [0.25, -0.75, 3, -0.0, np.float64(0.6)])
    def test_scalars_keep_their_type(self, t):
        got, want = dist_to_Z(t), dist_to_Z_mod(t)
        assert type(got) is type(want) is np.float64
        _assert_same_doubles(got, want)


class TestDistToZIsExact:
    """dist_to_Z(t) is the exact distance from t to Z on every finite double,
    negatives included (tests/oracles.py's Fraction form)."""

    @given(st.floats(allow_nan=False, allow_infinity=False,
                     allow_subnormal=True))
    def test_every_finite_double(self, t):
        got = dist_to_Z(t)
        assert type(got) is np.float64 and not np.signbit(got)
        assert Fraction(float(got)) == dist_to_Z_exact(t)

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(6).integers(0, 2 ** 64, size=1 << 14,
                                                 dtype=np.uint64)
        t = bits.view(np.float64)
        t = t[np.isfinite(t)]
        got = dist_to_Z(t)
        assert not np.signbit(got).any()
        assert [Fraction(v) for v in got.tolist()] == \
            [dist_to_Z_exact(v) for v in t.tolist()]

    def test_a_negative_input_is_not_rounded(self):
        # the np.mod form rounds 1 + t, so it errs on a small negative t
        t = -0.000189093653352984
        assert dist_to_Z(t) == 0.000189093653352984
        assert dist_to_Z_mod(t) != 0.000189093653352984

    def test_zeros_infinities_and_nan(self):
        with np.errstate(invalid="ignore"):
            got = dist_to_Z(np.array([0.0, -0.0, math.inf, -math.inf,
                                      math.nan]))
        assert got[:2].tolist() == [0.0, 0.0] and not np.signbit(got[:2]).any()
        assert np.isnan(got[2:]).all()

    def test_out_is_written_and_returned(self):
        t = np.array([-0.75, 0.3, 1.6, 2.0])
        out = np.full(4, np.nan)
        assert dist_to_Z(t, out=out) is out
        assert t.tolist() == [-0.75, 0.3, 1.6, 2.0]
        assert out.tolist() == dist_to_Z(t).tolist()


class TestExpandCf:
    def test_golden_fibonacci(self, golden):
        cf = expand_cf(golden, max_q=13)
        assert cf.a == (1, 1, 1, 1, 1, 1)
        assert cf.q == (1, 2, 3, 5, 8, 13)
        assert cf.p == (1, 1, 2, 3, 5, 8)
        assert cf.certified_len == 6

    def test_rational_terminates(self):
        third = Frequency(PartialQuotients((3,)))
        cf = expand_cf(third, max_q=100)
        assert cf.a == (3,)
        assert cf.q == (3,)
        assert cf.terminated

    def test_index_rule_by_recurrence_oracle(self, index_rule_freq):
        cf = expand_cf(index_rule_freq, max_q=100)
        # independent replay of q_{n+1} = a_{n+1} q_n + q_{n-1} with a_m = m
        q_m1, q_m = 0, 1  # q_{-1} convention folds into the seeds q_0=1
        expect = []
        for m in range(1, 6):
            q_m1, q_m = q_m, m * q_m + q_m1
            if q_m <= 100:
                expect.append(q_m)
        assert list(cf.q) == expect == [1, 3, 10, 43]

    def test_sqrt2_all_twos(self, sqrt2m1):
        cf = expand_cf(sqrt2m1, max_q=10 ** 4)
        assert all(a == 2 for a in cf.a)
        assert cf.q[:4] == (2, 5, 12, 29)

    def test_decimal_matches_surd(self, golden):
        mpmath.mp.dps = 110
        digits = mpmath.nstr((mpmath.sqrt(5) - 1) / 2, 100, strip_zeros=False)
        dec = Frequency(DecimalString(digits[:102]))
        cf_dec = expand_cf(dec, max_q=10 ** 4)
        cf_surd = expand_cf(golden, max_q=10 ** 4)
        assert cf_dec.a == cf_surd.a

    def test_decimal_precision_exhausted(self):
        dec = Frequency(DecimalString(PI100))
        with pytest.raises(PrecisionExhausted) as exc:
            expand_cf(dec, max_q=10 ** 80)
        assert exc.value.partial is not None
        assert exc.value.partial.certified_len > 10

    @pytest.mark.parametrize("p,q,d,r", [
        (3, 1, 2, 7),       # (3 + sqrt 2) / 7
        (-2, 2, 3, 3),      # (2 sqrt 3 - 2) / 3
        (5, -1, 7, 4),      # (5 - sqrt 7) / 4, negative surd part
        (-11, 3, 19, 3),
        (1, -2, 5, -6),     # negative denominator
        (0, 1, 61, 9),
        (100, -7, 101, 41),
    ])
    def test_exotic_surds_match_mpmath(self, p, q, d, r):
        f = Frequency(QuadraticSurd(p, q, d, r))
        got = expand_cf(f, max_q=10 ** 5)
        mpmath.mp.dps = 120
        x = (mpmath.mpf(p) + q * mpmath.sqrt(d)) / r
        p_prev, q_prev, pc, qc = 1, 0, 0, 1
        expect_a = []
        while True:
            y = 1 / x
            ai = int(mpmath.floor(y))
            pn, qn = ai * pc + p_prev, ai * qc + q_prev
            if qn > 10 ** 5:
                break
            expect_a.append(ai)
            p_prev, q_prev, pc, qc = pc, qc, pn, qn
            x = y - ai
        assert list(got.a) == expect_a


def _hexed(x):
    """x with every int written in hex: int-to-decimal conversion refuses
    numbers past 4,300 digits, and some q here run longer."""
    if isinstance(x, (bool, type(None))):
        return x
    if isinstance(x, int):
        return hex(x)
    return tuple(_hexed(v) for v in x)


def _cf_record(cf):
    return _hexed((cf.a, cf.p, cf.q, cf.certified_len, cf.terminated,
                   cf.max_q_searched))


class TestExpansionDigest:
    """Every representation keeps its expansions under every stopping rule:
    sha256 of (a, p, q, certified_len, terminated, max_q_searched) at three
    widths and five stopping rules, with the partial expansion of every
    PrecisionExhausted and each width's fixed point, recorded when
    expand_cf still ran one loop per representation."""

    # max_q 1, 1e4 and 1e30, stop_product 2^200, and the 5,000-term cap
    # (golden reaches it under stop_product 2^40000)
    RULES = ((1, None), (10 ** 4, None), (10 ** 30, None), (None, 1 << 200),
             (None, 1 << 40000))
    DIGESTS = {
        "golden":
            "ddfe69f33425a706af3ba3d91e73e923bdb4695b08467ccc4393aa7cafd299b8",
        "sqrt2m1":
            "1e008f37458bf64e362afff3c84b18e6fe3ff9afcceb677f4668fc9f94d290cf",
        "sqrt3m1":
            "e7a86cdda313d1eb4938d86bb1140cefe92398d4ea3adaec84b9088ac192bd94",
        "surd:(-3,1,13,2)":
            "5b553ea3be3c67e0e1996a6c2752f3b7cb3723851dc4b8b24cafa2d5c4237b29",
        "pq:[1,2,3]":
            "bea18d8f4286b2eb5b74acf1c2b2158ea7da0bcb130da3d54912aa84d79d9efc",
        "pq:[1,1000000000]":
            "be6b70e82909715620fdec646b3904c7113637e4d67cec6669d7ce162c72ab58",
        "pq:rule:index":
            "04d4853500713e8dfc5f4d61b8688a9f6b5d72f80092ce2958ad3fb0d9236b89",
        "pq:rule:spike:7,1000":
            "5ddca31dc5220844383d5d993297332ee9e6a667812dd9f755abd464865f4bc4",
        "pq:rule:exp_gap:5":
            "9e8f696f601e2557f8bf27aae84a7e76d68444f4902cda43a74049016e2ee89f",
        "pq:rule:double_exp":
            "be635e805e4715c9e288db2cd1f9c8334e4c24dc33a266c748aa2f51fb0a7d4a",
        "pq:rule:square_even":
            "ae8a0204da61483f61e5f0411e5166f281181173a68951951a8d4e5673b3626a",
        "pq:rule:const:3":
            "5b553ea3be3c67e0e1996a6c2752f3b7cb3723851dc4b8b24cafa2d5c4237b29",
        # q_1 = 10^61 > 2^200: stop_product waits for a second denominator
        f"pq:rule:spike:1,{10 ** 61}":
            "8b4e88d1f5d7fa7b97d09d71afdf50f3915ce6940d45cff821698c0bba95d0dc",
        f"dec:{PI100}":
            "dd5daca12913ef453b74e8b83b6a155c59515ec2cb714bee97de0e20ea46e41c",
    }

    @pytest.mark.parametrize("text", list(DIGESTS))
    def test_expansions_keep_their_bytes(self, text):
        h = hashlib.sha256()
        for bits in (64, 192, 1100):
            f = Frequency.parse(text, bits)
            try:
                record = ("fixed_point", hex(f.fixed_point()))
            except PrecisionExhausted:
                record = ("fixed_point", "PrecisionExhausted")
            h.update(repr(record).encode())
            for max_q, stop_product in self.RULES:
                try:
                    record = ("cf", _cf_record(
                        expand_cf(f, max_q, stop_product=stop_product)))
                except PrecisionExhausted as exc:
                    record = ("partial", _cf_record(exc.partial))
                h.update(repr(record).encode())
        assert h.hexdigest() == self.DIGESTS[text]

    def test_golden_reaches_the_term_cap(self, golden):
        cf = expand_cf(golden, None, stop_product=1 << 40000)
        assert cf.certified_len == arithmetic._MAX_TERMS

    @pytest.mark.parametrize("text", ["golden", "pq:rule:index"])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_stop_product_at_a_denominator_product(self, text, offset):
        # stop_product at q_{n-1} q_n and one either side: the expansion
        # stops at the first n >= 2 whose product reaches it
        f = Frequency.parse(text, 192)
        q = expand_cf(f, 10 ** 30).q
        for n in range(2, len(q)):
            stop = q[n - 2] * q[n - 1] + offset
            first = next(k for k in range(2, len(q) + 1)
                         if q[k - 2] * q[k - 1] >= stop)
            cf = expand_cf(f, None, stop_product=stop)
            assert cf.certified_len == first


class TestExpNint:
    """exp_gap's round(e^q) from integer bounds, against mpmath."""

    def test_matches_mpmath_rounding(self):
        # the rounding exp_gap took from mpmath, at the same precision
        for q in range(1, 4001):
            with mpmath.workdps(int(q / math.log(10)) + 30):
                want = int(mpmath.nint(mpmath.e ** q))
            assert arithmetic._exp_nint(q) == want, q

    def test_the_enclosure_of_e(self):
        with mpmath.workprec(4600):
            for bits in range(64, 4501):
                lo = arithmetic._e_floor(bits)
                assert lo <= mpmath.ldexp(mpmath.e, bits) < lo + 2, bits

    def test_runs_need_no_mpmath(self, tmp_path):
        # mpmath is a test dependency only: with it blocked, exp_gap's runs
        # still exit 0
        code = textwrap.dedent(f"""
            import sys
            sys.modules["mpmath"] = None
            from ergorate.cli import main
            out = {str(tmp_path)!r}
            print(main(["--out-dir", out, "sharp", "--weight", "analytic",
                        "--frequency", "pq:rule:exp_gap:5",
                        "--m-values", "3,4,5"]),
                  main(["--out-dir", out, "scenario", "liouville_slow_rate"]))
        """)
        src = str(Path(arithmetic.__file__).parents[1])
        run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=300,
                             env={**os.environ, "PYTHONPATH": src})
        assert run.returncode == 0, run.stderr
        assert run.stdout.split()[-2:] == ["0", "0"], run.stdout


@pytest.fixture(scope="module", params=["golden", "sqrt2m1", "index", "decimal"])
def cf(request):
    freqs = {
        "golden": golden_mean(),
        "sqrt2m1": sqrt2_minus_1(),
        "index": Frequency(PartialQuotients((), "index")),
        "decimal": Frequency(DecimalString(PI100)),
    }
    return expand_cf(freqs[request.param], max_q=10 ** 4)


class TestInvariants:

    def test_recurrences_exact(self, cf):
        for n in range(1, cf.certified_len):
            assert cf.p_at(n + 1) == cf.a_at(n + 1) * cf.p_at(n) + cf.p_at(n - 1)
            assert cf.q_at(n + 1) == cf.a_at(n + 1) * cf.q_at(n) + cf.q_at(n - 1)

    def test_coprime(self, cf):
        for n in range(1, cf.certified_len + 1):
            assert math.gcd(cf.p_at(n), cf.q_at(n)) == 1

    def test_q_growth(self, cf):
        M = cf.certified_len
        for n in range(1, M):
            assert cf.q_at(n + 1) > cf.q_at(n)
        for n in range(1, M - 1):
            assert cf.q_at(n + 2) >= 2 * cf.q_at(n)
        for n in range(1, M + 1):
            assert cf.q_at(n) ** 2 >= 2 ** (n - 1)

    def test_approximation_sandwich_and_alternation(self, cf):
        omega = cf.omega
        bits = omega.fractional_bits
        w = omega.fixed_point()
        one = 1 << bits
        errs = []
        signs = []
        for n in range(1, cf.certified_len):
            delta = cf.q_at(n) * w - cf.p_at(n) * one  # (q_n w - p_n) * 2^bits
            errs.append(abs(delta))
            signs.append(1 if delta > 0 else -1)
            assert 2 * abs(delta) * cf.q_at(n + 1) > one
            assert abs(delta) * cf.q_at(n + 1) < one
        assert all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))
        assert all(s1 == -s2 for s1, s2 in zip(signs, signs[1:]))


def _is_best(omega, q):
    """The scan's verdict that q is a best approximation: every 1 <= j < q
    lands farther from an integer than q does, compared exactly."""
    one = 1 << omega.fractional_bits
    at_q = q * omega.fixed_point() % one
    return closest_return(omega, q) > min(at_q, one - at_q)


def _gap_holds(omega, q):
    """||j omega|| > 1/(2 q) for 1 <= j < q, compared exactly."""
    return closest_return(omega, q) * 2 * q > 1 << omega.fractional_bits


class TestBestApproximation:
    def test_golden_q3_true_with_scan_oracle(self, golden, golden_cf):
        # oracle values at 80 digits
        mpmath.mp.dps = 80
        w = (mpmath.sqrt(5) - 1) / 2
        norms = {j: float(min(mpmath.frac(j * w), 1 - mpmath.frac(j * w)))
                 for j in (1, 2, 3)}
        assert abs(norms[1] - 0.381966) < 1e-6
        assert abs(norms[2] - 0.236068) < 1e-6
        assert abs(norms[3] - 0.145898) < 1e-6
        assert norms[3] < norms[2] < norms[1]
        assert _is_best(golden, 3)
        assert closest_return(golden, 3) / 2.0 ** 192 == pytest.approx(
            norms[2], rel=1e-12)

    def test_golden_q4_false(self, golden):
        assert not _is_best(golden, 4)

    def test_q1_vacuous(self, golden):
        # no j to scan: the distance reported is 1, above any ||q omega||
        assert closest_return(golden, 1) == 1 << golden.fractional_bits
        assert _is_best(golden, 1) and _gap_holds(golden, 1)

    def test_exhaustive_scan_matches_membership(self, golden, golden_cf):
        qs = set(golden_cf.q)
        for q in range(2, 200):
            assert _is_best(golden, q) == (q in qs)


class TestGapLowerBound:
    def test_small_q_exhaustive(self, golden, golden_cf):
        assert golden_cf.q_at(4) == 5
        assert _gap_holds(golden, 5)

    def test_q2_single_j(self, golden):
        # q_2 = 2 scans only j = 1
        one = 1 << golden.fractional_bits
        w = golden.fixed_point()
        assert closest_return(golden, 2) == min(w, one - w)
        assert _gap_holds(golden, 2)

    def test_all_certified_indices(self, golden, golden_cf):
        # guaranteed for every best approximation
        for n in range(1, golden_cf.certified_len + 1):
            if golden_cf.q_at(n) > 10 ** 4:
                break
            assert _gap_holds(golden, golden_cf.q_at(n))


class TestClassify:
    def test_golden_beta_small_and_gamma_stable(self, golden, golden_cf):
        rep = classify(golden_cf, k_max=2000)
        assert rep.beta_estimate <= 1e-3
        assert rep.gamma_sdc > 0
        rep2 = classify(golden_cf, k_max=4000)
        # enlarging the k-range can only lower the min, and not by much
        assert 0 < rep2.gamma_sdc <= rep.gamma_sdc
        assert rep2.gamma_sdc > 0.5 * rep.gamma_sdc

    def test_beta_estimate_positive_double_exponential(self):
        f = Frequency(PartialQuotients((), "double_exp"))
        cf = expand_cf(f, max_q=10 ** 40)
        rep = classify(cf, k_max=100)
        assert rep.beta_estimate > 0

    def test_exp_gap_beta_near_one(self):
        f = Frequency(PartialQuotients((), "exp_gap", (5,)))
        cf = expand_cf(f, max_q=None, stop_product=1 << 420)
        rep = classify(cf, k_max=100)
        assert 0.5 <= rep.beta_estimate <= 1.5

    def test_index_rule_witnesses_all(self, index_rule_freq):
        cf = expand_cf(index_rule_freq, max_q=10 ** 8)
        rep = classify(cf, k_max=100)
        assert rep.bb_witnesses == tuple(range(1, cf.certified_len))

    def test_k_max_outside_its_range_raises(self, golden_cf):
        # the scan is O(k_max): 10^8 ran for minutes
        for k_max in (1, CLASSIFY_MAX_K + 1):
            with pytest.raises(ValueError, match=f"k_max={k_max} is not in"):
                classify(golden_cf, k_max=k_max)

    def test_rational_raises(self):
        third = Frequency(PartialQuotients((3,)))
        cf = expand_cf(third, max_q=10)
        with pytest.raises(NotIrrational):
            classify(cf, k_max=10)

    def test_golden_dc_fit(self, golden, golden_cf):
        rep = classify(golden_cf, k_max=100)
        # q_{n+1} ~ phi * q_n: slope A ~ 1
        assert 0.9 <= rep.A_dc <= 1.1


class TestFindConvergentAtScale:
    def test_golden_examples(self, golden_cf):
        assert find_convergent_at_scale(golden_cf, 10) == (8, 13)
        assert find_convergent_at_scale(golden_cf, 13) == (8, 13)

    def test_index_rule(self, index_rule_freq):
        cf = expand_cf(index_rule_freq, max_q=100)
        assert find_convergent_at_scale(cf, 11)[1] == 43

    def test_scale_bound_under_sdc(self, golden, golden_cf):
        rep = classify(golden_cf, k_max=10 ** 4)
        gamma = rep.gamma_sdc
        for N in (2, 10, 100, 1000, 10 ** 4):
            _, q = find_convergent_at_scale(golden_cf, N)
            assert N <= q <= (1.0 / gamma) * N * math.log(N + 1) ** 2

    def test_uncertified(self, golden):
        cf = expand_cf(golden, max_q=13)
        with pytest.raises(Uncertified):
            find_convergent_at_scale(cf, 100)


class TestOstrowski:
    def test_golden_four(self, golden_cf):
        digits = ostrowski_digits(golden_cf, 4)
        assert ostrowski_value(golden_cf, digits) == 4
        assert digits == [0, 1, 0, 1]  # 4 = 1*q_1 + 1*q_3 = 1 + 3

    def test_exact_denominator(self, golden_cf):
        for n in range(2, 8):
            digits = ostrowski_digits(golden_cf, golden_cf.q_at(n))
            assert digits[n] == 1
            assert sum(digits) == 1

    def test_one(self, golden_cf):
        # golden has q_1 = 1: the canonical digit bound b_0 < a_1 = 1 forces
        # the unit into position 1
        assert ostrowski_digits(golden_cf, 1) == [0, 1]

    def test_one_goes_to_b0_when_a1_large(self, sqrt2m1):
        cf = expand_cf(sqrt2m1, max_q=100)
        assert ostrowski_digits(cf, 1) == [1]

    @pytest.mark.parametrize("freq_name", ["golden", "sqrt2", "index"])
    def test_round_trip_and_digit_bounds(self, freq_name):
        freq = {
            "golden": golden_mean(),
            "sqrt2": sqrt2_minus_1(),
            "index": Frequency(PartialQuotients((), "index")),
        }[freq_name]
        cf = expand_cf(freq, max_q=10 ** 5)
        for N in range(1, 10 ** 5 + 1):
            digits = ostrowski_digits(cf, N)
            assert ostrowski_value(cf, digits) == N
        for N in list(range(1, 3000)) + list(range(3000, 10 ** 5, 641)):
            digits = ostrowski_digits(cf, N)
            for n in range(1, len(digits)):
                if n < cf.certified_len:
                    assert 0 <= digits[n] <= cf.a_at(n + 1)
                    if digits[n] == cf.a_at(n + 1) and n >= 2:
                        assert digits[n - 1] == 0  # carry rule

    def test_uncovered_raises(self, golden):
        cf = expand_cf(golden, max_q=13)
        with pytest.raises(Uncertified):
            ostrowski_digits(cf, 10 ** 6)


def _conversion_values() -> list:
    """24,000 doubles: edge values, uniform draws in [0, 1), full mantissas
    far below 1 (where a narrow width rounds), values above 1 and below 0,
    and random bit patterns of every exponent."""
    rng = np.random.default_rng(23)
    edges = [0.0, -0.0, 1 - 2.0 ** -53, 2.0 ** -40, 2.0 ** -70, 2.0 ** -1074,
             -1e-20, 1e300, -1e300, 0.5, 1.0, 1.5, 3.75, -2.5, 2.0 ** -1022]
    tiny = rng.random(4000) * 2.0 ** -rng.integers(1, 1075, 4000).astype(float)
    raw = np.frombuffer(rng.bytes(8 * 4200), dtype=np.float64)
    return (edges + rng.random(12000).tolist() + tiny.tolist()
            + (1 + 1e6 * rng.random(2000)).tolist()
            + (-1e6 * rng.random(2000)).tolist()
            + raw[np.isfinite(raw)][:4000 - len(edges)].tolist())


class TestFloatToFixed:
    VALUES = _conversion_values()

    @pytest.mark.parametrize("bits", [64, 100, 192, 250, 1000, 1023])
    def test_matches_the_double_product(self, bits):
        assert len(self.VALUES) >= 20000
        for v in self.VALUES:
            assert fp_from_float(v, bits) == fp_from_float_double(v, bits), v

    @pytest.mark.parametrize("bits", [1100, 4096])
    def test_exact_beyond_the_double_range(self, bits):
        # (v % 1.0) * 2**bits overflows a double from 1,024 bits
        one = 1 << bits
        for v in self.VALUES[:6000]:
            assert fp_from_float(v, bits) == round(Fraction(v % 1.0) * one) % one, v


class TestFrequency:
    def test_parse_round_trips(self):
        for text in ("surd:(-1,1,5,2)", "pq:[1,2,3]", "pq:rule:index",
                     f"dec:{PI100}", "golden", "sqrt2m1"):
            f = Frequency.parse(text)
            assert 0 < float_value(f) < 1

    def test_finite_lists_with_large_terms_parse(self):
        # validation takes the enclosure fixed_point starts from, so the
        # list is exact however far its second denominator lies
        for text, num, den in (("pq:[1,1000000000]", 10 ** 9, 10 ** 9 + 1),
                               ("pq:[2,3000000]", 3 * 10 ** 6, 6 * 10 ** 6 + 1)):
            f = Frequency.parse(text)
            assert f.interval() == (Fraction(num, den), Fraction(num, den))
            assert f.fixed_point() == round(Fraction(num << 192, den))

    def test_fixed_point_certified_against_mpmath(self, golden):
        mpmath.mp.dps = 80
        w = (mpmath.sqrt(5) - 1) / 2
        for bits in (64, 128, 192):
            fp = golden_mean(bits).fixed_point()
            err = abs(mpmath.mpf(fp) / mpmath.mpf(2) ** bits - w)
            assert err <= mpmath.mpf(2) ** -(bits + 1) * (1 + mpmath.mpf(1e-9))

    def test_fixed_point_certified_once_per_instance(self, monkeypatch):
        calls = []
        interval = Frequency.interval

        def counted(self, bits=None):
            calls.append(bits)
            return interval(self, bits)

        monkeypatch.setattr(Frequency, "interval", counted)
        f = Frequency.parse("pq:rule:exp_gap:5")
        first = f.fixed_point()
        assert f.fixed_point() == first and calls == [192]

    def test_validation_and_fixed_point_share_one_expansion(self, monkeypatch):
        calls = []
        real = arithmetic.expand_cf

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(arithmetic, "expand_cf", counted)
        f = Frequency.parse("pq:rule:spike:7,1000")
        f.fixed_point()
        assert len(calls) == 1
        assert f == Frequency.parse("pq:rule:spike:7,1000")
        assert repr(f) == ("Frequency(rep=PartialQuotients(terms=(), rule='spike', "
                           "rule_params=(7, 1000)), fractional_bits=192)")

    def test_partial_quotients_tighten_their_enclosure(self):
        # sqrt(26) - 5 = [0; 10, 10, ...] sits within 2^-196 of a 192-bit
        # rounding boundary, so the first convergent enclosure straddles it
        for c in range(1, 40):
            for bits in (64, 100, 192, 250, 256):
                pq = Frequency.parse(f"pq:rule:const:{c}", bits)
                surd = Frequency.parse(f"surd:({-c},1,{c * c + 4},2)", bits)
                assert pq.fixed_point() == surd.fixed_point()

    def test_decimal_fixed_point_refusal(self):
        # 100 digits enclose the value within 10^-100, about 2^-332: they
        # certify 192 bits, and no enclosure they give certifies 1100
        assert Frequency.parse(f"dec:{PI100}", 192).fixed_point() > 0
        f = Frequency.parse(f"dec:{PI100}", 1100)
        with pytest.raises(PrecisionExhausted, match="cannot tighten"):
            f.fixed_point()

    def test_memo_is_not_part_of_the_value(self):
        assert not hasattr(arithmetic, "_fp_cache")
        a, b = Frequency.parse("sqrt2m1"), Frequency.parse("sqrt2m1")
        a.fixed_point()
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)

    def test_norm_k_omega_matches_mpmath(self, golden):
        mpmath.mp.dps = 80
        w = (mpmath.sqrt(5) - 1) / 2
        for k in (1, 2, 3, 1000, 832040):
            f = mpmath.frac(k * w)
            expect = float(min(f, 1 - f))
            assert abs(norm_k_omega(golden, k) - expect) < 1e-12

    def test_surd_validation(self):
        with pytest.raises(ValueError):
            QuadraticSurd(1, 1, 4, 2)  # square d
        with pytest.raises(ValueError):
            Frequency(QuadraticSurd(5, 1, 2, 2))  # value > 1

    def test_decimal_needs_80_digits(self):
        with pytest.raises(ValueError):
            DecimalString("0.123456789")

    def test_scale_exact(self, golden):
        half = golden.scale(1, 2)
        assert abs(float_value(half) - float_value(golden) / 2) < 1e-15
        tripled = golden.scale(3, 1)  # 3w mod 1
        expect = (3 * float_value(golden)) % 1.0
        assert abs(float_value(tripled) - expect) < 1e-14

    @given(st.integers(-40, 40), st.integers(1, 12), st.integers(2, 99),
           st.integers(2, 60))
    @settings(max_examples=80, deadline=None)
    def test_random_surd_invariants(self, p, q, d, r):
        import math as _math

        if _math.isqrt(d) ** 2 == d:
            return
        try:
            f = Frequency(QuadraticSurd(p, q, d, r))
        except ValueError:
            return  # value outside (0, 1)
        cf = expand_cf(f, max_q=10 ** 4)
        w = f.fixed_point()
        one = 1 << f.fractional_bits
        for n in range(1, cf.certified_len):
            assert _math.gcd(cf.p_at(n), cf.q_at(n)) == 1
            err = abs(cf.q_at(n) * w - cf.p_at(n) * one)
            assert 2 * err * cf.q_at(n + 1) > one
            assert err * cf.q_at(n + 1) < one

    @given(st.integers(1, 999), st.integers(2, 1000))
    @settings(max_examples=60, deadline=None)
    def test_rational_expansion_reconstructs(self, p, q):
        if p >= q:
            p = p % q
        if p == 0 or math.gcd(p, q) != 1:
            return
        f = Frequency(PartialQuotients(tuple(_cf_of_fraction(p, q))))
        cf = expand_cf(f, max_q=10 ** 9)
        assert cf.terminated
        assert (cf.p[-1], cf.q[-1]) == (p, q)


def _cf_of_fraction(p, q):
    """Euclidean continued fraction of p/q in (0,1): [a_1, a_2, ...]."""
    out = []
    num, den = q, p  # first step inverts
    while den:
        out.append(num // den)
        num, den = den, num % den
    # canonical form: avoid trailing 1 only if it arises (keep as generated;
    # the recurrence replay accepts both CF forms of a rational)
    return out
