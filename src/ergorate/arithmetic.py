"""Continued fractions, best rational approximations and frequency arithmetic.

Frequencies are irrational (or rational, for tests) numbers in (0, 1) with an
exact or high-precision representation.  Everything downstream (orbits,
exponential sums, lacunary series) consumes two products of this module:

* certified continued-fraction data ``a_n, p_n, q_n`` with the usual
  recurrences ``p_{n+1} = a_{n+1} p_n + p_{n-1}``,
  ``q_{n+1} = a_{n+1} q_n + q_{n-1}`` (``p_0 = 0, q_0 = 1``), and
* a round-to-nearest fixed-point value ``round(omega * 2**bits)`` whose
  rounding is certified from an exact enclosing interval.

Each representation of a frequency (``QuadraticSurd``, ``PartialQuotients``,
``DecimalString``) yields its own certified partial quotients from
``quotients(q_hist)``, and ``expand_cf`` alone decides where an expansion
stops.  Surds and decimals also give an exact rational enclosure from
``interval(bits)``; partial quotients enclose by their convergents.

Double precision corrupts ``||k*omega||`` once q grows past ~1e7, hence the
integer fixed-point discipline everywhere.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Optional, Sequence

import numpy as np

from .errors import NotIrrational, PrecisionExhausted, Uncertified

DEFAULT_BITS = 192

# Longest prefix expand_cf stores, whatever max_q or stop_product ask for.
_MAX_TERMS = 5000
CLASSIFY_MAX_K = 10 ** 6  # classify's scan takes about 1 us per k


def dist_to_Z(t):
    """Distance from t to the nearest integer, in [0, 1/2]; elementwise.

    The fractional part is t - floor(t), which equals np.mod(t, 1.0) bit
    for bit on every double at about a tenth of its cost: fmod(t, 1) is
    exact, np.mod adds 1 to a negative remainder with one rounding, and
    t - floor(t) is that same real number under one rounding.  Both give
    +0.0 on integers (-0.0 included) and NaN on NaN and +-inf.
    """
    f = t - np.floor(t)
    return np.minimum(f, 1.0 - f)


def fp_signed(value: int, bits: int) -> int:
    """Signed representative of value mod 2**bits in (-2**(bits-1), 2**(bits-1)]."""
    one = 1 << bits
    v = value & (one - 1)
    return v - one if v > one >> 1 else v


def fp_from_float(v: float, bits: int) -> int:
    """round((v % 1.0) * 2**bits) mod 2**bits, ties to even, exact at any
    width: the double v % 1.0 is n / 2**e, so the product is an integer or
    a quotient by a power of two, rounded here from its remainder."""
    n, d = (v % 1.0).as_integer_ratio()
    shift = d.bit_length() - 1 - bits
    if shift <= 0:
        return (n << -shift) % (1 << bits)
    q, r = divmod(n, 1 << shift)
    half = 1 << (shift - 1)
    return (q + (r > half or (r == half and q & 1))) % (1 << bits)


def _round_div(num: int, den: int) -> int:
    """round(num / den) for den > 0, ties away from zero (never hit here)."""
    if num >= 0:
        return (2 * num + den) // (2 * den)
    return -((-2 * num + den) // (2 * den))


# ---------------------------------------------------------------------------
# partial-quotient rules
# ---------------------------------------------------------------------------

def _rule_const(m, q_hist, c):
    return int(c)


def _rule_index(m, q_hist):
    # a_m = m
    return m


def _rule_square_even(m, q_hist):
    # a_m = m^2 at even indices, 1 at odd ones
    return m * m if m % 2 == 0 else 1


def _rule_double_exp(m, q_hist):
    # a_m = 2^(2^m); stops once denominators leave the storable range
    if q_hist[-1] > 10 ** 400 or m > 40:
        return None
    return 1 << (1 << m)


def _rule_spike(m, q_hist, m0, height):
    # a_{m0} large, every other partial quotient 1
    return int(height) if m == int(m0) else 1


def _rule_exp_gap(m, q_hist, m0):
    """All-ones ramp through m0, then q_m ~ exp(q_{m-1}).

    The un-ramped rule q_2 ~ e, q_3 ~ e^e, ... explodes past any storable or
    measurable scale by its third term, so a short ramp keeps the first
    tested indices in range while the gap condition q_{m+1} ~ e^{q_m} holds
    exactly where the slow-rate scenarios probe it.
    """
    if m <= int(m0):
        return 1
    q_prev = q_hist[-1]
    q_prev2 = q_hist[-2] if len(q_hist) >= 2 else 0
    if q_prev > 4000:
        return None  # e^{q_prev} would not be storable
    import mpmath

    with mpmath.workdps(int(q_prev / math.log(10)) + 30):
        target = int(mpmath.nint(mpmath.e ** q_prev))
    a = _round_div(target - q_prev2, q_prev)
    return max(1, a)


# name -> (rule, number of integer parameters).  A rule maps (m, q_hist,
# *params) to a_m, or to None when the sequence ends or leaves the storable
# range; q_hist holds [q_0, ..., q_{m-1}].  A frequency names its rule, so it
# stays hashable and serializable.
_RULES = {"const": (_rule_const, 1), "index": (_rule_index, 0),
          "square_even": (_rule_square_even, 0),
          "double_exp": (_rule_double_exp, 0), "spike": (_rule_spike, 2),
          "exp_gap": (_rule_exp_gap, 1)}


# ---------------------------------------------------------------------------
# frequency representations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticSurd:
    """(p + q*sqrt(d)) / r with d a positive non-square integer."""

    p: int
    q: int
    d: int
    r: int

    def __post_init__(self):
        if self.d <= 0 or isqrt(self.d) ** 2 == self.d:
            raise ValueError("d must be a positive non-square integer")
        if self.r == 0:
            raise ValueError("r must be nonzero")

    def normalized(self) -> "QuadraticSurd":
        """Equivalent surd with q > 0 (r keeps whatever sign results)."""
        p, q, d, r = self.p, self.q, self.d, self.r
        if q == 0:
            raise ValueError("rational disguised as a surd")
        if q < 0:
            p, q, r = -p, -q, -r
        return QuadraticSurd(p, q, d, r)

    def quotients(self, q_hist):
        """a_1, a_2, ... by exact integer arithmetic: with x = (P +
        sqrt(D)) / Q, iterate y = 1/x, a = floor(y), x = y - a."""
        s = self.normalized()
        P, D, Q = s.p, s.q * s.q * s.d, s.r
        if (D - P * P) % Q != 0:
            P, D, Q = P * abs(Q), D * Q * Q, Q * abs(Q)
        while True:
            # 1 / ((P + sqrt(D)) / Q) = (-P + sqrt(D)) / ((D - P^2) / Q)
            P, Q = -P, (D - P * P) // Q
            a = _exact_floor_surd(P, D, Q)
            yield a
            P -= a * Q

    def interval(self, bits: int):
        """Exact rational [lo, hi] containing the value, wide by at most
        2^-(bits+64) |q/r|."""
        s = self.normalized()
        k = bits + 64
        root = isqrt(s.d << (2 * k))  # root <= sqrt(d) * 2^k < root + 1
        a = Fraction(s.p * (1 << k) + s.q * root, s.r * (1 << k))
        b = Fraction(s.p * (1 << k) + s.q * (root + 1), s.r * (1 << k))
        return (a, b) if a <= b else (b, a)


# the named shortcuts Frequency.parse reads
_NAMED_SURDS = {"golden": QuadraticSurd(-1, 1, 5, 2),
                "sqrt2m1": QuadraticSurd(-1, 1, 2, 1),
                "sqrt3m1": QuadraticSurd(-1, 1, 3, 1)}


@dataclass(frozen=True)
class PartialQuotients:
    """Explicit prefix of partial quotients, optionally extended by a rule."""

    terms: tuple = ()
    rule: Optional[str] = None
    rule_params: tuple = ()

    def __post_init__(self):
        if not self.terms and self.rule is None:
            raise ValueError("need at least one term or a rule")
        if any(int(a) < 1 for a in self.terms):
            raise ValueError("partial quotients must be >= 1")
        if self.rule is not None and self.rule not in _RULES:
            raise ValueError(f"unknown rule {self.rule!r}")
        if self.rule is not None and len(self.rule_params) != _RULES[self.rule][1]:
            raise ValueError(f"rule {self.rule!r} takes {_RULES[self.rule][1]} "
                             f"parameter(s), got {len(self.rule_params)}")

    def quotients(self, q_hist: Sequence[int]):
        """The listed terms, then the rule's until it gives None; the rule
        reads q_hist = [q_0, ..., q_{m-1}] when it gives a_m."""
        yield from (int(a) for a in self.terms)
        if self.rule is None:
            return
        rule = _RULES[self.rule][0]
        for m in itertools.count(len(self.terms) + 1):
            a = rule(m, q_hist, *self.rule_params)
            if a is None:
                return
            if a < 1:
                raise ValueError(f"rule {self.rule!r} gives a_{m} = {a}; "
                                 f"partial quotients must be >= 1")
            yield a


@dataclass(frozen=True)
class DecimalString:
    """A frequency given by >= min_digits certified decimal digits."""

    digits: str
    min_digits: int = 80

    def __post_init__(self):
        if not re.fullmatch(r"0?\.\d+", self.digits):
            raise ValueError("expected a decimal string like '0.6180...'")
        frac = self.digits.split(".")[1]
        significant = len(frac.lstrip("0"))
        if significant < self.min_digits:
            raise ValueError(
                f"need >= {self.min_digits} significant digits, got {significant}"
            )

    def interval(self, bits: int = 0):
        """[lo, hi] containing the true value (digits correct to half an
        ulp), the same for every bits: the digits cannot tighten it."""
        frac = self.digits.split(".")[1]
        v = Fraction(int(frac), 10 ** len(frac))
        u = Fraction(1, 2 * 10 ** len(frac))
        return v - u, v + u

    def quotients(self, q_hist):
        """The interval version of the expansion: a quotient is certified
        while both ends of the inverted residual interval share their
        integer part, and PrecisionExhausted is raised once they do not."""
        lo, hi = self.interval()
        while lo > 0:  # an interval that touches 0 certifies no quotient
            inv_lo, inv_hi = 1 / hi, 1 / lo
            a = inv_lo // 1
            if inv_hi // 1 != a:
                break
            yield a
            lo, hi = inv_lo - a, inv_hi - a
        raise PrecisionExhausted(
            "decimal precision exhausted before reaching max_q")


@dataclass(frozen=True)
class Frequency:
    """A frequency in (0, 1) plus its fixed-point precision budget."""

    rep: object
    fractional_bits: int = DEFAULT_BITS

    def __post_init__(self):
        if self.fractional_bits < 64:
            raise ValueError("fractional_bits must be >= 64")
        # the enclosure fixed_point starts from, so a finite list of partial
        # quotients is exact however large its terms
        lo, hi = self._enclosure_at(self.fractional_bits)
        if lo <= 0 or hi >= 1:
            raise ValueError("frequency must lie strictly inside (0, 1)")

    def _enclosure_at(self, bits: int):
        """_enclosure(self, bits), computed once per instance and bit width
        (memo in __dict__, like fixed_point's): a partial-quotient
        frequency expands its continued fraction once, for validation and
        for its first fixed_point."""
        memo = self.__dict__.setdefault("_enclosures", {})
        if bits not in memo:
            memo[bits] = _enclosure(self, bits)
        return memo[bits]

    def interval(self, bits: Optional[int] = None):
        """Rational enclosure tight enough to certify `bits` of fixed point."""
        return self._enclosure_at(bits or self.fractional_bits)

    # -- derived values -----------------------------------------------------

    def fixed_point(self) -> int:
        """round(value * 2**fractional_bits), certified from the exact
        enclosure once per instance (memo in __dict__, not a field:
        eq/hash/repr ignore it)."""
        if "_fixed_point" in self.__dict__:
            return self.__dict__["_fixed_point"]
        bits = self.fractional_bits
        # an enclosure that straddles a rounding boundary is tightened by
        # asking for one that certifies twice the bits, then twice again,
        # until one comes back unchanged (it cannot tighten) or 1024 extra
        # bits still straddle
        tighter, last = bits, None
        while True:
            lo, hi = self.interval(tighter)
            n_lo = _round_div(lo.numerator << bits, lo.denominator)
            if n_lo == _round_div(hi.numerator << bits, hi.denominator):
                break
            if (lo, hi) == last or tighter > bits + 1024:
                raise PrecisionExhausted(
                    f"the enclosure cannot tighten to certify {bits} "
                    f"fractional bits")
            tighter, last = tighter * 2, (lo, hi)
        self.__dict__["_fixed_point"] = n_lo
        return n_lo

    def is_rational(self) -> bool:
        rep = self.rep
        return isinstance(rep, PartialQuotients) and rep.rule is None

    def scale(self, num: int, den: int) -> "Frequency":
        """Exact (num/den) * omega mod 1; only surd representations scale exactly."""
        if num == 0:
            raise ValueError("zero multiple is not a frequency")
        if not isinstance(self.rep, QuadraticSurd):
            raise ValueError("exact scaling requires a quadratic-surd representation")
        s = self.rep.normalized()
        p, q, r = s.p * num, s.q * num, s.r * den
        if q < 0:
            p, q, r = -p, -q, -r
        # reduce mod 1 by subtracting floor((p + q sqrt(d)) / r)
        fl = _exact_floor_surd(p, q * q * s.d, r)
        return Frequency(QuadraticSurd(p - fl * r, q, s.d, r), self.fractional_bits)

    # -- parsing -------------------------------------------------------------

    @staticmethod
    def parse(text: str, fractional_bits: int = DEFAULT_BITS) -> "Frequency":
        """Parse "surd:(p,q,d,r)", "pq:[a1,a2,...]", "pq:rule:name(:p1,p2)",
        "dec:<digits>", or a named shortcut (golden, sqrt2m1, sqrt3m1)."""
        text = text.strip()
        if text in _NAMED_SURDS:
            return Frequency(_NAMED_SURDS[text], fractional_bits)
        if text.startswith("surd:"):
            body = text[5:].strip().lstrip("(").rstrip(")")
            p, q, d, r = (int(x) for x in body.split(","))
            return Frequency(QuadraticSurd(p, q, d, r), fractional_bits)
        if text.startswith("pq:rule:"):
            name, _, params = text[8:].partition(":")
            params = tuple(int(x) for x in params.split(",")) if params else ()
            return Frequency(PartialQuotients((), name, params), fractional_bits)
        if text.startswith("pq:"):
            body = text[3:].strip().lstrip("[").rstrip("]")
            terms = tuple(int(x) for x in body.split(","))
            return Frequency(PartialQuotients(terms), fractional_bits)
        if text.startswith("dec:"):
            return Frequency(DecimalString(text[4:]), fractional_bits)
        raise ValueError(f"cannot parse frequency {text!r}")


def golden_mean(bits: int = DEFAULT_BITS) -> Frequency:
    """(sqrt(5) - 1) / 2, the all-ones continued fraction."""
    return Frequency(_NAMED_SURDS["golden"], bits)


def sqrt2_minus_1(bits: int = DEFAULT_BITS) -> Frequency:
    return Frequency(_NAMED_SURDS["sqrt2m1"], bits)


# ---------------------------------------------------------------------------
# continued fractions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContinuedFraction:
    """Certified prefix a_1..a_M with convergents p_1..p_M / q_1..q_M."""

    omega: Optional[Frequency]
    a: tuple
    p: tuple
    q: tuple
    terminated: bool = False
    max_q_searched: Optional[int] = None  # denominators <= this are all present

    @property
    def certified_len(self) -> int:
        return len(self.a)

    def a_at(self, n: int) -> int:
        if not 1 <= n <= len(self.a):
            raise Uncertified(f"a_{n} outside stored range 1..{len(self.a)}")
        return self.a[n - 1]

    def p_at(self, n: int) -> int:
        if n == 0:
            return 0
        if n > len(self.p):
            raise Uncertified(f"p_{n} outside stored range")
        return self.p[n - 1]

    def q_at(self, n: int) -> int:
        if n == 0:
            return 1
        if n > len(self.q):
            raise Uncertified(f"q_{n} outside stored range")
        return self.q[n - 1]

    def to_json(self) -> str:
        return json.dumps(
            {"a": list(self.a), "p": list(self.p), "q": list(self.q),
             "certified_len": self.certified_len}
        )


def _enclosure(omega: Frequency, bits: int):
    """Rational enclosure of omega tight enough to certify `bits` of fixed
    point: a surd's or a decimal's own interval, or the last two convergents
    of partial quotients (the last one alone once they terminate)."""
    if not isinstance(omega.rep, PartialQuotients):
        return omega.rep.interval(bits)
    cf = expand_cf(omega, max_q=None, stop_product=1 << (bits + 4))
    if cf.terminated:
        v = Fraction(cf.p[-1], cf.q[-1])
        return v, v
    if len(cf.q) < 2:
        raise Uncertified("not enough convergents to enclose the value")
    x, y = Fraction(cf.p[-2], cf.q[-2]), Fraction(cf.p[-1], cf.q[-1])
    return (x, y) if x < y else (y, x)


def _lt_sqrt(c: int, D: int) -> bool:
    """c < sqrt(D) for integer c, positive non-square D."""
    return c < 0 or c * c < D


def _exact_floor_surd(P: int, D: int, Q: int) -> int:
    """floor((P + sqrt(D)) / Q) by integer arithmetic, any sign of Q."""
    s = isqrt(D)
    if Q > 0:
        # sqrt(D) in (s, s+1) and no integer can separate (P+s)/Q from x
        return (P + s) // Q
    # Q < 0: x lies in ((P+s+1)/Q, (P+s)/Q); at most two floor candidates.
    # f = floor(x) iff f*Q - P > sqrt(D) and (f+1)*Q - P < sqrt(D).
    for f in ((P + s + 1) // Q, (P + s) // Q):
        if not _lt_sqrt(f * Q - P, D) and _lt_sqrt((f + 1) * Q - P, D):
            return f
    raise AssertionError("quadratic floor search failed")


def expand_cf(omega: Frequency, max_q: Optional[int], *,
              stop_product: Optional[int] = None) -> ContinuedFraction:
    """All convergents with q_n <= max_q (or until q_n * q_{n+1} >= stop_product).

    The representation yields its certified partial quotients; this loop
    alone decides where to stop: at max_q, at stop_product, at _MAX_TERMS
    terms, or where the sequence ends.  Quadratic surds and rule-generated
    partial quotients are exact, so the whole output is certified.  Decimal
    strings raise PrecisionExhausted, carrying the certified prefix in
    ``partial``, when the residual interval no longer pins down the next
    integer part before a stopping rule is reached.
    """
    if max_q is None and stop_product is None:
        raise ValueError("need max_q or stop_product")
    a_list: list[int] = []
    p_list: list[int] = []
    q_hist = [1]  # q_0, q_1, ..., q_n: the denominators a rule reads
    p_prev, q_prev, p_cur = 1, 0, 0  # p_{n-1}, q_{n-1}, p_n
    hit_max_q = terminated = False
    try:
        for a in omega.rep.quotients(q_hist):
            p_next, q_next = a * p_cur + p_prev, a * q_hist[-1] + q_prev
            if max_q is not None and q_next > max_q:
                hit_max_q = True
                break
            p_prev, q_prev, p_cur = p_cur, q_hist[-1], p_next
            a_list.append(a)
            p_list.append(p_next)
            q_hist.append(q_next)
            # bit lengths summing below stop_product's put the product below it
            if len(a_list) == _MAX_TERMS or (
                    stop_product is not None and len(a_list) >= 2
                    and q_prev.bit_length() + q_next.bit_length()
                    >= stop_product.bit_length()
                    and q_prev * q_next >= stop_product):
                break
        else:
            terminated = omega.is_rational()
    except PrecisionExhausted as exc:
        exc.partial = ContinuedFraction(omega, tuple(a_list), tuple(p_list),
                                        tuple(q_hist[1:]))
        raise

    # the searched range is fully covered only if the q ceiling stopped us;
    # an exhausted rule or a stop_product cutoff certifies coverage only up
    # to the last stored denominator
    searched = max_q if hit_max_q else (q_hist[-1] if a_list else 0)
    return ContinuedFraction(omega, tuple(a_list), tuple(p_list),
                             tuple(q_hist[1:]), terminated, searched)


# ---------------------------------------------------------------------------
# best approximations and gaps
# ---------------------------------------------------------------------------


def closest_return(omega: Frequency, q: int) -> int:
    """min over 1 <= j < q of ||j omega||, by an exact scan, as a numerator
    over 2**bits; 2**bits (a distance of 1) when q = 1 leaves no j.

    q is a best approximation iff this exceeds ||q omega||, and the gap
    lemma ||j omega|| > 1/(2 q) holds iff it exceeds 2**bits / (2 q).
    """
    w = omega.fixed_point()
    one = 1 << omega.fractional_bits
    closest = one
    t = 0
    for _ in range(1, q):
        t += w  # exact accumulation of j*w
        v = t & (one - 1)
        closest = min(closest, v, one - v)
    return closest


def find_convergent_at_scale(cf: ContinuedFraction, N: int) -> tuple[int, int]:
    """The convergent (p, q) with the smallest certified q >= N."""
    if N < 1:
        raise ValueError("N must be >= 1")
    for i in range(cf.certified_len):
        if cf.q[i] >= N:
            return cf.p[i], cf.q[i]
    raise Uncertified(f"no certified convergent reaches N={N}")


# ---------------------------------------------------------------------------
# Diophantine classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiophantineReport:
    gamma_sdc: float
    sdc_argmin_k: int
    gamma_dc: float
    A_dc: float
    beta_estimate: float
    bb_witnesses: tuple
    k_max: int


def borel_bernstein_schedule(cf: ContinuedFraction) -> tuple:
    """Indices m with a_{m+1} >= m: where the gap law holds."""
    if cf.certified_len == 0:
        raise Uncertified("empty certified prefix")
    return tuple(m for m in range(1, cf.certified_len) if cf.a_at(m + 1) >= m)


def classify(cf: ContinuedFraction, k_max: int) -> DiophantineReport:
    """Fit the arithmetic quality of cf.omega over the certified prefix.

    gamma_sdc  exact min over 1 <= k <= k_max of ||k w|| * k * log^2(k+1)
    (gamma, A) least-squares fit of log q_{n+1} = log(1/gamma) + A log q_n
    beta       limsup log q_{n+1}/q_n, estimated as the max over the last
               third of the certified prefix (a max over the full prefix
               never decays, which would misreport bounded-quotient
               frequencies as strongly Liouville)
    witnesses  borel_bernstein_schedule(cf)
    """
    if not 2 <= k_max <= CLASSIFY_MAX_K:
        raise ValueError(f"k_max={k_max} is not in [2, {CLASSIFY_MAX_K}]")
    omega = cf.omega
    if omega.is_rational() or cf.terminated:
        raise NotIrrational("Diophantine classification needs an irrational frequency")
    witnesses = borel_bernstein_schedule(cf)
    w = omega.fixed_point()
    one = 1 << omega.fractional_bits

    gamma_sdc = math.inf
    argmin_k = 1
    t = 0
    for k in range(1, k_max + 1):
        t += w
        v = t & (one - 1)
        v = min(v, one - v)
        val = (v / one) * k * math.log(k + 1) ** 2
        if val < gamma_sdc:
            gamma_sdc, argmin_k = val, k

    M = cf.certified_len
    xs, ys = [], []
    for n in range(1, M):
        xs.append(math.log(cf.q_at(n)))
        ys.append(math.log(cf.q_at(n + 1)))
    if len(xs) >= 2 and max(xs) > min(xs):
        n_pts = len(xs)
        sx, sy = sum(xs), sum(ys)
        sxx = sum(x * x for x in xs)
        sxy = sum(x * y for x, y in zip(xs, ys))
        A = (n_pts * sxy - sx * sy) / (n_pts * sxx - sx * sx)
        intercept = (sy - A * sx) / n_pts
        gamma_dc = math.exp(-intercept)
    else:
        A, gamma_dc = math.nan, math.nan

    tail_start = max(1, (2 * M) // 3)
    beta = 0.0
    for n in range(tail_start, M):
        beta = max(beta, math.log(cf.q_at(n + 1)) / cf.q_at(n))

    return DiophantineReport(
        gamma_sdc=gamma_sdc,
        sdc_argmin_k=argmin_k,
        gamma_dc=gamma_dc,
        A_dc=A,
        beta_estimate=beta,
        bb_witnesses=witnesses,
        k_max=k_max,
    )


# ---------------------------------------------------------------------------
# Ostrowski numeration
# ---------------------------------------------------------------------------


def ostrowski_digits(cf: ContinuedFraction, N: int) -> list[int]:
    """Greedy digits [b_0, b_1, ..., b_s] with N = b_0 + sum_n b_n q_n.

    Greedy from the largest certified q_n downward yields 0 <= b_n <= a_{n+1}
    and the standard carry rule (b_n = a_{n+1} forces b_{n-1} = 0).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    M = cf.certified_len
    covered = cf.terminated or (cf.max_q_searched or 0) >= N
    if M == 0 or not covered:
        raise Uncertified(f"certified convergents do not cover N={N}")
    digits = [0] * (M + 1)  # slot n holds b_n (q_0 = 1 slot is b_0)
    rem = N
    for n in range(M, 0, -1):
        qn = cf.q_at(n)
        if qn <= rem:
            digits[n] = rem // qn
            rem -= digits[n] * qn
    digits[0] = rem
    while len(digits) > 1 and digits[-1] == 0:
        digits.pop()
    return digits
