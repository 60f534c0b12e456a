"""Lacunary-series observables witnessing that the rate bounds are sharp.

The witness is phi(x) = Re sum_k w_k e(q_k x) with modes at the convergent
denominators q_k of the driving frequency and decreasing weights w_k
(Holder q_k^-alpha or analytic e^-q_k).  The infinite series is replaced by
a truncation whose tail is provably below a tolerance that sits far under
every asserted lower bound.

Because mode frequencies reach 1e25 and beyond, all mode phases are reduced
mod 1 in integer fixed point before any trigonometric evaluation; double
precision on the raw product q_k * x would be garbage past q_k ~ 1e15.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .arithmetic import ContinuedFraction, Frequency, fp_from_float, fp_signed
from .dynamics import (_SUB, TorusPoint, _fp_floats, _phase_table,
                       _step_sines, exp_sums_fp, limbs_from_ints, limbs_mul,
                       limbs_to_float)
from .errors import HypothesisNotMet, Uncertified, tick
from .kernels import TWO_PI, Holder, Observable, round_up, seminorm_bound

# The constants of the sharpness construction; no config sets them.
GAP_CONSTANT = 10.0     # gap law: q_{m+1} >= GAP_CONSTANT * m * q_m
RANGE_CONSTANT = 0.125  # admitted windows: l <= RANGE_CONSTANT * q_{m+1} / q_m
L_CAP = 256             # and l <= L_CAP
RATIO_FLOOR = 0.1       # a passing aggregate: N_m-average / w_m >= RATIO_FLOOR
TAIL_TOL = 1e-12        # truncation tolerance of the lacunary series
# slow_rate_point's window-count cap, for q_{m+1}/q_m astronomically large
_SLOW_RATE_L_CAP = 64


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


def _exp_up(a: float, b: float) -> float:
    """e^(a + b) rounded up.  Each term errs by a few ulps of itself, so the
    exponent is raised by 8 ulps of 1 + |a| + |b|; the result is never 0.0,
    and inf where e^(a + b) nears the double range."""
    y = a + b + 8 * 2.0 ** -53 * (1 + abs(a) + abs(b))
    return math.inf if y > 709 else math.nextafter(math.exp(y), math.inf)


@dataclass(frozen=True)
class HolderWeight:
    alpha: float

    def __call__(self, q: int) -> float:  # rounded up past 10^300, never 0.0
        return (float(q) ** -self.alpha if q < 10 ** 300
                else _exp_up(-self.alpha * math.log(q), 0.0))

    def tail(self, q: int) -> float:
        """sum_j w(2^j q) = q^-alpha / (1 - 2^-alpha), rounded up."""
        return _exp_up(-self.alpha * math.log(q),
                       -math.log(-math.expm1(-self.alpha * math.log(2))))


@dataclass(frozen=True)
class AnalyticWeight:
    def __call__(self, q: int) -> float:  # rounded up past 700, never 0.0
        return math.exp(-q) if q < 700 else _exp_up(-min(q, 2048), 0.0)

    def tail(self, q: int) -> float:
        """sum_j w(2^j q) <= sum_j e^-(j + 1) q = e^-q / (1 - e^-q), as
        2^j >= j + 1, rounded up; past q = 2048 the bound at 2048, which
        rounds up to the least double."""
        q = min(q, 2048)
        return _exp_up(-q, -math.log(-math.expm1(-q)))


# ---------------------------------------------------------------------------
# the observable
# ---------------------------------------------------------------------------


@dataclass
class LacunaryObservable(Observable):
    """Truncated lacunary cosine series on the convergent denominators, in
    the fixed-point width of their frequency."""

    cf: ContinuedFraction = None
    qs: tuple = ()
    weights: tuple = ()
    tail_bound: float = 0.0

    @property
    def bits(self) -> int:
        return self.cf.omega.fractional_bits

    @property
    def n_modes(self) -> int:
        return len(self.qs)

    def _mode(self, m: int) -> int:
        """The list index of mode m, which must lie in 1..n_modes."""
        if not 1 <= m <= self.n_modes:
            raise ValueError(f"mode index m={m} outside 1..{self.n_modes}")
        return m - 1

    def mode_weight(self, m: int) -> float:
        return self.weights[self._mode(m)]

    def mode_q(self, m: int) -> int:
        return self.qs[self._mode(m)]

    @functools.cached_property
    def _steps(self) -> list:
        """Each mode's exact step (q_k omega) mod 1 in fixed point, once per
        instance: not a field, so dataclasses.replace derives them afresh."""
        one, w_fp = 1 << self.bits, self.cf.omega.fixed_point()
        return [q * w_fp % one for q in self.qs]

    @functools.cached_property
    def _inner_totals(self) -> dict:  # (B, tail) -> measure_average's totals
        return {}


def _lacunary_fn(qs, weights, bits):
    def fn(x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        flat = xs.reshape(-1)
        # each point in fixed point once; q * u mod 1 is exact on the limbs
        u = limbs_from_ints([fp_from_float(v, bits) for v in flat.tolist()], bits)
        out = np.zeros(flat.shape)
        for q, w in zip(qs, weights):
            out += w * np.cos(TWO_PI * limbs_to_float(limbs_mul(u, q)))
        out = out.reshape(xs.shape)
        return out if np.ndim(x) else float(out[0])

    return fn


def build_lacunary(cf: ContinuedFraction, weight) -> LacunaryObservable:
    """Truncate the series so the dropped tail is provably below TAIL_TOL.

    Past the certified prefix q_1..q_L, q_{k+2} >= 2 q_k, so two doubling
    chains from q_{L+1} >= q_L + q_{L-1} and q_{L+2} >= 2 q_L dominate the
    uncomputed tail: weight.tail of each, a geometric series q^-alpha /
    (1 - 2^-alpha) or e^-q / (1 - e^-q), rounded up.  The prefix must reach
    far enough for that bound, and the frequency's width must certify every
    kept phase: the phase q * omega errs by up to q * 2^-(bits+1), so a kept
    q needs at most bits - 64 bits.  Raises Uncertified otherwise.  The
    sums in norm_est and tail_bound are rounded up by kernels.round_up.
    """
    L = cf.certified_len
    if L < 3:
        raise Uncertified("need at least three certified convergents")
    ws = [weight(cf.q_at(k)) for k in range(1, L + 1)]
    q_L, q_L1 = cf.q_at(L), cf.q_at(L - 1)
    beyond = (0.0 if cf.terminated
              else weight.tail(q_L + q_L1) + weight.tail(2 * q_L))
    if beyond > TAIL_TOL:
        raise Uncertified(f"certified prefix cannot meet tail tolerance "
                          f"{TAIL_TOL}")
    # smallest K with sum_{k>K} w_k (+ beyond-prefix bound) <= TAIL_TOL
    suffix = beyond
    K = L
    while K > 1 and suffix + ws[K - 1] <= TAIL_TOL:
        suffix += ws[K - 1]
        K -= 1
    qs = tuple(cf.q_at(k) for k in range(1, K + 1))
    bits, q_bits = cf.omega.fractional_bits, qs[-1].bit_length()
    if q_bits > bits - 64:
        raise Uncertified(f"{bits}-bit fixed point cannot certify the lacunary "
                          f"mode q = {qs[-1]} ({q_bits} bits); "
                          f"precision_bits >= {q_bits + 64} would")
    if qs[-1] >= 10 ** 300:  # seminorm_bound takes each q as a double
        raise Uncertified(f"kept mode q = {qs[-1]} is past 10^300")
    weights = tuple(ws[:K])
    modulus = Holder(getattr(weight, "alpha", 1.0))
    q_f = np.array([float(q) for q in qs])
    semi = seminorm_bound(q_f, np.array(weights), modulus)
    return LacunaryObservable(
        dim=1,
        fn=_lacunary_fn(qs, weights, bits),
        modulus=modulus,
        norm_est=round_up(sum(weights) + semi, K + 1),
        mean_hint=0.0,
        # w cos(2 pi q x) = Re (w/2)(e(qx) + e(-qx)); the qs are distinct
        fourier={(s * q,): w / 2 for q, w in zip(qs, weights) for s in (1, -1)},
        cf=cf,
        qs=qs,
        weights=weights,
        tail_bound=round_up(sum(ws[K:]) + beyond, L - K + 1),
    )


# ---------------------------------------------------------------------------
# measurement routes
# ---------------------------------------------------------------------------


def measure_average(phi: LacunaryObservable, omega: Frequency, x: TorusPoint,
                    N: int) -> float:
    """(1/N) S_N phi(x) by direct trigonometric summation along the orbit.

    Step j = a B + b (b < B) gives mode k the term cos alpha_a cos beta_b -
    sin alpha_a sin beta_b (alpha_a = (q_k x + a B s_k) mod 1, beta_b = (b
    s_k) mod 1, s_k in phi._steps), so row a sums to cos alpha_a C_k - sin
    alpha_a S_k, C_k and S_k the totals of cos and sin beta_b over the row.
    Both phase tables come from _phase_table, of the int chains (0, s_k)
    and (q_k x, B s_k) from each block's first row, exact and rounded once.
    B is N up to 1024, else ceil(sqrt N), and the inner totals are kept on
    the series by (B, tail), so a call costs O(modes sqrt N), and a window
    family at one q_m only its start phases.  Up to N = 1024 the window is
    one row, summed from the start phases q_k x mod 1 alone (_fp_floats);
    above, the outer tables run in blocks of _SUB rows, calling tick() once
    per block, and a block's sums take one np.sum.  The weighted modes are
    added in order.
    omega must be phi.cf.omega, x of its width (ValueError).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if omega != phi.cf.omega:
        raise ValueError("omega is not the frequency of the series")
    if x.bits != phi.bits:
        raise ValueError(f"a {x.bits}-bit point on a {phi.bits}-bit series")
    one, steps = 1 << omega.fractional_bits, phi._steps
    B = N if N <= 1024 else math.isqrt(N - 1) + 1
    A, tail = -(-N // B), (N - 1) % B + 1  # rows, and steps in the last
    if (B, tail) not in phi._inner_totals:
        inner = [(0, s) for s in steps]
        tot = np.zeros((4, len(steps), 1))  # C, S; C, S over the tail
        for lo in range(0, B, _SUB):
            cs = np.array(_phase_table(inner, min(_SUB, B - lo), phi.bits, lo))
            tot[:2] += np.sum(cs, axis=2, keepdims=True)
            if lo < tail:
                tot[2:] += np.sum(cs[..., :tail - lo], axis=2, keepdims=True)
            tick()
        phi._inner_totals[B, tail] = tot
    C, S, Ct, St = phi._inner_totals[B, tail]
    ph0 = [q * x.coords[0] & (one - 1) for q in phi.qs]
    if A == 1:  # one row, of tail = N steps, from the start phases alone
        t = TWO_PI * _fp_floats(ph0, phi.bits)[:, None]
        mode_sums = (np.cos(t) * Ct - np.sin(t) * St)[:, 0]
        tick()
    else:
        outer = [(p, B * s) for p, s in zip(ph0, steps)]
        mode_sums = np.zeros(len(steps))
        for lo in range(0, A, _SUB):
            ca, sa = _phase_table(outer, min(_SUB, A - lo), phi.bits, lo)
            rows = ca * C - sa * S
            if lo + _SUB >= A:  # the last row, of tail steps
                rows[:, -1:] = ca[:, -1:] * Ct - sa[:, -1:] * St
            mode_sums += np.sum(rows, axis=1)
            tick()
    total = 0.0
    for w, mode_sum in zip(phi.weights, mode_sums.tolist()):
        total += w * mode_sum
    return total / N


# ---------------------------------------------------------------------------
# decomposition and lower bounds
# ---------------------------------------------------------------------------


@dataclass
class SharpnessReport:
    m: int
    q_m: int
    sigma_m: float
    sigma_gt: float
    sigma_lt: float
    lower_dev: float        # measured (1/q_m) S_{q_m} phi(x) - mean
    identity_gap: float     # |sigma_m + sigma_gt + sigma_lt - lower_dev|


def decompose(phi: LacunaryObservable, m: int, x: TorusPoint) -> SharpnessReport:
    """Split (1/q_m) S_{q_m} phi(x) - mean into the resonant mode m, the
    higher modes and the lower modes; mode k's part is the geometric closed
    form w_k Re e(q_k x) E_{q_m}(q_k omega), and the total must reproduce
    the directly measured deviation exactly (up to roundoff) for the
    truncated series; x must have the series' width (ValueError)."""
    bits, qm = phi.bits, phi.mode_q(m)
    if x.bits != bits:
        raise ValueError(f"a {x.bits}-bit point on a {bits}-bit series")
    one = 1 << bits
    ts = [fp_signed(t, bits) for t in phi._steps]
    res, ims = exp_sums_fp(ts, _step_sines(ts, bits), bits, qm)
    phs = _fp_floats([q * x.coords[0] % one for q in phi.qs], bits).tolist()
    terms = []
    for w, re, im, ph in zip(phi.weights, res.tolist(), ims.tolist(), phs):
        terms.append(w * (complex(re, im) * np.exp(2j * math.pi * ph)).real)
    sigma_m = terms[m - 1]
    sigma_gt = sum(terms[m:])
    sigma_lt = sum(terms[:m - 1])
    measured = measure_average(phi, phi.cf.omega, x, qm)
    return SharpnessReport(
        m=m,
        q_m=qm,
        sigma_m=sigma_m,
        sigma_gt=sigma_gt,
        sigma_lt=sigma_lt,
        lower_dev=measured,
        identity_gap=abs(sigma_m + sigma_gt + sigma_lt - measured),
    )


@dataclass
class LowerBoundResult:
    m: int
    entries: list           # (l, lower_dev)
    min_ratio: float        # min over l of lower_dev / w_m
    l_bar: int              # largest l with every window up to it positive


def start_points(phi: LacunaryObservable, m: int, ls: Sequence[int]) -> list:
    one, step = 1 << phi.bits, phi._steps[phi._mode(m)]
    return [TorusPoint((l * step % one,), phi.bits) for l in ls]


def verify_lower_bound(phi: LacunaryObservable, m: int) -> LowerBoundResult:
    """Measure the q_m-step averages at x = l q_m omega across the admitted
    range of l and check they stay positive (the resonant mode dominates).

    Requires the gap q_{m+1} >= GAP_CONSTANT * m * q_m; raises
    HypothesisNotMet otherwise so harnesses can report instead of assert."""
    qm = phi.mode_q(m)
    qm1 = phi.cf.q_at(m + 1)  # raises Uncertified beyond the certified prefix
    if qm1 < GAP_CONSTANT * m * qm:
        raise HypothesisNotMet(
            f"q_{m + 1}={qm1} < {GAP_CONSTANT} * {m} * q_{m}={qm}"
        )
    ls = range(min(int(RANGE_CONSTANT * qm1 / qm), L_CAP) + 1)
    entries = [(l, measure_average(phi, phi.cf.omega, x, qm))
               for l, x in zip(ls, start_points(phi, m, ls))]
    # np.min, not min: a NaN window makes min_ratio NaN and fails it
    min_ratio = float(np.min([math.inf] + [dev / phi.mode_weight(m)
                                           for _, dev in entries]))
    positive = list(itertools.takewhile(lambda e: e[1] > 0, entries))
    return LowerBoundResult(
        m=m, entries=entries, min_ratio=min_ratio,
        l_bar=positive[-1][0] if positive else -1,
    )


@dataclass
class NmBoundResult:
    q_m: int
    N_m: int
    lower_dev_Nm: float
    ratio: float            # lower_dev_Nm / w_m


def verify_Nm_bound(phi: LacunaryObservable,
                    lower: LowerBoundResult) -> NmBoundResult:
    """Aggregate the passing windows of `lower` at its m: N_m = (l_bar + 1)
    q_m and the ratio to w_m of the average at 0."""
    if lower.l_bar < 0:
        raise HypothesisNotMet(f"no positive window at m={lower.m}")
    return _aggregate(phi, lower.m, lower.l_bar)


def slow_rate_point(phi: LacunaryObservable, m: int) -> NmBoundResult:
    """The Liouville slow-rate measurement: N_m ~ q_{m+1} built from the
    admitted window count (capped for tractability when q_{m+1}/q_m is
    astronomically large), no gap-hypothesis gate."""
    qm = phi.mode_q(m)
    qm1 = phi.cf.q_at(m + 1)  # raises Uncertified beyond the certified prefix
    l_bar = max(0, min(int(RANGE_CONSTANT * qm1 / qm), _SLOW_RATE_L_CAP))
    return _aggregate(phi, m, l_bar)


def _aggregate(phi: LacunaryObservable, m: int, l_bar: int) -> NmBoundResult:
    """The measured N_m-step average at 0, N_m = (l_bar + 1) q_m, and its
    ratio to w_m."""
    qm = phi.mode_q(m)
    N_m = (l_bar + 1) * qm
    dev = measure_average(phi, phi.cf.omega, TorusPoint.zero(1, phi.bits), N_m)
    return NmBoundResult(
        q_m=qm, N_m=N_m, lower_dev_Nm=dev, ratio=dev / phi.mode_weight(m),
    )

