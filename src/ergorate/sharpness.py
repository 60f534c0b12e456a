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
from typing import Optional, Sequence

import numpy as np

from .arithmetic import ContinuedFraction, Frequency, fp_from_float
from .arithmetic import borel_bernstein_schedule  # noqa: F401 (re-export)
from .dynamics import (_SUB, TorusPoint, _phase_table, exp_sum_avg_fp,
                       limbs_from_ints, limbs_mul, limbs_to_float)
from .errors import HypothesisNotMet, Uncertified
from .kernels import Holder, Observable

TWO_PI = 2.0 * math.pi

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


@dataclass(frozen=True)
class HolderWeight:
    alpha: float

    def __call__(self, q: int) -> float:
        return float(q) ** -self.alpha if q < 10 ** 300 else 0.0


@dataclass(frozen=True)
class AnalyticWeight:
    def __call__(self, q: int) -> float:
        return math.exp(-q) if q < 700 else 0.0


def _tail_bound(weight, q_next: int, q_next2: Optional[int]) -> float:
    """Rigorous bound on sum_{k > L} w(q_k) from q_{L+1}, q_{L+2} and the
    doubling law q_{k+2} >= 2 q_k; raises if the chain does not converge."""
    total = 0.0
    for q0 in (q_next, q_next2 or 2 * q_next):
        q = q0
        for j in range(400):
            t = weight(q)
            total += t
            if t < 1e-30:
                break
            q *= 2
        else:
            raise Uncertified("weight tail does not converge fast enough")
    return total


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
    def _steps(self) -> tuple:
        """Each mode's exact step (q_k omega) mod 1 in fixed point, the live
        (nonzero-weight) modes as (q, w) and their steps as (L, K) limbs:
        once per instance, and not a field, so dataclasses.replace derives
        them afresh."""
        one, w_fp = 1 << self.bits, self.cf.omega.fixed_point()
        steps = [q * w_fp % one for q in self.qs]
        live = [k for k, w in enumerate(self.weights) if w != 0.0]
        return (steps, [(self.qs[k], self.weights[k]) for k in live],
                limbs_from_ints([steps[k] for k in live], self.bits))

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


def build_lacunary(cf: ContinuedFraction, weight,
                   tol: float = TAIL_TOL) -> LacunaryObservable:
    """Truncate the series so the dropped tail is provably below tol.

    The certified prefix must reach far enough for the doubling-law tail
    bound, and the frequency's width must certify every kept phase: the
    phase q * omega errs by up to q * 2^-(bits+1), so a kept q needs at most
    bits - 64 bits.  Raises Uncertified otherwise.
    """
    L = cf.certified_len
    if L < 3:
        raise Uncertified("need at least three certified convergents")
    ws = [weight(cf.q_at(k)) for k in range(1, L + 1)]
    if cf.terminated:
        beyond = 0.0
    else:
        # q_{L+1} >= q_L + q_{L-1} and q_{L+2} >= 2 q_L seed the two doubling
        # chains that dominate the uncomputed tail
        beyond = _tail_bound(weight, cf.q_at(L) + cf.q_at(L - 1), 2 * cf.q_at(L))
    if beyond > tol:
        raise Uncertified(f"certified prefix cannot meet tail tolerance {tol}")
    # smallest K with sum_{k>K} w_k (+ beyond-prefix bound) <= tol
    suffix = beyond
    K = L
    while K > 1 and suffix + ws[K - 1] <= tol:
        suffix += ws[K - 1]
        K -= 1
    qs = tuple(cf.q_at(k) for k in range(1, K + 1))
    bits, q_bits = cf.omega.fractional_bits, qs[-1].bit_length()
    if q_bits > bits - 64:
        raise Uncertified(f"{bits}-bit fixed point cannot certify the lacunary "
                          f"mode q = {qs[-1]} ({q_bits} bits); "
                          f"precision_bits >= {q_bits + 64} would")
    weights = tuple(ws[:K])
    total_tail = sum(ws[K:]) + beyond

    alpha = weight.alpha if isinstance(weight, HolderWeight) else None
    modulus = Holder(alpha or 1.0)
    # rigorous seminorm bound: |phi(x+h)-phi(x)| <= sum w_k min(2, 2 pi q_k h),
    # summed left to right (np.max, not max: a NaN at any scale makes it NaN)
    q_f, w_f = np.array([float(min(q, 10 ** 200)) for q in qs]), np.array(weights)
    semi = 0.0
    for j in range(2, 60):
        h = 2.0 ** -j
        bound = np.cumsum(w_f * np.minimum(2.0, TWO_PI * q_f * h))[-1]
        semi = float(np.max([semi, bound / modulus(h)]))
    return LacunaryObservable(
        dim=1,
        fn=_lacunary_fn(qs, weights, bits),
        modulus=modulus,
        norm_est=float(sum(weights)) + semi,
        mean_hint=0.0,
        # w cos(2 pi q x) = Re (w/2)(e(qx) + e(-qx)); the qs are distinct
        fourier={(s * q,): w / 2 for q, w in zip(qs, weights) for s in (1, -1)},
        cf=cf,
        qs=qs,
        weights=weights,
        tail_bound=total_tail,
    )


# ---------------------------------------------------------------------------
# measurement routes
# ---------------------------------------------------------------------------


def measure_average(phi: LacunaryObservable, omega: Frequency, x: TorusPoint,
                    N: int, check=None) -> float:
    """(1/N) S_N phi(x) by direct trigonometric summation along the orbit.

    Step j = a B + b (b < B) gives mode k the term cos alpha_a cos beta_b -
    sin alpha_a sin beta_b (alpha_a = (q_k x + a B s_k) mod 1, beta_b = (b
    s_k) mod 1, s_k in phi._steps), so row a sums to cos alpha_a C_k - sin
    alpha_a S_k, C_k and S_k the totals of cos and sin beta_b over the row.
    Both phase tables are reduced exactly on the limbs and rounded once.  B
    is N up to 1024, else ceil(sqrt N), and the inner totals are kept on
    the series by (B, tail), so a call costs O(modes sqrt N), and a window
    family at one q_m only its start phases.  The tables run in blocks of
    _SUB rows, calling check, if given, once per block; a block's sums
    take one np.sum, and the block totals and weighted modes are added in
    order.  omega must be phi.cf.omega, x of its width (ValueError).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if omega != phi.cf.omega:
        raise ValueError("omega is not the frequency of the series")
    if x.bits != phi.bits:
        raise ValueError(f"a {x.bits}-bit point on a {phi.bits}-bit series")
    one = 1 << omega.fractional_bits
    _, live, steps = phi._steps
    B = N if N <= 1024 else math.isqrt(N - 1) + 1
    A, tail = -(-N // B), (N - 1) % B + 1  # rows, and steps in the last
    if (B, tail) not in phi._inner_totals:
        regs = np.stack([np.zeros_like(steps), steps], axis=1)
        tot = np.zeros((4, len(live), 1))  # C, S; C, S over the tail
        for lo in range(0, B, _SUB):
            cs = np.array(_phase_table(regs, min(_SUB, B - lo), TWO_PI))
            tot[:2] += np.sum(cs, axis=2, keepdims=True)
            if lo < tail:
                tot[2:] += np.sum(cs[..., :tail - lo], axis=2, keepdims=True)
            if check is not None:
                check()
        phi._inner_totals[B, tail] = tot
    C, S, Ct, St = phi._inner_totals[B, tail]
    ph0 = [q * x.coords[0] & (one - 1) for q, _ in live]
    if A == 1:  # the start phases are the outer table, rounded as int / int
        t = TWO_PI * np.array([p / one for p in ph0])[:, None]
        blocks = [(np.cos(t), np.sin(t))]
    else:
        regs = np.stack([limbs_from_ints(ph0, phi.bits), limbs_mul(steps, B)],
                        axis=1)
        blocks = (_phase_table(regs, min(_SUB, A - lo), TWO_PI)
                  for lo in range(0, A, _SUB))
    mode_sums = np.zeros(len(live))
    for lo, (ca, sa) in zip(range(0, A, _SUB), blocks):
        rows = ca * C - sa * S
        if lo + _SUB >= A:  # the last row, of tail steps
            rows[:, -1:] = ca[:, -1:] * Ct - sa[:, -1:] * St
        mode_sums += np.sum(rows, axis=1)
        if check is not None:
            check()
    total = 0.0
    for (_, w), mode_sum in zip(live, mode_sums.tolist()):
        total += w * mode_sum
    return total / N


def _mode_averages(phi: LacunaryObservable, x: TorusPoint, N: int) -> list:
    """Each mode's share w_k Re e(q_k x) E_N(q_k omega) of (1/N) S_N phi(x),
    omega = phi.cf.omega, from the geometric closed form of the mode's sum."""
    bits = phi.bits
    if x.bits != bits:
        raise ValueError(f"a {x.bits}-bit point on a {bits}-bit series")
    one = 1 << bits
    out = []
    for q, w, t_fp in zip(phi.qs, phi.weights, phi._steps[0]):
        ph = ((q * x.coords[0]) % one) / one
        e = exp_sum_avg_fp(t_fp, bits, N)
        out.append(w * (e * np.exp(2j * math.pi * ph)).real)
    return out


def closed_form_average(phi: LacunaryObservable, x: TorusPoint,
                        N: int) -> float:
    """Same average via the geometric closed form of each mode's sum."""
    return sum(_mode_averages(phi, x, N))


# ---------------------------------------------------------------------------
# decomposition and lower bounds
# ---------------------------------------------------------------------------


@dataclass
class SharpnessReport:
    m: int
    q_m: int
    q_m1: int
    sigma_m: float
    sigma_gt: float
    sigma_lt: float
    lower_dev: float        # measured (1/q_m) S_{q_m} phi(x) - mean
    identity_gap: float     # |sigma_m + sigma_gt + sigma_lt - lower_dev|


def decompose(phi: LacunaryObservable, m: int, x: TorusPoint,
              check=None) -> SharpnessReport:
    """Split (1/q_m) S_{q_m} phi(x) - mean into the resonant mode m, the
    higher modes and the lower modes; the three parts are closed-form
    geometric sums, and their total must reproduce the directly measured
    deviation exactly (up to roundoff) for the truncated series; check
    goes to measure_average."""
    qm = phi.mode_q(m)
    terms = _mode_averages(phi, x, qm)
    sigma_m = terms[m - 1]
    sigma_gt = sum(terms[m:])
    sigma_lt = sum(terms[:m - 1])
    measured = measure_average(phi, phi.cf.omega, x, qm, check)
    return SharpnessReport(
        m=m,
        q_m=qm,
        q_m1=phi.cf.q_at(m + 1) if m + 1 <= phi.cf.certified_len else 0,
        sigma_m=sigma_m,
        sigma_gt=sigma_gt,
        sigma_lt=sigma_lt,
        lower_dev=measured,
        identity_gap=abs(sigma_m + sigma_gt + sigma_lt - measured),
    )


@dataclass
class LowerBoundResult:
    m: int
    q_m: int
    q_m1: int
    entries: list           # (l, lower_dev)
    min_ratio: float        # min over l of lower_dev / w_m
    l_bar: int              # largest l with every window up to it positive


def start_points(phi: LacunaryObservable, m: int, ls: Sequence[int]) -> list:
    one, step = 1 << phi.bits, phi._steps[0][phi._mode(m)]
    return [TorusPoint((l * step % one,), phi.bits) for l in ls]


def verify_lower_bound(phi: LacunaryObservable, m: int,
                       l_values: Optional[Sequence[int]] = None,
                       check=None) -> LowerBoundResult:
    """Measure the q_m-step averages at x = l q_m omega across the admitted
    range of l and check they stay positive (the resonant mode dominates).

    Requires the gap q_{m+1} >= GAP_CONSTANT * m * q_m; raises
    HypothesisNotMet otherwise so harnesses can report instead of assert;
    check goes to every measure_average call."""
    qm = phi.mode_q(m)
    qm1 = phi.cf.q_at(m + 1)  # raises Uncertified beyond the certified prefix
    if qm1 < GAP_CONSTANT * m * qm:
        raise HypothesisNotMet(
            f"q_{m + 1}={qm1} < {GAP_CONSTANT} * {m} * q_{m}={qm}"
        )
    if l_values is None:
        l_values = range(min(int(RANGE_CONSTANT * qm1 / qm), L_CAP) + 1)
    ls = list(l_values)
    entries = [(l, measure_average(phi, phi.cf.omega, x, qm, check))
               for l, x in zip(ls, start_points(phi, m, ls))]
    # np.min, not min: a NaN window makes min_ratio NaN and fails it
    min_ratio = float(np.min([math.inf] + [dev / phi.mode_weight(m)
                                           for _, dev in entries]))
    positive = list(itertools.takewhile(lambda e: e[1] > 0, entries))
    return LowerBoundResult(
        m=m, q_m=qm, q_m1=qm1, entries=entries, min_ratio=min_ratio,
        l_bar=positive[-1][0] if positive else -1,
    )


@dataclass
class NmBoundResult:
    m: int
    q_m: int
    N_m: int
    lower_dev_Nm: float
    ratio: float            # lower_dev_Nm / w_m


def verify_Nm_bound(phi: LacunaryObservable, lower: LowerBoundResult,
                    check=None) -> NmBoundResult:
    """Aggregate the passing windows of `lower` at its m: N_m = (l_bar + 1)
    q_m and the ratio to w_m of the average at 0; check as measure_average."""
    if lower.l_bar < 0:
        raise HypothesisNotMet(f"no positive window at m={lower.m}")
    return _aggregate(phi, lower.m, lower.l_bar, check)


def slow_rate_point(phi: LacunaryObservable, m: int) -> NmBoundResult:
    """The Liouville slow-rate measurement: N_m ~ q_{m+1} built from the
    admitted window count (capped for tractability when q_{m+1}/q_m is
    astronomically large), no gap-hypothesis gate."""
    qm = phi.mode_q(m)
    qm1 = phi.cf.q_at(m + 1)  # raises Uncertified beyond the certified prefix
    l_bar = max(0, min(int(RANGE_CONSTANT * qm1 / qm), _SLOW_RATE_L_CAP))
    return _aggregate(phi, m, l_bar)


def _aggregate(phi: LacunaryObservable, m: int, l_bar: int,
               check=None) -> NmBoundResult:
    """The measured N_m-step average at 0, N_m = (l_bar + 1) q_m, and its
    ratio to w_m."""
    qm = phi.mode_q(m)
    N_m = (l_bar + 1) * qm
    dev = measure_average(phi, phi.cf.omega, TorusPoint.zero(1, phi.bits), N_m,
                          check)
    return NmBoundResult(
        m=m, q_m=qm, N_m=N_m, lower_dev_Nm=dev, ratio=dev / phi.mode_weight(m),
    )

