"""Closed-form theoretical rate envelopes and scale fitting.

Every envelope is a shape with a free multiplicative constant: the underlying
bounds hold up to unspecified universal factors, so the falsifiable content
is that ONE fitted scale dominates measurements across decades of N.
`fit_scale` implements that: the smallest dominating scale, plus how tight
the envelope stays on the tail of the series.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from .arithmetic import ContinuedFraction
from .errors import DomainError, Uncertified

# fit_scale's tail: the trailing third of the points
_TAIL_FRACTION = 1.0 / 3.0

# each envelope kind and the parameters its shape reads; a text key may
# set only these, and `modulus`, an object, never comes from text
_READS = {"dk": ("alpha",), "sdc": ("alpha",), "beta": ("alpha",),
          "dc": ("alpha", "A"), "transd": ("alpha", "A", "d"),
          "skew": ("alpha", "d", "eps"), "modulus": ("modulus",)}


@dataclass
class Envelope:
    """A positive, decreasing-in-N comparison curve with a fitted scale."""

    kind: str
    alpha: float = 0.5
    A: Optional[float] = None
    d: Optional[int] = None
    eps: float = 0.05
    modulus: Optional[object] = None
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in _READS:
            raise ValueError(f"unknown envelope kind {self.kind!r}")
        missing = [p for p in _READS[self.kind] if getattr(self, p) is None]
        if missing:
            raise ValueError(f"{self.kind} envelope needs {', '.join(missing)}")
        # NaN fails every comparison, so it is refused with the rest
        # eps stops at 1: a skew shape N^(eps - beta) overflows from eps ~ 50
        # d stops at the largest double: the shapes take it to float
        for p, ok, domain in (
                ("alpha", 0 < self.alpha <= 1, "(0, 1]"),
                ("eps", 0 <= self.eps <= 1, "[0, 1]"),
                ("A", self.A is None or 0 < self.A < math.inf, "(0, inf)"),
                ("d", self.d is None or 1 <= self.d <= sys.float_info.max,
                 f"[1, {sys.float_info.max:.4g}]")):
            if not ok:
                raise ValueError(f"{self.kind} envelope: {p} must be in {domain}, "
                                 f"got {getattr(self, p)!r}")

    def shape(self, N: int) -> float:
        if N < 3:
            raise DomainError("envelopes are defined for N >= 3")
        a = self.alpha
        ln = math.log(N)
        if self.kind == "dk":
            return N ** -a
        if self.kind == "sdc":
            return ln ** (3 * a) / N ** a
        if self.kind == "dc":
            return (ln / N) ** (a / self.A)
        if self.kind == "beta":
            return ln ** -a
        if self.kind == "modulus":
            # argument only drops below 1/2 near N ~ 2e4; the shape is a
            # usable comparison curve from there, monotone from N > e^4
            return self.modulus(ln ** 4 / N)
        if self.kind == "transd":
            return N ** (-a / (self.A + self.d))
        if self.kind == "skew":
            delta = 2.0 ** (1 - self.d)
            return N ** (-(a * delta / (delta + self.d)) + self.eps)
        raise AssertionError

    def value(self, N: int) -> float:
        return self.scale * self.shape(N)

    @staticmethod
    def parse(text: str) -> "Envelope":
        """Parse e.g. "sdc:alpha=0.5" or "skew:alpha=0.5,d=2,eps=0.05"; a
        name the kind's shape does not read is refused."""
        kind, _, body = text.partition(":")
        textual = {p for reads in _READS.values() for p in reads} - {"modulus"}
        kwargs = {}
        for item in body.split(",") if body else ():
            key, _, val = item.partition("=")
            key = key.strip()
            if key not in textual:
                raise ValueError(f"unknown envelope parameter {key!r} "
                                 f"in {text!r}")
            if key in kwargs:
                raise ValueError(f"envelope parameter {key} given twice "
                                 f"in {text!r}")
            kwargs[key] = int(val) if key == "d" else float(val)
        env = Envelope(kind=kind.strip(), **kwargs)
        unread = [k for k in kwargs if k not in _READS[env.kind]]
        if unread:
            raise ValueError(f"{env.kind} envelope does not read "
                             f"{', '.join(unread)} in {text!r}")
        return env


def skew_exponent(alpha: float, d: int) -> float:
    """alpha * delta / (delta + d) with delta = 2**(1-d)."""
    delta = 2.0 ** (1 - d)
    return alpha * delta / (delta + d)


def weyl_bound(d: int, q: int, N: int, eps: float = 0.05) -> float:
    """N**(1+eps) * (1/q + 1/N + q/N**d) ** (2**(1-d)) for one (q, N) cell."""
    if N < 1 or q < 1:
        raise DomainError("q, N must be >= 1")
    delta = 2.0 ** (1 - d)
    return N ** (1 + eps) * (1.0 / q + 1.0 / N + q / N ** d) ** delta


def fit_scale(series: Sequence, env: Envelope) -> tuple[float, float]:
    """Smallest scale whose envelope dominates every (N, value) point.

    Returns (scale, tail_ratio) where tail_ratio is the max of
    value / (scale * shape) over the trailing third of the points:
    1.0 means the binding point sits in the tail, small values mean the
    envelope has gone slack there.  Any non-finite value gives (nan, nan),
    so every `0 < scale < inf` gate fails.
    """
    pts = [(int(n), float(v)) for n, v in series]
    if len(pts) < 3:
        raise ValueError("need at least 3 points to fit a scale")
    pts.sort()
    ratios = [v / env.shape(n) for n, v in pts]
    if not all(math.isfinite(r) for r in ratios):
        return math.nan, math.nan
    scale = max(ratios)
    if scale <= 0:
        return 0.0, 0.0
    tail = max(1, int(len(pts) * _TAIL_FRACTION))
    tail_ratio = max(ratios[-tail:]) / scale
    return scale, tail_ratio


@dataclass
class SumQsResult:
    s: int
    n: int              # q_s, the scale entering the right-hand shape
    exact_sum: float
    shape_value: float


def sum_qs_bound(cf: ContinuedFraction, s: int, alpha: float,
                 regime: str, A: Optional[float] = None,
                 beta: Optional[float] = None) -> SumQsResult:
    """Exact partial sums sum_{j<=s} q_{j+1} log q_{j+1} / q_j**alpha
    against the regime's closed-form growth shape at n = q_s.

    regime: "sdc" -> n^(1-alpha) log^3(n+1)
            "dc"  -> n^(A-alpha) log(n+1)
            "beta"-> e^(beta n) n^(1-alpha)
    Shapes use log(n+1) (as the chain of estimates does before absorbing
    constants), which keeps the s = 1, q_1 = 1 case nondegenerate.
    """
    if s + 1 > cf.certified_len:
        raise Uncertified(f"need certified q_{s + 1}")
    total = 0.0
    for j in range(1, s + 1):
        qj, qj1 = cf.q_at(j), cf.q_at(j + 1)
        # log-space to survive huge denominators
        expo = math.log(qj1) - alpha * math.log(qj)
        total += math.inf if expo > 700 else math.exp(expo) * math.log(qj1)
    n = cf.q_at(s)
    ln1 = math.log(n + 1)
    if regime == "sdc":
        shape = n ** (1 - alpha) * ln1 ** 3
    elif regime == "dc":
        if A is None:
            raise ValueError("dc regime needs A")
        shape = n ** (A - alpha) * ln1
    elif regime == "beta":
        if beta is None:
            raise ValueError("beta regime needs beta")
        expo = beta * n + (1 - alpha) * math.log(n)
        shape = math.inf if expo > 700 else math.exp(expo)
    else:
        raise ValueError(f"unknown regime {regime!r}")
    return SumQsResult(s=s, n=n, exact_sum=total, shape_value=shape)
