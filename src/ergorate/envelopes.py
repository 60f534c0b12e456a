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

from .errors import DomainError

# fit_scale's tail: the trailing third of the points
_TAIL_FRACTION = 1.0 / 3.0

# each envelope kind and the parameters its shape reads; a text key may
# set only these
_READS = {"dk": ("alpha",), "sdc": ("alpha",), "beta": ("alpha",),
          "dc": ("alpha", "A"), "transd": ("alpha", "A", "d"),
          "skew": ("alpha", "d", "eps")}


@dataclass
class Envelope:
    """A positive, decreasing-in-N comparison curve with a fitted scale."""

    kind: str
    alpha: float = 0.5
    A: Optional[float] = None
    d: Optional[int] = None
    eps: float = 0.05
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
        if self.kind == "transd":
            return N ** (-a / (self.A + self.d))
        if self.kind == "skew":
            return N ** (-skew_exponent(a, self.d) + self.eps)
        raise AssertionError

    def value(self, N: int) -> float:
        return self.scale * self.shape(N)

    @staticmethod
    def parse(text: str) -> "Envelope":
        """Parse e.g. "sdc:alpha=0.5" or "skew:alpha=0.5,d=2,eps=0.05"; a
        name the kind's shape does not read is refused."""
        kind, _, body = text.partition(":")
        textual = {p for reads in _READS.values() for p in reads}
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
