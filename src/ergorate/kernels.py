"""Fourier coefficients, summability kernels and trigonometric approximation.

Conventions: e(x) = exp(2*pi*i*x); the k-th Fourier coefficient of phi is
the integral of phi(x) e(-k x) over the torus, computed here by uniform-grid
quadrature (exact for trigonometric polynomials once the grid outruns the
degrees involved, O(w(1/Q)) otherwise).

The smoothing kernel is built by squaring the triangular-coefficient kernel
of half the degree and renormalizing so the 0-coefficient is exactly 1; the
normalization happens in coefficient space with integer arithmetic, so mass
conservation is exact rather than quadrature-approximate.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .arithmetic import dist_to_Z

TWO_PI = 2.0 * math.pi

# quadrature points of Observable.mean when no exact mean is declared
_MEAN_QUAD_POINTS = 1 << 16


# ---------------------------------------------------------------------------
# moduli of continuity
# ---------------------------------------------------------------------------


class ModulusOfContinuity:
    """Strictly increasing, sub-additive gauge with w(0) = 0."""

    def __call__(self, h: float) -> float:
        raise NotImplementedError


class Holder(ModulusOfContinuity):
    """w(h) = h**alpha, 0 < alpha <= 1."""

    def __init__(self, alpha: float):
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha

    def __call__(self, h):
        return h ** self.alpha if h > 0 else 0.0


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------


@dataclass
class Observable:
    """A real function on the d-torus with declared regularity.

    `fn` must be vectorized: for dim == 1 it maps an ndarray of positions to
    values; for dim >= 2 it takes an ndarray of shape (..., dim).  `norm_est`
    is an upper bound on the w-Holder norm when known analytically, otherwise
    a sampled lower-bound estimate.  `fourier`, when set, is the finite
    spectrum {k: c_k} (k an integer tuple of length dim) with
    fn(x) = Re sum_k c_k e(k . x).
    """

    dim: int
    fn: Callable
    modulus: ModulusOfContinuity
    norm_est: float
    mean_hint: Optional[float] = None
    fourier: Optional[dict] = None

    def __call__(self, x):
        return self.fn(x)

    def mean(self) -> float:
        if self.mean_hint is not None:
            return self.mean_hint
        if self.dim == 1:
            xs = (np.arange(_MEAN_QUAD_POINTS) + 0.5) / _MEAN_QUAD_POINTS
            return float(np.mean(self.fn(xs)))
        side = max(64, int(round(_MEAN_QUAD_POINTS ** (1.0 / self.dim))))
        axes = [(np.arange(side) + 0.5) / side] * self.dim
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        return float(np.mean(self.fn(mesh)))


@dataclass
class SeparableObservable(Observable):
    """Sum of an exact trigonometric polynomial and per-axis 1-d terms.

    The split lets rotation experiments take the trig part's orbit sums in
    closed form and each axis term as a 1-d field on its own axis, instead
    of brute-forcing the full product grid.
    """

    trig: Optional["TrigPoly"] = None
    axis_terms: tuple = ()  # tuple of (axis index, 1-d Observable)


def make_separable(dim: int, trig: Optional["TrigPoly"],
                   axis_terms: Sequence) -> "SeparableObservable":
    """Combine a trig polynomial and per-axis 1-d observables by summation.

    Norm estimates add (triangle inequality in the common modulus); the mean
    is the polynomial's constant coefficient plus the axis means.
    """
    axis_terms = tuple(axis_terms)
    modulus = axis_terms[0][1].modulus if axis_terms else Holder(1.0)

    def fn(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1])
        if trig is not None:
            out = out + trig.eval(x)
        for axis, sub in axis_terms:
            out = out + sub.fn(x[..., axis])
        return out

    mean = 0.0
    norm = 0.0
    if trig is not None:
        tobs = trig.to_observable(modulus)
        mean += tobs.mean_hint
        norm += tobs.norm_est
    for _, sub in axis_terms:
        mean += sub.mean()
        norm += sub.norm_est
    fourier = None if axis_terms else dict(trig.coeffs if trig else {})
    return SeparableObservable(
        dim=dim, fn=fn, modulus=modulus, norm_est=norm, mean_hint=mean,
        fourier=fourier, trig=trig, axis_terms=axis_terms,
    )


def make_dist_pow(alpha: float, dim: int = 1) -> Observable:
    """phi(x) = ||x||**alpha (distance to the nearest integer, first axis)."""

    def fn(x):
        x = np.asarray(x, dtype=float)
        u = dist_to_Z(x if dim == 1 else x[..., 0])
        return np.sqrt(u) if alpha == 0.5 else u ** alpha

    modulus = Holder(alpha)  # checks alpha before the mean divides by 1 + alpha
    # sup = (1/2)^alpha; Holder seminorm is exactly 1 (attained at 0)
    norm = 0.5 ** alpha + 1.0
    mean = 0.5 ** alpha / (1.0 + alpha)
    return Observable(dim=dim, fn=fn, modulus=modulus, norm_est=norm,
                      mean_hint=mean)


def make_cos(dim: int = 1) -> Observable:
    if dim == 1:
        def fn(x):
            return np.cos(TWO_PI * np.asarray(x, dtype=float))
    else:
        def fn(x):
            return np.cos(TWO_PI * np.asarray(x, dtype=float)[..., 0])

    return Observable(
        dim=dim, fn=fn, modulus=Holder(1.0), norm_est=1.0 + TWO_PI,
        mean_hint=0.0,
        fourier={(s,) + (0,) * (dim - 1): 0.5 for s in (1, -1)},
    )


def make_coboundary(omega_value: float = 0.5 * (5 ** 0.5 - 1)) -> Observable:
    """psi(x + omega) - psi(x) with psi = cos(2 pi x); Birkhoff sums telescope."""
    if not math.isfinite(omega_value):
        raise ValueError(f"coboundary omega must be finite, got {omega_value}")

    def fn(x):
        x = np.asarray(x, dtype=float)
        return np.cos(TWO_PI * (x + omega_value)) - np.cos(TWO_PI * x)

    c = (cmath.exp(2j * math.pi * omega_value) - 1.0) / 2.0
    return Observable(
        dim=1, fn=fn, modulus=Holder(1.0), norm_est=2.0 * (1.0 + TWO_PI),
        mean_hint=0.0,
        fourier={(1,): c, (-1,): c.conjugate()},
    )


def make_weierstrass(modulus: ModulusOfContinuity, base: int = 2,
                     terms: int = 24) -> Observable:
    """phi(x) = sum_m w(b^-m) cos(2 pi b^m x), the classical rough test function."""

    weights = np.array([modulus(base ** -m) for m in range(1, terms + 1)])
    freqs = np.array([base ** m for m in range(1, terms + 1)], dtype=float)

    def fn(x):
        x = np.asarray(x, dtype=float)
        return np.cos(TWO_PI * np.multiply.outer(x, freqs)) @ weights

    # rigorous per-h bound sum_m w_m min(2, 2 pi b^m h), maximized over a
    # log grid of offsets; the sup norm adds sum w_m
    semi = 0.0
    for k in range(2, 40):
        h = 2.0 ** -k
        semi = max(semi, float(np.minimum(2.0, TWO_PI * freqs * h) @ weights)
                   / modulus(h))
    fourier = {(s * base ** m,): float(w) / 2.0
               for m, w in enumerate(weights, start=1) for s in (1, -1)}
    return Observable(
        dim=1, fn=fn, modulus=modulus,
        norm_est=float(weights.sum()) + semi,
        mean_hint=0.0,
        fourier=fourier,
    )


def make_observable(key: str, dim: int = 1) -> Observable:
    """Registry lookup: "dist_pow:a", "cos", "coboundary[:omega]", "weierstrass_w:a"."""
    name, *params = key.split(":")
    match name, params:
        case "dist_pow", [alpha]:
            return make_dist_pow(float(alpha), dim)
        case "cos", []:
            return make_cos(dim)
        case "coboundary", [] | [_]:
            return make_coboundary(*map(float, params))
        case "weierstrass_w", [alpha]:
            return make_weierstrass(Holder(float(alpha)))
    raise KeyError(
        f"unknown observable {key!r} (frequency-coupled keys like "
        f"'lacunary:...' resolve through the experiment harness)"
    )


# ---------------------------------------------------------------------------
# trigonometric polynomials
# ---------------------------------------------------------------------------


@dataclass
class TrigPoly:
    """Finitely supported Fourier coefficients on Z^d (sup-norm degree)."""

    dim: int
    coeffs: dict  # tuple[int,...] -> complex

    @property
    def degree(self) -> int:
        if not self.coeffs:
            return 0
        return max(max(abs(i) for i in k) for k in self.coeffs)

    def coeff(self, k) -> complex:
        k = (k,) if isinstance(k, int) else k
        return self.coeffs.get(tuple(int(i) for i in k), 0.0 + 0.0j)

    def eval(self, x):
        """Direct coefficient-sum evaluation; x is scalar/array (dim 1) or
        (..., dim)."""
        if self.dim == 1:
            x = np.asarray(x, dtype=float)
            out = np.zeros(np.shape(x), dtype=complex)
            for (k,), c in self.coeffs.items():
                out = out + c * np.exp(2j * math.pi * k * x)
            return np.real(out)
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1], dtype=complex)
        for k, c in self.coeffs.items():
            phase = np.tensordot(x, np.array(k, dtype=float), axes=([-1], [0]))
            out = out + c * np.exp(2j * math.pi * phase)
        return np.real(out)

    def to_observable(self, modulus: Optional[ModulusOfContinuity] = None) -> Observable:
        """Wrap as a real observable with an analytic Holder-norm bound."""
        modulus = modulus or Holder(1.0)
        sup = float(sum(abs(c) for c in self.coeffs.values()))
        lip = float(sum(
            TWO_PI * max((abs(i) for i in k), default=0) * abs(c)
            for k, c in self.coeffs.items()
        ))
        if isinstance(modulus, Holder) and modulus.alpha < 1.0:
            # |P(x)-P(y)| <= min(2 sup, L h): / h^alpha maximized at h*=2 sup/L
            semi = (2 * sup) ** (1 - modulus.alpha) * lip ** modulus.alpha \
                if lip > 0 else 0.0
        else:
            semi = lip
        mean = float(np.real(self.coeff((0,) * self.dim)))
        return Observable(
            dim=self.dim, fn=self.eval, modulus=modulus,
            norm_est=sup + semi, mean_hint=mean,
            fourier=dict(self.coeffs),
        )


def random_real_trigpoly(dim: int, degree: int, seed: int = 0,
                         scale: float = 1.0) -> TrigPoly:
    """Random real trig polynomial (Hermitian coefficients), for tests."""
    rng = np.random.default_rng(seed)
    coeffs: dict = {}
    ranges = [range(-degree, degree + 1)] * dim
    for k in itertools.product(*ranges):
        if k in coeffs or tuple(-i for i in k) in coeffs:
            continue
        if all(i == 0 for i in k):
            coeffs[k] = complex(rng.normal() * scale, 0.0)
            continue
        c = complex(rng.normal(), rng.normal()) * scale / 2
        coeffs[k] = c
        coeffs[tuple(-i for i in k)] = np.conj(c)
    return TrigPoly(dim=dim, coeffs=coeffs)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def dirichlet(n: int, x) -> np.ndarray | float:
    """D_n(x) = sum_{|k|<=n} e(kx) = sin((2n+1) pi x)/sin(pi x)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    x = np.asarray(x, dtype=float)
    xr = x - np.round(x)  # the ratio form is invariant under x -> x +- 1
    # np.sinc(t) = sin(pi t) / (pi t), 1 at t = 0
    out = (2 * n + 1) * np.sinc((2 * n + 1) * xr) / np.sinc(xr)
    return float(out) if out.ndim == 0 else out


def dirichlet_coeff_sum(n: int, x) -> np.ndarray | float:
    """Direct (2n+1)-term summation; the oracle for the closed form."""
    x = np.asarray(x, dtype=float)
    out = np.ones(np.shape(x), dtype=complex)
    for k in range(1, n + 1):
        out += np.exp(2j * math.pi * k * x) + np.exp(-2j * math.pi * k * x)
    re = np.real(out)
    return float(re) if re.ndim == 0 else re


def fejer(n: int, x) -> np.ndarray | float:
    """F_n(x) = sum_{|k|<=n} (1 - |k|/n) e(kx) = (1/n) (sin(n pi x)/sin(pi x))^2.

    The coefficient form is normative; the closed form (stated with its
    half-angle convention elsewhere) is evaluated with argument pi*x under
    e(x) = exp(2 pi i x).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    x = np.asarray(x, dtype=float)
    xr = x - np.round(x)
    ratio = np.sinc(n * xr) / np.sinc(xr)
    out = n * ratio * ratio
    return float(out) if out.ndim == 0 else out


def fejer_coeff_sum(n: int, x) -> np.ndarray | float:
    x = np.asarray(x, dtype=float)
    out = np.ones(np.shape(x), dtype=complex)
    for k in range(1, n):
        w = 1.0 - k / n
        out += w * (np.exp(2j * math.pi * k * x) + np.exp(-2j * math.pi * k * x))
    re = np.real(out)
    return float(re) if re.ndim == 0 else re


def jackson_coeffs(n: int) -> dict:
    """Coefficients of the degree-<=n positive kernel with unit mass.

    Built as c_n * F_m^2 with m = n//2: the coefficient sequence is the
    autocorrelation of the triangle coefficients, normalized exactly by its
    own 0-lag value (integer arithmetic), so coeff[0] == 1.0 exactly.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    m = n // 2
    tri = np.array([m - abs(j) for j in range(-(m - 1), m)], dtype=np.int64)
    corr = np.convolve(tri, tri)  # lags -(2m-2) .. (2m-2), integer exact
    center = len(corr) // 2
    c0 = int(corr[center])
    coeffs = {}
    for i, v in enumerate(corr):
        k = i - center
        if v:
            coeffs[(k,)] = complex(int(v) / c0, 0.0)
    return coeffs


def jackson(n: int) -> TrigPoly:
    return TrigPoly(dim=1, coeffs=jackson_coeffs(n))


def jackson_closed_form(n: int, x) -> np.ndarray | float:
    """c_n F_m(x)^2 evaluated directly; cross-check for the coefficient form."""
    m = n // 2
    tri = np.array([m - abs(j) for j in range(-(m - 1), m)], dtype=np.int64)
    c0 = int(np.convolve(tri, tri)[2 * m - 2])
    f = np.asarray(fejer(m, x), dtype=float)
    out = f * f * (m * m / c0)
    return float(out) if out.ndim == 0 else out


def jackson_d(n: int, d: int) -> TrigPoly:
    """Tensor-product kernel: coefficient at k is the product over axes."""
    if d < 1:
        raise ValueError("d must be >= 1")
    base = jackson_coeffs(n)
    coeffs: dict = {}
    keys = sorted(base)
    for combo in itertools.product(keys, repeat=d):
        k = tuple(c[0] for c in combo)
        v = 1.0
        for c in combo:
            v *= base[c].real
        coeffs[k] = complex(v, 0.0)
    return TrigPoly(dim=d, coeffs=coeffs)


# ---------------------------------------------------------------------------
# quadrature and approximation
# ---------------------------------------------------------------------------


def _grid_spectrum(phi: Observable, Q: int) -> np.ndarray:
    """All Fourier coefficients at once from an FFT of the sample grid."""
    if phi.dim == 1:
        xs = np.arange(Q) / Q
        vals = np.asarray(phi.fn(xs), dtype=float)
        return np.fft.fft(vals) / Q
    axes = [np.arange(Q) / Q] * phi.dim
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    vals = np.asarray(phi.fn(mesh), dtype=float)
    return np.fft.fftn(vals) / Q ** phi.dim


def approximate(phi: Observable, n: int, quad_points: Optional[int] = None) -> TrigPoly:
    """Degree-<=n smoothing: multiply phi's coefficients by the kernel's.

    Coefficients of phi come from one FFT over a grid of `quad_points` per
    axis (default 8*n*dim), identical to per-k quadrature on that grid.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    Q = quad_points or 8 * n * phi.dim
    kern = jackson_d(n, phi.dim)
    spec = _grid_spectrum(phi, Q)
    coeffs = {}
    for k, jc in kern.coeffs.items():
        idx = tuple(i % Q for i in k)
        coeffs[k] = complex(spec[idx]) * jc
    return TrigPoly(dim=phi.dim, coeffs=coeffs)


def approximation_errors(phi: Observable, ns: Sequence[int]) -> list:
    """One row {n, sup_error, n_coeffs} per degree n: the sup distance
    from phi to approximate(phi, n) over 2**13 uniform points."""
    xs = np.arange(1 << 13) / (1 << 13)
    ref = phi.fn(xs)
    rows = []
    for n in ns:
        poly = approximate(phi, n)
        err = float(np.max(np.abs(ref - poly.eval(xs))))
        rows.append({"n": n, "sup_error": err, "n_coeffs": len(poly.coeffs)})
    return rows
