"""Fourier coefficients, summability kernels and trigonometric approximation.

Conventions: e(x) = exp(2*pi*i*x); the k-th Fourier coefficient of phi is
the integral of phi(x) e(-k x) over the torus, computed here by uniform-grid
quadrature (exact for trigonometric polynomials once the grid outruns the
degrees involved, O(w(1/Q)) otherwise).  A degree-n kernel is the centred
array w of its 2n + 1 coefficients, w[n + k] for k = -n..n.
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


def coeff_sum(w, x) -> np.ndarray | float:
    """Re sum_k w_k e(kx) over a centred coefficient array, one term at a
    time: the direct-sum oracle for the closed forms and the inverse FFT."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(np.shape(x), dtype=complex)
    for k, c in enumerate(w, start=-(len(w) // 2)):
        out += c * np.exp(2j * math.pi * k * x)
    re = np.real(out)
    return float(re) if re.ndim == 0 else re


def dirichlet(n: int, x) -> np.ndarray | float:
    """D_n(x) = sum_{|k|<=n} e(kx) = sin((2n+1) pi x)/sin(pi x)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    x = np.asarray(x, dtype=float)
    xr = x - np.round(x)  # the ratio form is invariant under x -> x +- 1
    # np.sinc(t) = sin(pi t) / (pi t), 1 at t = 0
    out = (2 * n + 1) * np.sinc((2 * n + 1) * xr) / np.sinc(xr)
    return float(out) if out.ndim == 0 else out


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


def fejer_coeffs(n: int) -> np.ndarray:
    """F_n's coefficients, the triangle 1 - |k|/n for k = -n..n."""
    return 1.0 - np.abs(np.arange(-n, n + 1)) / n


def jackson_coeffs(n: int) -> np.ndarray:
    """Coefficients of the degree-<=n positive kernel with unit mass.

    Built as c_n * F_m^2 with m = n//2: the coefficient sequence is the
    autocorrelation of the triangle coefficients, normalized exactly by its
    own 0-lag value (integer arithmetic), so the centre is 1.0 exactly.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    m = n // 2
    tri = m - np.abs(np.arange(1 - m, m))
    corr = np.convolve(tri, tri)  # lags -(2m-2) .. (2m-2), integer exact
    return np.pad(corr / corr[2 * m - 2], n - (2 * m - 2))


def jackson_closed_form(n: int, x) -> np.ndarray | float:
    """c_n F_m(x)^2 evaluated directly; cross-check for the coefficient form.
    c_n = m^2 / c0, c0 = sum_{|j|<m} (m - |j|)^2 = m (2 m^2 + 1) / 3."""
    m = n // 2
    f = np.asarray(fejer(m, x), dtype=float)
    out = f * f * (3 * m / (2 * m * m + 1))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# quadrature and approximation
# ---------------------------------------------------------------------------

_ERROR_POINTS = 1 << 13  # where approximation_error takes its sup


def _grid_spectrum(phi: Observable, Q: int) -> np.ndarray:
    """All Fourier coefficients at once, c_k at index k mod Q, from an FFT
    of Q samples of the one-dimensional phi."""
    vals = np.asarray(phi.fn(np.arange(Q) / Q), dtype=float)
    return np.fft.fft(vals) / Q


def approximate(phi: Observable, kernel: np.ndarray) -> np.ndarray:
    """Degree-n smoothing: phi's coefficients times the kernel's, as a
    centred array over k = -n..n.

    phi's coefficients come from one FFT over 8n grid points, identical to
    per-k quadrature on that grid.
    """
    n = len(kernel) // 2
    return _grid_spectrum(phi, 8 * n)[np.arange(-n, n + 1)] * kernel


def _fft_values(coeffs: np.ndarray) -> np.ndarray:
    """Re sum_k c_k e(kx) at x = j / 2**13 from one inverse FFT of the
    centred array over M >= 2n + 1 points, a power of two."""
    n = len(coeffs) // 2
    M = max(_ERROR_POINTS, 1 << (2 * n).bit_length())
    buf = np.zeros(M, dtype=complex)
    buf[np.arange(-n, n + 1)] = coeffs
    return np.fft.ifft(buf, norm="forward")[::M // _ERROR_POINTS].real


def approximation_error(phi: Observable, kernel: np.ndarray) -> float:
    """The sup distance from phi to approximate(phi, kernel) over 2**13
    uniform points."""
    xs = np.arange(_ERROR_POINTS) / _ERROR_POINTS
    return float(np.max(np.abs(phi.fn(xs) - _fft_values(approximate(phi, kernel)))))
