"""Fourier coefficients, summability kernels and trigonometric approximation.

Conventions: e(x) = exp(2*pi*i*x); the k-th Fourier coefficient of phi is
the integral of phi(x) e(-k x) over the torus, computed here by uniform-grid
quadrature (exact for trigonometric polynomials once the grid outruns the
degrees involved, O(w(1/Q)) otherwise).  A degree-n kernel is the centred
array w of its 2n + 1 coefficients, w[n + k] for k = -n..n.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .arithmetic import dist_to_Z

TWO_PI = 2.0 * math.pi

# ---------------------------------------------------------------------------
# moduli of continuity
# ---------------------------------------------------------------------------


class Holder:
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

    `fn` must be vectorized and 1-periodic (grid sweeps pass coordinates in
    [0, 2)): for dim == 1 it maps an ndarray of positions to values; for
    dim >= 2 it takes an ndarray of shape (..., dim).  An fn that GridSweep
    sums pointwise (phi has no finite spectrum) takes numpy's `out`: given
    it, fn writes its values there and returns it, else a new array; it
    never writes into x.  `norm_est` is an upper bound on the w-Holder norm
    when known analytically, otherwise a sampled lower-bound estimate.  `mean_hint` is the declared exact mean
    over the torus, which `mean` returns.  `fourier`, when set, is the finite
    spectrum {k: c_k} (k an integer tuple of length dim) with
    fn(x) = Re sum_k c_k e(k . x).
    """

    dim: int
    fn: Callable
    modulus: Holder
    norm_est: float
    mean_hint: float
    fourier: Optional[dict] = None

    def __call__(self, x):
        return self.fn(x)

    @functools.cached_property
    def _error_samples(self):  # fn at approximation_error's points, once
        return self.fn(np.arange(_ERROR_POINTS) / _ERROR_POINTS)

    def mean(self) -> float:
        return self.mean_hint


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

    def fn(x, out=None):
        x = np.asarray(x, dtype=float)
        cols = x[..., None] if dim == 1 else x  # positions, read as (..., 1)
        if out is None:
            out = np.zeros(cols.shape[:-1])
        else:
            out.fill(0.0)
        if trig is not None:
            out += trig.eval(x)
        for axis, sub in axis_terms:
            out += sub.fn(cols[..., axis])
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
    return SeparableObservable(
        dim=dim, fn=fn, modulus=modulus, norm_est=norm, mean_hint=mean,
        trig=trig, axis_terms=axis_terms,
    )


def make_dist_pow(alpha: float, dim: int = 1) -> Observable:
    """phi(x) = ||x||**alpha (distance to the nearest integer, first axis)."""

    def fn(x, out=None):
        x = np.asarray(x, dtype=float)
        # out or a new array, so powered in place
        u = dist_to_Z(x if dim == 1 else x[..., 0], out=out)
        if alpha == 0.5:
            return np.sqrt(u, out=u if u.ndim else None)
        u **= alpha
        return u

    modulus = Holder(alpha)  # checks alpha before the mean divides by 1 + alpha
    # sup = (1/2)^alpha; Holder seminorm is exactly 1 (attained at 0)
    norm = 0.5 ** alpha + 1.0
    mean = 0.5 ** alpha / (1.0 + alpha)
    return Observable(dim=dim, fn=fn, modulus=modulus, norm_est=norm,
                      mean_hint=mean)


def make_cos(dim: int = 1) -> Observable:
    def fn(x):
        x = np.asarray(x, dtype=float)
        return np.cos(TWO_PI * (x if dim == 1 else x[..., 0]))

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


def make_weierstrass(modulus: Holder) -> Observable:
    """phi(x) = sum_{m=1}^{24} w(2^-m) cos(2 pi 2^m x), the classical rough
    test function."""

    weights = np.array([modulus(2 ** -m) for m in range(1, 25)])
    freqs = np.array([2 ** m for m in range(1, 25)], dtype=float)

    def fn(x):
        x = np.asarray(x, dtype=float)
        return np.cos(TWO_PI * np.multiply.outer(x, freqs)) @ weights

    fourier = {(s * 2 ** m,): float(w) / 2.0
               for m, w in enumerate(weights, start=1) for s in (1, -1)}
    return Observable(
        dim=1, fn=fn, modulus=modulus,
        norm_est=round_up(float(weights.sum()) + seminorm_bound(
            freqs, weights, modulus), len(weights) + 1),
        mean_hint=0.0,
        fourier=fourier,
    )


def seminorm_bound(freqs: np.ndarray, weights: np.ndarray,
                   modulus: Holder) -> float:
    """The Holder seminorm bound of sum_m w_m cos(2 pi f_m x), w_m >= 0 and
    f_m > 0: the largest B(h) / h^alpha over 0 < h <= 1/2, where B(h) =
    sum_m w_m min(2, 2 pi f_m h) bounds |phi(x + h) - phi(x)|.  Between the
    kinks h_m = 1 / (pi f_m) the quotient is a h^-alpha + b h^(1 - alpha),
    a, b >= 0, whose only stationary point is a minimum, so the largest
    value lies at a kink or at 1/2: one (M + 1) x M product, its M-term sums
    rounded up by round_up.  NaN if any quotient is NaN."""
    h = np.minimum(np.append(1.0 / (np.pi * freqs), 0.5), 0.5)
    terms = np.multiply.outer(h, TWO_PI * freqs)  # one (M + 1, M) array
    np.minimum(terms, 2.0, out=terms)
    terms *= weights
    semi = float(np.max(np.sum(terms, axis=1) / h ** modulus.alpha))
    return round_up(semi, len(freqs))


def round_up(total: float, n: int) -> float:
    """total, the float sum of n terms >= 0, raised by n + 8 ulps past the
    rounding of its additions (and of one division), then one ulp more."""
    return math.nextafter(total * (1 + (n + 8) * 2.0 ** -53), math.inf)


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

    def coeff(self, k) -> complex:
        k = (k,) if isinstance(k, int) else k
        return self.coeffs.get(tuple(int(i) for i in k), 0.0 + 0.0j)

    def eval(self, x):
        """Direct coefficient-sum evaluation; x is (..., dim), and in dim 1
        a scalar or array of positions, read as (..., 1)."""
        x = np.asarray(x, dtype=float)
        if self.dim == 1:
            x = x[..., None]
        out = np.zeros(x.shape[:-1], dtype=complex)
        for k, c in self.coeffs.items():
            phase = np.tensordot(x, np.array(k, dtype=float), axes=([-1], [0]))
            out = out + c * np.exp(2j * math.pi * phase)
        return np.real(out)

    def to_observable(self, modulus: Optional[Holder] = None) -> Observable:
        """Wrap as a real observable with an analytic Holder-norm bound."""
        modulus = modulus or Holder(1.0)
        sup = float(sum(abs(c) for c in self.coeffs.values()))
        lip = float(sum(
            TWO_PI * max((abs(i) for i in k), default=0) * abs(c)
            for k, c in self.coeffs.items()
        ))
        if modulus.alpha < 1.0:
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
    return float(np.max(np.abs(phi._error_samples
                               - _fft_values(approximate(phi, kernel)))))
