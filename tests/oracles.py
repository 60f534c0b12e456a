"""Reference helpers shared by the tests; the library itself calls none.

Each is a direct, unoptimised computation that tests compare library
output against or build inputs from: the distance to the nearest integer
from an exact fixed-point numerator, ||k omega||, a frequency as a double,
a sampled Holder quotient and the Hermitian symmetry of
trigonometric-polynomial coefficients.
"""

from typing import Optional

import numpy as np

from ergorate.arithmetic import Frequency
from ergorate.kernels import Observable, TrigPoly


def fp_dist_to_Z(value: int, bits: int) -> float:
    """``||value / 2**bits||`` computed from the exact integer numerator."""
    one = 1 << bits
    v = value & (one - 1)
    return min(v, one - v) / one


def norm_k_omega(omega: Frequency, k: int, bits: Optional[int] = None) -> float:
    """||k * omega|| from the exact fixed-point product."""
    bits = bits or omega.fractional_bits
    w = omega.fixed_point(bits)
    return fp_dist_to_Z(k * w, bits)


def float_value(omega: Frequency) -> float:
    """omega as a double, from its certified 64-bit fixed-point value."""
    return omega.fixed_point(64) / 2.0 ** 64


def sampled_holder_quotient(phi: Observable, alpha: float, n_pairs: int = 1000,
                            seed: int = 11) -> float:
    """Max sampled |phi(x+h) - phi(x)| / h**alpha over dyadic h."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for k in range(4, 21):
        h = 2.0 ** -k
        if phi.dim == 1:
            xs = rng.random(n_pairs)
            d = np.abs(phi.fn(xs + h) - phi.fn(xs))
        else:
            xs = rng.random((n_pairs, phi.dim))
            shift = np.zeros(phi.dim)
            shift[0] = h
            d = np.abs(phi.fn(xs + shift) - phi.fn(xs))
        worst = max(worst, float(d.max()) / h ** alpha)
    return worst


def is_hermitian(tp: TrigPoly, tol: float = 1e-12) -> bool:
    """c_{-k} = conj(c_k) for every stored k: the polynomial is real."""
    for k, c in tp.coeffs.items():
        mk = tuple(-i for i in k)
        if abs(np.conj(tp.coeffs.get(mk, 0.0)) - c) > tol:
            return False
    return True
