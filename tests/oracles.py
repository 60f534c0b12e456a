"""Reference helpers shared by the tests; the library itself calls none.

Each is a direct, unoptimised computation that tests compare library
output against or build inputs from: the distance to the nearest integer
from an exact fixed-point numerator, from a double by np.mod and from a
double exactly in Fractions,
||k omega||, a frequency as a double, a sampled Holder quotient, the
Hermitian symmetry of trigonometric-polynomial coefficients, the pointwise
grid field of a 1-d rotation in one fresh pass, the grid field of any
system by one exact orbit per grid point, the averaged exponential sum
E_N(t) in its sine-ratio form one Python float at a time, the closed-form
grid field with every mode phase formed afresh, the lacunary direct sum one mode at a time
(by the library's factored row sums, by its terms one at a time, by one
libm cosine per term, and in mpmath), the kernel sums (by kernel_table's angle addition one term at a
time, by two libm sines per term, and in mpmath), a skew character sum in
mpmath along the exact orbit of `step`, the lacunary seminorm
bound by a scalar loop, the seminorm quotients at the kinks and the
doubling-chain tails of the weights in mpmath, one Fourier coefficient by
its own quadrature sum, and the integer that Ostrowski digits encode.
"""

import itertools
import math
from fractions import Fraction
from typing import Optional, Sequence

import mpmath
import numpy as np

from ergorate.arithmetic import ContinuedFraction, Frequency, fp_signed
from ergorate.dynamics import (_KERNEL_ROW, SystemSpec, TorusPoint,
                               birkhoff_sum, grid_point, orbit_floats, step)
from ergorate import sharpness
from ergorate.kernels import TWO_PI, Observable, TrigPoly
from ergorate.sharpness import LacunaryObservable


def fp_dist_to_Z(value: int, bits: int) -> float:
    """``||value / 2**bits||`` computed from the exact integer numerator."""
    one = 1 << bits
    v = value & (one - 1)
    return min(v, one - v) / one


def fp_from_float_double(v: float, bits: int) -> int:
    """round((v % 1.0) * 2**bits) mod 2**bits through a double product:
    exact while 2**bits is a double (bits < 1024), an OverflowError above."""
    one = 1 << bits
    return int(round((v % 1.0) * one)) % one


def dist_to_Z_mod(t):
    """Distance from t to the nearest integer with the fractional part
    taken by np.mod, elementwise."""
    f = np.mod(t, 1.0)
    return np.minimum(f, 1.0 - f)


def dist_to_Z_exact(t: float) -> Fraction:
    """The exact distance from the finite double t to the nearest integer."""
    f = Fraction(t)
    return abs(f - round(f))


def norm_k_omega(omega: Frequency, k: int) -> float:
    """||k * omega|| from the exact fixed-point product."""
    return fp_dist_to_Z(k * omega.fixed_point(), omega.fractional_bits)


def float_value(omega: Frequency) -> float:
    """omega as a double, from its certified 64-bit fixed-point value."""
    return Frequency(omega.rep, 64).fixed_point() / 2.0 ** 64


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


def grid_sums_one_pass(sys: SystemSpec, phi: Observable, N: int,
                       grid: int) -> np.ndarray:
    """S_N phi on the grid x = g / grid for a 1-d rotation, in the summation
    order of the library's pointwise route written as one fresh pass: each
    whole orbit chunk is evaluated at once and summed along the orbit axis,
    and the chunk totals are Kahan-accumulated."""
    xs = np.arange(grid) / grid
    sums = np.zeros(grid)
    carry = np.zeros(grid)
    chunk = max(256, min(1 << 15, (1 << 22) // grid))
    for buf in orbit_floats(sys, TorusPoint.zero(1, sys.bits), N, chunk):
        s = np.asarray(phi.fn(np.mod(buf[:, None] + xs[None, :], 1.0)),
                       dtype=float).sum(axis=0)
        y = s - carry
        t = sums + y
        carry = (t - sums) - y
        sums = t
    return sums


def grid_sums_per_point(sys: SystemSpec, phi: Observable, N: int, grid: int,
                        cells=None) -> np.ndarray:
    """S_N phi at the grid points x = g / grid of any system, by one exact
    orbit (birkhoff_sum) per point.  With `cells`, a sequence of index
    tuples, it returns the sums at those points only, in order; without,
    the whole (grid,) * d field.  A grid that does not divide 2**bits gets
    each point rounded to the nearest fixed-point value."""
    whole = cells is None
    if whole:
        cells = list(itertools.product(range(grid), repeat=sys.dim))
    sums = np.array([birkhoff_sum(sys, phi, grid_point(idx, grid, sys.bits), N)
                     for idx in cells])
    return sums.reshape((grid,) * sys.dim) if whole else sums


def exp_sum_avg(t_fp: int, bits: int, N: int) -> complex:
    """(1/N) sum_{j<N} e(jt) for t = t_fp / 2**bits, in the sine-ratio form
    e((N-1)t/2) sin(pi N t) / (N sin(pi t)), one Python float at a time.

    t is taken as its signed representative in (-1/2, 1/2].  N t is split
    exactly into n + r with r centred in [-1/2, 1/2), so sin(pi N t) =
    (-1)**n sin(pi r), and (N-1) t is reduced mod 2 for the phase.  A sine
    that underflows to 0.0 for t != 0 (past 1074 bits) raises
    ZeroDivisionError.
    """
    one = 1 << bits
    half = one >> 1
    t = fp_signed(t_fp, bits)
    if t == 0:
        return 1.0 + 0.0j
    n, r = divmod(N * t + half, one)
    ratio = (math.sin(math.pi * ((r - half) / one))
             / (N * math.sin(math.pi * (t / one))))
    if n & 1:
        ratio = -ratio
    ratio = max(-1.0, min(1.0, ratio))
    theta = math.pi * ((((N - 1) * t + one) % (2 * one) - one) / one)
    return complex(ratio * math.cos(theta), ratio * math.sin(theta))


def spectral_sums_per_N(sys: SystemSpec, spectrum: dict, N: int,
                        grid: int) -> np.ndarray:
    """S_N phi on the grid x = g / grid for phi = Re sum_k c_k e(k . x) on a
    rotation, in closed form, with every mode's exact phase k . omega mod 1
    and grid cell k mod grid formed from scratch at this N: the frequencies
    are rebuilt here, so no fixed-point memo is read."""
    one = 1 << sys.bits
    ws = [Frequency(f.rep, f.fractional_bits).fixed_point() for f in sys.freqs]
    spec = np.zeros((grid,) * sys.dim, dtype=complex)
    for k, c in spectrum.items():
        t = sum(ki * wi for ki, wi in zip(k, ws)) % one
        cell = tuple(ki % grid for ki in k)
        spec[cell] += c * (N * exp_sum_avg(t, sys.bits, N))
    return np.real(np.fft.ifftn(spec)) * grid ** sys.dim


def _in_blocks(v: np.ndarray, rows: int) -> float:
    """The total of a 1-d array by one np.sum per block of `rows` entries,
    the block totals added left to right."""
    total = 0.0
    for lo in range(0, len(v), rows):
        total += float(np.sum(v[lo:lo + rows]))
    return total


def measure_average_per_mode(phi: LacunaryObservable, omega: Frequency,
                             x: TorusPoint, N: int) -> float:
    """(1/N) S_N phi(x) for a lacunary series by measure_average's factored
    formula, one mode after another, with every phase reduced by Python
    ints: with B = N up to 1024 and ceil(sqrt N) above, step j = a B + b has
    the term cos alpha_a cos beta_b - sin alpha_a sin beta_b, where alpha_a
    = (q x + a B s) mod 1 and beta_b = (b s) mod 1 (s = q omega mod 1) are
    rounded as int / int and scaled by 2 pi.  Row a sums to cos alpha_a C -
    sin alpha_a S, (C, S) the totals of cos beta_b and sin beta_b over b < B
    (over the last row's steps in the last row); every total, of the inner
    table and of the row sums, is taken by one np.sum per block of
    sharpness._SUB entries, read at call time, and the weighted mode sums
    are added left to right."""
    one = 1 << phi.bits
    w_fp = omega.fixed_point()
    B = N if N <= 1024 else math.isqrt(N - 1) + 1
    A, tail = -(-N // B), (N - 1) % B + 1
    rows_per_block = sharpness._SUB
    total = 0.0
    for q, w in zip(phi.qs, phi.weights):
        if w == 0.0:
            continue
        s, p0 = q * w_fp % one, q * x.coords[0] % one
        beta = TWO_PI * np.array([b * s % one / one for b in range(B)])
        cb, sb = np.cos(beta), np.sin(beta)
        C, S, Ct, St = (_in_blocks(v, rows_per_block)
                        for v in (cb, sb, cb[:tail], sb[:tail]))
        alpha = TWO_PI * np.array([(p0 + a * B * s) % one / one
                                   for a in range(A)])
        ca, sa = np.cos(alpha), np.sin(alpha)
        rows = ca * C - sa * S
        rows[-1] = ca[-1] * Ct - sa[-1] * St
        total += w * _in_blocks(rows, rows_per_block)
    return total / N


def measure_average_per_term(phi: LacunaryObservable, omega: Frequency,
                             x: TorusPoint, N: int) -> float:
    """(1/N) S_N phi(x) for a lacunary series term by term, one mode after
    another, with every phase reduced by Python ints: the formula of
    measure_average_per_mode, but every one of the N terms cos alpha_a cos
    beta_b - sin alpha_a sin beta_b formed from an outer product, each row
    of the term table (the last one only to N) summed by np.sum, the row
    sums by np.sum, and the weighted mode sums added left to right."""
    one = 1 << phi.bits
    w_fp = omega.fixed_point()
    B = N if N <= 1024 else math.isqrt(N - 1) + 1
    A = -(-N // B)
    total = 0.0
    for q, w in zip(phi.qs, phi.weights):
        if w == 0.0:
            continue
        s, p0 = q * w_fp % one, q * x.coords[0] % one
        beta = TWO_PI * np.array([b * s % one / one for b in range(B)])
        alpha = TWO_PI * np.array([(p0 + a * B * s) % one / one
                                   for a in range(A)])
        terms = (np.outer(np.cos(alpha), np.cos(beta))
                 - np.outer(np.sin(alpha), np.sin(beta))).reshape(-1)[:N]
        rows = [np.sum(terms[lo:lo + B]) for lo in range(0, N, B)]
        total += w * float(np.sum(np.array(rows)))
    return total / N


def measure_average_libm(phi: LacunaryObservable, omega: Frequency,
                         x: TorusPoint, N: int) -> float:
    """(1/N) S_N phi(x) for a lacunary series, one mode after another, by
    one libm cosine per term: each chunk of 2^20 steps builds a fresh index
    ramp j and the phases fl(ph0 + j * step) by np.mod from the doubles of
    the mode's start phase and step (an error of about N 2^-53 per term),
    and each mode's chunk totals are added before the next mode."""
    one = 1 << phi.bits
    w_fp = omega.fixed_point()
    total = 0.0
    for q, w in zip(phi.qs, phi.weights):
        if w == 0.0:
            continue
        step_f = ((q * w_fp) % one) / one
        ph0_f = ((q * x.coords[0]) % one) / one
        mode_sum = 0.0
        for lo in range(0, N, 1 << 20):
            js = np.arange(lo, min(N, lo + (1 << 20)), dtype=float)
            mode_sum += float(np.sum(np.cos(TWO_PI * np.mod(ph0_f + js * step_f, 1.0))))
        total += w * mode_sum
    return total / N


def measure_average_mpmath(phi: LacunaryObservable, omega: Frequency,
                           x: TorusPoint, N: int) -> float:
    """(1/N) S_N phi(x) for a lacunary series in mpmath at bits + 64 bits:
    every phase (q x + j q omega) mod 1 is an exact fixed-point integer,
    and every cosine and the whole sum are taken at that precision."""
    one = 1 << phi.bits
    w_fp = omega.fixed_point()
    with mpmath.workprec(phi.bits + 64):
        total = mpmath.mpf(0)
        for q, w in zip(phi.qs, phi.weights):
            s, p0 = q * w_fp % one, q * x.coords[0] % one
            mode_sum = mpmath.fsum(
                mpmath.cospi(mpmath.ldexp((p0 + j * s) % one, 1 - phi.bits))
                for j in range(N))
            total += mpmath.mpf(w) * mode_sum
        return float(total / N)


def char_sum_mpmath(sys: SystemSpec, k: Sequence[int], x: TorusPoint,
                    N: int) -> complex:
    """sum_{j<N} e(k . S^j x) in mpmath at 80 bits: each phase k . S^j x
    mod 1 is an exact fixed-point integer along the orbit of `step`."""
    one = 1 << x.bits
    terms = []
    with mpmath.workprec(80):
        for _ in range(N):
            t = sum(ki * c for ki, c in zip(k, x.coords)) % one
            terms.append(mpmath.expjpi(mpmath.ldexp(t, 1 - x.bits)))
            x = step(sys, x)
        return complex(mpmath.fsum(terms))


def kernel_rung(mags: np.ndarray, q: int, N: int) -> tuple:
    """The kernel sum over 1 <= |k| < q and its ratio against q log(q) / N,
    from the first q - 1 magnitudes of a table: twice their np.sum."""
    total = 2.0 * float(np.sum(mags[:q - 1]))
    return total, total * N / (q * math.log(q))


def kernel_table_oracle(omega: Frequency, N: int, terms: int) -> np.ndarray:
    """|E_N(k omega)| for k = 1..terms by kernel_table's formula, one term
    at a time, with every phase reduced by Python ints: for s = omega and
    s = N omega mod 1, k = a C + b (b < C = min(_KERNEL_ROW, terms + 1)) has
    |sin pi {k s}| = |sin(pi alpha) cos(pi beta) + cos(pi alpha) sin(pi
    beta)|, where alpha = (a C s) mod 1 and beta = (b s) mod 1 are rounded
    as int / int and scaled by pi; the magnitude is |sin pi {k N omega}| /
    (N |sin pi {k omega}|), capped at 1."""
    one = 1 << omega.fractional_bits
    w = omega.fixed_point()
    C = min(_KERNEL_ROW, terms + 1)
    ks = range(1, terms + 1)
    sines = []
    for s in (w, N * w % one):
        alpha = math.pi * np.array([k // C * C * s % one / one for k in ks])
        beta = math.pi * np.array([k % C * s % one / one for k in ks])
        sines.append(np.abs(np.sin(alpha) * np.cos(beta)
                            + np.cos(alpha) * np.sin(beta)))
    t, nt = sines
    return np.minimum(nt / (N * t), 1.0)


def kernel_sum_oracle(omega: Frequency, cf: ContinuedFraction, q_index: int,
                      N: int) -> tuple:
    """The kernel sum of rung q_index and its ratio, by two libm sines per
    term: {k omega} by a running big-integer sum, {k N omega} from its
    product, each rounded as int / int, and |sin(pi {k N omega})| / (N
    |sin(pi {k omega})|) capped at 1."""
    q = cf.q_at(q_index)
    bits = omega.fractional_bits
    w = omega.fixed_point()
    one = 1 << bits
    t_frac = np.empty(q - 1, dtype=float)
    nt_frac = np.empty(q - 1, dtype=float)
    acc = 0
    for k in range(1, q):
        acc = (acc + w) % one
        t_frac[k - 1] = acc / one
        nt_frac[k - 1] = ((N * acc) % one) / one
    mags = np.abs(np.sin(math.pi * nt_frac)) / (N * np.abs(np.sin(math.pi * t_frac)))
    np.minimum(mags, 1.0, out=mags)
    return kernel_rung(mags, q, N)


def kernel_sum_mpmath(omega: Frequency, cf: ContinuedFraction, q_index: int,
                      N: int) -> tuple:
    """The kernel sum of rung q_index and its ratio in mpmath at bits + 64
    bits: every phase (k omega) mod 1 and (k N omega) mod 1 is an exact
    fixed-point integer, and every sine, quotient and the sum are taken at
    that precision."""
    q = cf.q_at(q_index)
    bits = omega.fractional_bits
    w, one = omega.fixed_point(), 1 << bits
    with mpmath.workprec(bits + 64):
        total = 2 * mpmath.fsum(
            min(1, abs(mpmath.sinpi(mpmath.ldexp(N * k * w % one, -bits)))
                / (N * abs(mpmath.sinpi(mpmath.ldexp(k * w % one, -bits)))))
            for k in range(1, q))
        return float(total), float(total * N / (q * mpmath.log(q)))


def lacunary_seminorm(phi: LacunaryObservable) -> float:
    """The Holder seminorm bound of a lacunary series by a scalar loop: at
    each kink h = 1 / (pi q_k) (at most 1/2) and at h = 1/2, sum_k w_k
    min(2, 2 pi q_k h) is added one mode at a time, left to right, and
    divided by h**alpha; the bound is the largest quotient, NaN if any
    quotient is NaN."""
    qs = [float(min(q, 10 ** 300)) for q in phi.qs]
    semi = 0.0
    for h in [min(1 / (math.pi * q), 0.5) for q in qs] + [0.5]:
        bound = 0.0
        for q, w in zip(qs, phi.weights):
            bound += w * min(2.0, h * (TWO_PI * q))
        semi = float(np.max([semi, bound / h ** phi.modulus.alpha]))
    return semi


def kink_quotients_mpmath(freqs, weights, alpha: float) -> mpmath.mpf:
    """The largest sum_m w_m min(2, 2 pi f_m h) / h**alpha in mpmath over
    the exact kinks h = 1 / (pi f_m) and h = 1/2, from the exact integer
    frequencies and the weights' doubles."""
    with mpmath.workprec(128):
        ws = [mpmath.mpf(float(w)) for w in weights]
        hs = [1 / (mpmath.pi * int(f)) for f in freqs] + [mpmath.mpf(0.5)]
        return max(mpmath.fsum(w * min(2, 2 * mpmath.pi * int(f) * h)
                               for f, w in zip(freqs, ws))
                   / h ** mpmath.mpf(alpha)
                   for h in hs if h <= 0.5)


def weight_tail_mpmath(weight, q: int) -> mpmath.mpf:
    """sum_{j < 400} w(2^j q) in mpmath: a Holder weight's (2^j q)**-alpha
    or the analytic e**-(2^j q), for the exact integer q."""
    with mpmath.workprec(128):
        alpha = getattr(weight, "alpha", None)
        return mpmath.fsum(
            mpmath.mpf(q << j) ** -mpmath.mpf(alpha) if alpha is not None
            else mpmath.exp(-(q << j)) for j in range(400))


def exact_sum_mpmath(values) -> mpmath.mpf:
    """The exact sum of doubles in mpmath: 2200 bits hold every double's
    bits, from 2**-1074 to 2**1024, with room for the carries."""
    with mpmath.workprec(2200):
        return mpmath.fsum(mpmath.mpf(float(v)) for v in values)


def dense_seminorm(freqs, weights, alpha: float, points: int = 10 ** 4) -> float:
    """The largest sum_m w_m min(2, 2 pi f_m h) / h**alpha over `points`
    log-spaced h in [2**-4 / max f, 1/2]: the quotient
    kernels.seminorm_bound must dominate at every h."""
    freqs, weights = np.asarray(freqs, float), np.asarray(weights, float)
    h = np.logspace(math.log10(1 / 16 / freqs.max()), math.log10(0.5), points)
    bound = np.minimum(2.0, TWO_PI * np.multiply.outer(h, freqs)) @ weights
    return float(np.max(bound / h ** alpha))


def fourier_coefficient(phi: Observable, k, quad_points: Optional[int] = None) -> complex:
    """Uniform-grid quadrature of the defining integral (approximate).

    Exact for trig polynomials whenever quad_points outruns the spectrum
    (no aliasing); O(w(1/Q)) error otherwise.
    """
    if isinstance(k, int):
        k = (k,)
    k = tuple(int(i) for i in k)
    kmax = max((abs(i) for i in k), default=0)
    Q = quad_points or max(64, 8 * max(kmax, 1))
    if Q < 4 * max(kmax, 1):
        raise ValueError("quad_points must be >= 4 * max(|k|, 1) per dimension")
    if phi.dim == 1:
        xs = np.arange(Q) / Q
        vals = np.asarray(phi.fn(xs), dtype=float)
        return complex(np.sum(vals * np.exp(-2j * math.pi * k[0] * xs)) / Q)
    axes = [np.arange(Q) / Q] * phi.dim
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    vals = np.asarray(phi.fn(mesh), dtype=float)
    phase = np.zeros(vals.shape)
    for i, ki in enumerate(k):
        phase = phase + ki * mesh[..., i]
    return complex(np.sum(vals * np.exp(-2j * math.pi * phase)) / Q ** phi.dim)


def ostrowski_value(cf: ContinuedFraction, digits: Sequence[int]) -> int:
    """The integer b_0 + sum_n b_n q_n encoded by Ostrowski digits."""
    total = digits[0] if digits else 0
    for n in range(1, len(digits)):
        total += digits[n] * cf.q_at(n)
    return total
