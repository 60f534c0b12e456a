"""High-precision orbits, Birkhoff sums and averaged exponential sums.

Orbits advance in integer fixed point (value = coord / 2**bits), so the orbit
itself carries no drift: after N rotation steps the state equals the wide
product frac(x + N*omega) bit for bit.  Observables are evaluated in double
precision on arguments rounded from fixed point; the per-sample rounding
error is w(2**-52) * ||phi||_w, far below any deviation we measure.  Sums use
chunked pairwise summation with a compensated (Kahan) accumulation of chunk
totals.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .arithmetic import ContinuedFraction, Frequency, fp_from_float, fp_signed
from .errors import DimensionTooLarge, Uncertified, tick
from .kernels import TWO_PI, Observable, SeparableObservable, make_separable

# Grid sweeps refuse to enumerate more than this many points.
GRID_POINT_BUDGET = 1 << 18

# Values per block of the pointwise grid route (GridSweep): 128 KB of
# doubles.  Temporaries of this size reuse freed heap memory, where larger
# ones get fresh pages from the kernel and fault them in on every block.
_BLOCK_CELLS = 1 << 14

# Row width of kernel_table: fixed, so a table is a prefix of a longer one
_KERNEL_ROW = 1 << 10


# ---------------------------------------------------------------------------
# state and systems
# ---------------------------------------------------------------------------


def _fp_floats(values: Sequence[int], bits: int) -> np.ndarray:
    """The doubles v / 2**bits of fixed-point ints |v| <= 2**bits, each
    rounded once to nearest, as int / int rounds it.  Up to 1022 bits every
    nonzero quotient is normal, so rounding v to a double and scaling by the
    power of two gives the same double without a big-int division; past
    that a quotient can be subnormal, and int / int rounds it."""
    if bits <= 1022:
        return np.array(values, dtype=float) * 2.0 ** -bits
    one = 1 << bits
    return np.array([v / one for v in values])


@dataclass(frozen=True)
class TorusPoint:
    """Point on the d-torus in fixed point: coordinate i is coords[i]/2**bits."""

    coords: tuple
    bits: int

    def __post_init__(self):
        one = 1 << self.bits
        if any(not 0 <= c < one for c in self.coords):
            raise ValueError("coordinates must already be reduced mod 1")

    @classmethod
    def _reduced(cls, coords: tuple, bits: int) -> "TorusPoint":
        """A point from coordinates the caller has just reduced mod 2**bits,
        built without the check: step and iterate, which skew-product
        oracles call about 3e5 times each, reduce their own results."""
        x = object.__new__(cls)
        object.__setattr__(x, "coords", coords)
        object.__setattr__(x, "bits", bits)
        return x

    @property
    def dim(self) -> int:
        return len(self.coords)

    @staticmethod
    def from_floats(xs: Sequence[float], bits: int) -> "TorusPoint":
        return TorusPoint(tuple(fp_from_float(x, bits) for x in xs), bits)

    @staticmethod
    def zero(dim: int, bits: int) -> "TorusPoint":
        return TorusPoint((0,) * dim, bits)

    def to_floats(self) -> np.ndarray:
        return _fp_floats(self.coords, self.bits)


@dataclass(frozen=True)
class SystemSpec:
    """A measured system: a rotation of a torus or a skew product.

    rotation: x -> x + (omega_1, ..., omega_d) on the d-torus
    skew:     (x_1, ..., x_d) -> (x_1 + x_2, ..., x_{d-1} + x_d, x_d + omega)

    The fixed-point width is the frequencies' own, which they must share.
    """

    kind: str
    freqs: tuple
    dim: int

    def __post_init__(self):
        if self.kind not in ("rotation", "skew"):
            raise ValueError(f"unknown system kind {self.kind!r}")
        if self.kind == "rotation" and len(self.freqs) != self.dim:
            raise ValueError("a rotation needs one frequency per axis")
        if self.kind == "skew" and (self.dim < 2 or len(self.freqs) != 1):
            raise ValueError("skew product needs dim >= 2 and a single frequency")
        if len({f.fractional_bits for f in self.freqs}) > 1:
            raise ValueError("the frequencies of a system must share one width")

    @functools.cached_property
    def bits(self) -> int:
        return self.freqs[0].fractional_bits

    @functools.cached_property
    def omega_fp(self) -> tuple:
        """The fixed-point frequencies, computed once per instance (kept out
        of the dataclass fields, so equality and hashing ignore it)."""
        return tuple(f.fixed_point() for f in self.freqs)

    def chains(self, x: TorusPoint) -> list:
        """The map at x as register chains: a step adds to each register the
        pre-step value of its successor; a chain's last register (a
        frequency) stays fixed.  A rotation is d chains (x_i, omega_i), the
        skew product one chain (x_1, ..., x_d, omega); the chains without
        their last registers are the coordinates, in order.
        """
        if x.bits != self.bits:
            raise ValueError(f"a {x.bits}-bit point on a {self.bits}-bit system")
        if self.kind == "skew":
            return [tuple(x.coords) + self.omega_fp]
        return [(c, w) for c, w in zip(x.coords, self.omega_fp)]

    @staticmethod
    def rotation(omega: Frequency) -> "SystemSpec":
        return SystemSpec("rotation", (omega,), 1)

    @staticmethod
    def rotation_d(omegas: Sequence[Frequency]) -> "SystemSpec":
        return SystemSpec("rotation", tuple(omegas), len(tuple(omegas)))

    @staticmethod
    def skew(dim: int, omega: Frequency) -> "SystemSpec":
        return SystemSpec("skew", (omega,), dim)


def step(sys: SystemSpec, x: TorusPoint) -> TorusPoint:
    """Single application of the map, exact in fixed point."""
    one = 1 << sys.bits
    out = []
    for chain in sys.chains(x):
        for r in range(len(chain) - 1):
            out.append((chain[r] + chain[r + 1]) % one)
    return TorusPoint._reduced(tuple(out), x.bits)


def _shift(chain: tuple, j: int, bits: int) -> tuple:
    """The register chain j >= 0 steps on, in closed form: register r
    becomes sum_l C(j, l) * register r+l, mod 2**bits."""
    out = []
    for r in range(len(chain)):
        acc, b = chain[r], 1
        for l in range(1, len(chain) - r):
            b = b * (j - l + 1) // l  # C(j, l): exact, and 0 once l > j
            acc += b * chain[r + l]
        out.append(acc % (1 << bits))
    return tuple(out)


def iterate(sys: SystemSpec, x: TorusPoint, j: int) -> TorusPoint:
    """Closed-form j-th iterate: each chain of sys.chains(x) j steps on."""
    if j < 0:
        raise ValueError("j must be >= 0")
    coords = [v for c in sys.chains(x) for v in _shift(c, j, sys.bits)[:-1]]
    return TorusPoint._reduced(tuple(coords), x.bits)


def _tails(chains: list) -> list:
    """Tail i, c[r:] of SystemSpec.chains, is coordinate i's differences."""
    return [c[r:] for c in chains for r in range(len(c) - 1)]


def _phase_chain(tails: list, k: Sequence[int], bits: int) -> tuple:
    """The forward differences at j = 0, through its degree (at least 1), of
    the phase k . T^j x mod 1, exact, from the _tails of sys.chains(x)."""
    diffs = [0, 0]
    for ki, tail in zip(k, tails):
        if ki:
            diffs += [0] * (len(tail) - len(diffs))
            for m, v in enumerate(tail):
                diffs[m] += ki * v
    return tuple([v % (1 << bits) for v in diffs])


# ---------------------------------------------------------------------------
# fixed-point registers in uint64 limbs
#
# A value v / 2**bits is held left-aligned in L = ceil(bits / 32) limbs of
# 32 bits, most significant first, one uint64 per limb: limb products and
# sums of up to 2**31 limbs cannot overflow.  Dropping the carry out of the
# top limb is reduction mod 1, so every operation below is exact.  Arrays
# have shape (L, ...): axis 0 runs over the limbs of each value.  Register
# chains stay int tuples at step 0: a table builds its limbs from _shift.
# ---------------------------------------------------------------------------

_MASK = np.uint64(0xFFFFFFFF)
_SUB = 1 << 12  # steps per register block; bounds the transient memory


def limbs_from_ints(values: Sequence[int], bits: int) -> np.ndarray:
    """(L, n) limbs of the fixed-point integers values[i] in [0, 2**bits)."""
    L = -(-bits // 32)
    raw = b"".join((v << (32 * L - bits)).to_bytes(4 * L, "big") for v in values)
    limbs = np.frombuffer(raw, ">u4").reshape(len(values), L)
    return limbs.T.astype(np.uint64, order="C")


def _carry(a: np.ndarray) -> np.ndarray:
    """Propagate carries so each limb is below 2**32, mod 1 (in place)."""
    for i in range(len(a) - 1, 0, -1):
        a[i - 1] += a[i] >> 32
        a[i] &= _MASK
    a[0] &= _MASK
    return a


@functools.cache
def _binomials(l: int) -> np.ndarray:
    """The (pieces, _SUB) 32-bit pieces of C(i, l), i < _SUB, low first."""
    col = [math.comb(i, l) for i in range(_SUB)]
    out = limbs_from_ints(col, -(-col[-1].bit_length() // 32) * 32)[::-1]
    out.flags.writeable = False
    return out


def _chain_heads(chains: list, start: int, n: int, bits: int):
    """Yield (lo, heads) for steps start + lo.. of K int register chains,
    zero-filled to R registers, in blocks of m <= _SUB steps: heads (L, K, m)
    is register 0, sum_{l<R} C(i, l) * register l, of the chains _shift-ed to
    the block's first step.  A limb times a 32-bit piece of C(i, l) adds at
    its place less the piece's: whole if a top piece below 2**(31 -
    R.bit_length()) (R - 1 such sum below 2**63), else in halves."""
    R, K, L = max(map(len, chains)), len(chains), -(-bits // 32)
    chains = [c + (0,) * (R - len(c)) for c in chains]  # a 0 stays 0
    for lo in range(0, n, _SUB):
        m = min(_SUB, n - lo)
        shifted = list(zip(*(_shift(c, start + lo, bits) for c in chains)))
        regs = limbs_from_ints(sum(shifted, ()), bits).reshape(L, R, K, 1)
        out = regs[:, 1] * _binomials(1)[0, :m]  # C(i, 1) = i
        out += regs[:, 0]
        for l in range(2, R):  # chains past the last nonzero register l add 0
            k = max((i + 1 for i, v in enumerate(shifted[l]) if v), default=0)
            top = math.comb(m - 1, l)  # the largest C(i, l), i < m
            for p, piece in enumerate(_binomials(l)[:L, :m]):
                pr = regs[p:, l, :k] * piece
                if top >> 32 * p >> 31 - R.bit_length():  # not whole
                    out[:L - p - 1, :k] += pr[1:] >> 32
                    pr &= _MASK
                out[:L - p, :k] += pr
        yield lo, _carry(out)


def _lanes_advance(lanes: np.ndarray, m: int, grid: int) -> np.ndarray:
    """The (m, R, cells) running sums at steps 0..m-1 of (R, cells) lanes
    mod grid, each cell a chain of lane[r] += lane[r + 1] whose last
    register stays fixed; leaves lanes at step m."""
    R = lanes.shape[0]
    seq = np.empty((m,) + lanes.shape, dtype=lanes.dtype)
    seq[:, R - 1] = lanes[R - 1]
    for r in range(R - 2, -1, -1):
        seq[0, r] = lanes[r]
        np.cumsum(seq[:m - 1, r + 1], axis=0, out=seq[1:, r])
        seq[1:, r] += lanes[r]
        seq[1:, r] %= grid
    np.add(seq[m - 1, :-1], seq[m - 1, 1:], out=lanes[:-1])
    lanes[:-1] %= grid
    return seq


def limbs_mul(a: np.ndarray, n: int) -> np.ndarray:
    """n * a mod 1 for an integer n >= 0 of any size, in 32-bit pieces."""
    L = len(a)
    out = np.zeros_like(a)
    for s in range(L):  # piece s of n shifts its partial product s limbs up
        piece = (n >> (32 * s)) & 0xFFFFFFFF
        if piece:
            p = a[s:] * np.uint64(piece)
            out[:L - s] += p & _MASK
            out[:L - s - 1] += p[1:] >> 32
    return _carry(out)


def limbs_to_float(a: np.ndarray) -> np.ndarray:
    """The correctly rounded doubles of the values in a (ties to even).

    A 64-bit window starting at the leading one bit, with a sticky bit ORed
    in for any nonzero bit below it, rounds to 53 bits exactly as the full
    value does: the rule of int / int in Python.  Values below 2**-32
    recurse on their lower limbs.
    """
    hi, mid, lo = (a[i] if i < len(a) else np.zeros_like(a[0]) for i in range(3))
    e = np.frexp(hi.astype(float))[1]  # bit length of hi (exact below 2**32)
    lz = (32 - np.maximum(e, 1)).astype(np.uint64)
    sh = lz + np.uint64(32)
    window = (hi << sh) | (mid << lz) | (lo >> (np.uint64(32) - lz))
    sticky = lo << sh  # the bits of lo below the window
    if len(a) > 3:
        sticky |= np.bitwise_or.reduce(a[3:], axis=0)
    window |= sticky != 0
    out = np.ldexp(window.astype(float), e - 96)
    small = hi == 0
    if len(a) > 1 and small.any():
        small &= a[1:].any(axis=0)  # exact zeros are done
        out[small] = np.ldexp(limbs_to_float(a[1:, small]), -32)
    return out


def _chain_floats(chains: list, start: int, out: np.ndarray, bits: int):
    """Fill out (m, d) with the correctly rounded coordinates at steps
    start..start+m-1 of the int register chains of SystemSpec.chains."""
    for lo, heads in _chain_heads(_tails(chains), start, len(out), bits):
        out[lo:lo + _SUB] = limbs_to_float(heads).T


def _phase_table(chains: list, n: int, bits: int, start: int = 0,
                 factor: float = TWO_PI) -> tuple:
    """cos and sin of factor (register 0 mod 1) of K int register chains at
    steps start..start+n-1, as (K, n) arrays: each phase is exact on the
    limbs and rounded once, and only then scaled."""
    t = np.empty((len(chains), n))
    for lo, heads in _chain_heads(chains, start, n, bits):
        t[:, lo:lo + _SUB] = limbs_to_float(heads)
    t *= factor
    return np.cos(t), np.sin(t)


def _exp_table(chain: tuple, n: int, bits: int, start: int = 0) -> np.ndarray:
    """e(register 0) of one int chain at steps start..start+n-1."""
    (c,), (s,) = _phase_table([chain], n, bits, start)
    out = np.empty(n, complex)
    out.real, out.imag = c, s
    return out


# ---------------------------------------------------------------------------
# orbit enumeration
# ---------------------------------------------------------------------------


def orbit_floats(sys: SystemSpec, x: TorusPoint, N: int,
                 chunk: int | None = None):
    """Yield (chunk, d) float arrays of the orbit T^j x, j = 0..N-1, from the
    exact register chains of sys.chains(x); only the final per-sample
    conversion rounds.  A one-dimensional orbit yields flat arrays.

    The default chunk (2**15 rotation steps, 2**14 skew steps) fixes the
    summation order of the Birkhoff sums.
    """
    if chunk is None:
        chunk = 1 << 14 if sys.kind == "skew" else 1 << 15
    for lo in range(0, N, chunk):
        buf = np.empty((min(chunk, N - lo), sys.dim), dtype=float)
        _chain_floats(sys.chains(x), lo, buf, sys.bits)
        yield buf[:, 0] if sys.dim == 1 else buf


def birkhoff_sum(sys: SystemSpec, phi: Observable, x: TorusPoint, N: int) -> float:
    """S_N phi(x) = phi(x) + phi(Tx) + ... + phi(T^{N-1} x)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if phi.dim != sys.dim:
        raise ValueError("observable dimension does not match the system")
    total = carry = 0.0
    for buf in orbit_floats(sys, x, N):
        total, carry = _kahan_add(total, carry, float(np.sum(phi.fn(buf))))
    return total


def _kahan_add(total, carry, s):
    """One step of the compensated (Kahan) accumulation of chunk totals."""
    y = s - carry
    t = total + y
    return t, (t - total) - y


# ---------------------------------------------------------------------------
# sup deviation over a grid
# ---------------------------------------------------------------------------


@dataclass
class BirkhoffResult:
    N: int
    grid_size: int
    sup_dev: float
    argmax_x: TorusPoint
    mean_used: float
    # signed S_N phi / N - mean at grid index i, i.e. at x = i / grid_size
    field: np.ndarray = dataclasses.field(default=None, repr=False, compare=False)


def grid_point(indices, grid: int, bits: int) -> TorusPoint:
    """The fixed-point grid point x = indices / grid."""
    one = 1 << bits
    return TorusPoint(
        tuple((int(i) * one + grid // 2) // grid % one for i in indices), bits
    )


class GridSweep:
    """S_N phi on a uniform grid of any system, by exact routes chosen from
    the observable when the sweep is built.  Each map is affine with an
    integer linear part A, so the grid point g / grid has the orbit T^j(0) +
    (A^j g mod grid) / grid, and e(k . T^j x) = e(k . T^j 0) e((A^T)^j k . x).

    - A finite spectrum (phi.fourier, or a SeparableObservable's trig part)
      is one inverse FFT of sum_k c_k sum_{j<N} e(k . T^j 0) at cell
      (A^T)^j k mod grid.  A fixed mode (phase of degree <= 1: every
      rotation mode, and a skew mode of the last axis alone) keeps its cell
      k mod grid and adds c_k N E_N(D1), O(1) whatever N: one exp_sums_fp
      per N, np.add.at in mode order.  A moving mode's cell follows the
      dual map (A^T k)_i = k_i + k_{i-1}, and np.bincount adds its terms, of
      the exact phase table of its _phase_chain (of _tails built once), into
      one running spectrum: O(N) per mode.
    - A SeparableObservable's axis terms are summed pointwise: on a
      rotation each on a 1-d sweep of its axis, on a skew product all on
      one sweep of the whole system.
    - Every other field is summed pointwise, O(j * grid**d), resumable in j:
      the cell offsets A^j g mod grid run the chains of SystemSpec.chains
      without their frequencies, as integers mod grid, one lane per cell (a
      rotation's never move), and phi.fn gets the orbit point, rounded once
      by _chain_floats, plus the offset, unreduced in [0, 2)^d.

    sup_deviation advances the sweep from its step j to each N it is given,
    so a rising schedule walks the orbit once, in the summation order of
    one fresh pass to N.  Pointwise, chunks of at most 2**15 rows and 2**22
    cells are summed row after row (numpy's order along axis 0 of a
    C-ordered array) and Kahan-accumulated.  The chunk fixes the order;
    changing it moves strongly cancelling sums at large N by up to ~1e-8
    relative.  Rows are evaluated in blocks within a budget of _BLOCK_CELLS
    values: as many whole rows as fit, or, when one row is larger, column
    tiles of one row.  A block's points go into the sweep's one points
    buffer, and phi.fn(points, out=values) writes their values into its one
    values buffer.  The block carries its cells' running total of the open
    chunk in through the first row of what fn returns, so each cell's sum is
    formed in the same order whatever the block shape.  The moving modes go
    in chunks of _SUB steps, of which the open one only adds to a copy.
    tick() is called once per completed chunk, so a wall-clock budget can
    stop a single long N there.
    """

    def __init__(self, sys: SystemSpec, phi: Observable, grid: int):
        d = sys.dim
        if phi.dim != d:
            raise ValueError("observable dimension does not match the system")
        if grid < 16:
            raise ValueError("grid must be >= 16")
        if d > 3 or grid ** d > GRID_POINT_BUDGET:
            raise DimensionTooLarge(f"{d} * log2({grid}) exceeds the grid budget "
                                    f"(d <= 3, at most {GRID_POINT_BUDGET} points)")
        self.sys, self.phi, self.grid = sys, phi, grid
        # the route: the spectrum in closed form (None: pointwise), axis terms
        spectrum, terms = phi.fourier, ()
        if spectrum is None and isinstance(phi, SeparableObservable):
            spectrum = phi.trig.coeffs if phi.trig else {}
            terms = phi.axis_terms
        if sys.kind == "rotation":
            self._axes = [(axis, GridSweep(SystemSpec.rotation(sys.freqs[axis]),
                                           sub, grid)) for axis, sub in terms]
        else:  # axis None: all axis terms on one sweep of sys (reads only fn)
            together = Observable(d, make_separable(d, None, terms).fn,
                                  phi.modulus, phi.norm_est, phi.mean_hint)
            self._axes = [(None, GridSweep(sys, together, grid))] if terms else []
        # per fixed mode its signed step D1, flat cell, c and sin(pi D1); per
        # moving mode its chain and cell reversed, for _lanes_advance
        self._closed, fixed, moving = spectrum is not None, [], []
        tails = _tails(sys.chains(TorusPoint.zero(d, sys.bits)))
        for k, c in (spectrum or {}).items():
            chain = _phase_chain(tails, k, sys.bits)
            if len(chain) == 2:
                fixed.append((fp_signed(chain[1], sys.bits), np.ravel_multi_index(
                    [ki % grid for ki in k], (grid,) * d), c))
            else:
                moving.append((chain, k[::-1], c))
        self._ts, cells, coeffs = [*zip(*fixed)] or [(), (), ()]
        self._cells, self._c = np.array(cells, np.intp), np.array(coeffs, complex)
        self._sines = _step_sines(self._ts, sys.bits)
        self._phases = [chain for chain, _, _ in moving]
        if moving:
            self._lanes = np.array([cell for _, cell, _ in moving]).T % grid
            self._coeffs = np.array([c for _, _, c in moving], complex)[:, None]
            self._spec = np.zeros((grid,) * d, dtype=complex)  # whole chunks
            # modes per block: limb arrays of at most 2**20 / d uint64 each
            self._block = max(1, (1 << 20) // (-(-sys.bits // 32) * d * _SUB))
        self.chunk = max(256, min(1 << 15, (1 << 22) // grid ** d))
        self.j = 0
        self._sums = None  # the G**d pointwise state, built by the first sums

    def _dual_spectrum(self, N: int) -> np.ndarray:
        """The moving modes' spectrum to N, fresh: per chunk of _SUB steps
        and block of modes, an np.bincount of the terms at their cells."""
        spec, lanes = self._spec, self._lanes
        for lo in range(self.j, N, _SUB):
            m = min(_SUB, N - lo)
            if m < _SUB:  # the open chunk moves copies
                spec, lanes = spec.copy(), lanes.copy()
            flat = spec.reshape(-1)
            for first in range(0, len(self._phases), self._block):
                cut = slice(first, first + self._block)
                cells = _lanes_advance(lanes[:, cut], m, self.grid)[:, ::-1]
                idx = np.ravel_multi_index(cells.transpose(1, 2, 0),
                                           spec.shape).ravel()
                cos, sin = _phase_table(self._phases[cut], m, self.sys.bits, lo)
                terms = (self._coeffs[cut] * (cos + 1j * sin)).ravel()
                flat.real += np.bincount(idx, terms.real, flat.size)
                flat.imag += np.bincount(idx, terms.imag, flat.size)
            if m == _SUB:
                self.j = lo + m
                tick()
        return spec.copy() if spec is self._spec else spec

    def _start(self) -> None:
        """Build the pointwise state: the orbit's register chains, the cell
        offsets and the Kahan sums of every cell."""
        sys, grid = self.sys, self.grid
        d = sys.dim
        cells = grid ** d
        self._chains = sys.chains(TorusPoint.zero(d, sys.bits))
        # the (d, cells) lanes of the grid indices: a rotation's never move,
        # and a skew product's are the lanes of its one chain
        self._offsets = np.indices((grid,) * d).reshape(d, cells)
        self._xs = self._offsets / grid if sys.kind == "rotation" else None
        # a block of n rows and t cells holds n * t * d values in its points
        # and, when the lanes move, in their table
        self._tile = min(cells, _BLOCK_CELLS // d)
        self._rows = max(1, _BLOCK_CELLS // (self._tile * d))
        self._pts = np.empty(self._rows * self._tile * d)  # one block's points
        self._vals = np.empty(self._rows * self._tile)  # and their values
        self._sums = np.zeros(cells)  # Kahan state of the completed chunks
        self._carry = np.zeros(cells)
        self._open = None  # row total of the open chunk, once it has rows

    def sums(self, N: int) -> np.ndarray:
        """S_N phi on the grid, by the route chosen at construction; the
        pointwise route advances the orbit from step j to N."""
        if N < self.j:
            raise ValueError(f"the sweep is at step {self.j}, past N = {N}")
        d, grid = self.sys.dim, self.grid
        if self._closed:
            spec = (self._dual_spectrum(N) if self._phases
                    else np.zeros((grid,) * d, dtype=complex))
            # c (N E_N) by real parts: numpy's complex * can move the last bit
            re, im = exp_sums_fp(self._ts, self._sines, self.sys.bits, N)
            re *= float(N)
            im *= float(N)
            cr, ci, flat = self._c.real, self._c.imag, spec.reshape(-1)
            np.add.at(flat.real, self._cells, cr * re - ci * im)
            np.add.at(flat.imag, self._cells, cr * im + ci * re)
            out = np.real(np.fft.ifftn(spec)) * grid ** d
            for axis, sub in self._axes:
                shape = [grid if axis in (None, i) else 1 for i in range(d)]
                out = out + sub.sums(N).reshape(shape)
            return out
        if self._sums is None:
            self._start()
        cells, rows, tile = len(self._sums), self._rows, self._tile
        while self.j < N:
            m = min(N, (self.j // self.chunk + 1) * self.chunk) - self.j
            orbit = np.empty((m, 1, d))
            _chain_floats(self._chains, self.j, orbit[:, 0], self.sys.bits)
            fresh = self._open is None
            if fresh:
                self._open = np.empty(cells)
            for c0 in range(0, cells, tile):
                cut = slice(c0, c0 + tile)
                total = self._open[cut]
                for lo in range(0, m, rows):
                    n = min(rows, m - lo)
                    if self._xs is None:  # (n, d, t) offsets of moving lanes
                        xs = _lanes_advance(self._offsets[:, cut], n, grid) / grid
                    else:
                        xs = self._xs[:, cut]
                    size = n * len(total)
                    pts = self._pts[:size * d].reshape(n, -1, d)
                    vals = self._vals[:size].reshape(n, -1)
                    if d == 1:  # copies, then an add of equal shapes: an add
                        # that broadcasts would take a 64 KB numpy buffer
                        vals[...] = xs[..., 0, :]
                        pts[...] = orbit[lo:lo + n]
                        pts[..., 0] += vals
                    else:  # one coordinate at a time, over cells
                        for i in range(d):
                            np.add(orbit[lo:lo + n, :, i], xs[..., i, :],
                                   out=pts[..., i])
                    vals = self.phi.fn(pts if d > 1 else pts[..., 0], out=vals)
                    if lo or not fresh:
                        vals[0] += total
                    np.add.reduce(vals, axis=0, out=total)
            self.j += m
            if self.j % self.chunk == 0:
                self._sums, self._carry = _kahan_add(self._sums, self._carry,
                                                     self._open)
                self._open = None
                tick()
        if self._open is None:
            out = self._sums.copy()
        else:
            out = _kahan_add(self._sums, self._carry, self._open)[0]
        return out.reshape((grid,) * d)


def sup_deviation(sys: SystemSpec, phi: Observable, N: int, grid: int,
                  sweep: GridSweep | None = None) -> BirkhoffResult:
    """Max over a uniform grid of |S_N phi / N - mean(phi)|.

    The grid maximum is a certified lower bound of the true sup; Holder
    continuity bounds the gap by ||phi||_w * w(1/grid).  The field comes
    from sweep.sums(N), by the route the sweep chose when it was built; a
    GridSweep built for (sys, phi, grid) lets a rising schedule of N resume
    its pointwise sums where the last call stopped.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if sweep is None:
        sweep = GridSweep(sys, phi, grid)
    elif sweep.sys is not sys or sweep.phi is not phi or sweep.grid != grid:
        raise ValueError("the sweep was built for another system, "
                         "observable or grid")
    mean = phi.mean()
    dev = sweep.sums(N) / N - mean
    idx = np.unravel_index(int(np.argmax(np.abs(dev))), dev.shape)
    return BirkhoffResult(N, grid, float(abs(dev[idx])),
                          grid_point(idx, grid, sys.bits), mean, dev)


# ---------------------------------------------------------------------------
# averaged exponential sums
# ---------------------------------------------------------------------------


def _step_sines(ts: Sequence[int], bits: int) -> np.ndarray:
    """sin(pi t / 2**bits) for each signed step t of ts, one libm sine each:
    the sines that exp_sums_fp divides by."""
    return np.array([math.sin(math.pi * t) for t in _fp_floats(ts, bits).tolist()])


def exp_sums_fp(ts: Sequence[int], sines: np.ndarray, bits: int, N: int):
    """E_N(t) = (1/N) sum_{j<N} e(jt) for each signed step t of ts, as real
    and imaginary arrays, given sines = _step_sines(ts, bits), in the
    sine-ratio form e((N-1)t/2) sin(pi N t) / (N sin(pi t)).

    N t is split exactly, in ints, into n + r with r centred in [-1/2, 1/2),
    so sin(pi N t) = (-1)**n sin(pi r), and (N-1) t is reduced mod 2 for the
    phase: no step cancels, so the relative error stays at a few ulp even
    at resonance.  A zero sine (t = 0, or t / 2**bits rounding to 0.0 past
    1074 bits) is masked to its limit, the ratio 1.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    one, half, fN = 1 << bits, 1 << bits - 1, float(N)
    steps = [divmod(N * t + half, one) for t in ts]
    num = np.sin(np.pi * _fp_floats([r - half for _, r in steps], bits))
    num *= [1 - 2 * (n & 1) for n, _ in steps]  # sin(pi N t) = (-1)**n sin(pi r)
    ratio = np.divide(num, fN * sines, out=np.ones(len(ts)), where=sines != 0)
    np.clip(ratio, -1.0, 1.0, out=ratio)
    theta = np.pi * _fp_floats([((N - 1) * t + one) % (2 * one) - one
                                for t in ts], bits)
    return ratio * np.cos(theta), ratio * np.sin(theta)


def exp_sum_avg_fp(t_fp: int, bits: int, N: int) -> complex:
    """E_N(t) = (1/N) sum_{j<N} e(jt) for t = t_fp / 2**bits, by exp_sums_fp
    at its signed representative."""
    t = fp_signed(t_fp, bits)
    re, im = exp_sums_fp([t], _step_sines([t], bits), bits, N)
    return complex(re[0], im[0])


@dataclass
class KernelSumResult:
    q: int
    N: int
    total: float
    ratio: float  # total * N / (q log q)


@dataclass
class KernelTable:
    """|E_N(k omega)| for k = 1..len(mags), omega = cf.omega: every kernel
    sum over the ladder q_1 < q_2 < ... of cf at this N adds a prefix of it."""

    cf: ContinuedFraction
    N: int
    mags: np.ndarray


def kernel_table(cf: ContinuedFraction, N: int, terms: int) -> KernelTable:
    """The table of |E_N(k omega)| = |sin(pi {Nk omega})| / (N |sin(pi {k
    omega})|), capped at 1, for k = 1..terms and omega = cf.omega.

    For s = omega and s = N omega mod 1 (k (N w mod 1) = N k w mod 1
    exactly), k = a C + b with b < C = min(_KERNEL_ROW, terms + 1) has
    |sin(pi {k s})| = |sin(pi x_a) cos(pi y_b) + cos(pi x_a) sin(pi y_b)|,
    x_a = {a C s} and y_b = {b s} from two exact phase tables; x_0 = 0, so
    below C the term is sin(pi y_b).  Blocks of rows within _BLOCK_CELLS
    fill the one array of `terms` values, calling tick() once each; k = 0
    and k > terms are never divided.
    """
    w, bits = cf.omega.fixed_point(), cf.omega.fractional_bits
    C = min(_KERNEL_ROW, terms + 1)
    cb, sb = _phase_table([(0, w), (0, N * w)], C, bits, factor=math.pi)
    ca, sa = _phase_table([(0, C * w), (0, C * N * w)], terms // C + 1, bits,
                          factor=math.pi)
    mags = np.empty(terms)
    rows = max(1, _BLOCK_CELLS // (2 * C))
    for a in range(0, terms // C + 1, rows):
        s = sa[:, a:a + rows, None] * cb[:, None]
        s += ca[:, a:a + rows, None] * sb[:, None]
        lo, hi = max(1, a * C), min(terms + 1, (a + rows) * C)  # its k
        t, nt = np.abs(s.reshape(2, -1)[:, lo - a * C:hi - a * C])
        t *= N  # then nt / t, capped at 1, one operation at a time
        out = mags[lo - 1:hi - 1]
        np.minimum(np.divide(nt, t, out=out), 1.0, out=out)
        tick()
    return KernelTable(cf, N, mags)


def kernel_sum(table: KernelTable, q_index: int) -> KernelSumResult:
    """sum_{1 <= |k| < q_n} |E_N(k omega)| with exact fixed-point phases,
    for q_n = table.cf.q_at(q_index) and the table's omega and N.

    Returns the sum and its ratio against q log(q) / N, the shape the
    best-approximation gap structure forces on it.  The sum adds the first
    q_n - 1 terms of the table, in the order of a table of exactly those
    terms; a table too short raises ValueError.
    """
    cf, N = table.cf, table.N
    if q_index > cf.certified_len:
        raise Uncertified(f"index {q_index} beyond certified prefix")
    q = cf.q_at(q_index)
    if q < 2:
        return KernelSumResult(q, N, 0.0, 0.0)
    if len(table.mags) < q - 1:
        raise ValueError(f"the table holds {len(table.mags)} terms, "
                         f"fewer than q - 1 = {q - 1}")
    total = 2.0 * float(np.sum(table.mags[:q - 1]))  # |E_N(-t)| = |E_N(t)|
    ratio = total * N / (q * math.log(q))
    return KernelSumResult(q, N, total, ratio)


# ---------------------------------------------------------------------------
# character sums along the skew product
# ---------------------------------------------------------------------------


@dataclass
class CharSumResult:
    value: complex
    N: int


class CharSweep:
    """The resumable state of sum_{j<N} e(k . S^j x) for one start point x
    of the skew product of dimension d = len(k) = x.dim: the phase's
    chain of forward differences at j = 0 (_phase_chain), the end j of the
    completed chunks and their total.

    The phase is a polynomial in j of degree d - i at the first nonzero k_i
    (i from 0), leading coefficient (leading_num / leading_den) * omega =
    (k_i / (d-i)!) * omega.  Each chunk of _SUB steps adds one exp-sum of
    a phase table from its first step, which fixes the summation order;
    tick() is called once per whole chunk.
    """

    def __init__(self, omega: Frequency, k: Sequence[int], x: TorusPoint):
        k = tuple(int(v) for v in k)
        if len(k) != x.dim or not any(k):
            raise ValueError("k must have one entry per coordinate of x "
                             "and a nonzero entry")
        chains = SystemSpec.skew(len(k), omega).chains(x)
        self.diffs = _phase_chain(_tails(chains), k, omega.fractional_bits)
        self.degree = len(self.diffs) - 1
        self.leading_num = k[len(k) - self.degree]
        self.leading_den = math.factorial(self.degree)
        self.bits = omega.fractional_bits
        self.j = 0
        self._total = 0.0 + 0.0j

    def value(self, N: int) -> complex:
        """The sum to N, in the summation order of a fresh sweep: whole
        chunks advance the sweep, and the open one only adds to the value."""
        if N < self.j:
            raise ValueError(f"the sweep is at step {self.j}, past N = {N}")
        total = self._total
        for lo in range(self.j, N, _SUB):
            m = min(_SUB, N - lo)
            total += complex(np.sum(_exp_table(self.diffs, m, self.bits, lo)))
            if m == _SUB:
                self._total, self.j = total, lo + m
                tick()
        return total


# Cap on the row length B of the chirp route, and its rows per correlation
_CHIRP_ROW = 1 << 16
_CHIRP_BLOCK = 1 << 16


def _chirp_sum(diffs: tuple, bits: int, N: int) -> complex:
    """sum_{j<N} e(D0 + j D1 + C(j, 2) D2), diffs = (D0, D1, D2) in fixed
    point, in O(sqrt(N) log N) by Bluestein's chirp.

    For j = a B + b, b < B = min(ceil(sqrt N), _CHIRP_ROW), beta = B D2 mod 1
    and a b = C(a+b, 2) - C(a, 2) - C(b, 2), row a sums to e(P_a - C(a, 2)
    beta) sum_b u_b w_{a+b}, u_b = e(b D1 + C(b, 2) (D2 - beta)) and w_n =
    e(C(n, 2) beta): one FFT correlation per block of _CHIRP_BLOCK rows,
    with one tick() each, and a dot product for the partial last row.
    Every table is a quadratic chain started at its first step by _shift,
    exact and rounded once.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    one, (d0, d1, d2) = 1 << bits, diffs
    B = min(math.isqrt(max(N - 1, 0)) + 1, _CHIRP_ROW)
    beta = B * d2 % one
    A, rem = divmod(N, B)
    outer_c = (d0, B * d1 + B * (B - 1) // 2 * d2, B * B * d2 - beta)
    u = _exp_table((0, d1, d2 - beta), B, bits)
    total = 0j
    for a0 in range(0, A, _CHIRP_BLOCK):
        R = min(_CHIRP_BLOCK, A - a0)
        w = _exp_table((0, 0, beta), R + B - 1, bits, a0)
        outer = _exp_table(outer_c, R + 1, bits, a0)
        size = 1 << (R + B - 2).bit_length()  # a power of two >= R + B - 1
        corr = np.fft.ifft(np.fft.fft(w, size) * np.fft.fft(u[::-1], size))
        total += (outer[:R] * corr[B - 1:B - 1 + R]).sum()
        tick()
    if rem:  # row A, after the last block: its w and outer are in the tables
        total += outer[R] * (u[:rem] * w[R:R + rem]).sum()
    return complex(total)


def char_birkhoff_skew(sweep: CharSweep, N: int) -> CharSumResult:
    """sum_{j<N} e(k . S^j x) from exact finite differences of the phase.

    A phase D0 + j D1 of degree 1 sums to N E_N(D1) e(D0) (0 at N = 0), one
    of degree 2 by _chirp_sum, fresh for each N.  Any other is
    sweep.value(N), the direct sum and the oracle of both: a rising schedule
    of N resumes where the last call stopped, bit for bit equal to a fresh
    sweep, and a sweep already past N raises ValueError.
    """
    if sweep.degree == 1:
        turn = TWO_PI * (sweep.diffs[0] / (1 << sweep.bits))
        value = (N * exp_sum_avg_fp(sweep.diffs[1], sweep.bits, N)
                 * complex(math.cos(turn), math.sin(turn)) if N else 0j)
    elif sweep.degree == 2:
        value = _chirp_sum(sweep.diffs, sweep.bits, N)
    else:
        value = sweep.value(N)
    return CharSumResult(value, N)
