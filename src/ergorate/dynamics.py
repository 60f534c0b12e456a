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
from .errors import DimensionTooLarge, Uncertified
from .kernels import Observable, SeparableObservable

TWO_PI = 2.0 * math.pi

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
        one = 1 << self.bits
        return np.array([c / one for c in self.coords])


@dataclass(frozen=True)
class SystemSpec:
    """One of the three measured systems.

    rotation1d: x -> x + omega on the circle
    rotationd:  x -> x + (omega_1, ..., omega_d) on the d-torus
    skew:       (x_1, ..., x_d) -> (x_1 + x_2, ..., x_{d-1} + x_d, x_d + omega)

    The fixed-point width is the frequencies' own, which they must share.
    """

    kind: str
    freqs: tuple
    dim: int

    def __post_init__(self):
        if self.kind not in ("rotation1d", "rotationd", "skew"):
            raise ValueError(f"unknown system kind {self.kind!r}")
        if self.kind == "rotation1d" and (self.dim != 1 or len(self.freqs) != 1):
            raise ValueError("rotation1d is one-dimensional")
        if self.kind == "rotationd" and len(self.freqs) != self.dim:
            raise ValueError("rotationd needs one frequency per axis")
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
        return SystemSpec("rotation1d", (omega,), 1)

    @staticmethod
    def rotation_d(omegas: Sequence[Frequency]) -> "SystemSpec":
        return SystemSpec("rotationd", tuple(omegas), len(tuple(omegas)))

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


def iterate(sys: SystemSpec, x: TorusPoint, j: int) -> TorusPoint:
    """Closed-form j-th iterate: register r of each chain becomes
    sum_l C(j, l) * register r+l."""
    if j < 0:
        raise ValueError("j must be >= 0")
    one = 1 << sys.bits
    out = []
    for chain in sys.chains(x):
        n = len(chain)
        for r in range(n - 1):
            acc = chain[r]
            b = 1
            for l in range(1, n - r):
                b = b * (j - l + 1) // l  # C(j, l): exact, and 0 once l > j
                acc += b * chain[r + l]
            out.append(acc % one)
    return TorusPoint._reduced(tuple(out), x.bits)


# ---------------------------------------------------------------------------
# fixed-point registers in uint64 limbs
#
# A value v / 2**bits is held left-aligned in L = ceil(bits / 32) limbs of
# 32 bits, most significant first, one uint64 per limb: limb products and
# sums of up to 2**31 limbs cannot overflow.  Dropping the carry out of the
# top limb is reduction mod 1, so every operation below is exact.  Arrays
# have shape (L, ...): axis 0 runs over the limbs of each value.
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


def limbs_advance(regs: np.ndarray, m: int) -> np.ndarray:
    """Run regs[r] += regs[r + 1] for r < R-1 (pre-step values) m steps.

    regs has shape (L, R), or (L, R, K) for K chains at once, and is left
    at step m.  Returns the (L, R-1, [K,] m) values of registers 0..R-2 at
    steps 0..m-1: register r is its start value plus the exclusive running
    sum of register r+1.
    """
    R = regs.shape[1]
    seq = np.empty(regs.shape + (m + 1,), dtype=np.uint64)
    seq[:, R - 1] = regs[:, R - 1, ..., None]
    for r in range(R - 2, -1, -1):
        s = seq[:, r]
        s[..., 0] = regs[:, r]
        np.cumsum(seq[:, r + 1, ..., :m], axis=-1, out=s[..., 1:])
        s[..., 1:] += regs[:, r, ..., None]
        _carry(s)
    regs[:] = seq[..., m]
    return seq[:, :R - 1, ..., :m]


def _lanes_advance(lanes: np.ndarray, m: int, grid: int) -> np.ndarray:
    """limbs_advance for (R, cells) lanes of integers mod grid, each cell a
    chain whose last register stays fixed: returns the (m, R, cells) values
    at steps 0..m-1 and leaves lanes at step m."""
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


def _chain_floats(chains: list, out: np.ndarray) -> None:
    """Fill out (m, d) with the correctly rounded coordinates at steps
    0..m-1 of the (L, R) limb register chains, left at step m."""
    col = 0
    for regs in chains:
        width = regs.shape[1] - 1
        for lo in range(0, len(out), _SUB):
            seq = limbs_advance(regs, min(_SUB, len(out) - lo))
            out[lo:lo + seq.shape[2], col:col + width] = limbs_to_float(seq).T
        col += width


def _phase_table(regs: np.ndarray, n: int, factor: float) -> tuple:
    """cos and sin of factor (phase mod 1) at the next n steps of (L, 2, K)
    limbs of K phases and steps, as (K, n) arrays, leaving regs at step n:
    each phase is reduced exactly and rounded once before it is scaled."""
    t = limbs_to_float(limbs_advance(regs, n)[:, 0])
    t *= factor
    return np.cos(t), np.sin(t)


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
    chains = [limbs_from_ints(c, sys.bits) for c in sys.chains(x)]
    produced = 0
    while produced < N:
        m = min(chunk, N - produced)
        buf = np.empty((m, sys.dim), dtype=float)
        _chain_floats(chains, buf)
        produced += m
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


def _spectral_sums(sys, modes: list, N, grid):
    """S_N phi on the grid for phi = Re sum_k c_k e(k . x), in closed form.

    Each mode of `modes` is (t, cell, c_k), as GridSweep forms it once: its
    exact phase t = k . omega mod 1 in fixed point and its grid cell k mod
    grid.  Its orbit sum is c_k A_k e(k . x), A_k = N E_N(k . omega) from
    exp_sum_avg_fp.  One inverse FFT synthesizes the grid field, exact because
    on x_g = g / grid the character e(k . x_g) depends only on k mod grid.
    """
    d = sys.dim
    spec = np.zeros((grid,) * d, dtype=complex)
    for t, cell, c in modes:
        A = N * exp_sum_avg_fp(t, sys.bits, N)
        spec[cell] += c * A
    return np.real(np.fft.ifftn(spec)) * grid ** d


class GridSweep:
    """S_N phi on a uniform grid of any system, by the one exact route
    chosen when the sweep is built:

    - a rotation whose phi.fourier is set takes the closed form of
      _spectral_sums, O(modes + grid**d log grid) whatever N, from each
      mode's exact phase k . omega and grid cell, formed once here;
    - a SeparableObservable on a rotation takes the closed form of its
      trig part, plus each axis term from that term's own 1-d sweep on
      its axis;
    - every other field is summed pointwise along the one orbit of 0,
      O(j * grid**d), resumable in j.

    Each map is affine with an integer linear part A, so the grid point
    g / grid has the orbit T^j(0) + (A^j g mod grid) / grid.  The cell
    offsets A^j g mod grid run the chains of SystemSpec.chains without
    their frequencies, as integers mod grid, one lane per cell; a
    rotation's never move.  The orbit point is rounded once from its exact
    registers, and the offset is added in double.

    sup_deviation advances the sweep from its step j to each N it is given,
    so a rising schedule walks the orbit once, in the summation order of
    one fresh pass to N: chunks of at most 2**15 rows and 2**22 cells are
    summed row after row (numpy's order along axis 0 of a C-ordered array)
    and Kahan-accumulated.  The chunk fixes the order; changing it moves
    strongly cancelling sums at large N by up to ~1e-8 relative.  Rows are
    evaluated in blocks within a budget of _BLOCK_CELLS values: as many
    whole rows as fit, or, when one row is larger, column tiles of one row.
    A block carries its cells' running total of the open chunk in through
    its first row, so phi.fn must return a fresh array, and each cell's
    sum is formed in the same order whatever the block shape.  `check`,
    when given, is called with no arguments once per completed chunk: a
    wall-clock budget can stop a single long N there.
    """

    def __init__(self, sys: SystemSpec, phi: Observable, grid: int, check=None):
        d = sys.dim
        if grid < 16:
            raise ValueError("grid must be >= 16")
        if d > 3 or grid ** d > GRID_POINT_BUDGET:
            raise DimensionTooLarge(f"{d} * log2({grid}) exceeds the grid budget "
                                    f"(d <= 3, at most {GRID_POINT_BUDGET} points)")
        self.sys, self.phi, self.grid, self.check = sys, phi, grid, check
        # the route: the spectrum a rotation sums in closed form (None for
        # the pointwise route) and, for a separable observable, one 1-d
        # sweep per axis term, on that term's axis
        spectrum, terms = None, ()
        if sys.kind != "skew":
            if phi.fourier is not None:
                spectrum = phi.fourier
            elif isinstance(phi, SeparableObservable):
                spectrum = phi.trig.coeffs if phi.trig else {}
                terms = phi.axis_terms
        # per mode, the exact phase k . omega mod 1 and the cell k mod grid
        self._modes = None if spectrum is None else [
            (sum(ki * wi for ki, wi in zip(k, sys.omega_fp)) % (1 << sys.bits),
             tuple(ki % grid for ki in k), c) for k, c in spectrum.items()]
        self._axes = [(axis, GridSweep(SystemSpec.rotation(sys.freqs[axis]),
                                       sub, grid, check))
                      for axis, sub in terms]
        self.chunk = max(256, min(1 << 15, (1 << 22) // grid ** d))
        self.j = 0
        self._sums = None  # the G**d pointwise state, built by the first sums

    def _start(self) -> None:
        """Build the pointwise state: the orbit registers, the cell offsets
        and the Kahan sums of every cell."""
        sys, grid = self.sys, self.grid
        d = sys.dim
        cells = grid ** d
        chains = sys.chains(TorusPoint.zero(d, sys.bits))
        self._chains = [limbs_from_ints(c, sys.bits) for c in chains]
        index = np.indices((grid,) * d).reshape(d, cells)
        # per chain, (R - 1, cells) lanes of its coordinates' grid indices
        cuts = np.cumsum([len(c) - 1 for c in chains])[:-1]
        self._offsets = [part.copy() for part in np.split(index, cuts)]
        # chains of one coordinate (rotations) never move their lanes
        self._xs = (index / grid if all(len(c) == 2 for c in chains)
                    else None)
        # a block of n rows and t cells holds n * t * d values in its points
        # and, when the lanes move, in their table
        self._tile = min(cells, _BLOCK_CELLS // d)
        self._rows = max(1, _BLOCK_CELLS // (self._tile * d))
        self._sums = np.zeros(cells)  # Kahan state of the completed chunks
        self._carry = np.zeros(cells)
        self._open = None  # row total of the open chunk, once it has rows

    def sums(self, N: int) -> np.ndarray:
        """S_N phi on the grid, by the route chosen at construction; the
        pointwise route advances the orbit from step j to N."""
        if N < self.j:
            raise ValueError(f"the sweep is at step {self.j}, past N = {N}")
        d, grid = self.sys.dim, self.grid
        if self._modes is not None:
            out = _spectral_sums(self.sys, self._modes, N, grid)
            for axis, sub in self._axes:
                shape = [1] * d
                shape[axis] = grid
                out = out + sub.sums(N).reshape(shape)
            return out
        if self._sums is None:
            self._start()
        cells, rows, tile = len(self._sums), self._rows, self._tile
        while self.j < N:
            m = min(N, (self.j // self.chunk + 1) * self.chunk) - self.j
            orbit = np.empty((m, 1, d))
            _chain_floats(self._chains, orbit[:, 0])
            fresh = self._open is None
            if fresh:
                self._open = np.empty(cells)
            for c0 in range(0, cells, tile):
                cut = slice(c0, c0 + tile)
                total = self._open[cut]
                for lo in range(0, m, rows):
                    n = min(rows, m - lo)
                    if self._xs is None:  # (n, d, t) offsets of moving lanes
                        xs = np.concatenate([_lanes_advance(o[:, cut], n, grid)
                                             for o in self._offsets],
                                            axis=1) / grid
                    else:
                        xs = self._xs[:, cut]
                    # one coordinate at a time, so every loop runs over cells
                    pts = np.empty((n, len(total), d))
                    for i in range(d):
                        np.add(orbit[lo:lo + n, :, i], xs[..., i, :],
                               out=pts[..., i])
                    # mod 1 of a sum in [0, 2): s - 1 is exact for s in
                    # [1, 2), so this equals np.mod(pts, 1.0) bit for bit,
                    # far cheaper
                    pts -= pts >= 1.0
                    vals = np.asarray(self.phi.fn(pts if d > 1 else pts[..., 0]),
                                      dtype=float)
                    if lo or not fresh:
                        vals[0] += total
                    np.sum(vals, axis=0, out=total)
            self.j += m
            if self.j % self.chunk == 0:
                self._sums, self._carry = _kahan_add(self._sums, self._carry,
                                                     self._open)
                self._open = None
                if self.check is not None:
                    self.check()
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


def exp_sum_avg_fp(t_fp: int, bits: int, N: int) -> complex:
    """(1/N) sum_{j<N} e(jt) for t = t_fp / 2**bits, in the sine-ratio form
    e((N-1)t/2) sin(pi N t) / (N sin(pi t)).

    t is taken as its signed representative in (-1/2, 1/2].  N t is split
    exactly into n + r with r centred in [-1/2, 1/2), so sin(pi N t) =
    (-1)**n sin(pi r), and (N-1) t is reduced mod 2 for the phase.  No step
    subtracts nearly equal doubles, so the relative error stays at a few
    ulp even at resonance, where t or N t sits close to an integer.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
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


def kernel_table(cf: ContinuedFraction, N: int, terms: int,
                 check=None) -> KernelTable:
    """The table of |E_N(k omega)| = |sin(pi {Nk omega})| / (N |sin(pi {k
    omega})|), capped at 1, for k = 1..terms and omega = cf.omega.

    For s = omega and s = N omega mod 1 (k (N w mod 1) = N k w mod 1
    exactly), k = a C + b with b < C = min(_KERNEL_ROW, terms + 1) has
    |sin(pi {k s})| = |sin(pi x_a) cos(pi y_b) + cos(pi x_a) sin(pi y_b)|,
    x_a = {a C s} and y_b = {b s} from two exact phase tables; x_0 = 0, so
    below C the term is sin(pi y_b).  Blocks of rows within _BLOCK_CELLS
    fill the one array of `terms` values, calling check, if given, once
    each; k = 0 and k > terms are never divided.
    """
    w, bits = cf.omega.fixed_point(), cf.omega.fractional_bits
    steps = limbs_from_ints([w, N * w % (1 << bits)], bits)
    C = min(_KERNEL_ROW, terms + 1)
    zero = np.zeros_like(steps)
    cb, sb = _phase_table(np.stack([zero, steps], axis=1), C, math.pi)
    ca, sa = _phase_table(np.stack([zero, limbs_mul(steps, C)], axis=1),
                          terms // C + 1, math.pi)
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
        if check is not None:
            check()
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
    degree: int
    leading_num: int      # leading coefficient = leading_num * omega / leading_den
    leading_den: int
    N: int


class CharSweep:
    """The resumable state of sum_{j<N} e(k . S^j x) for one start point x
    of the skew product of dimension d = len(k) = x.dim: the phase
    registers at step j, the end of the completed chunks and their total.

    The phase is a polynomial in j of degree d - i at the first nonzero k_i
    (i from 0), leading coefficient (k_i / (d-i)!) * omega; degree+1
    fixed-point registers advance it with degree exact additions per step.
    Each chunk of 2**12 steps adds one exp-sum to the total, which fixes
    the summation order; check, if given, is called once per chunk.
    """

    CHUNK = 1 << 12

    def __init__(self, omega: Frequency, k: Sequence[int], x: TorusPoint,
                 check=None):
        k = tuple(int(v) for v in k)
        if len(k) != x.dim or not any(k):
            raise ValueError("k must have one entry per coordinate of x "
                             "and a nonzero entry")
        d, bits = len(k), omega.fractional_bits
        one = 1 << bits
        (chain,) = SystemSpec.skew(d, omega).chains(x)
        first = next(i for i, ki in enumerate(k) if ki)
        self.degree, self.leading_num = d - first, k[first]
        self.leading_den = math.factorial(self.degree)
        # forward differences at j = 0: the r-th is k . (chain shifted r places)
        self._regs = limbs_from_ints([sum(ki * c for ki, c in zip(k, chain[r:])) % one
                                      for r in range(self.degree + 1)], bits)
        self.j = 0
        self._total = 0.0 + 0.0j
        self._check = check

    def value(self, N: int) -> complex:
        """The sum to N, in the summation order of a fresh sweep: whole
        chunks advance the sweep, and the open one is summed on a copy of
        the registers."""
        if N < self.j:
            raise ValueError(f"the sweep is at step {self.j}, past N = {N}")
        while N - self.j >= self.CHUNK:
            self._total += self._chunk(self._regs, self.CHUNK)
            self.j += self.CHUNK
            if self._check is not None:
                self._check()
        if N == self.j:
            return self._total
        return self._total + self._chunk(self._regs.copy(), N - self.j)

    @staticmethod
    def _chunk(regs: np.ndarray, m: int) -> complex:
        phase = limbs_to_float(limbs_advance(regs, m)[:, 0])
        return complex(np.sum(np.exp(2j * math.pi * phase)))


def char_birkhoff_skew(sweep: CharSweep, N: int) -> CharSumResult:
    """sum_{j<N} e(k . S^j x) via exact finite differences of the phase,
    with the polynomial degree and leading coefficient of the sweep.

    The sum is sweep.value(N): a rising schedule of N resumes where the
    last call stopped, bit for bit equal to a fresh sweep; a sweep already
    past N raises ValueError.
    """
    return CharSumResult(sweep.value(N), sweep.degree, sweep.leading_num,
                         sweep.leading_den, N)
