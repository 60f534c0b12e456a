"""uint64-limb fixed-point registers against Python big-integer arithmetic.

The helper's three operations are checked value by value against exact
integers, and the routines built on it (rotation and skew orbits, skew
character sums, lacunary series evaluation) are checked bit for bit
against the big-integer loops they replaced, kept here as oracles.  Kernel
tables are checked bit for bit against their formula with big-integer
phases, and within 1e-11 against two libm sines per term and against
mpmath (tests/oracles.py).  The register-chain closed-form iterate is
checked against the per-kind binomial formula it replaced.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergorate.arithmetic import Frequency, expand_cf
from ergorate import dynamics
from ergorate.dynamics import (_KERNEL_ROW, CharSweep, SystemSpec, TorusPoint,
                               _chain_floats, _chain_heads, _phase_table,
                               _shift, _tails, iterate, kernel_sum,
                               kernel_table, limbs_from_ints, limbs_mul,
                               limbs_to_float, orbit_floats)
from ergorate.harness import resolve_observable, resolve_system
from oracles import (kernel_rung, kernel_sum_mpmath, kernel_sum_oracle,
                     kernel_table_oracle)

BIT_WIDTHS = (192, 100, 250, 64)  # 64 bits: two limbs, no third
DEC = ("dec:0.1415926535897932384626433832795028841971693993751058209749445"
       "923078164062862089986280348253421170679")
FREQS = ("surd:(-1,1,5,2)", "pq:[2,3,1,4,1,5,9,2,6,5,3,5,8,9,7,9,3,2,3,8]",
         "pq:rule:index", DEC)
KERNEL_NS = (7, 1000, 10 ** 5, (1 << 40) + 3, 3 ** 90)


def ints_from_limbs(a, bits):
    """Big-integer values of the (L, n) limb array a."""
    L = a.shape[0]
    return [sum(int(a[i, j]) << (32 * (L - 1 - i)) for i in range(L))
            >> (32 * L - bits) for j in range(a.shape[1])]


def heads(chains, n, bits, start=0):
    """The (L, K, n) limbs of _chain_heads, its blocks joined."""
    return np.concatenate([h.copy() for _, h in
                           _chain_heads(chains, start, n, bits)], axis=-1)


def register_loop(chain, n, bits):
    """The registers of an int chain at steps 0..n-1 of reg[r] += reg[r+1],
    one big-integer step at a time."""
    one, cur, out = 1 << bits, list(chain), []
    for _ in range(n):
        out.append(list(cur))
        for r in range(len(cur) - 1):
            cur[r] = (cur[r] + cur[r + 1]) % one
    return out


@st.composite
def fixed_values(draw, bits):
    """Uniform values, values below 2**-10 and 2**-40, and the extremes."""
    one = 1 << bits
    return draw(st.one_of(
        st.integers(0, one - 1),
        st.integers(0, (one >> 10) - 1),
        st.integers(0, one >> 40),
        st.sampled_from([0, 1, one - 1, one >> 1, one - (one >> 60)]),
    ))


@st.composite
def ties(draw, bits):
    """Values exactly halfway between two doubles, and just off halfway."""
    shift = draw(st.integers(1, bits - 54))
    mant = draw(st.integers(1 << 52, (1 << 53) - 1))
    tie = (2 * mant + 1) << (shift - 1)
    return tie + draw(st.sampled_from([0, 0, 1, -1]))


class TestLimbHelper:
    @pytest.mark.parametrize("bits", BIT_WIDTHS)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_to_float_matches_true_division(self, bits, data):
        vals = data.draw(st.lists(st.one_of(fixed_values(bits), ties(bits)),
                                  min_size=1, max_size=12))
        a = limbs_from_ints(vals, bits)
        assert ints_from_limbs(a, bits) == vals
        one = 1 << bits
        got = limbs_to_float(a)
        assert got.tolist() == [v / one for v in vals]
        assert got.tolist() == [v * (1.0 / one) for v in vals]

    @pytest.mark.parametrize("bits", BIT_WIDTHS)
    def test_edge_values(self, bits):
        one = 1 << bits
        vals = [0, 1, one - 1, one >> 11, (one >> 53) * 3 // 2]
        assert limbs_to_float(limbs_from_ints(vals, bits))[2] == 1.0
        assert (limbs_to_float(limbs_from_ints(vals, bits)).tolist()
                == [v / one for v in vals])

    @pytest.mark.parametrize("bits", BIT_WIDTHS)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_mul_any_size(self, bits, data):
        one = 1 << bits
        vals = data.draw(st.lists(fixed_values(bits), min_size=1, max_size=6))
        n = data.draw(st.one_of(st.integers(0, (1 << 32) - 1),
                                st.integers(1 << 32, 1 << 300)))
        got = limbs_mul(limbs_from_ints(vals, bits), n)
        assert ints_from_limbs(got, bits) == [n * v % one for v in vals]

    @pytest.mark.parametrize("bits", BIT_WIDTHS)
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_advance_matches_register_loop(self, bits, data):
        # registers 0..R-2 are the heads of the chain's tails
        one = 1 << bits
        regs = data.draw(st.lists(fixed_values(bits), min_size=2, max_size=5))
        m = data.draw(st.integers(1, 300))
        seq = heads(_tails([tuple(regs)]), m, bits)
        assert seq.shape[1:] == (len(regs) - 1, m)
        cur = list(regs)
        for j in range(m):
            assert [ints_from_limbs(seq[:, r, j:j + 1], bits)[0]
                    for r in range(len(cur) - 1)] == cur[:-1]
            for r in range(len(cur) - 1):
                cur[r] = (cur[r] + cur[r + 1]) % one

    @pytest.mark.parametrize("bits", BIT_WIDTHS)
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_advance_of_chains_side_by_side(self, bits, data):
        # K chains side by side, of any lengths, advance as K separate ones
        chains = data.draw(st.lists(st.lists(fixed_values(bits), min_size=2,
                                             max_size=4).map(tuple),
                                    min_size=1, max_size=4))
        m = data.draw(st.integers(1, 300))
        seq = heads(chains, m, bits)
        for k, c in enumerate(chains):
            assert np.array_equal(seq[:, k], heads([c], m, bits)[:, 0])

    def test_advance_long_block_carries(self):
        # 4096 steps of a register just below 1: every limb column carries
        bits = 192
        one = 1 << bits
        w = one - 3
        seq = heads([(one - 1, w)], 4096, bits)
        got = ints_from_limbs(seq[:, 0], bits)
        assert got == [(one - 1 + j * w) % one for j in range(4096)]

    @pytest.mark.parametrize("bits", BIT_WIDTHS + (1100,))
    @pytest.mark.parametrize("R", range(2, 9))
    @pytest.mark.parametrize("start", [0, (1 << 40) + 12345])
    def test_heads_of_all_ones_chains(self, bits, R, start):
        # every register 2**bits - 1: each limb product is the largest, and
        # C(i, l) takes up to three 32-bit pieces; the tails' heads are the
        # registers of one chain, from the register loop after _shift
        chain = ((1 << bits) - 1,) * R
        want = register_loop(_shift(chain, start, bits), 4096, bits)
        for m in (1, 2, 4095, 4096):
            seq = heads(_tails([chain]), m, bits, start)
            assert seq.shape == (-(-bits // 32), R - 1, m)
            for r in range(R - 1):
                exact = limbs_from_ints([regs[r] for regs in want[:m]], bits)
                assert np.array_equal(seq[:, r], exact)


class TestRegisterChains:
    """Every limb table is a function of (chain, start, length): a chain of
    ints at step 0, moved to any step by the closed form _shift."""

    @pytest.mark.parametrize("bits", BIT_WIDTHS + (1100,))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_shifts_compose(self, bits, data):
        chain = tuple(data.draw(st.lists(fixed_values(bits), min_size=1,
                                         max_size=5)))
        a, b = (data.draw(st.one_of(st.integers(0, 9), st.integers(0, 1 << 70)))
                for _ in range(2))
        assert (_shift(_shift(chain, a, bits), b, bits)
                == _shift(chain, a + b, bits))
        assert _shift(chain, 0, bits) == chain

    @pytest.mark.parametrize("bits", BIT_WIDTHS + (1100,))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_a_shift_of_one_is_one_step(self, bits, data):
        one = 1 << bits
        chain = tuple(data.draw(st.lists(fixed_values(bits), min_size=1,
                                         max_size=5)))
        stepped = tuple((v + w) % one for v, w in zip(chain, chain[1:]))
        assert _shift(chain, 1, bits) == stepped + chain[-1:]

    @pytest.mark.parametrize("bits", BIT_WIDTHS + (1100,))
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_a_phase_table_from_any_start(self, bits, data):
        # columns s..s+n-1 of a table from 0, bit for bit, across the
        # _SUB-step blocks of both tables
        R = data.draw(st.integers(2, 4))
        chains = data.draw(st.lists(
            st.tuples(*[fixed_values(bits)] * R), min_size=1, max_size=3))
        s = data.draw(st.one_of(st.integers(0, 50),
                                st.integers(dynamics._SUB - 3, 9000)))
        n = data.draw(st.one_of(st.integers(1, 50),
                                st.integers(dynamics._SUB - 3, 5000)))
        factor = data.draw(st.sampled_from([dynamics.TWO_PI, math.pi]))
        whole = _phase_table(chains, s + n, bits, factor=factor)
        part = _phase_table(chains, n, bits, start=s, factor=factor)
        for w, p in zip(whole, part):
            assert p.shape == (len(chains), n)
            assert p.tobytes() == w[:, s:].tobytes()

    @pytest.mark.parametrize("system", ["rotation1d:golden",
                                        "rotationd:golden,sqrt2m1",
                                        "skew:2:golden", "skew:4:sqrt3m1"])
    @pytest.mark.parametrize("bits", BIT_WIDTHS + (1100,))
    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_chain_floats_from_any_start(self, system, bits, data):
        sys = resolve_system(system, bits)
        one = 1 << bits
        x = TorusPoint(tuple(data.draw(st.lists(
            st.integers(0, one - 1), min_size=sys.dim, max_size=sys.dim))), bits)
        start = data.draw(st.integers(0, 9000))
        m = data.draw(st.integers(1, 5000))
        (orbit,) = orbit_floats(sys, x, start + m, chunk=start + m)
        out = np.empty((m, sys.dim))
        _chain_floats(sys.chains(x), start, out, bits)
        assert out.tobytes() == orbit.reshape(-1, sys.dim)[start:].tobytes()


# ---------------------------------------------------------------------------
# the big-integer loops the limb registers replaced
# ---------------------------------------------------------------------------


def iterate_oracle(sys, x, j):
    one = 1 << sys.bits
    if sys.kind == "rotation":
        ws = sys.omega_fp
        return TorusPoint(
            tuple((c + j * w) % one for c, w in zip(x.coords, ws)), x.bits
        )
    w = sys.omega_fp[0]
    d = sys.dim
    out = []
    for i in range(1, d + 1):
        acc = 0
        for l in range(0, d - i + 1):
            acc += math.comb(j, l) * x.coords[i + l - 1]
        acc += math.comb(j, d - i + 1) * w
        out.append(acc % one)
    return TorusPoint(tuple(out), x.bits)


def phase_polynomial_table(sys, k, x):
    """p(0..deg) where p(j) = k . S^j x, as exact fixed-point integers."""
    d = sys.dim
    first = next(i for i, ki in enumerate(k) if ki)
    one = 1 << sys.bits
    vals = []
    for j in range(d - first + 1):
        y = iterate_oracle(sys, x, j)
        vals.append(sum(ki * c for ki, c in zip(k, y.coords)) % one)
    return vals


def rotation_orbit_oracle(sys, x, N, chunk=1 << 15):
    one = 1 << sys.bits
    scale = 1.0 / one
    ws = sys.omega_fp
    cur = list(x.coords)
    d = len(cur)
    produced = 0
    while produced < N:
        m = min(chunk, N - produced)
        buf = np.empty((m, d), dtype=float)
        for i in range(m):
            for a in range(d):
                buf[i, a] = cur[a] * scale
            for a in range(d):
                cur[a] = (cur[a] + ws[a]) % one
        produced += m
        yield buf[:, 0] if d == 1 else buf


def skew_orbit_oracle(sys, x, N, chunk=1 << 14):
    one = 1 << sys.bits
    scale = 1.0 / one
    w = sys.omega_fp[0]
    d = sys.dim
    cur = list(x.coords)
    produced = 0
    while produced < N:
        m = min(chunk, N - produced)
        buf = np.empty((m, d), dtype=float)
        for i in range(m):
            for a in range(d):
                buf[i, a] = cur[a] * scale
            for a in range(d - 1):
                cur[a] = (cur[a] + cur[a + 1]) % one
            cur[d - 1] = (cur[d - 1] + w) % one
        produced += m
        yield buf


def char_sum_oracle(d, omega, k, x, N, bits):
    one = 1 << bits
    table = phase_polynomial_table(SystemSpec.skew(d, omega), k, x)
    regs = []
    for _ in range(len(table)):
        regs.append(table[0])
        table = [(table[i + 1] - table[i]) % one for i in range(len(table) - 1)]
    deg = len(regs) - 1
    total = 0.0 + 0.0j
    chunk = 1 << 12
    buf = np.empty(chunk, dtype=float)
    filled = 0
    for _ in range(N):
        buf[filled] = regs[0] / one
        filled += 1
        if filled == chunk:
            total += complex(np.sum(np.exp(2j * math.pi * buf)))
            filled = 0
        for r in range(deg):
            regs[r] = (regs[r] + regs[r + 1]) % one
    if filled:
        total += complex(np.sum(np.exp(2j * math.pi * buf[:filled])))
    return total


def lacunary_fn_oracle(qs, weights, bits):
    one = 1 << bits

    def fn(x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        flat = xs.reshape(-1)
        out = np.zeros(flat.shape)
        for q, w in zip(qs, weights):
            # exact mod-1 reduction of q * x through fixed point
            phases = np.array(
                [((q * int(round((v % 1.0) * one))) % one) / one for v in flat]
            )
            out += w * np.cos(2 * math.pi * phases)
        out = out.reshape(xs.shape)
        return out if np.ndim(x) else float(out[0])

    return fn


def start_points(d, bits, seed):
    """A random point, one with coordinates below 2**-9 and 2**-40, and 0."""
    rng = np.random.default_rng(seed)
    one = 1 << bits
    pts = []
    for below in (0, 9, 40):
        pts.append(TorusPoint(tuple(int(v) * one >> 64 >> below for v in
                                    rng.integers(0, 2 ** 63, d, dtype=np.uint64)),
                              bits))
    pts.append(TorusPoint.zero(d, bits))
    return pts


def same_chunks(got, want):
    got, want = list(got), list(want)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("ftext", FREQS)
class TestAgainstBigIntOracles:
    @pytest.mark.parametrize("bits", [192, 100])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_rotation_orbit(self, ftext, bits, d):
        freqs = [Frequency.parse(t, bits) for t in (ftext, "sqrt3m1", "sqrt2m1")]
        sys = (SystemSpec.rotation(freqs[0]) if d == 1
               else SystemSpec.rotation_d(freqs[:d]))
        pts = start_points(d, bits, seed=d)
        for x in pts:
            # a chunk that is not a multiple of the 4096-step register block
            same_chunks(orbit_floats(sys, x, 11000, chunk=5000),
                        rotation_orbit_oracle(sys, x, 11000, chunk=5000))
        same_chunks(orbit_floats(sys, pts[1], 40000),
                    rotation_orbit_oracle(sys, pts[1], 40000))

    @pytest.mark.parametrize("bits", [192, 250])
    @pytest.mark.parametrize("d", [2, 3])
    def test_skew_orbit(self, ftext, bits, d):
        sys = SystemSpec.skew(d, Frequency.parse(ftext, bits))
        pts = start_points(d, bits, seed=d)
        for x in pts:
            same_chunks(orbit_floats(sys, x, 9000, chunk=5000),
                        skew_orbit_oracle(sys, x, 9000, chunk=5000))
        same_chunks(orbit_floats(sys, pts[1], 20000),
                    skew_orbit_oracle(sys, pts[1], 20000))

    def test_kernel_sum(self, ftext):
        omega = Frequency.parse(ftext)
        cf = expand_cf(omega, max_q=20000)
        for idx in range(1, cf.certified_len + 1):
            q = cf.q_at(idx)
            if q < 2:
                continue
            for N in KERNEL_NS:
                table = kernel_table(cf, N, q - 1)
                want = kernel_table_oracle(omega, N, q - 1)
                assert table.mags.tobytes() == want.tobytes()
                res = kernel_sum(table, idx)
                assert (res.total, res.ratio) == kernel_rung(want, q, N)

    def test_kernel_sum_from_one_table(self, ftext):
        # one table to the top of the ladder serves every rung, bit for bit
        omega = Frequency.parse(ftext)
        cf = expand_cf(omega, max_q=20000)
        ladder = [idx for idx in range(1, cf.certified_len + 1)
                  if cf.q_at(idx) >= 2]
        for N in KERNEL_NS:
            table = kernel_table(cf, N, cf.q_at(ladder[-1]) - 1)
            for idx in ladder:
                q = cf.q_at(idx)
                res = kernel_sum(table, idx)
                assert (res.total, res.ratio) == kernel_rung(
                    kernel_table_oracle(omega, N, q - 1), q, N)

    def test_kernel_sum_near_two_sines_per_term(self, ftext):
        # angle addition errs by a few ulp absolute in each sine, so a term
        # whose sin(pi {k N omega}) is near zero moves by up to ~1e-9
        # relative; each rung's sum stays within 1e-11
        omega = Frequency.parse(ftext)
        cf = expand_cf(omega, max_q=20000)
        for N in KERNEL_NS:
            table = kernel_table(cf, N, cf.q_at(cf.certified_len) - 1)
            for idx in range(1, cf.certified_len + 1):
                if cf.q_at(idx) < 2:
                    continue
                res = kernel_sum(table, idx)
                total, ratio = kernel_sum_oracle(omega, cf, idx, N)
                assert res.total == pytest.approx(total, rel=1e-11)
                assert res.ratio == pytest.approx(ratio, rel=1e-11)

    def test_a_kernel_table_is_a_prefix_of_a_longer_one(self, ftext):
        omega = Frequency.parse(ftext)
        cf = expand_cf(omega, max_q=20000)
        C = _KERNEL_ROW
        rungs = [cf.q_at(idx) - 1 for idx in range(1, cf.certified_len + 1)]
        for N in (1000, 3 ** 90):
            top = kernel_table(cf, N, 20000).mags
            for terms in [C - 1, C, C + 1, 2 * C, 2 * C + 1] + rungs:
                got = kernel_table(cf, N, terms).mags
                assert got.tobytes() == top[:terms].tobytes()

    @pytest.mark.parametrize("d,k", [(2, (1, 0)), (3, (1, 0, 0)),
                                     (3, (2, -1, 1)), (4, (0, 1, 0, 2))])
    def test_char_sum(self, ftext, d, k):
        # the direct sum, bit for bit: char_birkhoff_skew sums degree 2 by
        # a chirp, which tests/test_dynamics.py checks against this one
        omega = Frequency.parse(ftext)
        for x in start_points(d, 192, seed=d):
            for N in (1, 4096, 6000, 9000):
                value = CharSweep(omega, k, x).value(N)
                assert value == char_sum_oracle(d, omega, k, x, N, 192)


@pytest.mark.parametrize("ftext,idx,N", [
    ("golden", 15, 1000), ("golden", 16, 3 ** 90),
    ("pq:rule:index", 6, 10 ** 5), (DEC, 3, (1 << 40) + 3)])
def test_kernel_sum_near_mpmath(ftext, idx, N):
    omega = Frequency.parse(ftext)
    cf = expand_cf(omega, max_q=20000)
    res = kernel_sum(kernel_table(cf, N, cf.q_at(idx) - 1), idx)
    total, ratio = kernel_sum_mpmath(omega, cf, idx, N)
    assert res.total == pytest.approx(total, rel=1e-11)
    assert res.ratio == pytest.approx(ratio, rel=1e-11)


# pq:[2,3,1,4,1,5,9] is a rational of denominator 2779, where its ladder
# ends: k = 2779, whose sines are about zero, sits in the top table's last
# row, one past its terms; k = 0 sits in every table's first row
@pytest.mark.parametrize("ftext", FREQS + ("pq:[2,3,1,4,1,5,9]",))
def test_a_kernel_table_divides_no_zero(ftext):
    cf = expand_cf(Frequency.parse(ftext), max_q=20000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for N in KERNEL_NS:
            for idx in range(1, cf.certified_len + 1):
                mags = kernel_table(cf, N, cf.q_at(idx) - 1).mags
                assert np.all(np.isfinite(mags))


def test_a_kernel_table_takes_two_short_phase_tables(monkeypatch):
    # two phase tables: C + terms // C + 1 steps of each of the two chains
    steps = []

    def counted(chains, start, n, bits):
        steps.append(n * len(chains))
        return heads_of(chains, start, n, bits)

    heads_of = dynamics._chain_heads
    monkeypatch.setattr(dynamics, "_chain_heads", counted)
    cf = expand_cf(Frequency.parse("golden"), max_q=317811)
    terms = cf.q_at(cf.certified_len) - 1
    assert terms == 317810
    kernel_table(cf, 1000, terms)
    C = _KERNEL_ROW
    assert sum(steps) <= 2 * (C + terms / C) + 2


def test_the_kernel_table_checks_once_per_block(monkeypatch):
    cf = expand_cf(Frequency.parse("golden"), max_q=317811)
    terms = cf.q_at(cf.certified_len) - 1
    calls = []
    monkeypatch.setattr(dynamics, "tick", lambda: calls.append(1))
    table = kernel_table(cf, 1000, terms)
    assert len(calls) >= terms // dynamics._BLOCK_CELLS
    assert table.mags.tobytes() == kernel_table(cf, 1000, terms).mags.tobytes()


def test_a_kernel_table_too_short_is_refused():
    cf = expand_cf(Frequency.parse("golden"), max_q=1000)
    idx = cf.certified_len
    q = cf.q_at(idx)
    assert kernel_sum(kernel_table(cf, 1000, q - 1), idx).q == q
    with pytest.raises(ValueError, match="fewer than q - 1"):
        kernel_sum(kernel_table(cf, 1000, q - 2), idx)


@pytest.mark.parametrize("system", [
    "rotation1d:golden", "rotationd:golden,sqrt2m1",
    "rotationd:golden,sqrt2m1,pq:rule:index", "skew:2:golden",
    "skew:3:sqrt3m1", "skew:4:pq:rule:index", "skew:5:golden",
])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_chain_iterate(system, data):
    sys = resolve_system(system)
    one = 1 << sys.bits
    x = TorusPoint(tuple(data.draw(st.lists(
        st.one_of(st.integers(0, one - 1), st.sampled_from([0, one - 1])),
        min_size=sys.dim, max_size=sys.dim))), sys.bits)
    # j <= d leaves zeros in the binomial row; large j wraps every register
    j = data.draw(st.one_of(st.integers(0, sys.dim), st.integers(0, 1 << 80)))
    assert iterate(sys, x, j) == iterate_oracle(sys, x, j)


# a Holder series keeps modes of up to 85 bits, which 100 bits cannot
# certify (build_lacunary refuses the series); 150 bits can, and like 100
# it leaves the top limb partly filled
@pytest.mark.parametrize("system,key,bits", [
    (system, key, bits)
    for system, key, widths in (
        ("rotation1d:golden", "lacunary:holder:0.5", (150, 192)),
        ("rotation1d:pq:rule:index", "lacunary:holder:0.5", (150, 192)),
        ("rotation1d:golden", "lacunary:analytic", (100, 192)))
    for bits in widths
])
def test_lacunary_fn(system, key, bits):
    phi = resolve_observable(key, resolve_system(system, bits))
    oracle = lacunary_fn_oracle(phi.qs, phi.weights, bits)
    rng = np.random.default_rng(bits)
    xs = np.concatenate([
        rng.random(400),
        [0.0, 2.0 ** -40, 2.0 ** -12, 1 - 2.0 ** -53, -1e-20],
        # full mantissas far below 1: every bit of q counts, and below
        # 2**-48 the 100-bit conversion rounds
        rng.random(20) * 2.0 ** -40,
        rng.random(20) * 2.0 ** -70,
        1 + 3 * rng.random(20),     # above 1
        -3 * rng.random(20),        # negative
    ])
    assert phi.fn(xs).tobytes() == oracle(xs).tobytes()
    grid = rng.random((64, 3))
    assert phi.fn(grid).shape == (64, 3)
    assert phi.fn(grid).tobytes() == oracle(grid).tobytes()
    for v in (0.0, 0.3, -1e-20, 2.5):
        got = phi.fn(v)
        assert type(got) is float
        assert got == oracle(v)
