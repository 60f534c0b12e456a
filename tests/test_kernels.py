"""Kernels, Fourier coefficients and trigonometric approximation."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergorate.kernels import (Holder, Observable, _fft_values, _grid_spectrum,
                              approximate, approximation_error, coeff_sum,
                              dirichlet, fejer, fejer_coeffs, jackson_coeffs,
                              jackson_closed_form, make_cos, make_dist_pow,
                              make_observable, make_separable,
                              make_weierstrass, random_real_trigpoly,
                              seminorm_bound)
from ergorate.harness import resolve_observable, resolve_system
from oracles import (dense_seminorm, exact_sum_mpmath, fourier_coefficient,
                     is_hermitian, kink_quotients_mpmath,
                     sampled_holder_quotient)


def dirichlet_coeff_sum(n, x):
    return coeff_sum(np.ones(2 * n + 1), x)


def fejer_coeff_sum(n, x):
    return coeff_sum(fejer_coeffs(n), x)


class TestModuli:
    @given(st.floats(1e-6, 0.1), st.floats(1e-6, 0.1))
    @settings(max_examples=200)
    def test_subadditive_on_pairs(self, h1, h2):
        for w in (Holder(0.5), Holder(1.0)):
            assert w(h1 + h2) <= w(h1) + w(h2) + 1e-12

    @given(st.floats(1e-9, 0.1))
    def test_increasing_with_zero_limit(self, h):
        for w in (Holder(0.3), Holder(1.0)):
            assert w(0) == 0.0
            assert w(h) < w(h * 1.5)

    def test_holder_values(self):
        assert Holder(0.5)(0.25) == 0.5
        assert Holder(1.0)(0.125) == 0.125


class TestDirichlet:
    def test_at_zero(self):
        assert dirichlet(3, 0.0) == pytest.approx(7.0, abs=1e-12)

    def test_half(self):
        assert dirichlet(1, 0.5) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_direct_sum(self, rng):
        xs = rng.random(200)
        assert np.max(np.abs(dirichlet(10, xs) - dirichlet_coeff_sum(10, xs))) < 1e-12

    def test_periodicity_through_singularity(self):
        # removable singularity at every integer, not just 0
        for x in (1.0, 2.0, -3.0):
            assert dirichlet(5, x) == pytest.approx(11.0, abs=1e-9)


class TestFejer:
    def test_at_zero(self):
        assert fejer(4, 0.0) == pytest.approx(4.0, abs=1e-12)

    def test_n1_constant(self, rng):
        xs = rng.random(50)
        assert np.max(np.abs(fejer(1, xs) - 1.0)) < 1e-12

    def test_matches_coeff_sum(self, rng):
        xs = rng.random(200)
        assert np.max(np.abs(fejer(7, xs) - fejer_coeff_sum(7, xs))) < 1e-12

    def test_nonnegative(self, rng):
        xs = rng.random(2000)
        for n in (2, 5, 16, 64):
            assert np.min(fejer(n, xs)) >= -1e-13

    def test_closed_vs_coeff_relative(self, rng):
        # agreement relative to the kernel scale n (1e3 points staying 1e-6
        # away from the removable singularities)
        xs = 1e-6 + rng.random(1000) * (1 - 2e-6)
        for n in (3, 17, 64):
            a = fejer(n, xs)
            b = fejer_coeff_sum(n, xs)
            assert np.max(np.abs(a - b)) / n < 1e-10
            d = dirichlet(n, xs)
            ds = dirichlet_coeff_sum(n, xs)
            assert np.max(np.abs(d - ds)) / (2 * n + 1) < 1e-10


class TestJackson:
    def test_degenerate_n2(self):
        assert jackson_coeffs(2).tolist() == [0.0, 0.0, 1.0, 0.0, 0.0]

    def test_mass_exactly_one(self):
        # normalization happens in integer coefficient space
        for n in (2, 3, 8, 17, 64, 255, 256):
            assert jackson_coeffs(n)[n] == 1.0

    def test_degree_bound(self):
        for n in (4, 9, 32, 101):
            c = jackson_coeffs(n)
            assert np.max(np.abs(np.flatnonzero(c) - len(c) // 2)) <= n

    def test_coefficients_bounded_and_positive_kernel(self):
        j8 = jackson_coeffs(8)
        assert np.max(np.abs(j8)) <= 2.0
        grid = np.arange(10 ** 4) / 10 ** 4
        assert np.min(coeff_sum(j8, grid)) >= -1e-12

    def test_coeff_vs_closed_form(self, rng):
        xs = rng.random(500)
        for n in (6, 20, 40):
            a = coeff_sum(jackson_coeffs(n), xs)
            b = jackson_closed_form(n, xs)
            assert np.max(np.abs(a - b)) < 1e-10


class TestFourierCoefficient:
    def test_cos_modes(self):
        cos = make_cos()
        assert fourier_coefficient(cos, 1, 256) == pytest.approx(0.5, abs=1e-12)
        assert fourier_coefficient(cos, -1, 256) == pytest.approx(0.5, abs=1e-12)
        assert abs(fourier_coefficient(cos, 0, 256)) < 1e-12

    def test_dist_pow_refinement(self):
        phi = make_dist_pow(0.5)
        a = fourier_coefficient(phi, 5, 1 << 16)
        b = fourier_coefficient(phi, 5, 1 << 17)
        assert abs(a - b) < 1e-6

    def test_2d_product_mode(self):
        def fn(x):
            return np.cos(2 * np.pi * x[..., 0]) * np.cos(2 * np.pi * x[..., 1])

        phi = Observable(dim=2, fn=fn, modulus=Holder(1.0), norm_est=10.0,
                         mean_hint=0.0)
        c = fourier_coefficient(phi, (1, 1), 32)
        assert c == pytest.approx(0.25, abs=1e-12)
        assert abs(fourier_coefficient(phi, (1, 0), 32)) < 1e-12


class TestApproximate:
    def test_multiplier_form_on_trig_poly(self):
        tp = random_real_trigpoly(1, 3, seed=1)
        phi = tp.to_observable()
        out = approximate(phi, jackson_coeffs(16))
        jn = jackson_coeffs(16)
        for k in range(-3, 4):
            assert out[16 + k] == pytest.approx(tp.coeff(k) * jn[16 + k],
                                                abs=1e-10)

    def test_sup_error_vanishes_for_band_limited(self):
        tp = random_real_trigpoly(1, 2, seed=5)
        phi = tp.to_observable()
        grid = np.arange(1 << 11) / (1 << 11)
        ref = tp.eval(grid)
        errs = [float(np.max(np.abs(
                    coeff_sum(approximate(phi, jackson_coeffs(n)), grid) - ref)))
                for n in (8, 32, 128)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-2

    def test_constant_reproduced_exactly(self):
        phi = Observable(dim=1, fn=lambda x: np.full(np.shape(x), 2.5),
                         modulus=Holder(1.0), norm_est=2.5, mean_hint=2.5)
        out = approximate(phi, jackson_coeffs(8))
        assert out[8] == pytest.approx(2.5, abs=1e-12)
        for k in range(1, 9):
            assert abs(out[8 + k]) < 1e-12

    def test_dist_pow_rate(self):
        phi = make_dist_pow(0.5)
        ns = [16, 32, 64, 128]
        errs = [approximation_error(phi, jackson_coeffs(n)) for n in ns]
        slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert -0.65 <= slope <= -0.35

    def test_the_sup_samples_phi_once_per_observable(self):
        # every degree compares against phi at the same 2**13 points
        base = make_dist_pow(0.5)
        sizes = []

        def fn(x):
            sizes.append(np.size(x))
            return base.fn(x)

        phi = Observable(dim=1, fn=fn, modulus=base.modulus,
                         norm_est=base.norm_est, mean_hint=base.mean_hint)
        ns = (16, 32, 64)  # spectra of 8n points, none of 2**13
        errs = [approximation_error(phi, jackson_coeffs(n)) for n in ns]
        assert sizes.count(1 << 13) == 1
        assert errs == [approximation_error(base, jackson_coeffs(n))
                        for n in ns]

    def test_hermitian_output(self):
        out = approximate(make_dist_pow(0.5), jackson_coeffs(32))
        assert np.max(np.abs(np.conj(out[::-1]) - out)) <= 1e-9

    def test_multiplier_against_single_k_quadrature(self):
        # the FFT spectrum and per-k quadrature on the same grid agree, so
        # smoothing coefficients factor exactly through the kernel multiplier
        phi = make_dist_pow(0.5)
        n, Q = 16, 8 * 16
        jn = jackson_coeffs(n)
        out = approximate(phi, jn)
        for k in (-7, -2, 1, 3, 8):
            expect = fourier_coefficient(phi, k, Q) * jn[n + k]
            assert out[n + k] == pytest.approx(expect, abs=1e-13)

    def test_quadrature_precondition(self):
        with pytest.raises(ValueError):
            fourier_coefficient(make_cos(), 32, quad_points=64)

    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize("key", ["dist_pow:0.5", "weierstrass_w:0.5",
                                     "lacunary:holder:0.5", "trig3"])
    def test_fft_values_match_the_direct_sum(self, key, n):
        # the inverse FFT is the fast path; the term-by-term sum its oracle
        if key == "trig3":
            phi = random_real_trigpoly(1, 3, seed=4).to_observable()
        else:
            phi = resolve_observable(key, resolve_system("rotation1d:golden"))
        xs = np.arange(1 << 13) / (1 << 13)
        for kernel in (jackson_coeffs(n), fejer_coeffs(n)):
            coeffs = approximate(phi, kernel)
            assert np.max(np.abs(_fft_values(coeffs) - coeff_sum(coeffs, xs))) < 1e-12

    def test_fft_values_pad_past_the_sample_grid(self):
        # above n = 4095 the coefficients no longer fit 2**13 points, and the
        # inverse FFT runs on the next power of two
        coeffs = np.zeros(2 * 5000 + 1, dtype=complex)
        coeffs[5000 + 4500] = coeffs[5000 - 4500] = 0.5
        phase = 4500 * np.arange(1 << 13) % (1 << 13) / (1 << 13)  # exact
        assert np.max(np.abs(_fft_values(coeffs) - np.cos(2 * np.pi * phase))) < 1e-12


def _decay_ratio(phi, k_max):
    """Max over 2 <= |k| <= k_max of |phi_hat(k)| / (||phi|| w(1/|k|)),
    from the spectrum of 8 * k_max grid points."""
    spec = _grid_spectrum(phi, 8 * k_max)
    return max(abs(spec[k]) / (phi.norm_est * phi.modulus(1.0 / abs(k)))
               for k in range(-k_max, k_max + 1) if abs(k) >= 2)


class TestDecay:
    # the decay lemma bounds each ratio by 1/2
    def test_cos_spectrum_vanishes_beyond_1(self):
        assert _decay_ratio(make_cos(), 64) < 1e-6  # no energy at |k| >= 2

    def test_dist_pow_bounded_across_kmax(self):
        phi = make_dist_pow(0.5)
        assert _decay_ratio(phi, 100) <= 0.5
        assert _decay_ratio(phi, 1000) <= 0.5

    def test_finite_spectrum_noise_floor(self):
        tp = random_real_trigpoly(1, 5, seed=2)
        phi = tp.to_observable()
        spec = _grid_spectrum(phi, 4096)
        hi = [abs(spec[k]) for k in range(6, 200)]
        assert max(hi) < 1e-8

    def test_weierstrass_ratio_bounded(self):
        phi = make_weierstrass(Holder(0.5))
        assert _decay_ratio(phi, 256) <= 0.5


class TestTrigPoly:
    def test_hermitian_and_mean(self):
        tp = random_real_trigpoly(1, 4, seed=7)
        assert is_hermitian(tp)
        grid = np.arange(1 << 12) / (1 << 12)
        vals = tp.eval(grid)
        assert np.mean(vals) == pytest.approx(float(np.real(tp.coeff(0))),
                                              abs=1e-9)

    def test_observable_wrapper_norms(self):
        tp = random_real_trigpoly(1, 3, seed=11)
        obs = tp.to_observable(Holder(0.5))
        q = sampled_holder_quotient(obs, 0.5)
        assert q <= obs.norm_est  # analytic bound dominates samples


class TestObservableRegistry:
    def test_dist_pow_fields(self):
        phi = make_dist_pow(0.5)
        assert phi.mean_hint == pytest.approx(0.5 ** 0.5 / 1.5)
        assert phi.norm_est == pytest.approx(1.0 + 0.5 ** 0.5)
        q = sampled_holder_quotient(phi, 0.5)
        assert q <= phi.norm_est

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_weierstrass_norm_bounds_a_dense_h_maximum(self, alpha):
        # the dyadic maximum alone (from h = 1/4) fell up to 1.2% short
        phi = make_weierstrass(Holder(alpha))
        pairs = [(k, 2 * c) for (k,), c in phi.fourier.items() if k > 0]
        freqs, weights = zip(*pairs)
        semi = phi.norm_est - sum(weights)
        assert semi >= dense_seminorm(freqs, weights, alpha)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0])
    def test_weierstrass_seminorm_is_tight_and_bounds_mpmath(self, alpha):
        # the largest quotient sits at a kink: the bound is at least its
        # mpmath value there, and within 0.1% of a dense-h maximum (the
        # dyadic scan, times 2^alpha, read 1.18-1.66x)
        phi = make_weierstrass(Holder(alpha))
        freqs = [2 ** m for m in range(1, 25)]
        weights = [2.0 * phi.fourier[(f,)] for f in freqs]
        semi = seminorm_bound(np.array(freqs, dtype=float), np.array(weights),
                              Holder(alpha))
        assert semi >= kink_quotients_mpmath(freqs, weights, alpha)
        assert semi <= 1.001 * dense_seminorm(freqs, weights, alpha)
        # and the norm rounds its sum up, past the exact one
        assert mpmath.mpf(phi.norm_est) >= exact_sum_mpmath(weights + [semi])

    def test_periodicity(self, rng):
        for key in ("dist_pow:0.3", "cos", "weierstrass_w:0.5"):
            phi = make_observable(key)
            xs = rng.random(100)
            assert np.max(np.abs(phi.fn(xs) - phi.fn(xs + 1.0))) < 1e-9

    def test_unknown_key(self):
        with pytest.raises(KeyError):
            make_observable("nope")

    @pytest.mark.parametrize("alpha, want", [(0.5, 0.5477225575051661),
                                             (0.7, 0.4305116202499342)])
    def test_dist_pow_of_a_scalar_is_a_double(self, alpha, want):
        # arrays take their power in place; a scalar gets a new double
        got = make_dist_pow(alpha)(0.3)
        assert type(got) is np.float64 and got == want

    @pytest.mark.parametrize("alpha", [0.5, 0.7, 1.0])
    def test_dist_pow_leaves_its_points_unchanged(self, alpha):
        xs = np.array([[0.3, 1.3], [1.75, 0.5]])
        for dim in (1, 2):
            got = make_dist_pow(alpha, dim)(xs)
            assert xs.tolist() == [[0.3, 1.3], [1.75, 0.5]]
            assert not np.shares_memory(got, xs)

    @pytest.mark.parametrize("alpha", [0.5, 0.7])
    def test_dist_pow_writes_into_out(self, alpha):
        xs = np.array([[0.3, 1.3], [1.75, 0.5]])
        for dim in (1, 2):
            phi = make_dist_pow(alpha, dim)
            out = np.full(xs.shape[:3 - dim], np.nan)
            assert phi.fn(xs, out=out) is out
            assert out.tolist() == phi.fn(xs).tolist()
            assert xs.tolist() == [[0.3, 1.3], [1.75, 0.5]]

    def test_separable_reads_1d_positions(self):
        # each term at every position of a 1-d array, not the first one's
        # axis term broadcast to all
        phi = resolve_observable("poly_plus_dist:2:0.5:3",
                                 resolve_system("rotation1d:golden"))
        ((_, dist),) = phi.axis_terms
        xs = np.array([0.1, 0.2, 0.3])
        want = phi.trig.eval(xs) + dist.fn(xs)
        assert np.max(np.abs(phi.fn(xs) - want)) < 1e-15
        assert np.round(want, 4).tolist() == [-0.2458, -0.557, 0.23]
        out = np.full(3, np.nan)
        assert phi.fn(xs, out=out) is out
        assert out.tolist() == phi.fn(xs).tolist()

    def test_separable_mean_and_eval(self):
        tp = random_real_trigpoly(2, 2, seed=13)
        dist = make_dist_pow(0.5)
        phi = make_separable(2, tp, [(0, dist)])
        pts = np.random.default_rng(1).random((64, 2))
        expect = tp.eval(pts) + dist.fn(pts[:, 0])
        assert np.max(np.abs(phi.fn(pts) - expect)) < 1e-12
        assert phi.mean_hint == pytest.approx(
            float(np.real(tp.coeff((0, 0)))) + dist.mean_hint)
