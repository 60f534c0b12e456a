"""Envelope shapes and scale fitting."""

import itertools
import math

import numpy as np
import pytest

from ergorate.arithmetic import expand_cf
from ergorate.envelopes import Envelope, fit_scale, skew_exponent, weyl_bound
from ergorate.errors import DomainError


class TestEnvelopeValues:
    def test_sdc_plug_in(self):
        env = Envelope(kind="sdc", alpha=1.0)
        N = round(math.e ** 3)
        # log^3 N / N with log N = 3 (up to integer rounding of N)
        assert env.value(N) == pytest.approx(
            math.log(N) ** 3 / N, rel=1e-12)

    def test_beta_log_scaling(self):
        env = Envelope(kind="beta", alpha=0.5)
        N = 10 ** 6
        ratio = env.value(N ** 2) / env.value(N)
        assert ratio == pytest.approx(1 / math.sqrt(2), rel=1e-12)

    def test_skew_exponent_d2(self):
        # delta = 1/2, beta = alpha * (1/2) / (1/2 + 2) = alpha / 5
        assert skew_exponent(1.0, 2) == pytest.approx(0.2, abs=1e-15)
        env = Envelope(kind="skew", alpha=0.5, d=2, eps=0.0)
        N = 1000
        assert env.value(N) == pytest.approx(N ** -0.1, rel=1e-12)

    def test_skew_exponent_formula_d2_to_6(self):
        for d in range(2, 7):
            delta = 2.0 ** (1 - d)
            expect = 0.5 * delta / (delta + d)
            assert skew_exponent(0.5, d) == pytest.approx(expect, abs=1e-12)

    def test_skew_shape_keeps_its_bytes(self):
        # the shape once wrote the exponent inline; it now calls skew_exponent
        for alpha, d, eps in itertools.product(
                [0.05, 0.3, 1 / 3, 0.5, 1.0], [1, 2, 3, 5, 8],
                [0.0, 0.01, 0.05, 1.0]):
            env = Envelope(kind="skew", alpha=alpha, d=d, eps=eps)
            delta = 2.0 ** (1 - d)
            for N in (3, 10, 1000, 12345, 10 ** 6, 10 ** 12):
                inline = N ** (-(alpha * delta / (delta + d)) + eps)
                assert env.shape(N).hex() == inline.hex(), (alpha, d, eps, N)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            Envelope(kind="sdc", alpha=0.5).value(2)

    def test_all_shapes_decreasing(self):
        # the log-loaded shape log^{3a}N/N^a genuinely turns over only at
        # N = e^3, so the sweep starts at 64
        envs = [
            Envelope(kind="dk", alpha=0.5),
            Envelope(kind="sdc", alpha=0.5),
            Envelope(kind="dc", alpha=0.5, A=2.0),
            Envelope(kind="beta", alpha=0.5),
            Envelope(kind="transd", alpha=0.5, A=3.0, d=2),
            Envelope(kind="skew", alpha=0.5, d=2),
        ]
        Ns = np.unique(np.logspace(np.log10(64), 8, 200).astype(int))
        for env in envs:
            vals = [env.value(int(n)) for n in Ns]
            assert all(a > b for a, b in zip(vals, vals[1:])), env.kind
            assert all(v > 0 for v in vals)

    def test_parse_round_trip(self):
        env = Envelope.parse("sdc:alpha=0.5")
        assert env.kind == "sdc" and env.alpha == 0.5
        env2 = Envelope.parse("skew:alpha=0.3,d=3,eps=0.01")
        assert env2.d == 3 and env2.eps == 0.01

    @pytest.mark.parametrize("kind,needs", [
        ("dc", "A"), ("transd", "A, d"), ("skew", "d"),
    ])
    def test_a_missing_parameter_fails_at_construction(self, kind, needs):
        # each raised a TypeError from its first shape call
        with pytest.raises(ValueError, match=f"{kind} envelope needs {needs}$"):
            Envelope.parse(f"{kind}:alpha=0.5")

    @pytest.mark.parametrize("text", ["sdc:foo=1", "dk:alpha=0.5,", "modulus:modulus=1"])
    def test_parse_refuses_unknown_names(self, text):
        with pytest.raises(ValueError, match="unknown envelope parameter"):
            Envelope.parse(text)

    def test_weyl_bound_cell(self):
        v = weyl_bound(2, 1000, 1000, eps=0.0)
        expect = 1000 * (1 / 1000 + 1 / 1000 + 1000 / 1000 ** 2) ** 0.5
        assert v == pytest.approx(expect, rel=1e-12)


class TestFitScale:
    def test_exact_shape(self):
        env = Envelope(kind="sdc", alpha=0.5)
        pts = [(n, 3.0 * env.shape(n)) for n in (10, 100, 1000, 10 ** 4)]
        scale, tail = fit_scale(pts, env)
        assert scale == pytest.approx(3.0, rel=1e-12)
        assert tail == pytest.approx(1.0, rel=1e-12)

    def test_outlier_sets_scale(self):
        env = Envelope(kind="sdc", alpha=0.5)
        pts = [(n, 1.0 * env.shape(n)) for n in (10, 100, 1000, 10 ** 4)]
        pts[0] = (10, 2.0 * env.shape(10))
        scale, tail = fit_scale(pts, env)
        assert scale == pytest.approx(2.0, rel=1e-12)
        assert tail == pytest.approx(0.5, rel=1e-12)

    def test_needs_three_points(self):
        env = Envelope(kind="sdc", alpha=0.5)
        with pytest.raises(ValueError):
            fit_scale([(10, 1.0), (20, 0.5)], env)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("where", [0, 1])
    def test_non_finite_fails_closed(self, bad, where):
        env = Envelope(kind="dk", alpha=0.5)
        pts = [(10, 1.0), (20, 0.9), (30, 0.5), (40, 0.4)]
        pts[where] = (pts[where][0], bad)
        scale, tail = fit_scale(pts, env)
        assert math.isnan(scale) and math.isnan(tail)
        assert not 0 < scale < math.inf


class TestEnvelopeAgainstMeasurements:
    def test_golden_lacunary_under_sdc(self, golden):
        # small version of the headline rate experiment
        from ergorate.dynamics import SystemSpec, sup_deviation
        from ergorate.sharpness import HolderWeight, build_lacunary

        cf = expand_cf(golden, max_q=10 ** 26)
        phi = build_lacunary(cf, HolderWeight(0.5))
        sys = SystemSpec.rotation(golden)
        pts = [(N, sup_deviation(sys, phi, N, 256).sup_dev)
               for N in (100, 1000, 10 ** 4)]
        env = Envelope(kind="sdc", alpha=0.5)
        scale, tail = fit_scale(pts, env)
        assert 0 < scale < math.inf
        env.scale = scale
        assert all(v <= env.value(n) * (1 + 1e-12) for n, v in pts)
