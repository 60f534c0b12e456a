"""Envelope shapes, scale fitting and the partial-sum growth bounds."""

import math

import numpy as np
import pytest

from ergorate.arithmetic import classify, expand_cf
from ergorate.envelopes import (Envelope, fit_scale, skew_exponent,
                                sum_qs_bound, weyl_bound)
from ergorate.errors import DomainError, Uncertified
from ergorate.kernels import Holder


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

    def test_domain_error(self):
        with pytest.raises(DomainError):
            Envelope(kind="sdc", alpha=0.5).value(2)

    def test_all_shapes_decreasing(self):
        # the log-loaded shapes (log^{3a}N/N^a, w(log^4 N/N)) genuinely turn
        # over only at N = e^3 resp. e^4, so the sweep starts at 64
        envs = [
            Envelope(kind="dk", alpha=0.5),
            Envelope(kind="sdc", alpha=0.5),
            Envelope(kind="dc", alpha=0.5, A=2.0),
            Envelope(kind="beta", alpha=0.5),
            Envelope(kind="modulus", alpha=0.5, modulus=Holder(0.5)),
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
        ("dc", "A"), ("transd", "A, d"), ("skew", "d"), ("modulus", "modulus"),
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


class TestSumQs:
    def test_single_term(self, golden_cf):
        out = sum_qs_bound(golden_cf, 1, 0.5, "sdc")
        q1, q2 = golden_cf.q_at(1), golden_cf.q_at(2)
        assert out.exact_sum == pytest.approx(
            q2 * math.log(q2) / q1 ** 0.5, rel=1e-12)
        assert out.n == q1

    def test_golden_ratio_bounded(self, golden_cf):
        for s in range(1, 21):
            out = sum_qs_bound(golden_cf, s, 0.5, "sdc")
            assert out.exact_sum <= 50 * out.shape_value

    def test_monotone_in_s(self, golden_cf):
        vals = [sum_qs_bound(golden_cf, s, 0.5, "sdc").exact_sum
                for s in range(1, 15)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_beta_regime_dominates(self, index_rule_freq):
        cf = expand_cf(index_rule_freq, max_q=10 ** 12)
        rep = classify(cf, k_max=100)
        beta = max(rep.beta_estimate, 1e-9)
        scales = []
        for s in range(2, cf.certified_len):
            out = sum_qs_bound(cf, s, 0.5, "beta", beta=beta)
            assert math.isfinite(out.exact_sum)
            if math.isinf(out.shape_value):
                continue
            scales.append(out.exact_sum / out.shape_value)
        assert scales and max(scales) < float("inf")

    def test_dc_regime(self, golden_cf):
        out = sum_qs_bound(golden_cf, 10, 0.5, "dc", A=1.2)
        assert out.exact_sum <= 100 * out.shape_value

    def test_uncertified(self, golden):
        cf = expand_cf(golden, max_q=13)
        with pytest.raises(Uncertified):
            sum_qs_bound(cf, 10, 0.5, "sdc")


class TestEnvelopeAgainstMeasurements:
    def test_golden_lacunary_under_sdc(self, golden):
        # small version of the headline rate experiment
        from ergorate.dynamics import SystemSpec, sup_deviation
        from ergorate.sharpness import HolderWeight, build_lacunary

        cf = expand_cf(golden, max_q=10 ** 26)
        phi = build_lacunary(cf, HolderWeight(0.5), tol=1e-12)
        sys = SystemSpec.rotation(golden)
        pts = [(N, sup_deviation(sys, phi, N, 256).sup_dev)
               for N in (100, 1000, 10 ** 4)]
        env = Envelope(kind="sdc", alpha=0.5)
        scale, tail = fit_scale(pts, env)
        assert 0 < scale < math.inf
        env.scale = scale
        assert all(v <= env.value(n) * (1 + 1e-12) for n, v in pts)
