"""Acceptance gate: the eleven headline scenarios at their stated tolerances.

Each test runs one named scenario end to end, prints a PASS/FAIL line
(visible with `pytest -s`), and asserts every check inside the scenario plus
its wall-clock budget.  Run the whole gate with:

    pytest tests/test_acceptance.py -v -s
"""

import math

import pytest

from ergorate import scenarios
from ergorate.scenarios import SCENARIOS, run_scenario

CRITERIA = [
    # (number, scenario name, headline)
    (1, "cf_suite", "continued-fraction suite over four frequencies"),
    (2, "denjoy_koksma", "deviation at convergents under the Holder norm"),
    (3, "rate_envelope", "global rate slope and envelope domination"),
    (4, "kernel_lemma", "averaged exponential-sum ratios bounded by 10"),
    (5, "jackson", "approximation error slope and kernel identities"),
    (6, "skew_exactness", "bit-exact iterates and character sums"),
    (7, "weyl_envelope", "character sums under the differencing envelope"),
    (8, "sharpness", "resonant lower bounds on the spiked frequency"),
    (9, "limitations_schedule", "witness schedule lower bounds, m in [4,12]"),
    (10, "liouville_slow_rate", "slow rate under the exponential-gap rule"),
    (11, "translation_2d", "2-torus translation under a stable envelope"),
]


@pytest.mark.parametrize("number,name,headline",
                         CRITERIA, ids=[c[1] for c in CRITERIA])
def test_criterion(number, name, headline):
    verdict = run_scenario(name)
    status = "PASS" if verdict["passed"] else "FAIL"
    print(f"[{status}] criterion {number:2d} ({name}): {headline} "
          f"[{verdict['elapsed_s']}s / budget {verdict['budget_s']}s]")
    assert verdict["checks"], "scenario ran no checks"
    failed = [c for c in verdict["checks"] if not c["ok"]]
    assert not failed, f"failed checks: {failed}"
    assert verdict["within_budget"], (
        f"runtime {verdict['elapsed_s']}s over budget {verdict['budget_s']}s"
    )


def test_every_scenario_is_registered():
    assert {name for _, name, _ in CRITERIA} == set(SCENARIOS)


def test_denjoy_koksma_fails_closed_on_nan(monkeypatch):
    real = scenarios.sup_deviation

    def nan_at_q_5(sys, phi, q, *args):
        res = real(sys, phi, q, *args)
        if q == 5:
            res.sup_dev = math.nan
        return res

    monkeypatch.setattr(scenarios, "sup_deviation", nan_at_q_5)
    verdict = run_scenario("denjoy_koksma")
    assert not verdict["passed"]
    bounds = [c for c in verdict["checks"] if "sup_dev * q^a" in c["label"]]
    assert len(bounds) == 3 and not any(c["ok"] for c in bounds)


def test_skew_exactness_fails_closed_on_nan(monkeypatch):
    real = scenarios.char_birkhoff_skew
    calls = []

    def nan_on_second_call(*args):
        res = real(*args)
        calls.append(res)
        if len(calls) == 2:  # past the first, where max would drop it
            res.value = complex(math.nan)
        return res

    monkeypatch.setattr(scenarios, "char_birkhoff_skew", nan_on_second_call)
    verdict = run_scenario("skew_exactness")
    assert not verdict["passed"]
    assert math.isnan(verdict["details"]["char_vs_direct_worst"])
    sums = [c for c in verdict["checks"] if "character sums" in c["label"]]
    assert len(sums) == 1 and not sums[0]["ok"]


def test_translation_2d_fails_closed_on_nan(monkeypatch):
    real = scenarios.sup_deviation

    def nan_at_last_n(sys, phi, N, *args):
        res = real(sys, phi, N, *args)
        if N == 100000:  # last of the tail, where max would drop it
            res.sup_dev = math.nan
        return res

    monkeypatch.setattr(scenarios, "sup_deviation", nan_at_last_n)
    verdict = run_scenario("translation_2d")
    assert not verdict["passed"]
    stable = [c for c in verdict["checks"] if "scale stable" in c["label"]]
    assert len(stable) == 1 and not stable[0]["ok"]


def test_cf_suite_fails_closed_on_a_short_return(monkeypatch):
    real = scenarios.closest_return

    def short_at_q_8(omega, q):
        # one unit above ||8 w||, so q = 8 stays a best approximation, but
        # below 1/16: only the gap lemma fails, and only for golden
        if q != 8:
            return real(omega, q)
        one = 1 << omega.fractional_bits
        at_q = q * omega.fixed_point() % one
        return min(at_q, one - at_q) + 1

    monkeypatch.setattr(scenarios, "closest_return", short_at_q_8)
    verdict = run_scenario("cf_suite")
    assert not verdict["passed"]
    failed = [c["label"] for c in verdict["checks"] if not c["ok"]]
    assert failed == ["golden: gap ||j w|| > 1/(2 q_n) for 1 <= j < q_n"]
    assert verdict["details"]["golden"]["gap_min_margin"] < 1


def test_jackson_fails_closed_on_nan(monkeypatch):
    real = scenarios._grid_spectrum

    def nan_at_k_5(phi, Q):
        spec = real(phi, Q)
        spec[5] = math.nan  # past k = 2, 3, 4, where max would drop it
        return spec

    monkeypatch.setattr(scenarios, "_grid_spectrum", nan_at_k_5)
    verdict = run_scenario("jackson")
    assert not verdict["passed"]
    failed = [c["label"] for c in verdict["checks"] if not c["ok"]]
    assert failed == [
        "Fourier decay |c_k| <= ||phi|| w(1/|k|) / 2 for 2 <= |k| <= 256"]
    assert math.isnan(verdict["details"]["decay_max_ratio"])
    assert verdict["details"]["decay_argmax_k"] == 5


def test_jackson_tells_the_two_smoothing_kernels_apart(monkeypatch):
    jackson_coeffs, fejer_coeffs = scenarios.SMOOTHING_KERNELS
    monkeypatch.setattr(scenarios, "SMOOTHING_KERNELS",
                        (fejer_coeffs, jackson_coeffs))
    verdict = run_scenario("jackson")
    assert not verdict["passed"]
    failed = [c["label"] for c in verdict["checks"] if not c["ok"]]
    assert failed == ["||x||: n * err spans < ln(4) / (2 pi^2) under Jackson, "
                      "rises by more per 4x under Fejer"]
