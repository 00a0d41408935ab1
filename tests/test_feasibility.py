"""Decoherence budget arithmetic and schedule wall-clock estimates."""

import math
from fractions import Fraction

import pytest

from squidqed.feasibility import (DEFAULT_MARGIN, FeasibilityInput,
                                  FeasibilityReport, assess,
                                  gate_time_estimate)
from squidqed.protocols import (SCHEDULE_BUILDERS, AraStep, DispersiveStep,
                                GateSchedule, PulseAction, schedule_cps,
                                schedule_swap, simultaneous)


def test_input_validation():
    with pytest.raises(ValueError, match="q_factor"):
        FeasibilityInput(q_factor=0.0, nu=80.1e9, t_op=1e-8, t_r=1e-6)
    with pytest.raises(ValueError, match="t_r"):
        FeasibilityInput(q_factor=1e8, nu=80.1e9, t_op=1e-8, t_r=-1e-6)
    with pytest.raises(ValueError):
        assess(FeasibilityInput(1e8, 80.1e9, 1e-8, 1e-6), margin=0.0)


@pytest.mark.parametrize("margin", [math.nan, math.inf, 0.0, -1.0])
def test_assess_refuses_a_margin_that_is_not_finite_and_positive(margin):
    with pytest.raises(ValueError, match="margin must be finite and positive"):
        assess(FeasibilityInput(1e8, 80.1e9, 1e-8, 1e-6), margin=margin)


def test_reference_scenario():
    # Q = 1e8 cavity at 80.1 GHz, 10 ns gates, 1 us auxiliary relaxation
    f = FeasibilityInput(q_factor=1e8, nu=80.1e9, t_op=1e-8, t_r=1e-6)
    rep = assess(f)
    assert rep.T_c == pytest.approx(1e8 / (2 * math.pi * 80.1e9))
    assert rep.P == pytest.approx(0.01)
    assert rep.effective_decay == pytest.approx(rep.T_c / rep.P)
    assert rep.effective_decay > 1e-2  # ~20 ms of protected coherence
    assert rep.q_min == pytest.approx(5032.831431050849, rel=1e-12)
    assert rep.margin == DEFAULT_MARGIN
    assert rep.margin_achieved == pytest.approx(1e8 / rep.q_min)
    assert rep.margin_achieved > 1e4
    assert rep.ok and bool(rep)


def test_marginal_cavity_fails():
    # Q = 5e4 sits at ~9.9x q_min: below the default 10x margin
    f = FeasibilityInput(q_factor=5e4, nu=80.1e9, t_op=1e-8, t_r=1e-6)
    rep = assess(f)
    assert rep.margin_achieved == pytest.approx(9.935, rel=1e-3)
    assert not rep.ok
    # a laxer margin accepts the same cavity
    assert assess(f, margin=5.0).ok


def test_verdict_threshold_is_margin_times_qmin():
    nu, t_op, t_r = 80.1e9, 1e-8, 1e-6
    q_min = 2 * math.pi * nu * t_op
    just_below = assess(FeasibilityInput(0.999 * 10 * q_min, nu, t_op, t_r))
    just_above = assess(FeasibilityInput(1.001 * 10 * q_min, nu, t_op, t_r))
    assert not just_below.ok
    assert just_above.ok
    assert "FAIL" in just_below.lines()[-1]
    assert "pass" in just_above.lines()[-1]


def test_report_lines_order():
    rep = assess(FeasibilityInput(1e8, 80.1e9, 1e-8, 1e-6))
    keys = [ln.split()[0] for ln in rep.lines()]
    assert keys == ["cavity_lifetime_T_c_s", "virtual_photon_prob_P",
                    "effective_decay_s", "q_min", "margin_required",
                    "margin_achieved", "verdict"]


def test_gate_time_estimate_cps():
    gamma = math.pi / 1e-8  # dispersive segment of pi/gamma = 10 ns
    rabi = 2 * math.pi * 1e9
    t = gate_time_estimate(gamma, schedule_cps(), rabi)
    # pi pulse + pi/gamma wait + 3pi pulse
    expect = (math.pi + 3 * math.pi) / (2 * rabi) + 1e-8
    assert t == pytest.approx(expect, rel=1e-12)
    # the dispersive wait dominates when pulses are fast
    assert 1e-8 / t > 0.9


def test_gate_time_counts_longest_pulse_in_group():
    sched = GateSchedule(name="pair", steps=(
        simultaneous(PulseAction("a", (1, 2), Fraction(2)),
                     PulseAction("b", (0, 2), Fraction(1, 2))),
        DispersiveStep(Fraction(1, 2)),
    ))
    gamma, rabi = 1.0e8, 1.0e9
    t = gate_time_estimate(gamma, sched, rabi)
    assert t == pytest.approx(2 * math.pi / (2 * rabi)
                              + 0.5 * math.pi / gamma, rel=1e-12)


def test_gate_time_swap_longer_than_cps():
    gamma, rabi = math.pi / 1e-8, 2 * math.pi * 1e9
    assert gate_time_estimate(gamma, schedule_swap(), rabi) > \
        gate_time_estimate(gamma, schedule_cps(), rabi)


def test_gate_time_validation():
    with pytest.raises(ValueError):
        gate_time_estimate(0.0, schedule_cps(), 1.0)
    with pytest.raises(ValueError):
        gate_time_estimate(1.0, schedule_cps(), -1.0)
    with pytest.raises(ValueError):
        gate_time_estimate(float("nan"), schedule_cps(), 1.0)


def test_gate_time_refuses_a_total_that_overflows():
    # each swap wait is finite, their sum 1.8e308 is not
    with pytest.raises(ValueError, match="total gate time of schedule "
                                         "'swap' is not finite"):
        gate_time_estimate(math.pi / 1.2e308, schedule_swap(), 1.0)
    with pytest.raises(ValueError, match="rotation length"):
        gate_time_estimate(1.0, schedule_cps(), 5e-324)


@pytest.mark.parametrize("inputs, name", [
    (dict(q_factor=1e8, nu=1e-10, t_op=5e-324, t_r=1e-6), "q_min"),
    (dict(q_factor=1e300, nu=1e-300, t_op=1e300, t_r=1e-300), "T_c"),
    (dict(q_factor=1e8, nu=80.1e9, t_op=5e-324, t_r=1e300), "P"),
])
def test_assess_refuses_derived_values_that_overflow(inputs, name):
    with pytest.raises(ValueError, match=f"derived {name} = "):
        assess(FeasibilityInput(**inputs))


def test_gate_time_pulses_use_the_pulse_duration_rule():
    # the longest rotation's theta / (2 rabi), to the last bit
    for build in SCHEDULE_BUILDERS.values():
        sched = build()
        for rabi in (1.0, 100.0, 123.4, 2 * math.pi * 1e9):
            want = 0.0
            for step in sched.steps:
                if isinstance(step, AraStep):
                    want += (max(a.theta for a in step.actions)
                             / (2.0 * rabi))
                else:
                    want += step.duration(0.37)
            assert gate_time_estimate(0.37, sched, rabi) == want


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_input_refuses_non_finite_values(bad):
    good = dict(q_factor=1e8, nu=80.1e9, t_op=1e-8, t_r=1e-6)
    for name in good:
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            FeasibilityInput(**dict(good, **{name: bad}))


def test_bool_protocol():
    good = FeasibilityReport(T_c=1.0, P=0.1, effective_decay=10.0,
                             q_min=1.0, margin=10.0, margin_achieved=100.0,
                             ok=True)
    bad = FeasibilityReport(T_c=1.0, P=0.1, effective_decay=10.0,
                            q_min=1.0, margin=10.0, margin_achieved=1.0,
                            ok=False)
    assert good and not bad
