"""Time evolution: exactness for constant generators, midpoint convergence
order, unitarity/reversibility invariants, step-size policing."""

import numpy as np
import pytest

from squidqed.constants import HBAR, TWO_PI
from squidqed.dynamics import (EvolutionResult, StepSizeError, evolve_timedep,
                               max_step_for)
from squidqed.hamiltonians import DriveSpec, h_drive_full_factory
from squidqed.hilbert import (Operator, StateVector, basis_state,
                              fidelity_up_to_global_phase, matexp_unitary)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def random_state(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return StateVector(v / np.linalg.norm(v), (n,))


def driven_qubit(rabi, omega):
    """H(t) = rabi*cos(omega t)*sx + 0.3*rabi*sz, with the step-cap hint."""
    def h(t):
        return Operator(rabi * np.cos(omega * t) * SX + 0.3 * rabi * SZ, (2,))
    h.omega_max = omega
    return h


def test_max_step_for():
    omega = TWO_PI * 1e9
    assert max_step_for(omega) == pytest.approx((TWO_PI / omega) / 20)
    assert max_step_for(0.0) == np.inf


def test_step_size_policing():
    h = driven_qubit(1e6, TWO_PI * 1e9)
    psi = basis_state((2,), (0,))
    cap = max_step_for(h.omega_max)
    with pytest.raises(StepSizeError):
        evolve_timedep(h, 0.0, 1e-8, 2 * cap, psi)
    # explicit omega_max overrides the attribute
    evolve_timedep(h, 0.0, 10 * cap, 2 * cap, psi, omega_max=h.omega_max / 4)
    with pytest.raises(ValueError):
        evolve_timedep(h, 0.0, 1e-8, -1.0, psi)


def test_timedep_reduces_to_const():
    # a constant h_of_t must reproduce the exact exponential regardless of
    # step count (each midpoint step is exact, and they compose exactly)
    rng = np.random.default_rng(14)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = Operator((m + m.conj().T) / 2, (3,))
    psi = random_state(rng, 3)
    res = evolve_timedep(lambda t: h, 0.0, 1.3, 0.01, psi)
    ref = matexp_unitary(h, 1.3).entries @ psi.amplitudes
    assert fidelity_up_to_global_phase(res.final_state,
                                       StateVector(ref, psi.dims)) > 1 - 1e-12
    np.testing.assert_allclose(res.final_state.amplitudes, ref, atol=1e-9)


def test_midpoint_is_second_order():
    # halving the step should shrink the error ~4x
    h = driven_qubit(2.0, 6.0)
    psi = basis_state((2,), (0,))
    t1 = 2.0
    ref = evolve_timedep(h, 0.0, t1, 1e-4, psi).final_state.amplitudes
    errs = []
    for dt in (0.02, 0.01, 0.005):
        out = evolve_timedep(h, 0.0, t1, dt, psi).final_state.amplitudes
        errs.append(np.linalg.norm(out - ref))
    assert 3.0 < errs[0] / errs[1] < 5.5
    assert 3.0 < errs[1] / errs[2] < 5.5


def test_unitarity_and_time_reversal():
    rng = np.random.default_rng(21)
    h = driven_qubit(1.5, 8.0)
    for _ in range(5):
        psi = random_state(rng, 2)
        fwd = evolve_timedep(h, 0.0, 1.7, 0.003, psi, want_propagator=True)
        u = fwd.propagator.entries
        np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-10)
        np.testing.assert_allclose(u @ psi.amplitudes,
                                   fwd.final_state.amplitudes, atol=1e-12)
        # integrate back down the same path
        back = evolve_timedep(h, 1.7, 0.0, 0.003, fwd.final_state)
        assert fidelity_up_to_global_phase(back.final_state, psi) > 1 - 1e-9
        assert fwd.max_norm_drift < 1e-10


def test_record_intermediate():
    h = driven_qubit(1.0, 5.0)
    psi = basis_state((2,), (0,))
    res = evolve_timedep(h, 0.0, 0.5, 0.01, psi, record_intermediate=True)
    assert len(res.intermediates) == res.step_count
    np.testing.assert_array_equal(res.intermediates[-1].amplitudes,
                                  res.final_state.amplitudes)
    plain = evolve_timedep(h, 0.0, 0.5, 0.01, psi)
    assert plain.intermediates is None


def test_norm_drift_guard():
    bad = StateVector(np.array([2.0, 0.0]), (2,))
    with pytest.raises(RuntimeError, match="norm drift"):
        EvolutionResult(final_state=bad, propagator=None, step_count=1,
                        max_norm_drift=1.0)


def test_weak_resonant_drive_transfers_population():
    # resonant pulse of area pi on the 1<->2 pair of a three-level loop,
    # with the counter-rotating term retained: for rabi 1000x below the
    # transition frequency the fast term only contributes a tiny
    # Bloch-Siegert correction, so the transfer deficit stays far below
    # the reduced-model tolerance.
    w21 = TWO_PI * 72.0e9
    rabi = 1e-3 * w21
    duration = np.pi / (2.0 * rabi)
    from squidqed.squid import LevelStructure
    energies = HBAR * np.array([0.0, TWO_PI * 7.0e9, TWO_PI * 79.0e9])
    ls = LevelStructure(energies, np.eye(3) * 1e-15 + 1e-16,
                        TWO_PI * 7.0e9, TWO_PI * 79.0e9, w21)
    d = DriveSpec(target_levels=(1, 2), rabi=rabi, omega_uw=w21,
                  duration=duration)
    h = h_drive_full_factory(d, ls)
    psi = basis_state((3,), (1,))
    dt = max_step_for(h.omega_max)
    res = evolve_timedep(h, 0.0, duration, dt, psi)
    p2 = abs(res.final_state.amplitudes[2]) ** 2
    deficit = 1.0 - p2
    assert deficit < 1e-4

    # and the deficit scales like the square of rabi/omega: 2x weaker
    # drive -> ~4x smaller deficit
    d2 = DriveSpec(target_levels=(1, 2), rabi=rabi / 2, omega_uw=w21,
                   duration=2 * duration)
    h2 = h_drive_full_factory(d2, ls)
    res2 = evolve_timedep(h2, 0.0, 2 * duration, dt, psi)
    deficit2 = 1.0 - abs(res2.final_state.amplitudes[2]) ** 2
    assert 3.0 < deficit / deficit2 < 5.5
