"""Pulse schedules: closed-form step maps, gate truth behavior, backend
agreement."""

from fractions import Fraction

import numpy as np
import pytest

from squidqed.hamiltonians import h_eff_vacuum
from squidqed.hilbert import StateVector, basis_state, matexp_unitary
from squidqed.protocols import (AraStep, DispersiveStep, ExecutionParams,
                                GateSchedule, PulseAction, SCHEDULE_BUILDERS,
                                dispersive_map, execute, rotation_map,
                                schedule_cps, schedule_entanglement,
                                schedule_swap, schedule_transfer,
                                simultaneous, _cavity_dispersive_unitary,
                                _cavity_eigensystem, _step_unitary)

COMP = (0, 1, 3, 4)  # |00>, |01>, |10>, |11> on the 9-dim two-loop space


def comp_propagator(schedule, backend="analytic", params=None):
    res = execute(schedule, basis_state((3, 3), (0, 0)), backend,
                  params, want_propagator=True)
    u = res.propagator.entries
    if u.shape[0] > 9:  # cavity backend: take the photon-vacuum block
        n = u.shape[0] // 9
        u = u[np.ix_([k * n for k in range(9)], [k * n for k in range(9)])]
    return u[np.ix_(COMP, COMP)]


def test_rotation_map_angles():
    u = rotation_map((1, 2), np.pi)
    psi = u.entries @ basis_state((3,), (2,)).amplitudes
    assert psi[1] == pytest.approx(-1j)  # pi pulse: |2> -> -i|1>
    assert rotation_map((1, 2), np.pi).entries[0, 0] == 1.0

    u3 = rotation_map((1, 2), 3 * np.pi).entries
    assert u3[1, 2] == pytest.approx(1j, abs=1e-12)  # 3pi: |2> -> +i|1>
    u2 = rotation_map((1, 2), 2 * np.pi).entries
    np.testing.assert_allclose(u2, np.diag([1.0, -1.0, -1.0]), atol=1e-12)
    u4 = rotation_map((0, 2), 4 * np.pi).entries
    np.testing.assert_allclose(u4, np.eye(3), atol=1e-12)

    rng = np.random.default_rng(4)
    for theta in rng.uniform(0, 6 * np.pi, size=10):
        m = rotation_map((0, 2), float(theta)).entries
        np.testing.assert_allclose(m.conj().T @ m, np.eye(3), atol=1e-12)


def test_dispersive_map_matches_generator():
    gam = 2 * np.pi * 1.0e6
    rng = np.random.default_rng(17)
    h = h_eff_vacuum(gam)
    for t in rng.uniform(0, 3.0 / gam, size=8):
        closed = dispersive_map(gam, float(t)).entries
        ref = matexp_unitary(h, float(t)).entries
        np.testing.assert_allclose(closed, ref, atol=1e-12)


def test_action_validation():
    with pytest.raises(ValueError):
        PulseAction("c", (1, 2), Fraction(1))
    with pytest.raises(ValueError):
        PulseAction("a", (0, 1), Fraction(1))  # 0<->1 is never pulsed
    with pytest.raises(ValueError):
        PulseAction("a", (1, 2), Fraction(0))
    act = PulseAction("a", (2, 0), Fraction(3))
    assert act.levels == (0, 2)
    assert act.theta == pytest.approx(3 * np.pi)

    with pytest.raises(ValueError):
        AraStep(())
    with pytest.raises(ValueError):  # two actions on the same loop
        simultaneous(PulseAction("a", (1, 2), Fraction(1)),
                     PulseAction("a", (0, 2), Fraction(1)))
    with pytest.raises(ValueError):
        DispersiveStep(Fraction(-1, 2))
    with pytest.raises(ValueError):
        GateSchedule(name="empty", steps=())
    with pytest.raises(TypeError):
        GateSchedule(name="bad", steps=("pulse",))


def test_builder_structure():
    assert set(SCHEDULE_BUILDERS) == {"cps", "swap", "transfer",
                                      "entanglement"}
    cps = schedule_cps()
    kinds = [type(s).__name__ for s in cps.steps]
    assert kinds == ["AraStep", "DispersiveStep", "AraStep"]
    assert cps.steps[1].duration_over_pi_gamma == Fraction(1)
    assert cps.steps[0].actions[0].theta_over_pi == Fraction(1)
    assert cps.steps[2].actions[0].theta_over_pi == Fraction(3)
    assert cps.ideal_unitary is not None
    assert schedule_transfer().ideal_unitary is None
    assert schedule_entanglement().target_state is not None


def test_cps_and_swap_are_involutions():
    for build in (schedule_cps, schedule_swap):
        u = comp_propagator(build())
        np.testing.assert_allclose(u @ u, np.eye(4), atol=1e-9)


def test_cps_phase_pattern():
    u = comp_propagator(schedule_cps())
    np.testing.assert_allclose(u, np.diag([1, 1, 1, -1]), atol=1e-9)


def test_swap_exchanges_qubits():
    u = comp_propagator(schedule_swap())
    swap = np.eye(4)[[0, 2, 1, 3]]
    np.testing.assert_allclose(u, swap, atol=1e-9)


def test_transfer_moves_excitation_without_phase():
    res = execute(schedule_transfer(), basis_state((3, 3), (1, 0)))
    amps = res.final_state.amplitudes
    assert amps[1] == pytest.approx(1.0, abs=1e-9)  # exactly |0,1>
    assert np.linalg.norm(np.delete(amps, 1)) < 1e-9
    # the unexcited input only collects known local phases
    res0 = execute(schedule_transfer(), basis_state((3, 3), (0, 0)))
    assert abs(res0.final_state.amplitudes[0]) == pytest.approx(1.0)


def test_entanglement_prepares_declared_target():
    sched = schedule_entanglement()
    res = execute(sched, basis_state((3, 3), (0, 0)))
    amps = res.final_state.amplitudes
    phase = np.exp(-1j * np.pi / 4)
    assert amps[1] == pytest.approx(phase * 1j / np.sqrt(2), abs=1e-9)
    assert amps[3] == pytest.approx(-phase / np.sqrt(2), abs=1e-9)
    assert np.linalg.norm(np.delete(amps, [1, 3])) < 1e-9
    overlap = np.vdot(sched.target_state.amplitudes, amps)
    assert abs(overlap) ** 2 == pytest.approx(1.0, abs=1e-9)


def test_backends_agree():
    for name, build in SCHEDULE_BUILDERS.items():
        ua = comp_propagator(build(), "analytic")
        uh = comp_propagator(build(), "hamiltonian")
        np.testing.assert_allclose(ua, uh, atol=1e-9,
                                   err_msg=f"schedule {name}")


def test_execute_validation():
    with pytest.raises(ValueError, match="backend"):
        execute(schedule_cps(), basis_state((3, 3), (0, 0)), "euler")
    with pytest.raises(ValueError, match="dims"):
        execute(schedule_cps(), basis_state((3,), (0,)))


def test_pulses_leave_cavity_untouched():
    # on the explicit-cavity backend a rotation step acts only on the
    # loops; photon occupation must be bitwise-stable across every pulse
    params = ExecutionParams(g02=0.05, detuning=1.0, fock_cutoff=4,
                             explicit_cavity=True)
    sched = schedule_swap()
    res = execute(sched, basis_state((3, 3), (1, 1)), "hamiltonian", params,
                  record_intermediate=True)
    nfock = params.fock_cutoff
    nums = np.tile(np.arange(nfock), 9)

    def mean_photons(state):
        return float(nums @ (np.abs(state.amplitudes) ** 2))

    states = [basis_state((3, 3, nfock), (1, 1, 0))] + list(res.intermediates)
    for k, step in enumerate(sched.steps):
        if isinstance(step, AraStep):
            before = mean_photons(states[k])
            after = mean_photons(states[k + 1])
            assert abs(after - before) < 1e-8


def test_gamma_cavity_property():
    p = ExecutionParams(g02=0.05, detuning=1.0, explicit_cavity=True)
    assert p.gamma_cavity == pytest.approx(0.0025)
    with pytest.raises(ValueError):
        ExecutionParams(gamma=-1.0)


CAVITY = ExecutionParams(g02=0.05, detuning=1.0, fock_cutoff=4,
                         explicit_cavity=True)
BACKENDS = (("analytic", ExecutionParams(), (3, 3)),
            ("hamiltonian", ExecutionParams(), (3, 3)),
            ("hamiltonian", CAVITY, (3, 3, 4)))


def test_cached_step_propagators_are_read_only():
    for backend, params, dims in BACKENDS:
        for step in schedule_swap().steps:
            u = _step_unitary(step, backend, params, dims)
            assert not u.flags.writeable
            assert _step_unitary(step, backend, params, dims) is u
            with pytest.raises(ValueError):
                u[0, 0] = 0.0
    w, v = _cavity_eigensystem(0.05, 1.0, 4)
    assert not w.flags.writeable and not v.flags.writeable


def test_execute_unchanged_by_cache_clear():
    psi = StateVector(np.arange(1, 10) * np.exp(0.3j * np.arange(9))
                      / np.linalg.norm(np.arange(1, 10)), (3, 3))
    for backend, params, _ in BACKENDS:
        for build in SCHEDULE_BUILDERS.values():
            def run():
                return execute(build(), psi, backend, params,
                               want_propagator=True, record_intermediate=True)
            run()  # fills the caches
            warm = run()
            _step_unitary.cache_clear()
            _cavity_eigensystem.cache_clear()
            cold = run()
            np.testing.assert_array_equal(warm.final_state.amplitudes,
                                          cold.final_state.amplitudes)
            np.testing.assert_array_equal(warm.propagator.entries,
                                          cold.propagator.entries)
            for a, b in zip(warm.intermediates, cold.intermediates):
                np.testing.assert_array_equal(a.amplitudes, b.amplitudes)


def _lab_frame_rwa(omega_c, delta, g02, omega_10, nfock):
    """(H0, V) of two loops and the cavity in the lab frame, rotating wave
    kept, written out term by term: loop levels 0, omega_10 and
    omega_20 = omega_c + delta, V = g02 sum_m (|2><0|_m a + h.c.)."""
    i3, i_n = np.eye(3), np.eye(nfock)
    levels = np.diag([0.0, omega_10, omega_c + delta])
    a = np.diag(np.sqrt(np.arange(1.0, nfock)), 1)
    x20 = np.zeros((3, 3))
    x20[2, 0] = 1.0
    h0 = (np.kron(np.kron(levels, i3), i_n) + np.kron(np.kron(i3, levels), i_n)
          + np.kron(np.eye(9), omega_c * np.diag(np.arange(nfock))))
    up = np.kron(np.kron(x20, i3), a) + np.kron(np.kron(i3, x20), a)
    return np.diag(h0), g02 * (up + up.T)


def test_cavity_segment_is_the_lab_frame_interaction_picture():
    """The cavity segment propagator, against e^{i H0 t} e^{-i (H0 + V) t}
    of the lab-frame model with omega_20 - omega_c = detuning, at a time
    that is no multiple of pi / detuning."""
    for g02, delta, nfock in ((0.05, 1.0, 4), (0.1, 0.7, 5)):
        params = ExecutionParams(g02=g02, detuning=delta, fock_cutoff=nfock,
                                 explicit_cavity=True)
        h0, v = _lab_frame_rwa(5.3, delta, g02, 0.61, nfock)
        w, vecs = np.linalg.eigh(np.diag(h0) + v)
        t = 7.3
        lab = np.exp(1j * h0 * t)[:, None] * (
            (vecs * np.exp(-1j * w * t)) @ vecs.conj().T)
        dev = np.max(np.abs(_cavity_dispersive_unitary(params, t) - lab))
        assert dev < 1e-9, (g02, delta, dev)


def test_cavity_vacuum_block_follows_the_dispersive_map():
    """Over the entangling wait pi/(4 gamma) the vacuum block of the cavity
    propagator matches `dispersive_map`, whose sign is that of gamma, up to
    the O((g/Delta)^2) leakage, and the deviation contracts ~4x per halving
    of g/Delta."""
    nfock = 4
    vac = np.arange(9) * nfock
    dev = []
    for ratio in (0.05, 0.025):
        params = ExecutionParams(g02=ratio, detuning=1.0, fock_cutoff=nfock,
                                 explicit_cavity=True)
        gam = params.gamma_cavity
        t = np.pi / (4.0 * gam)
        u = _cavity_dispersive_unitary(params, t)[np.ix_(vac, vac)]
        dev.append(np.max(np.abs(u - dispersive_map(gam, t).entries)))
        assert dev[-1] < 4.0 * ratio ** 2, (ratio, dev[-1])
    assert 3.0 < dev[0] / dev[1] < 5.0, dev
