"""Pulse schedules: closed-form step maps, gate truth behavior, backend
agreement."""

import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from squidqed import protocols
from squidqed.hamiltonians import (_on_loop, _unit, h_eff_vacuum,
                                   loop_cavity_hamiltonian)
from squidqed.hilbert import Operator, StateVector, basis_state, matexp_unitary
from squidqed.protocols import (AraStep, DispersiveStep, ExecutionParams,
                                GateSchedule, PulseAction, SCHEDULE_BUILDERS,
                                dispersive_map, execute, rotation_map,
                                schedule_cps, schedule_entanglement,
                                schedule_swap, schedule_transfer,
                                simultaneous, _cavity_blocks,
                                _cavity_dispersive_unitary,
                                _cavity_eigensystem, _run_block,
                                _schedule_unitaries, _step_unitary,
                                _with_cavity_vacuum)
from squidqed.verify import corrupt_first_pulse

COMP = (0, 1, 3, 4)  # |00>, |01>, |10>, |11> on the 9-dim two-loop space


def comp_propagator(schedule, backend="analytic", params=None):
    """Columns: the computational amplitudes of the runs from |00>, |01>,
    |10> and |11> (the photon-vacuum sector on the cavity backend)."""
    cols = []
    for k in COMP:
        final = execute(schedule, basis_state((3, 3), divmod(k, 3)), backend,
                        params).final_state.amplitudes
        cols.append(final.reshape(9, -1)[COMP, 0])
    return np.stack(cols, axis=1)


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


def test_shipped_builders_return_one_shared_schedule():
    for name, build in SCHEDULE_BUILDERS.items():
        sched = build()
        assert build() is sched, name
    assert SCHEDULE_BUILDERS["cps"]() is schedule_cps()


def test_shared_schedules_cannot_be_changed():
    for name, build in SCHEDULE_BUILDERS.items():
        sched = build()
        with pytest.raises(dataclasses.FrozenInstanceError):
            sched.name = "other"
        with pytest.raises(dataclasses.FrozenInstanceError):
            sched.steps = ()
        assert isinstance(sched.steps, tuple)
        for step in sched.steps:
            with pytest.raises(dataclasses.FrozenInstanceError):
                if isinstance(step, AraStep):
                    step.actions[0].theta_over_pi = Fraction(2)
                else:
                    step.duration_over_pi_gamma = Fraction(2)
        arrays = []
        if sched.ideal_unitary is not None:
            arrays.append(sched.ideal_unitary.entries)
        if sched.target_state is not None:
            arrays.append(sched.target_state.amplitudes)
        for arr in arrays:
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError):
                arr[0] = 0.0


def test_corrupting_a_shared_schedule_leaves_it_unchanged():
    for name, build in SCHEDULE_BUILDERS.items():
        sched = build()
        steps = repr(sched.steps)
        bent = corrupt_first_pulse(sched)
        assert repr(bent.steps) != steps
        assert build() is sched
        assert sched.name == name and repr(sched.steps) == steps


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


def test_execute_takes_two_loop_inputs_only():
    cavity = ExecutionParams(explicit_cavity=True, fock_cutoff=4)
    with pytest.raises(ValueError, match="dims"):
        execute(schedule_cps(), basis_state((3, 3, 4), (1, 0, 0)),
                "hamiltonian", cavity)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"),
                                 0.0])
def test_execution_params_refuse_rates_that_are_not_finite_and_positive(bad):
    for field in ("gamma", "rabi"):
        with pytest.raises(ValueError, match="finite and positive"):
            ExecutionParams(**{field: bad})
    for field in ("g02", "detuning"):
        with pytest.raises(ValueError, match="finite, positive"):
            ExecutionParams(explicit_cavity=True, **{field: bad})


@pytest.mark.parametrize("bad", [4.0, 4.5, True, "4", None])
def test_execution_params_refuse_a_fock_cutoff_that_is_not_an_int(bad):
    with pytest.raises(ValueError, match="fock_cutoff must be an int, got"):
        ExecutionParams(g02=0.05, detuning=1.0, explicit_cavity=True,
                        fock_cutoff=bad)


def test_execution_params_take_a_numpy_int_fock_cutoff():
    for cutoff in (np.int64(4), np.int32(4)):
        params = ExecutionParams(g02=0.05, detuning=1.0,
                                 explicit_cavity=True, fock_cutoff=cutoff)
        res = execute(schedule_cps(), basis_state((3, 3), (1, 1)),
                      "hamiltonian", params)
        assert res.final_state.dims == (3, 3, 4)


def test_pulse_duration_is_theta_over_twice_the_rabi_rate():
    act = PulseAction("a", (1, 2), Fraction(3))
    assert act.duration(7.0) == 3 * np.pi / 14.0


def test_step_lengths_that_overflow_are_refused_by_name():
    with pytest.raises(ValueError, match="dispersive segment length"):
        DispersiveStep(Fraction(1)).duration(5e-324)
    with pytest.raises(ValueError, match="rotation length"):
        PulseAction("a", (1, 2), Fraction(1)).duration(5e-324)
    psi = basis_state((3, 3), (1, 1))
    for backend in ("analytic", "hamiltonian"):
        with pytest.raises(ValueError, match="dispersive segment length"):
            execute(schedule_cps(), psi, backend,
                    ExecutionParams(gamma=5e-324))
    for params in (ExecutionParams(rabi=5e-324),
                   ExecutionParams(rabi=5e-324, explicit_cavity=True)):
        with pytest.raises(ValueError, match="rotation length"):
            execute(schedule_cps(), psi, "hamiltonian", params)


def test_analytic_backend_refuses_the_cavity():
    with pytest.raises(ValueError, match="'analytic' has no cavity"):
        execute(schedule_cps(), basis_state((3, 3), (0, 0)), "analytic",
                ExecutionParams(explicit_cavity=True))


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


def test_explicit_cavity_sets_gamma():
    # the explicit cavity times its waits by g02^2 / detuning, whatever
    # gamma was passed
    p = ExecutionParams(gamma=7.0, g02=0.05, detuning=1.0,
                        explicit_cavity=True)
    assert p.gamma == 0.05 * 0.05 / 1.0
    assert p == ExecutionParams(g02=0.05, detuning=1.0, explicit_cavity=True)
    assert ExecutionParams(gamma=7.0).gamma == 7.0
    with pytest.raises(ValueError, match="gamma and rabi"):
        ExecutionParams(gamma=-1.0)
    # a rate that underflows or overflows is refused by name
    for g02, delta in ((1e-200, 1.0), (1e200, 1e-200)):
        with pytest.raises(ValueError, match=r"g02\^2/detuning = .* is not "
                                             r"finite and positive"):
            ExecutionParams(g02=g02, detuning=delta, explicit_cavity=True)


CAVITY = ExecutionParams(g02=0.05, detuning=1.0, fock_cutoff=4,
                         explicit_cavity=True)
BACKENDS = (("analytic", ExecutionParams(), (3, 3)),
            ("hamiltonian", ExecutionParams(), (3, 3)),
            ("hamiltonian", CAVITY, (3, 3, 4)))


def test_cached_step_propagators_are_read_only():
    for backend, params, dims in BACKENDS:
        units = _schedule_unitaries(schedule_swap(), backend, params)
        assert _schedule_unitaries(schedule_swap(), backend, params) is units
        for u, step in zip(units, schedule_swap().steps):
            assert not u.flags.writeable
            with pytest.raises(ValueError):
                u[0, 0] = 0.0
            # built fresh on every call, with the same bits
            fresh = _step_unitary(step, backend, params)
            assert fresh is not u and not fresh.flags.writeable
            assert np.array_equal(fresh, u)
    w, v = _cavity_eigensystem(0.05, 1.0, 4)
    assert not w.flags.writeable and not v.flags.writeable


def test_execute_unchanged_by_cache_clear():
    psi = StateVector(np.arange(1, 10) * np.exp(0.3j * np.arange(9))
                      / np.linalg.norm(np.arange(1, 10)), (3, 3))
    for backend, params, _ in BACKENDS:
        for build in SCHEDULE_BUILDERS.values():
            # one schedule object, so the warm run hits the per-schedule
            # lookup as well as the per-step propagators
            sched = build()

            def run():
                return execute(sched, psi, backend, params,
                               record_intermediate=True)
            run()  # fills the caches
            warm = run()
            _schedule_unitaries.cache_clear()
            _cavity_blocks.cache_clear()
            cold = run()
            np.testing.assert_array_equal(warm.final_state.amplitudes,
                                          cold.final_state.amplitudes)
            for a, b in zip(warm.intermediates, cold.intermediates):
                np.testing.assert_array_equal(a.amplitudes, b.amplitudes)


def test_warm_execute_resolves_its_schedule_with_one_lookup(monkeypatch):
    psi = basis_state((3, 3), (1, 1))
    for backend, params, dims in BACKENDS:
        for build in SCHEDULE_BUILDERS.values():
            sched = build()
            first = execute(sched, psi, backend, params)
            calls = []

            def counted(*args):
                calls.append(args)
                return _step_unitary(*args)

            monkeypatch.setattr(protocols, "_step_unitary", counted)
            layout_misses = protocols._run_layout.cache_info().misses
            again = execute(sched, psi, backend, params)
            monkeypatch.undo()
            assert calls == [], (sched.name, backend, dims)
            assert protocols._run_layout.cache_info().misses == layout_misses
            np.testing.assert_array_equal(again.final_state.amplitudes,
                                          first.final_state.amplitudes)
            # the lookup hands out the one cached tuple of propagators
            units = _schedule_unitaries(sched, backend, params)
            assert _schedule_unitaries(sched, backend, params) is units
            assert all(np.array_equal(u, _step_unitary(step, backend, params))
                       for u, step in zip(units, sched.steps))


def test_refusals_are_raised_on_every_call_of_either_entry_point():
    """The layout memo keeps no refusal and skips none: an unknown backend
    and the analytic backend with the cavity are refused by name on a
    cold call and again once every memo is warm."""
    psi = basis_state((3, 3), (1, 1))
    entries = {"execute": lambda b, p: execute(schedule_cps(), psi, b, p),
               "_run_block": lambda b, p: _run_block(
                   schedule_cps(), psi.amplitudes[None], b, p)}
    refused = (("x", ExecutionParams(), r"^unknown backend 'x'$"),
               ("analytic", CAVITY, r"^backend 'analytic' has no cavity"))
    for name, run in entries.items():
        for backend, params, message in refused:
            protocols._run_layout.cache_clear()
            _schedule_unitaries.cache_clear()
            for _ in range(2):  # cold, then right after a refusal
                with pytest.raises(ValueError, match=message):
                    run(backend, params)
            run("hamiltonian", params)  # warms every memo for params
            for _ in range(2):
                with pytest.raises(ValueError, match=message):
                    run(backend, params)
            assert protocols._run_layout.cache_info().currsize == 1, name


@pytest.mark.parametrize("fock_cutoff", [4, 8])
def test_max_norm_drift_is_the_largest_norm_error_over_the_run(fock_cutoff):
    """max |norm - 1| over the input and every step, as `np.linalg.norm`
    reads it to within 4 ulp of 1; the input is off its unit norm, so the
    drift is not roundoff alone."""
    rng = np.random.default_rng(11)
    cavity = dataclasses.replace(CAVITY, fock_cutoff=fock_cutoff)
    for backend, params in (("analytic", ExecutionParams(rabi=100.0)),
                            ("hamiltonian", ExecutionParams(rabi=100.0)),
                            ("hamiltonian", cavity)):
        for build in SCHEDULE_BUILDERS.values():
            amps = rng.normal(size=9) + 1j * rng.normal(size=9)
            amps *= (1.0 + 1e-9 * (1.0 + rng.uniform())) / np.linalg.norm(amps)
            psi = StateVector(amps, (3, 3))
            res = execute(build(), psi, backend, params,
                          record_intermediate=True)
            first = (_with_cavity_vacuum(amps, fock_cutoff)
                     if params.explicit_cavity else amps)
            want = max(abs(np.linalg.norm(v) - 1.0) for v in
                       [first] + [s.amplitudes for s in res.intermediates])
            assert want > 1e-10
            assert abs(res.max_norm_drift - want) <= 4 * np.spacing(1.0), (
                backend, params.explicit_cavity, res.max_norm_drift, want)


def test_a_step_that_is_not_unitary_rejects_the_run(monkeypatch):
    from squidqed.dynamics import NORM_DRIFT_MAX

    psi = basis_state((3, 3), (1, 1))
    real = protocols._step_unitary

    def scaled(step, backend, params):
        u = real(step, backend, params)
        return u * (1.0 + 1e-6) if step is schedule_swap().steps[1] else u

    _schedule_unitaries.cache_clear()
    monkeypatch.setattr(protocols, "_step_unitary", scaled)
    try:
        for backend, params, _ in BACKENDS:
            with pytest.raises(RuntimeError,
                               match=f"exceeds {NORM_DRIFT_MAX:.0e}; "
                                     f"result rejected"):
                execute(schedule_swap(), psi, backend, params)
    finally:
        _schedule_unitaries.cache_clear()


def _full_dims_pulse(step, params, dims):
    """Reference pulse propagator: each rotation's generator is placed on
    the whole of ``dims`` and exponentiated there."""
    u = np.eye(math.prod(dims), dtype=complex)
    for act in step.actions:
        i, j = act.levels
        gen = _on_loop(params.rabi * (_unit(i, j) + _unit(j, i)),
                       ("a", "b").index(act.target), dims)
        h = Operator(gen, dims, hermitian_flag=True)
        u = matexp_unitary(h, act.duration(params.rabi)).entries @ u
    return u


@pytest.mark.parametrize("rabi", [1.0, 100.0, 6e9])
@pytest.mark.parametrize("fock_cutoff", [None, 4, 8])
def test_pulses_built_on_their_loop_are_bitwise_the_full_dims_exponential(
        rabi, fock_cutoff):
    if fock_cutoff is None:
        params, dims = ExecutionParams(rabi=rabi), (3, 3)
    else:
        params = ExecutionParams(rabi=rabi, g02=0.05, detuning=1.0,
                                 fock_cutoff=fock_cutoff,
                                 explicit_cavity=True)
        dims = (3, 3, fock_cutoff)
    schedules = [build() for build in SCHEDULE_BUILDERS.values()]
    schedules.append(corrupt_first_pulse(schedule_cps()))
    pulses = [step for sched in schedules for step in sched.steps
              if isinstance(step, AraStep)]
    assert len(pulses) == 11
    for step in pulses:
        u = _step_unitary(step, "hamiltonian", params)
        assert u.shape == (math.prod(dims),) * 2
        assert np.array_equal(u, _full_dims_pulse(step, params, dims)), step


def test_every_pulse_exponentiates_a_three_level_generator(monkeypatch):
    sizes = []

    def recorded(h, t):
        sizes.append(h.dims)
        return matexp_unitary(h, t)

    monkeypatch.setattr(protocols, "matexp_unitary", recorded)
    for params in (ExecutionParams(), CAVITY):
        for build in SCHEDULE_BUILDERS.values():
            for step in build().steps:
                if isinstance(step, AraStep):
                    _step_unitary(step, "hamiltonian", params)
    assert sizes and set(sizes) == {(3,)}


@pytest.mark.parametrize("fock_cutoff", [4, 8])
def test_block_rows_are_one_input_runs_bit_for_bit(fock_cutoff):
    """Every row of a block run holds the bits of that input's own
    `execute`: its final state and every intermediate.  A product over the
    whole block (gemm) sums in another order and fails here."""
    rng = np.random.default_rng(5)
    block = rng.normal(size=(5, 9)) + 1j * rng.normal(size=(5, 9))
    block /= np.linalg.norm(block, axis=1)[:, None]
    for backend, params in (
            ("analytic", ExecutionParams(gamma=1.3, rabi=100.0)),
            ("hamiltonian", ExecutionParams(gamma=1.3, rabi=100.0)),
            ("hamiltonian", ExecutionParams(rabi=100.0, explicit_cavity=True,
                                            fock_cutoff=fock_cutoff))):
        dim = 9 * (fock_cutoff if params.explicit_cavity else 1)
        for build in SCHEDULE_BUILDERS.values():
            sched = build()
            runs = _run_block(sched, block, backend, params)
            assert runs.shape == (5, len(sched.steps) + 1, dim)
            for psi, run in zip(block, runs):
                res = execute(sched, StateVector(psi, (3, 3)), backend,
                              params, record_intermediate=True)
                assert (run[-1].tobytes()
                        == res.final_state.amplitudes.tobytes())
                assert ([state.tobytes() for state in run[1:]]
                        == [s.amplitudes.tobytes()
                            for s in res.intermediates]), (sched.name,
                                                           backend)


def test_cavity_vacuum_embedding_is_the_kron_product_bit_for_bit():
    # signed zeros, infinities and NaNs included: the helper must run the
    # same complex products as np.kron, not merely equal values
    rng = np.random.default_rng(3)
    parts = np.array([0.0, -0.0, 1.0, -1.0, 0.3, -2.5, np.inf, -np.inf,
                      np.nan, 5e-324, -5e-324])
    for nfock in (2, 4, 8):
        vacuum = np.eye(1, nfock, dtype=complex)[0]
        for _ in range(200):
            amps = np.array([complex(re, im) for re, im in
                             zip(rng.choice(parts, 9), rng.choice(parts, 9))])
            with np.errstate(invalid="ignore"):
                want = np.kron(amps, vacuum)
                got = _with_cavity_vacuum(amps, nfock)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (nfock, amps)


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
        gam = params.gamma
        t = np.pi / (4.0 * gam)
        u = _cavity_dispersive_unitary(params, t)[np.ix_(vac, vac)]
        dev.append(np.max(np.abs(u - dispersive_map(gam, t).entries)))
        assert dev[-1] < 4.0 * ratio ** 2, (ratio, dev[-1])
    assert 3.0 < dev[0] / dev[1] < 5.0, dev


@pytest.mark.parametrize("inputs", [np.zeros((2, 3)), np.zeros(9),
                                    np.zeros((1, 27)), np.zeros((1, 1, 9))],
                         ids=["2 x 3", "one row, 1-D", "1 x 27", "3-D"])
def test_run_block_refuses_a_block_that_is_not_k_by_9(inputs):
    shape = re.escape(str(inputs.shape))
    with pytest.raises(ValueError, match=f"^inputs of shape {shape} are not "
                                         "a block of two-loop rows$"):
        protocols._run_block(schedule_cps(), inputs, "analytic", None)


def _excitation_labels(fock_cutoff: int) -> np.ndarray:
    """Invariant block of every basis state of (loop_a, loop_b, cavity)
    under the co-rotating exchange: which loops sit in |1>, and the
    excitation number, photons plus loops in |2>."""
    a, b, n = np.indices((3, 3, fock_cutoff)).reshape(3, -1)
    return 1000 * (a == 1) + 100 * (b == 1) + n + (a == 2) + (b == 2)


@pytest.mark.parametrize("fock_cutoff, n_blocks", [(4, 20), (8, 36)])
def test_cavity_blocks_are_the_excitation_blocks(fock_cutoff, n_blocks):
    w, v, (j, l) = _cavity_blocks(0.05, 1.0, fock_cutoff)
    labels = _excitation_labels(fock_cutoff)
    _, sizes = np.unique(labels, return_counts=True)
    assert len(sizes) == n_blocks and sizes.max() == 4
    same = labels[:, None] == labels[None, :]
    assert not v[~same].any()
    assert (list(zip(j, l))
            == list(zip(*np.nonzero(np.triu(same, 1)))))
    assert len(j) == {4: 24, 8: 56}[fock_cutoff]
    for a in (w, v, j, l):
        assert not a.flags.writeable


@pytest.mark.parametrize("fock_cutoff", [4, 8])
@pytest.mark.parametrize("ratio", [0.05, 0.025])
def test_cavity_segment_propagator_matches_a_40_digit_exponential(
        fock_cutoff, ratio):
    # e^{-i Delta n_hat t} e^{-i H' t} from mpmath's expm at 40 digits on
    # each excitation block.  Every eigenphase w t of the segment is
    # rounded to doubles, so the propagator can reach the reference only
    # to a few units of eps (1 + max|w| t): dense eigenvectors, mixed
    # across degenerate blocks, do not (up to 4.8 units); the block ones do
    mpmath = pytest.importorskip("mpmath")
    params = ExecutionParams(g02=ratio, detuning=1.0,
                             fock_cutoff=fock_cutoff, explicit_cavity=True)
    w, _ = _cavity_eigensystem(ratio, 1.0, fock_cutoff)
    g = np.zeros((3, 3))
    g[0, 2] = g[2, 0] = ratio
    h = loop_cavity_hamiltonian((0.0, 0.0, 0.0), -1.0, g, fock_cutoff, 2,
                                rotating_wave=True).real
    labels = _excitation_labels(fock_cutoff)
    photons = np.tile(np.arange(fock_cutoff), 9)
    for t in (1.0, DispersiveStep(1).duration(params.gamma)):
        ref = np.zeros((len(h),) * 2, dtype=complex)
        with mpmath.workdps(40):
            for label in np.unique(labels):
                idx = np.flatnonzero(labels == label)
                u = mpmath.expm(mpmath.matrix(h[np.ix_(idx, idx)].tolist())
                                * mpmath.mpc(0, -t))
                for r, i in enumerate(idx):
                    frame = mpmath.expj(-mpmath.mpf(t) * int(photons[i]))
                    for c, k in enumerate(idx):
                        ref[i, k] = complex(frame * u[r, c])
        err = np.abs(_cavity_dispersive_unitary(params, t) - ref).max()
        floor = np.finfo(float).eps * (1.0 + np.abs(w).max() * t)
        assert err <= 3.0 * floor, (t, err / floor)
