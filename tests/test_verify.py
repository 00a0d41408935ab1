"""Verification layer: fidelity/concurrence metrics, truth tables with a
negative control, and the two reduction-error scans."""

import dataclasses
import sys
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from squidqed import protocols, verify
from squidqed.constants import HBAR, TWO_PI
from squidqed.dynamics import evolve_timedep, max_step_for
from squidqed.hamiltonians import (CavityMode, CouplingSet,
                                   h_int_full_factory, h_int_rwa_factory,
                                   loop_cavity_hamiltonian)
from squidqed.hilbert import StateVector, basis_state
from squidqed.protocols import (ExecutionParams, GateSchedule,
                                schedule_cps, schedule_entanglement,
                                schedule_swap, schedule_transfer)
from squidqed.squid import LevelStructure, load_preset, solve
from squidqed.verify import (ScanResult, TruthRow, TruthTable,
                             check_gate, check_truth_table,
                             computational_propagator, concurrence,
                             corrupt_first_pulse, dispersive_error_point,
                             dispersive_error_scan, gate_fidelity,
                             halving_ratios, photon_excursion,
                             rwa_error_point, rwa_error_scan, truth_table_cps,
                             truth_table_swap, truth_table_transfer,
                             _PRESET_LEVEL_RATIO, _PRESET_PATTERN,
                             _phase_table, _sampled_photon_peaks)


def test_gate_fidelity_basics():
    rng = np.random.default_rng(12)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(m)
    assert gate_fidelity(q, q) == pytest.approx(1.0)
    # global phase does not matter
    assert gate_fidelity(np.exp(0.7j) * q, q) == pytest.approx(1.0)
    other = np.diag([1, 1, 1, -1]).astype(complex)
    assert gate_fidelity(np.eye(4), other) == pytest.approx(0.25)
    with pytest.raises(ValueError, match="not unitary"):
        gate_fidelity(0.5 * np.eye(4), np.eye(4))
    with pytest.raises(ValueError, match="shape"):
        gate_fidelity(np.eye(3), np.eye(4))
    # loosening the tolerance admits a leaky propagator
    assert gate_fidelity(0.5 * np.eye(4), np.eye(4),
                         unitarity_tol=1.0) == pytest.approx(0.25)


def test_concurrence():
    bell = StateVector(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2))
    assert concurrence(bell) == pytest.approx(1.0)
    prod = StateVector(np.array([1, 0, 0, 0], dtype=complex), (2, 2))
    assert concurrence(prod) == pytest.approx(0.0)
    # embedded in the three-level loops
    v = np.zeros(9, dtype=complex)
    v[1] = 1j / np.sqrt(2)   # |0,1>
    v[3] = -1 / np.sqrt(2)   # |1,0>
    assert concurrence(StateVector(v, (3, 3))) == pytest.approx(1.0)
    leaky = np.zeros(9, dtype=complex)
    leaky[0] = leaky[2] = 1 / np.sqrt(2)  # half on the auxiliary level
    with pytest.raises(ValueError, match="outside"):
        concurrence(StateVector(leaky, (3, 3)))
    with pytest.raises(ValueError, match="dims"):
        concurrence(StateVector(np.array([1.0, 0, 0, 0, 0, 0]), (2, 3)))


def test_computational_propagator_cps():
    u = computational_propagator(schedule_cps())
    np.testing.assert_allclose(u, np.diag([1, 1, 1, -1]), atol=1e-9)
    u_cav = computational_propagator(
        schedule_cps(), "hamiltonian",
        ExecutionParams(explicit_cavity=True))
    # cavity run keeps the phase pattern but with a small reduction error
    np.testing.assert_allclose(u_cav, np.diag(np.diag(u_cav)), atol=0.1)
    assert gate_fidelity(u_cav, u, unitarity_tol=1.0) > 0.99


def test_truth_tables_pass_on_exact_backends():
    for table in (truth_table_cps(), truth_table_swap(),
                  truth_table_transfer()):
        for backend in ("analytic", "hamiltonian"):
            chk = check_truth_table(table, backend)
            assert chk.ok, chk.failures
            assert chk.max_deviation < 1e-9
    assert len(truth_table_transfer().rows) == 2
    assert len(truth_table_cps().rows) == 4
    assert len(truth_table_swap().rows) == 4


SHIPPED_TABLES = {"cps": (truth_table_cps, schedule_cps),
                  "swap": (truth_table_swap, schedule_swap),
                  "transfer": (truth_table_transfer, schedule_transfer)}


def test_truth_table_inputs_are_stacked_once_and_run_as_declared(
        monkeypatch):
    blocks = []
    real = verify._run_block
    monkeypatch.setattr(verify, "_run_block", lambda sched, inputs, *args:
                        blocks.append(inputs) or real(sched, inputs, *args))
    for name, (build, _) in SHIPPED_TABLES.items():
        table = build()
        inputs = table.inputs
        assert np.array_equal(inputs, np.stack(
            [row.input_state.amplitudes for row in table.rows])), name
        assert not inputs.flags.writeable
        with pytest.raises(ValueError):
            inputs[0, 0] = 0.0
        assert "inputs" not in repr(table)
        blocks.clear()
        assert check_truth_table(table).ok
        assert len(blocks) == 1 and blocks[0] is inputs, name
    # cps and swap declare the four computational inputs in basis order,
    # transfer the two with loop b in |0>
    for build in (truth_table_cps, truth_table_swap):
        assert np.array_equal(build().inputs, verify._BASIS_ROWS)
    assert np.array_equal(truth_table_transfer().inputs,
                          verify._BASIS_ROWS[[0, 2]])


def test_shipped_truth_tables_are_shared_and_hold_the_shared_schedules():
    for name, (build, schedule) in SHIPPED_TABLES.items():
        table = build()
        assert build() is table, name
        assert table.schedule is schedule(), name


def test_truth_table_columns_are_stacked_once_and_read_only():
    for name, (build, _) in SHIPPED_TABLES.items():
        table = build()
        cols = table.columns
        assert cols.shape == (len(table.rows), len(table.schedule.steps), 9)
        assert np.array_equal(cols, np.array([[e.amplitudes
                                               for e in row.expected]
                                              for row in table.rows]))
        assert not cols.flags.writeable
        with pytest.raises(ValueError):
            cols[0, 0, 0] = 1.0
        for row in table.rows:
            assert not row.input_state.amplitudes.flags.writeable
        for field_name in ("schedule", "rows", "inputs", "columns"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(table, field_name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.rows[0].label = "other"
        # the derived columns take no part in comparison
        assert TruthTable(table.schedule, table.rows) == table
        assert "columns" not in repr(table)


def test_warm_repeat_pass_misses_no_schedule_propagators(monkeypatch):
    psi = StateVector(np.eye(9)[4], (3, 3))
    cavity = ExecutionParams(explicit_cavity=True)

    def one_pass():
        for build in protocols.SCHEDULE_BUILDERS.values():
            for backend in ("analytic", "hamiltonian"):
                protocols.execute(build(), psi, backend)
        for build, _ in SHIPPED_TABLES.values():
            for backend in ("analytic", "hamiltonian"):
                assert check_truth_table(build(), backend).ok
        computational_propagator(schedule_cps(), "hamiltonian", cavity)
        photon_excursion(schedule_cps(), cavity, psi)
        dispersive_error_scan()

    one_pass()  # fills the caches
    # the per-schedule memo is the only one: a warm pass builds no step
    built = []
    real = protocols._step_unitary
    monkeypatch.setattr(protocols, "_step_unitary",
                        lambda *args: built.append(args) or real(*args))
    before = protocols._schedule_unitaries.cache_info()
    one_pass()
    after = protocols._schedule_unitaries.cache_info()
    assert built == []
    assert after.misses == before.misses
    assert after.currsize == before.currsize
    assert after.hits > before.hits


def test_corrupted_schedule_fails_truth_table():
    table = truth_table_cps()
    bent = TruthTable(schedule=corrupt_first_pulse(table.schedule),
                      rows=table.rows)
    chk = check_truth_table(bent)
    assert not chk.ok
    assert chk.max_deviation > 0.01
    assert any("row" in f for f in chk.failures)
    # the shared table and its schedule are untouched by the corruption
    assert truth_table_cps() is table and table.schedule is schedule_cps()
    assert check_truth_table(table).ok


def test_corrupt_first_pulse_needs_a_pulse():
    from fractions import Fraction
    from squidqed.protocols import DispersiveStep
    bare = GateSchedule(name="idle", steps=(DispersiveStep(Fraction(1)),))
    with pytest.raises(ValueError, match="no pulse"):
        corrupt_first_pulse(bare)
    bent = corrupt_first_pulse(schedule_swap())
    assert bent.name == "swap-corrupted"
    first = bent.steps[0].actions[0]
    assert first.theta_over_pi == pytest.approx(0.9)


def test_scan_result_validation():
    with pytest.raises(ValueError, match="equal length"):
        ScanResult(kind="x", parameter=np.array([1.0, 2.0]),
                   error=np.array([1.0]),
                   peak_photon_population=np.array([0.0, 0.0]),
                   fock_violation=np.array([False, False]), meta={})
    s = ScanResult(kind="x", parameter=np.array([0.1, 0.05, 0.025]),
                   error=np.array([8.0, 2.0, 0.5]),
                   peak_photon_population=np.zeros(3),
                   fock_violation=np.zeros(3, dtype=bool), meta={})
    np.testing.assert_allclose(halving_ratios(s), [4.0, 4.0])


def test_scans_reject_bad_ratios():
    with pytest.raises(ValueError):
        dispersive_error_scan([])
    with pytest.raises(ValueError):
        dispersive_error_scan([1.5])
    with pytest.raises(ValueError):
        rwa_error_scan([])
    with pytest.raises(ValueError):
        rwa_error_scan([-0.1])


def test_dispersive_scan_against_fixed_values():
    scan = dispersive_error_scan()
    np.testing.assert_allclose(scan.parameter, [0.1, 0.05, 0.025])
    # state-error column: quartic in g/delta for this stroboscopic probe,
    # so halving the ratio divides the error by ~16 (not the generic ~4)
    np.testing.assert_allclose(
        scan.error, [3.917514e-3, 2.466121e-4, 1.542075e-5], rtol=1e-5)
    assert np.all(np.diff(scan.error) < 0)
    h = halving_ratios(scan)
    assert np.all((h > 14.0) & (h < 17.0))
    # photon excursion is the leading (second-order) virtual occupancy
    np.testing.assert_allclose(
        scan.peak_photon_population,
        [3.846153e-2, 9.900953e-3, 2.493754e-3], rtol=1e-4)
    ph = scan.peak_photon_population
    assert np.all((ph[:-1] / ph[1:] > 3.0) & (ph[:-1] / ph[1:] < 5.5))
    assert not scan.fock_violation.any()
    fid = scan.meta["gate_fidelity"]
    np.testing.assert_allclose(
        1.0 - fid, [1.573890e-3, 1.026367e-4, 6.482984e-6], rtol=1e-4)
    assert fid[1] > 0.9998


def test_rwa_scan_bands():
    scan = rwa_error_scan((0.1 / 20.1, 0.1 / 40.1))
    assert scan.kind == "rwa"
    assert np.all(scan.error < 1e-3)
    assert np.all(np.diff(scan.error) < 0)
    h = halving_ratios(scan)
    assert np.all((h > 3.0) & (h < 5.5))
    assert np.all(scan.peak_photon_population < 0.05)
    assert not scan.fock_violation.any()


def test_rwa_scan_records_condition_and_refuses_zero_coupling():
    ratios = (0.1 / 20.1, 0.1 / 40.1)
    scan = rwa_error_scan(ratios)
    np.testing.assert_allclose(scan.meta["condition_ratio"], ratios)
    assert scan.meta["condition_ok"].tolist() == [True, True]
    with pytest.raises(ValueError, match=r"zero 0<->2 coupling g\[0, 2\]"):
        rwa_error_scan(ratios, g02=0.0)


def test_rwa_point_refuses_values_that_overflow():
    with pytest.raises(ValueError, match="carrier omega_c"):
        rwa_error_point(0.02, detuning=-1e308)
    with pytest.raises(ValueError, match=r"probe time pi/\|g_02\| is not"):
        rwa_error_point(0.02, 1e-320)
    with pytest.raises(ValueError, match="in carrier periods"):
        rwa_error_point(0.5, 1e-300)


@pytest.mark.parametrize("bad", [4.0, True, "4"])
def test_scan_points_refuse_a_fock_cutoff_that_is_not_an_int(bad):
    with pytest.raises(ValueError, match="fock_cutoff must be an int, got"):
        rwa_error_point(0.05, fock_cutoff=bad)
    with pytest.raises(ValueError, match="fock_cutoff must be an int, got"):
        dispersive_error_point(0.05, fock_cutoff=bad)


@pytest.mark.parametrize("bad", [1, 0, -3, np.int64(1)])
def test_scan_points_refuse_a_fock_cutoff_below_two(bad):
    with pytest.raises(ValueError, match="fock_cutoff must be at least 2"):
        rwa_error_point(0.05, fock_cutoff=bad)
    with pytest.raises(ValueError, match="fock_cutoff must be at least 2"):
        dispersive_error_point(0.05, fock_cutoff=bad)


def test_scan_points_take_a_fock_cutoff_of_two():
    ratio = verify.DEFAULT_RWA_RATIOS[0]
    for point in (rwa_error_point(ratio, fock_cutoff=2),
                  dispersive_error_point(0.05, fock_cutoff=2)):
        assert 0.0 <= point["error"] < 1.0


@pytest.mark.parametrize("bad", [0.0, -0.01, float("nan"), float("inf")])
def test_rwa_point_refuses_a_ratio_that_is_not_finite_and_positive(bad):
    with pytest.raises(ValueError, match="ratio must be finite and positive"):
        rwa_error_point(bad)


@pytest.mark.parametrize("scan", [rwa_error_scan, dispersive_error_scan])
def test_scans_refuse_a_nan_ratio_by_their_range(scan):
    for ratios in ([float("nan")], [0.05, float("nan")]):
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            scan(ratios)


def test_scan_points_take_a_numpy_int_fock_cutoff():
    ratio = verify.DEFAULT_RWA_RATIOS[0]
    assert rwa_error_point(ratio, fock_cutoff=np.int64(4)) == \
        rwa_error_point(ratio, fock_cutoff=4)
    assert dispersive_error_point(0.05, fock_cutoff=np.int64(4)) == \
        dispersive_error_point(0.05, fock_cutoff=4)


def test_rwa_point_runs_on_both_sides_of_the_cavity(monkeypatch):
    """The signed detuning omega_20 - omega_c puts the 0<->2 transition
    above or below the carrier |detuning| / ratio; a zero detuning and a
    transition at or below zero are refused."""
    built = []
    real = verify.loop_cavity_hamiltonian

    def recorded(levels, omega_c, *args, **kwargs):
        built.append((levels[2], omega_c))
        return real(levels, omega_c, *args, **kwargs)

    monkeypatch.setattr(verify, "loop_cavity_hamiltonian", recorded)
    ratio, delta = 0.1 / 40.1, TWO_PI * 1.0e8
    below = rwa_error_point(ratio, detuning=-delta)
    assert below == rwa_error_point(ratio)  # the default side
    above = rwa_error_point(ratio, detuning=delta)
    for (omega_20, omega_c), sign in zip(built[::2], (-1, -1, 1)):
        assert omega_c == pytest.approx(delta / ratio, rel=1e-15)
        assert omega_20 - omega_c == pytest.approx(sign * delta, rel=1e-6)
    assert below["condition_ratio"] == pytest.approx(ratio, rel=1e-6)
    assert above["condition_ratio"] == pytest.approx(ratio, rel=1e-6)
    assert below["condition_ok"] and above["condition_ok"]
    # the same reduction on either side, at slightly different frequencies
    np.testing.assert_allclose([below["error"], above["error"]],
                               [7.4649e-6, 7.4677e-6], rtol=1e-4)
    with pytest.raises(ValueError, match="zero detuning omega_20 - omega_c"):
        rwa_error_point(ratio, detuning=0.0)
    # below the cavity a ratio of 1 or more would put omega_20 at or below 0
    for r in (1.0, 2.0):
        with pytest.raises(ValueError, match=r"transition omega_c \+ "
                                             r"detuning is not positive"):
            rwa_error_point(r)
    assert rwa_error_point(2.0, detuning=delta)["condition_ok"] is False


def test_scans_are_their_point_functions_over_the_grid():
    coarse_first = partial(sorted, reverse=True)
    ratios = [0.02, 0.5, 0.01]
    cases = [
        (rwa_error_scan(), [rwa_error_point(r) for r in
                            coarse_first(verify.DEFAULT_RWA_RATIOS)]),
        (rwa_error_scan(ratios, 1.1e7, detuning=-3e8, fock_cutoff=5),
         [rwa_error_point(r, 1.1e7, detuning=-3e8, fock_cutoff=5)
          for r in coarse_first(ratios)]),
        (dispersive_error_scan(), [dispersive_error_point(r) for r in
                                   verify.DEFAULT_DISPERSIVE_RATIOS]),
    ]
    for scan, points in cases:
        cols = {k: np.array([p[k] for p in points]) for k in points[0]}
        assert np.array_equal(scan.error, cols.pop("error"))
        assert np.array_equal(scan.peak_photon_population, cols.pop("peak"))
        assert np.array_equal(scan.fock_violation, cols.pop("violation"))
        assert set(cols) == ({"gate_fidelity", "condition_ratio",
                              "condition_ok"} if scan.kind == "dispersive"
                             else {"condition_ratio", "condition_ok"})
        for key, col in cols.items():
            assert np.array_equal(scan.meta[key], col), key
    assert cases[1][0].meta["condition_ok"].tolist() == [False, True, True]
    # g02/detuning = 0.1 is where the cavity backend of `gate` fails
    assert cases[2][0].meta["condition_ok"].tolist() == [False, True, True]
    assert np.array_equal(cases[2][0].meta["condition_ratio"],
                          cases[2][0].parameter)


def test_stored_coupling_pattern_matches_the_preset_solve():
    """The stored pattern and level ratio are those of an unchecked solve
    of the shipped preset; when the preset or the solver changes, the
    failure prints the literals to store instead."""
    params, grid = load_preset("ref15_like")
    ls = solve(params, grid, check_convergence=False)
    elems = ls.flux_elements.copy()
    for i in range(3):
        elems[i, i] -= params.Phi_x
    pattern = elems / elems[0, 2]
    level_ratio = ls.omega_10 / ls.omega_20
    assert (np.array_equal(_PRESET_PATTERN, pattern)
            and _PRESET_LEVEL_RATIO == level_ratio), (
        f"store _PRESET_PATTERN = {pattern.tolist()!r} and "
        f"_PRESET_LEVEL_RATIO = {level_ratio!r} in squidqed/verify.py")


def test_stored_coupling_pattern_is_read_only():
    with pytest.raises(ValueError, match="read-only"):
        _PRESET_PATTERN[0, 0] = 0.0


def test_exact_frame_propagation_matches_time_stepping():
    """The scan's one-eigh propagation of the builder's H0 + V against
    midpoint steps of the interaction-picture closures: e^{i H0 T} W
    e^{-i w T} W^dag psi0 must agree with the stepped state, to second
    order in the step."""
    pattern, level_ratio = _PRESET_PATTERN, _PRESET_LEVEL_RATIO
    detuning = TWO_PI * 1.0e8
    omega_c = detuning / 0.02
    ls = LevelStructure(energies=HBAR * (omega_c - detuning)
                        * np.array([0.0, level_ratio, 1.0]),
                        flux_elements=pattern * 1e-16)
    # the reference below uses the structure's own transitions
    omega_10, omega_20 = ls.omega_10, ls.omega_20
    nfock = 4
    mode = CavityMode(omega_c=omega_c, fock_cutoff=nfock)
    cs = CouplingSet(g=pattern * TWO_PI * 1.0e7)
    t_end = 20 * TWO_PI / omega_c
    psi0 = np.kron(np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0),
                   np.eye(nfock)[0]).astype(complex)
    h0 = np.array([e + omega_c * n for e in (0.0, omega_10, omega_20)
                   for n in range(nfock)])

    for factory, rotating_wave in ((h_int_full_factory, False),
                                   (h_int_rwa_factory, True)):
        h = factory(cs, ls, mode)
        w, v = np.linalg.eigh(loop_cavity_hamiltonian(
            (0.0, omega_10, omega_20), omega_c, cs.g, nfock,
            rotating_wave=rotating_wave))
        exact = np.exp(1j * h0 * t_end) * (
            v @ (np.exp(-1j * w * t_end) * (v.conj().T @ psi0)))
        dev = []
        for dt in (max_step_for(h.omega_max), max_step_for(h.omega_max) / 2):
            res = evolve_timedep(h, 0.0, t_end, dt,
                                 StateVector(psi0, (3, nfock)))
            dev.append(np.linalg.norm(res.final_state.amplitudes - exact))
        assert dev[0] < 1e-3, factory.__name__
        assert 3.0 < dev[0] / dev[1] < 5.0, (factory.__name__, dev)


def test_photon_excursion():
    params = ExecutionParams(explicit_cavity=True)
    with pytest.raises(ValueError, match="explicit-cavity"):
        photon_excursion(schedule_cps(), ExecutionParams(),
                         StateVector(np.eye(9)[4], (3, 3)))
    psi11 = StateVector(np.eye(9)[4].astype(complex), (3, 3))
    peak_cps, top_cps = photon_excursion(schedule_cps(), params, psi11)
    assert peak_cps == pytest.approx(9.900953e-3, rel=1e-4)
    assert top_cps < 1e-6
    # both loops excited rides two exchange channels at once: twice the
    # single-channel occupancy, which puts the swap schedule above the
    # 0.01 line the controlled-phase run stays under
    peak_swap, _ = photon_excursion(schedule_swap(), params, psi11)
    assert peak_swap == pytest.approx(1.9995e-2, rel=1e-3)
    assert peak_swap > 0.01


def test_entanglement_needs_analytic_or_vacuum_backend():
    # the declared target comes out of both exact backends
    sched = schedule_entanglement()
    for backend in ("analytic", "hamiltonian"):
        res_amp = computational_propagator(sched, backend)[:, 0]
        assert abs(res_amp[1]) == pytest.approx(1 / np.sqrt(2), abs=1e-9)
        assert abs(res_amp[2]) == pytest.approx(1 / np.sqrt(2), abs=1e-9)


def test_blocked_photon_sampling_matches_per_sample_loop():
    # a long window puts the peaks at inner samples; a window short against
    # every eigenfrequency makes the photon number monotone, so its peak
    # sits on the first or the last sample
    rng = np.random.default_rng(31)
    for dim, nfock in ((12, 4), (36, 4), (72, 8)):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        w, v = np.linalg.eigh(m + m.conj().T)
        num = np.tile(np.arange(nfock, dtype=float), dim // nfock)
        for t_end in (3.7, 1e-3):
            vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            vec /= np.linalg.norm(vec)
            coeffs = v.conj().T @ vec
            for n_samples in (512, 100):
                ref_n, ref_top = 0.0, 0.0
                for t in np.linspace(0.0, t_end, n_samples):
                    prob = np.abs(v @ (np.exp(-1j * w * t) * coeffs)) ** 2
                    ref_n = max(ref_n, float(np.sum(num * prob)))
                    ref_top = max(ref_top,
                                  float(np.sum(prob[num == nfock - 1])))
                got = _sampled_photon_peaks(
                    _phase_table(w, t_end, n_samples), v, vec, nfock)
                np.testing.assert_allclose(
                    got, (ref_n, ref_top), rtol=1e-13,
                    err_msg=f"dim {dim}, t_end {t_end}, {n_samples} samples")


def test_block_photon_sampling_is_bitwise_k_single_column_calls():
    rng = np.random.default_rng(47)
    for dim, nfock in ((36, 4), (72, 8)):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        w, v = np.linalg.eigh(m + m.conj().T)
        block = rng.normal(size=(dim, 4)) + 1j * rng.normal(size=(dim, 4))
        block /= np.linalg.norm(block, axis=0)
        for k in range(1, 5):
            for n_samples in (512, 100):
                phases = _phase_table(w, 3.7, n_samples)
                single = [_sampled_photon_peaks(phases, v, block[:, j].copy(),
                                                nfock)
                          for j in range(k)]
                got = _sampled_photon_peaks(phases, v, block[:, :k], nfock)
                assert got == tuple(map(max, zip(*single))), (dim, k,
                                                              n_samples)


def _per_column_sampler(phases, v, vecs, nfock):
    """The sampler as it stood before its columns were batched: 64-row
    blocks, one product per column, the oracle the batched one must match
    bit for bit."""
    cols = np.ascontiguousarray(vecs.T if vecs.ndim == 2 else vecs[None])
    num_diag = np.tile(np.arange(nfock, dtype=float), cols.shape[1] // nfock)
    top_mask = num_diag == nfock - 1
    v_dag = v.conj().T
    coeffs = [v_dag @ col for col in cols]
    peak_n, peak_top = 0.0, 0.0
    for start in range(0, len(phases), 64):
        block = phases[start:start + 64]
        for c in coeffs:
            prob = np.abs((block * c) @ v.T) ** 2
            peak_n = max(peak_n, float((num_diag * prob).sum(axis=1).max()))
            peak_top = max(peak_top,
                           float(prob[:, top_mask].sum(axis=1).max()))
    return peak_n, peak_top


def test_batched_photon_sampling_is_bitwise_the_per_column_sampler():
    # the sample counts put a block edge of either sampler at every side
    # of 64 and 128 rows, including one-row blocks
    rng = np.random.default_rng(59)
    for dim, nfock in ((12, 4), (36, 4), (72, 8)):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        w, v = np.linalg.eigh(m + m.conj().T)
        block = rng.normal(size=(dim, 5)) + 1j * rng.normal(size=(dim, 5))
        block /= np.linalg.norm(block, axis=0)
        for n_samples in (1, 100, 127, 128, 129, 512):
            phases = _phase_table(w, 3.7, n_samples)
            inputs = [block[:, :k] for k in range(1, 6)] + [block[:, 2]]
            for vecs in inputs:
                got = _sampled_photon_peaks(phases, v, vecs, nfock)
                ref = _per_column_sampler(phases, v, vecs, nfock)
                assert got[0] == ref[0] and got[1] == ref[1], (
                    dim, n_samples, vecs.shape)


def test_photon_peaks_do_not_depend_on_the_sample_block(monkeypatch):
    # three equal rows: a block of two leaves the third alone, which numpy
    # would multiply and sum in another order than a block of three
    rng = np.random.default_rng(1)
    dim, nfock = 72, 8
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    w, v = np.linalg.eigh(m + m.conj().T)
    block = rng.normal(size=(dim, 4)) + 1j * rng.normal(size=(dim, 4))
    block /= np.linalg.norm(block, axis=0)
    phases = np.repeat(np.exp(-1j * w * 3.7)[None], 3, axis=0)
    peaks = []
    for rows in (2, 3, 128):
        monkeypatch.setattr(verify, "_SAMPLE_BLOCK", rows)
        peaks.append(_sampled_photon_peaks(phases, v, block, nfock))
    assert peaks[0] == peaks[1] == peaks[2], peaks


#: Columns of the default `dispersive_error_scan()`, stored at full repr
#: precision; the guard below prints new literals when they move.
_DISPERSIVE_DEFAULT_COLUMNS = {
    "parameter": [0.1, 0.05, 0.025],
    "error": [0.003917514047948711, 0.0002466121242630237,
              1.5420747147998348e-05],
    "peak_photon_population": [0.038461531526937924, 0.009900953335089365,
                               0.0024937539032619596],
    "fock_violation": [False, False, False],
    "gate_fidelity": [0.9984261100128473, 0.9998973632910139,
                      0.9999935170161706],
}


def test_dispersive_scan_columns_are_bit_stable():
    scan = dispersive_error_scan()
    got = {name: getattr(scan, name).tolist() for name in
           ("parameter", "error", "peak_photon_population", "fock_violation")}
    got["gate_fidelity"] = scan.meta["gate_fidelity"].tolist()
    assert all(np.array_equal(got[name], stored) for name, stored
               in _DISPERSIVE_DEFAULT_COLUMNS.items()), (
        f"the default dispersive scan moved; store {got!r}")


def test_dispersive_scan_samples_each_segment_once_per_ratio(monkeypatch):
    blocks = []
    real = verify._sampled_photon_peaks

    def counted(w, v, vecs, *args):
        blocks.append(vecs.shape)
        return real(w, v, vecs, *args)

    monkeypatch.setattr(verify, "_sampled_photon_peaks", counted)
    dispersive_error_scan()
    # one controlled-phase wait per ratio, all four inputs in one block
    assert blocks == [(36, 4)] * 3


@pytest.mark.parametrize("table", [None, truth_table_cps()],
                         ids=["basis", "cps table"])
@pytest.mark.parametrize("ratio", verify.DEFAULT_DISPERSIVE_RATIOS + (0.07,))
def test_the_cavity_gate_check_agrees_with_the_dispersive_point(ratio, table):
    # the params dispersive_error_point builds; the cavity gate must read
    # its fidelity, its photon peak and its condition bit for bit
    point = dispersive_error_point(ratio)
    params = ExecutionParams(g02=float(ratio), detuning=1.0,
                             explicit_cavity=True, fock_cutoff=4)
    _, _, readings, failures = check_gate(schedule_cps(), table,
                                          "hamiltonian", params)
    got = dict(readings)
    assert got["gate_fidelity_dimensionless"] == point["gate_fidelity"]
    assert got["peak_photon_population_dimensionless"] == point["peak"]
    condition_failed = any(f.startswith("dispersive condition ")
                           for f in failures)
    assert condition_failed == (not point["condition_ok"])


def _clear_package_caches() -> list[str]:
    """Empty every memo of the package, as a fresh process starts, and
    name the memos emptied."""
    cleared = []
    for name, module in list(sys.modules.items()):
        if name.startswith("squidqed"):
            for obj in vars(module).values():
                if (hasattr(obj, "cache_clear")
                        and getattr(obj, "__module__", None) == name):
                    obj.cache_clear()
                    cleared.append(obj.__name__)
    return cleared


def test_photon_peaks_unchanged_by_clearing_every_cache():
    rng = np.random.default_rng(17)
    amps = rng.normal(size=9) + 1j * rng.normal(size=9)
    psi = StateVector(amps / np.linalg.norm(amps), (3, 3))

    def runs():
        out = [photon_excursion(build(), ExecutionParams(
                   g02=0.05, detuning=1.0, fock_cutoff=nfock,
                   explicit_cavity=True), psi)
               for build in (schedule_cps, schedule_swap)
               for nfock in (4, 8)]
        return out, dispersive_error_point(0.05)

    runs()  # fills the caches
    warm = runs()
    cleared = _clear_package_caches()
    assert {"_cavity_eigensystem", "_schedule_unitaries",
            "_segment_phases"} <= set(cleared), cleared
    assert verify._segment_phases.cache_info().currsize == 0
    cold = runs()
    assert cold == warm


def test_each_instrument_walks_its_schedule_once_per_backend(monkeypatch):
    blocks = []
    real = verify._run_block

    def counted(sched, inputs, backend, params):
        blocks.append((sched.name, len(inputs), backend))
        return real(sched, inputs, backend, params)

    monkeypatch.setattr(verify, "_run_block", counted)
    cavity = ExecutionParams(explicit_cavity=True)
    check_truth_table(truth_table_transfer(), "hamiltonian")
    computational_propagator(schedule_swap(), "hamiltonian", cavity)
    photon_excursion(schedule_cps(), cavity, StateVector(np.eye(9)[4], (3, 3)))
    dispersive_error_point(0.05)
    assert blocks == [("transfer", 2, "hamiltonian"),
                      ("swap", 4, "hamiltonian"),
                      ("cps", 1, "hamiltonian"),
                      ("cps", 4, "hamiltonian"), ("cps", 4, "analytic")]


def test_segment_phase_tables_are_read_only_and_end_on_the_propagator():
    nfock = 4
    for g02 in (0.1, 0.05, 0.025, 0.0125):
        params = ExecutionParams(g02=g02, detuning=1.0, fock_cutoff=nfock,
                                 explicit_cavity=True)
        w, v = protocols._cavity_eigensystem(g02, 1.0, nfock)
        for frac in (Fraction(1), Fraction(1, 2), Fraction(1, 4)):
            t = protocols.DispersiveStep(frac).duration(params.gamma)
            table = verify._segment_phases(g02, 1.0, nfock, t)
            assert table.shape == (512, 9 * nfock)
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 0.0
            assert verify._segment_phases(g02, 1.0, nfock, t) is table
            # bit for bit once the sign of zero is dropped (+ 0.0): at the
            # eigenvalue w = 0 the two products leave +0 and -0 imaginary
            last = np.exp(-1j * w * t)
            assert ((table[-1] + 0.0).tobytes()
                    == (last + 0.0).tobytes()), (g02, frac)
            # the segment propagator, rebuilt from the table's last row
            frame = np.exp(-1j * 1.0 * np.arange(nfock) * t)
            rebuilt = (np.kron(np.ones(9), frame)[:, None]
                       * ((v * table[-1]) @ v.conj().T))
            assert (rebuilt.tobytes()
                    == protocols._cavity_dispersive_unitary(params,
                                                            t).tobytes())


def test_warm_dispersive_scan_builds_no_table_and_no_propagator(monkeypatch):
    # every phase table goes through `_phase_table` and every propagator
    # through `_step_unitary`, so a repeat that rebuilt either would show
    first = dispersive_error_scan()
    builds, steps = [], []
    real = verify._phase_table
    real_step = protocols._step_unitary

    def counted(*args):
        builds.append(args[1:])
        return real(*args)

    def counted_step(*args):
        steps.append(args)
        return real_step(*args)

    monkeypatch.setattr(verify, "_phase_table", counted)
    monkeypatch.setattr(protocols, "_step_unitary", counted_step)
    misses = {f: f.cache_info().misses for f in (
        protocols._schedule_unitaries, protocols._cavity_eigensystem,
        verify._segment_phases)}
    again = dispersive_error_scan()
    assert builds == []
    assert steps == []
    assert {f: f.cache_info().misses for f in misses} == misses
    for name in ("error", "peak_photon_population", "fock_violation"):
        assert np.array_equal(getattr(again, name), getattr(first, name))


@pytest.mark.parametrize("n_columns", [0, 2, 4])
def test_truth_row_with_the_wrong_column_count_is_refused(n_columns):
    ket = basis_state((3, 3), (0, 0))
    with pytest.raises(ValueError, match=rf"^row '\|00>' declares "
                                         rf"{n_columns} columns for a "
                                         r"3-step schedule$"):
        TruthTable(schedule_cps(), (TruthRow("|00>", ket,
                                             (ket,) * n_columns),))
