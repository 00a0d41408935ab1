"""Verification layer: fidelity/concurrence metrics, truth tables with a
negative control, and the two reduction-error scans."""

import numpy as np
import pytest

from squidqed import verify
from squidqed.constants import HBAR, TWO_PI
from squidqed.dynamics import evolve_timedep, max_step_for
from squidqed.hamiltonians import (CavityMode, CouplingSet,
                                   h_int_full_factory, h_int_rwa_factory,
                                   loop_cavity_hamiltonian)
from squidqed.hilbert import StateVector
from squidqed.protocols import (ExecutionParams, GateSchedule,
                                schedule_cps, schedule_entanglement,
                                schedule_swap)
from squidqed.squid import LevelStructure, load_preset, solve
from squidqed.verify import (ScanResult, TruthTable, check_truth_table,
                             computational_propagator, concurrence,
                             corrupt_first_pulse, dispersive_error_scan,
                             gate_fidelity, halving_ratios, photon_excursion,
                             rwa_error_scan, truth_table_cps,
                             truth_table_swap, truth_table_transfer,
                             _preset_coupling_pattern,
                             _sampled_photon_peaks)


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


def test_corrupted_schedule_fails_truth_table():
    table = truth_table_cps()
    bent = TruthTable(schedule=corrupt_first_pulse(table.schedule),
                      rows=table.rows)
    chk = check_truth_table(bent)
    assert not chk.ok
    assert chk.max_deviation > 0.01
    assert any("row" in f for f in chk.failures)


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
    dark = CouplingSet(g=np.diag([1.0e7, 0.0, 2.0e7]), lambda_c=-1.0)
    with pytest.raises(ValueError, match=r"zero 0<->2 coupling g\[0, 2\]"):
        rwa_error_scan(ratios, couplings=dark)


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
    stored, stored_ratio = _preset_coupling_pattern()
    assert np.array_equal(stored, pattern) and stored_ratio == level_ratio, (
        f"store _PRESET_PATTERN = {pattern.tolist()!r} and "
        f"_PRESET_LEVEL_RATIO = {level_ratio!r} in squidqed/verify.py")


def test_stored_coupling_pattern_is_read_only():
    pattern, _ = _preset_coupling_pattern()
    with pytest.raises(ValueError, match="read-only"):
        pattern[0, 0] = 0.0


def test_exact_frame_propagation_matches_time_stepping():
    """The scan's one-eigh propagation of the builder's H0 + V against
    midpoint steps of the interaction-picture closures: e^{i H0 T} W
    e^{-i w T} W^dag psi0 must agree with the stepped state, to second
    order in the step."""
    pattern, level_ratio = _preset_coupling_pattern()
    detuning = TWO_PI * 1.0e8
    omega_c = detuning / 0.02
    omega_20 = omega_c - detuning
    omega_10 = level_ratio * omega_20
    ls = LevelStructure(energies=HBAR * omega_20 * np.array([0.0, level_ratio,
                                                              1.0]),
                        flux_elements=pattern * 1e-16, omega_10=omega_10,
                        omega_20=omega_20, omega_21=omega_20 - omega_10)
    nfock = 4
    mode = CavityMode(omega_c=omega_c, fock_cutoff=nfock)
    cs = CouplingSet(g=pattern * TWO_PI * 1.0e7, lambda_c=-1.0)
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
                got = _sampled_photon_peaks(w, v, vec, t_end, nfock,
                                            n_samples)
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
                single = [_sampled_photon_peaks(w, v, block[:, j].copy(),
                                                3.7, nfock, n_samples)
                          for j in range(k)]
                got = _sampled_photon_peaks(w, v, block[:, :k], 3.7, nfock,
                                            n_samples)
                assert got == tuple(map(max, zip(*single))), (dim, k,
                                                              n_samples)


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
