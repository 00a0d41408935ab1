"""Acceptance gate: ten go/no-go checks, one per shipped guarantee.

Each test prints a single ``criterion N (...): PASS/FAIL`` line (visible
with ``pytest -s`` or in the failure report) and enforces the stated
tolerance and runtime ceiling.  Criterion 6's halving band is asserted
exactly as stated; the measured contraction factors are printed either way.
"""

import time

import numpy as np
import pytest

from squidqed.constants import HBAR
from squidqed.dynamics import evolve_timedep
from squidqed.feasibility import FeasibilityInput, assess
from squidqed.hilbert import (Operator, StateVector, basis_state,
                              fidelity_up_to_global_phase, kron,
                              matexp_unitary, partial_trace)
from squidqed.protocols import (SCHEDULE_BUILDERS, execute, schedule_cps,
                                schedule_entanglement, schedule_swap,
                                schedule_transfer)
from squidqed.squid import FluxGrid, load_preset, solve
from squidqed.verify import (check_truth_table, computational_propagator,
                             concurrence, dispersive_error_scan,
                             gate_fidelity, halving_ratios, rwa_error_scan,
                             truth_table_cps, truth_table_swap,
                             truth_table_transfer)


def stamp(num, label, ok):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_01_controlled_phase_truth_table():
    """Analytic controlled-phase propagator is diag(1,1,1,-1) to 1e-9
    after global-phase alignment; runtime under 1 s."""
    t0 = time.perf_counter()
    u = computational_propagator(schedule_cps())
    u = u / (u[0, 0] / abs(u[0, 0]))
    dev = float(np.max(np.abs(u - np.diag([1, 1, 1, -1]))))
    chk = check_truth_table(truth_table_cps())
    elapsed = time.perf_counter() - t0
    ok = dev <= 1e-9 and chk.ok and elapsed < 1.0
    assert stamp(1, "controlled-phase truth table", ok)
    assert dev <= 1e-9
    assert chk.ok and chk.max_deviation <= 1e-9
    assert elapsed < 1.0


def test_criterion_02_swap_truth_table():
    """Swap schedule reproduces all four rows and every intermediate
    column phase-exactly to 1e-9; runtime under 1 s."""
    t0 = time.perf_counter()
    chk = check_truth_table(truth_table_swap())
    elapsed = time.perf_counter() - t0
    ok = chk.ok and chk.max_deviation <= 1e-9 and elapsed < 1.0
    assert stamp(2, "swap truth table", ok)
    assert chk.ok, chk.failures
    assert chk.max_deviation <= 1e-9
    assert elapsed < 1.0


def test_criterion_03_state_transfer():
    """|1,0> maps to |0,1>, and 50 pseudorandom superpositions carried on
    loop a arrive on loop b with fidelity >= 1 - 1e-9 and unit purity."""
    t0 = time.perf_counter()
    chk = check_truth_table(truth_table_transfer())
    sched = schedule_transfer()
    rng = np.random.default_rng(2718)
    worst_fid, worst_purity_dev = 1.0, 0.0
    for _ in range(50):
        raw = rng.normal(size=2) + 1j * rng.normal(size=2)
        alpha, beta = raw / np.linalg.norm(raw)
        v0 = np.zeros(9, dtype=complex)
        v0[0], v0[3] = alpha, beta        # (alpha|0> + beta|1>)_a (x) |0>_b
        expect = np.zeros(9, dtype=complex)
        expect[0], expect[1] = alpha, beta  # |0>_a (x) (alpha|0> + beta|1>)_b
        res = execute(sched, StateVector(v0, (3, 3)))
        fid = fidelity_up_to_global_phase(res.final_state,
                                          StateVector(expect, (3, 3)))
        worst_fid = min(worst_fid, fid)
        rho_b = partial_trace(res.final_state, [1]).entries
        purity = float(np.trace(rho_b @ rho_b).real)
        worst_purity_dev = max(worst_purity_dev, abs(purity - 1.0))
    elapsed = time.perf_counter() - t0
    ok = (chk.ok and worst_fid >= 1 - 1e-9 and worst_purity_dev <= 1e-9
          and elapsed < 1.0)
    assert stamp(3, "excitation transfer", ok)
    assert chk.ok and chk.max_deviation <= 1e-9
    assert worst_fid >= 1 - 1e-9
    assert worst_purity_dev <= 1e-9
    assert elapsed < 1.0


def test_criterion_04_entangled_state_preparation():
    """From |0,0> the entangling schedule reaches (i|01> - |10>)/sqrt(2)
    with fidelity and concurrence both 1 within 1e-10."""
    t0 = time.perf_counter()
    sched = schedule_entanglement()
    res = execute(sched, basis_state((3, 3), (0, 0)))
    target = np.zeros(9, dtype=complex)
    target[1] = 1j / np.sqrt(2)
    target[3] = -1 / np.sqrt(2)
    fid = fidelity_up_to_global_phase(res.final_state,
                                      StateVector(target, (3, 3)))
    conc = concurrence(res.final_state)
    elapsed = time.perf_counter() - t0
    ok = abs(fid - 1) <= 1e-10 and abs(conc - 1) <= 1e-10 and elapsed < 1.0
    assert stamp(4, "entangled-state preparation", ok)
    assert fid == pytest.approx(1.0, abs=1e-10)
    assert conc == pytest.approx(1.0, abs=1e-10)
    assert elapsed < 1.0


def test_criterion_05_backend_agreement():
    """Generator-exponential backend agrees with the closed-form maps on
    every shipped schedule: fidelity deficit below 1e-9."""
    t0 = time.perf_counter()
    basis = [basis_state((3, 3), (a, b)) for a in range(3) for b in range(3)]

    def propagator(schedule, backend):
        # 9x9: column k is the run from the k-th two-loop basis state
        return np.stack([execute(schedule, psi, backend).final_state.amplitudes
                         for psi in basis], axis=1)

    worst = 0.0
    for name, build in sorted(SCHEDULE_BUILDERS.items()):
        ua = propagator(build(), "analytic")
        uh = propagator(build(), "hamiltonian")
        worst = max(worst, 1.0 - gate_fidelity(uh, ua))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 5.0
    assert stamp(5, "backend agreement", ok)
    assert worst < 1e-9
    assert elapsed < 5.0


def test_criterion_06_dispersive_regime_validity():
    """Explicit-cavity controlled-phase run at g/Delta = 0.05 (vacuum
    start, Fock cutoff 4): gate fidelity >= 0.99, peak photon population
    < 0.01, and halving g/Delta contracts the gate error by a factor
    inside [2.5, 6].

    The contraction band is asserted as stated.  The measured gate-error
    factors sit near 16 (the stroboscopic probe cancels the leading
    second-order term, leaving the quartic one), so this clause fails
    honestly; the virtual-photon population does contract second-order,
    and both sets of factors are printed for the record.
    """
    t0 = time.perf_counter()
    scan = dispersive_error_scan()  # ratios 0.1, 0.05, 0.025
    fid = scan.meta["gate_fidelity"]
    gate_err = 1.0 - fid
    err_factors = gate_err[:-1] / gate_err[1:]
    state_factors = halving_ratios(scan)
    photon = scan.peak_photon_population
    photon_factors = photon[:-1] / photon[1:]
    at_half = 1  # index of g/Delta = 0.05
    elapsed = time.perf_counter() - t0

    in_band = bool(np.all((err_factors >= 2.5) & (err_factors <= 6.0)))
    ok = (fid[at_half] >= 0.99 and photon[at_half] < 0.01 and in_band
          and elapsed < 120.0)
    stamp(6, "dispersive-regime validity", ok)
    print(f"  gate-error halving factors   {np.round(err_factors, 3)}")
    print(f"  state-error halving factors  {np.round(state_factors, 3)}")
    print(f"  photon-pop halving factors   {np.round(photon_factors, 3)}")

    assert fid[at_half] >= 0.99
    assert photon[at_half] < 0.01
    assert elapsed < 120.0
    assert in_band, (
        f"gate-error halving factors {err_factors} outside [2.5, 6]: the "
        f"error contracts quartically ({state_factors} on the state "
        f"column) because the scheduled durations cancel the leading "
        f"second-order term; only the photon population contracts "
        f"second-order ({photon_factors})")


def test_criterion_07_rotating_wave_validity():
    """Full versus rotating-wave propagation over one exchange period:
    deficit below 1e-3 at detuning/carrier ~ 1.25e-3, monotone in the
    ratio over the three-point grid."""
    t0 = time.perf_counter()
    scan = rwa_error_scan()  # defaults: 0.1/20.1, 0.1/40.1, 0.1/80.1
    elapsed = time.perf_counter() - t0
    finest = scan.parameter[-1]
    monotone = bool(np.all(np.diff(scan.error) < 0))
    ok = (abs(finest - 1.25e-3) / 1.25e-3 < 0.01
          and scan.error[-1] < 1e-3 and monotone and elapsed < 300.0)
    assert stamp(7, "rotating-wave validity", ok)
    assert finest == pytest.approx(1.25e-3, rel=0.01)
    assert scan.error[-1] < 1e-3
    assert np.all(scan.error < 1e-3)
    assert monotone
    assert not scan.fock_violation.any()
    assert elapsed < 300.0


def test_criterion_08_quality_factor_floor():
    """Default decoherence scenario (1 us auxiliary relaxation, 80.1 GHz
    shifted cavity, 10 ns gates) puts the minimum quality factor in
    [4.9e3, 5.1e3]."""
    t0 = time.perf_counter()
    rep = assess(FeasibilityInput(q_factor=1e8, nu=80.1e9,
                                  t_op=1e-8, t_r=1e-6))
    elapsed = time.perf_counter() - t0
    ok = 4.9e3 <= rep.q_min <= 5.1e3 and elapsed < 1.0
    assert stamp(8, "quality-factor floor", ok)
    assert 4.9e3 <= rep.q_min <= 5.1e3
    assert rep.ok  # the reference cavity comfortably beats the floor
    assert elapsed < 1.0


def test_criterion_09_eigensolver_harmonic_oracle():
    """Zero-junction loop reproduces the oscillator spacing hbar/sqrt(LC)
    to 0.1% and shows a Richardson ratio >= 3.5 under grid doubling."""
    t0 = time.perf_counter()
    p, g = load_preset("harmonic")
    ls = solve(p, g, n_levels=3)
    spacing = np.diff(ls.energies)
    exact = HBAR * p.omega_lc
    rel_dev = float(np.max(np.abs(spacing - exact))) / exact
    errs = []
    for points in (257, 513):
        gg = FluxGrid(g.center, g.half_width, points)
        coarse = solve(p, gg, n_levels=2, check_convergence=False)
        errs.append(abs((coarse.energies[1] - coarse.energies[0]) - exact))
    richardson = errs[0] / errs[1]
    elapsed = time.perf_counter() - t0
    ok = rel_dev < 1e-3 and richardson >= 3.5 and elapsed < 10.0
    assert stamp(9, "eigensolver harmonic oracle", ok)
    assert rel_dev < 1e-3
    assert richardson >= 3.5
    assert elapsed < 10.0


def test_criterion_10_invariant_suite():
    """Structural invariants: propagator unitarity, norm conservation,
    kron mixed-product identity, fidelity phase-invariance, concurrence
    local-unitary invariance, CPS^2 = SWAP^2 = I."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(31415)

    def rand_h(n):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return (m + m.conj().T) / 2

    def rand_u(n):
        q, r = np.linalg.qr(rng.normal(size=(n, n))
                            + 1j * rng.normal(size=(n, n)))
        return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

    # unitarity of exact exponentials
    for _ in range(10):
        u = matexp_unitary(Operator(rand_h(5), (5,)),
                           float(rng.uniform(-2, 2))).entries
        assert np.max(np.abs(u.conj().T @ u - np.eye(5))) < 1e-12

    # norm conservation through stepped evolution
    h = lambda t: Operator(np.cos(3 * t) * rand_mat, (3,))  # noqa: E731
    rand_mat = rand_h(3)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    psi = StateVector(v / np.linalg.norm(v), (3,))
    res = evolve_timedep(h, 0.0, 2.0, 0.01, psi)
    assert res.max_norm_drift < 1e-8

    # kron mixed-product identity (A x B)(C x D) = AC x BD
    a, b, c, d = (rand_h(2) for _ in range(4))
    lhs = kron(Operator(a, (2,)), Operator(b, (2,))).entries \
        @ kron(Operator(c, (2,)), Operator(d, (2,))).entries
    rhs = kron(Operator(a @ c, (2,)), Operator(b @ d, (2,))).entries
    assert np.max(np.abs(lhs - rhs)) < 1e-12

    # fidelity ignores global phase
    v1 = rng.normal(size=4) + 1j * rng.normal(size=4)
    s1 = StateVector(v1 / np.linalg.norm(v1), (2, 2))
    s2 = StateVector(np.exp(1.3j) * s1.amplitudes, (2, 2))
    assert abs(fidelity_up_to_global_phase(s1, s2) - 1.0) < 1e-12

    # concurrence is invariant under local unitaries
    for _ in range(10):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        s = StateVector(v / np.linalg.norm(v), (2, 2))
        rotated = StateVector(np.kron(rand_u(2), rand_u(2)) @ s.amplitudes,
                              (2, 2))
        assert abs(concurrence(rotated) - concurrence(s)) < 1e-10

    # self-inverse gates
    for build in (schedule_cps, schedule_swap):
        u = computational_propagator(build())
        assert np.max(np.abs(u @ u - np.eye(4))) < 1e-9

    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    assert stamp(10, "invariant suite", ok)
    assert elapsed < 30.0
