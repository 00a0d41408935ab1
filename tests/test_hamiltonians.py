"""Hamiltonian builders: Fock algebra, coupling constants, drive and
interaction-picture terms, dispersive effective forms."""

import numpy as np
import pytest

from squidqed.constants import HBAR, MU0
from squidqed.hamiltonians import (CavityMode, CouplingSet, DriveSpec,
                                   couplings_from_structure,
                                   drive_from_structure, fock_lowering,
                                   fock_number, gamma_eff,
                                   h_drive_full_factory, h_drive_rwa,
                                   h_eff_vacuum,
                                   h_int_full_factory, h_int_rwa_factory,
                                   loop_cavity_hamiltonian,
                                   transition_frequency)
from squidqed.squid import LevelStructure, load_preset, solve

W10 = 2 * np.pi * 7.0e9
W20 = 2 * np.pi * 79.0e9


def three_level(e02=2.0e-16, e12=3.0e-16, e01=1.5e-16, diag=1.0e-15):
    """Synthetic lambda structure with controllable flux elements."""
    energies = HBAR * np.array([0.0, W10, W20])
    elements = np.array([
        [diag, e01, e02],
        [e01, diag, e12],
        [e02, e12, diag],
    ])
    return LevelStructure(energies, elements)


@pytest.fixture(scope="module")
def solved():
    p, g = load_preset("ref15_like")
    return p, solve(p, g)


def test_fock_operators():
    for n in (2, 4, 7):
        a = fock_lowering(n)
        num = fock_number(n)
        np.testing.assert_allclose(a.conj().T @ a, num, atol=1e-14)
        comm = a @ a.conj().T - a.conj().T @ a
        expect = np.eye(n)
        expect[-1, -1] = -(n - 1)  # truncation artifact on the top state
        np.testing.assert_allclose(comm, expect, atol=1e-14)


def test_transition_frequency_table():
    ls = three_level()
    assert transition_frequency(ls, (0, 1)) == W10
    assert transition_frequency(ls, (2, 0)) == W20  # order-insensitive
    assert transition_frequency(ls, (1, 2)) == W20 - W10
    with pytest.raises(ValueError):
        transition_frequency(ls, (0, 3))


def test_cavity_mode_validation():
    with pytest.raises(ValueError):
        CavityMode(omega_c=-1.0)
    with pytest.raises(ValueError):
        CavityMode(omega_c=1.0, fock_cutoff=1)
    for bad in (float("nan"), float("inf"), 0.0):
        with pytest.raises(ValueError, match="omega_c must be finite and "
                                             "positive"):
            CavityMode(omega_c=bad)
    for bad in (4.5, 4.0, True, "4"):
        with pytest.raises(ValueError, match="fock_cutoff must be an int"):
            CavityMode(1.0, fock_cutoff=bad)
    for bad in (1, 0, np.int64(1)):
        with pytest.raises(ValueError, match="fock_cutoff must be at least 2"):
            CavityMode(1.0, fock_cutoff=bad)
    for cutoff in (2, np.int64(2), np.int32(4)):
        assert CavityMode(1.0, fock_cutoff=cutoff).fock_cutoff == cutoff


def test_coupling_set_validation():
    g = np.zeros((3, 3))
    g[0, 2] = 1.0
    with pytest.raises(ValueError, match="symmetric"):
        CouplingSet(g=g)
    with pytest.raises(ValueError):
        CouplingSet(g=np.zeros((2, 2)))


def test_couplings_from_structure(solved):
    p, ls = solved
    m = CavityMode(omega_c=2 * np.pi * 80.1e9, fock_cutoff=4,
                   effective_flux_amplitude=1.0e-16)
    cs = couplings_from_structure(ls, m, p.L, p.Phi_x)
    pref = -1.0 / p.L * np.sqrt(HBAR * m.omega_c / (2 * MU0)) \
        * m.effective_flux_amplitude / HBAR
    assert cs.g[0, 2] == pytest.approx(pref * ls.flux_elements[0, 2])
    assert cs.g[1, 2] == pytest.approx(pref * ls.flux_elements[1, 2])
    # diagonal couplings measure displacement from the bias point
    assert cs.g[0, 0] == pytest.approx(
        pref * (ls.flux_elements[0, 0] - p.Phi_x))
    np.testing.assert_array_equal(cs.g, cs.g.T)


def test_couplings_from_structure_refuses_zero_flux_amplitude(solved):
    p, ls = solved
    m = CavityMode(omega_c=2 * np.pi * 80.1e9, fock_cutoff=4)
    with pytest.raises(ValueError, match="effective_flux_amplitude"):
        couplings_from_structure(ls, m, p.L, p.Phi_x)


def test_drive_spec_validation():
    with pytest.raises(ValueError):
        DriveSpec(target_levels=(0, 3), rabi=1.0, omega_uw=1.0, duration=1.0)
    with pytest.raises(ValueError):
        DriveSpec(target_levels=(1, 2), rabi=0.0, omega_uw=1.0, duration=1.0)
    with pytest.raises(ValueError):
        DriveSpec(target_levels=(1, 2), rabi=1.0, omega_uw=1.0, duration=-1.0)
    d = DriveSpec(target_levels=(2, 0), rabi=1.0, omega_uw=W20, duration=1.0)
    assert d.target_levels == (0, 2)  # normalized to ascending order
    assert d.is_resonant(three_level())
    off = DriveSpec(target_levels=(0, 2), rabi=1.0, omega_uw=1.001 * W20,
                    duration=1.0)
    assert not off.is_resonant(three_level())
    values = {"rabi": 1.0, "omega_uw": 1.0, "duration": 1.0}
    for name in values:
        for bad in (float("nan"), float("inf"), -float("inf"), 0.0):
            with pytest.raises(ValueError, match=f"{name} must be finite and "
                                                 f"positive"):
                DriveSpec((0, 2), **{**values, name: bad})
    # a non-finite diagonal amplitude would make every entry of the full
    # drive generator NaN
    for bad in (float("nan"), float("inf"), -float("inf")):
        for diag in ((bad, 0.0), (0.0, bad)):
            with pytest.raises(ValueError, match="diag_rabi must be finite"):
                DriveSpec((1, 2), **values, diag_rabi=diag)


def test_resonant_drive_entries_are_exact():
    ls = three_level()
    for pair in ((0, 1), (0, 2), (1, 2)):
        for rabi in (1.0, 0.37, 2 * np.pi * 1e9, 6e9):
            d = DriveSpec(pair, rabi, transition_frequency(ls, pair), 1e-9)
            hr = h_drive_rwa(d, ls)
            expect = np.zeros((3, 3), dtype=complex)
            expect[pair] = expect[pair[::-1]] = rabi
            assert hr.dims == (3,) and hr.hermitian_flag
            assert np.array_equal(hr.entries, expect)


def test_drive_from_structure(solved):
    p, ls = solved
    amp = 1.0e-18
    d = drive_from_structure(ls, (1, 2), p.L, p.Phi_x, amp, duration=1e-9)
    scale = -amp / (p.L * HBAR)
    assert d.rabi == pytest.approx(abs(scale * ls.flux_elements[1, 2]))
    assert d.rabi > 0
    assert d.omega_uw == pytest.approx(ls.omega_21)
    assert d.diag_rabi[0] == pytest.approx(
        scale * (ls.flux_elements[1, 1] - p.Phi_x))
    # exactly dark transition refuses to build a drive
    dark = three_level(e12=0.0)
    with pytest.raises(ValueError, match="dark"):
        drive_from_structure(dark, (1, 2), p.L, p.Phi_x, amp, duration=1e-9)


NON_FINITE = [float("nan"), float("inf"), -float("inf")]


@pytest.mark.parametrize("amplitude", NON_FINITE)
def test_cavity_mode_refuses_a_non_finite_flux_amplitude(amplitude):
    with pytest.raises(ValueError, match="effective_flux_amplitude must be "
                                         "finite"):
        CavityMode(2 * np.pi * 80.1e9, effective_flux_amplitude=amplitude)


@pytest.mark.parametrize("amplitude", NON_FINITE)
def test_drive_spec_refuses_a_non_finite_flux_amplitude(amplitude):
    with pytest.raises(ValueError, match="effective_flux_amplitude must be "
                                         "finite"):
        DriveSpec((1, 2), rabi=1.0, omega_uw=1.0, duration=1.0,
                  effective_flux_amplitude=amplitude)


@pytest.mark.parametrize("amplitude", NON_FINITE)
def test_drive_from_structure_names_a_non_finite_flux_amplitude(solved,
                                                                amplitude):
    # named by the amplitude, not by the rabi rate it makes non-finite
    p, ls = solved
    with pytest.raises(ValueError, match="effective_flux_amplitude must be "
                                         "finite"):
        drive_from_structure(ls, (1, 2), p.L, p.Phi_x, amplitude,
                             duration=1e-9)


@pytest.mark.parametrize("entry", NON_FINITE)
def test_coupling_set_refuses_non_finite_entries_before_symmetry(entry):
    g = np.zeros((3, 3))
    g[0, 2] = g[2, 0] = entry  # a NaN pair is not equal to itself
    with pytest.raises(ValueError, match="coupling matrix entries must be "
                                         "finite"):
        CouplingSet(g=g)


@pytest.mark.parametrize("L", [0.0, -6.5e-11, float("nan"), float("inf")])
@pytest.mark.parametrize("builder", ["couplings", "drive"])
def test_structure_builders_refuse_an_inductance_that_is_not_positive(
        solved, builder, L):
    p, ls = solved
    m = CavityMode(omega_c=2 * np.pi * 80.1e9, fock_cutoff=4,
                   effective_flux_amplitude=1.0e-16)
    with pytest.raises(ValueError, match="loop inductance L must be finite "
                                         "and positive"):
        if builder == "couplings":
            couplings_from_structure(ls, m, L, p.Phi_x)
        else:
            drive_from_structure(ls, (1, 2), L, p.Phi_x, 1.0e-18,
                                 duration=1e-9)


def test_interaction_full_term_structure():
    ls = three_level()
    m = CavityMode(omega_c=W20 + 2 * np.pi * 1.1e9, fock_cutoff=4)
    g = np.array([[0.4, 0.0, 1.0], [0.0, -0.2, 0.0], [1.0, 0.0, 0.7]])
    cs = CouplingSet(g=2 * np.pi * 1e7 * g)
    h = h_int_full_factory(cs, ls, m)
    assert h.omega_max == pytest.approx(m.omega_c + W20)
    assert h.detuning == pytest.approx(W20 - m.omega_c)

    # t = 0: all phases are 1, so the matrix is (D + X)(a + a^dag) pieces
    a = fock_lowering(4)
    diag = np.diag(2 * np.pi * 1e7 * np.array([0.4, -0.2, 0.7])).astype(complex)
    x02 = np.zeros((3, 3), dtype=complex)
    x02[0, 2] = 1.0
    g02 = cs.g[0, 2]
    half = (np.kron(diag, a) + g02 * np.kron(x02, a)
            + g02 * np.kron(x02, a.conj().T))
    np.testing.assert_allclose(h(0.0).entries, half + half.conj().T,
                               atol=1e-12)

    rng = np.random.default_rng(7)
    for t in rng.uniform(0, 1e-9, size=8):
        mat = h(float(t)).entries
        np.testing.assert_allclose(mat, mat.conj().T, atol=1e-12)
        # the 0<->1 and 1<->2 exchange blocks stay empty at all times
        assert np.all(mat[0:4, 4:8] == 0)
        assert np.all(mat[4:8, 8:12] == 0)


def _kron_all(*mats):
    out = np.eye(1)
    for m in mats:
        out = np.kron(out, m)
    return out


def test_loop_cavity_hamiltonian_terms():
    g = 2 * np.pi * 1e7 * np.array([[0.4, 0.0, 1.0], [0.0, -0.2, 0.0],
                                    [1.0, 0.0, 0.7]])
    levels = (0.0, W10, W20)
    wc = W20 + 2 * np.pi * 1.1e9
    n = 3
    a = fock_lowering(n)
    i3, x02 = np.eye(3), np.zeros((3, 3))
    x02[0, 2] = 1.0
    coupling = np.diag(np.diag(g)) + g[0, 2] * (x02 + x02.T)
    for n_loops in (1, 2):
        def on(m3, k):
            return _kron_all(*[m3 if j == k else i3 for j in range(n_loops)])

        h0 = sum(np.kron(on(np.diag(levels), k), np.eye(n))
                 for k in range(n_loops))
        h0 = h0 + np.kron(on(i3, 0), wc * fock_number(n))
        full = sum(np.kron(on(coupling, k), a + a.conj().T)
                   for k in range(n_loops))
        rwa = sum(g[0, 2] * (np.kron(on(x02, k), a.conj().T)
                             + np.kron(on(x02.T, k), a))
                  for k in range(n_loops))
        for rotating_wave, v in ((False, full), (True, rwa)):
            got = loop_cavity_hamiltonian(levels, wc, g, n, n_loops,
                                          rotating_wave=rotating_wave)
            assert got.shape == (3 ** n_loops * n,) * 2
            np.testing.assert_allclose(got, h0 + v, rtol=1e-15, atol=1e-3)
            # V has no diagonal, so H0 is the diagonal of the result
            np.testing.assert_array_equal(np.diag(got).real, np.diag(h0))
    with pytest.raises(ValueError, match="n_loops"):
        loop_cavity_hamiltonian(levels, wc, g, n, 3)


def test_interaction_rwa_keeps_one_pair():
    ls = three_level()
    g = np.array([[0.4, 0.0, 1.0], [0.0, -0.2, 0.0], [1.0, 0.0, 0.7]])
    cs = CouplingSet(g=2 * np.pi * 1e7 * g)

    # on resonance the co-rotating pair is static
    m_res = CavityMode(omega_c=W20, fock_cutoff=3)
    h = h_int_rwa_factory(cs, ls, m_res)
    assert h.detuning == 0.0
    assert h.condition_ok
    a = fock_lowering(3)
    x02 = np.zeros((3, 3), dtype=complex)
    x02[0, 2] = 1.0
    static = cs.g[0, 2] * (np.kron(x02, a.conj().T)
                           + np.kron(x02.T, a))
    for t in (0.0, 0.37e-9, 2.9e-9):
        np.testing.assert_allclose(h(t).entries, static, atol=1e-12)

    # detuned: condition ratio recorded against the threshold
    m_det = CavityMode(omega_c=W20 + 2 * np.pi * 1.1e9, fock_cutoff=3)
    h2 = h_int_rwa_factory(cs, ls, m_det)
    assert h2.detuning == pytest.approx(W20 - m_det.omega_c)
    assert h2.condition_ratio == pytest.approx(
        (m_det.omega_c - W20) / m_det.omega_c)
    assert h2.condition_ok  # ~1.4% detuning
    assert h2.omega_max == pytest.approx(abs(h2.detuning))
    m_far = CavityMode(omega_c=2.0 * W20, fock_cutoff=3)
    assert not h_int_rwa_factory(cs, ls, m_far).condition_ok


def test_drive_full_and_rwa():
    ls = three_level()
    d = DriveSpec(target_levels=(1, 2), rabi=2 * np.pi * 1e9,
                  omega_uw=W20 - W10, duration=1e-9,
                  diag_rabi=(0.3e9, -0.5e9))
    h = h_drive_full_factory(d, ls)
    assert h.omega_max == pytest.approx(2 * (W20 - W10))
    mat0 = h(0.0).entries
    np.testing.assert_allclose(mat0, mat0.conj().T, atol=1e-12)
    assert mat0[1, 2] == pytest.approx(2 * d.rabi)  # both phases add at t=0
    assert mat0[1, 1] == pytest.approx(2 * 0.3e9)
    assert mat0[0, 0] == 0.0

    hr = h_drive_rwa(d, ls)
    expect = np.zeros((3, 3), dtype=complex)
    expect[1, 2] = expect[2, 1] = d.rabi
    np.testing.assert_allclose(hr.entries, expect)

    detuned = DriveSpec(target_levels=(1, 2), rabi=1.0,
                        omega_uw=1.01 * (W20 - W10), duration=1e-9)
    with pytest.raises(ValueError, match="not resonant"):
        h_drive_rwa(detuned, ls)


def test_gamma_eff():
    assert gamma_eff(2 * np.pi * 1e7, 2 * np.pi * 1e8) == pytest.approx(
        2 * np.pi * 1e6)
    assert gamma_eff(1.0, -4.0) == pytest.approx(-0.25)
    with pytest.raises(ValueError):
        gamma_eff(1.0, 0.0)


def test_effective_vacuum_spectrum():
    gam = 2 * np.pi * 1.0e6
    h = h_eff_vacuum(gam)
    w = np.linalg.eigvalsh(h.entries)
    # five untouched states, |2,1>/|1,2> at gamma, the bright 0<->2
    # superposition and |2,2> at 2*gamma
    np.testing.assert_allclose(
        w, gam * np.array([0, 0, 0, 0, 0, 1, 1, 2, 2]), atol=1e-6)


@pytest.mark.parametrize("build, reason", [
    (lambda: couplings_from_structure(
        LevelStructure(HBAR * np.array([0.0, W10]), np.eye(2) * 1e-15),
        CavityMode(omega_c=W20, effective_flux_amplitude=1e-15), 1e-10, 0.0),
     "need at least 3 levels for the coupling matrix"),
    (lambda: h_eff_vacuum(float("nan")), "gamma must be finite"),
], ids=["couplings on two levels", "h_eff_vacuum nan"])
def test_hamiltonian_refusals_are_named(build, reason):
    with pytest.raises(ValueError, match=f"^{reason}$"):
        build()
