"""State/operator container invariants and linear-algebra helpers."""

import numpy as np
import pytest

from squidqed.hilbert import (CapacityError, HermiticityError, Operator,
                              StateVector, basis_state,
                              fidelity_up_to_global_phase, kron, matexp_unitary,
                              partial_trace)


def random_state(rng, dims):
    n = int(np.prod(dims))
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return StateVector(v / np.linalg.norm(v), dims)


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2


def test_state_vector_validation():
    with pytest.raises(ValueError):
        StateVector(np.zeros(6, dtype=complex), (2, 4))  # product mismatch
    with pytest.raises(ValueError):
        StateVector(np.zeros(2, dtype=complex), (1, 2))  # dim < 2
    sv = StateVector(np.array([1.0, 0.0]), (2,))
    with pytest.raises(ValueError):
        sv.amplitudes[0] = 0.5  # read-only


def test_capacity_cap():
    with pytest.raises(CapacityError):
        StateVector(np.zeros(8192, dtype=complex), (2,) * 13)
    a = Operator(np.eye(64, dtype=complex), (64,))
    b = Operator(np.eye(128, dtype=complex), (128,))
    with pytest.raises(CapacityError):
        kron(a, b)


def test_operator_hermitian_flag():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    Operator(m, (2,))  # fine unflagged
    with pytest.raises(HermiticityError):
        Operator(m, (2,), hermitian_flag=True)


def test_basis_state_and_identity():
    psi = basis_state((3, 4), (2, 1))
    assert psi.amplitudes[2 * 4 + 1] == 1.0
    assert psi.norm() == pytest.approx(1.0)


def test_basis_state_with_amplitude():
    phased = basis_state((3, 3), (2, 0), -1j).amplitudes
    assert phased[6] == -1j and np.count_nonzero(phased) == 1
    assert not np.signbit(phased.real).any()


def test_kron_matches_numpy():
    rng = np.random.default_rng(11)
    a = Operator(random_hermitian(rng, 3), (3,), hermitian_flag=True)
    b = Operator(random_hermitian(rng, 4), (4,), hermitian_flag=True)
    ab = kron(a, b)
    assert ab.dims == (3, 4)
    assert ab.hermitian_flag
    np.testing.assert_allclose(ab.entries, np.kron(a.entries, b.entries))


def test_matexp_unitary_is_unitary_and_correct():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = rng.integers(2, 7)
        h = random_hermitian(rng, n)
        t = float(rng.uniform(-3, 3))
        u = matexp_unitary(Operator(h, (int(n),)), t).entries
        np.testing.assert_allclose(u.conj().T @ u, np.eye(n), atol=1e-12)
        # against the spectral definition
        w, v = np.linalg.eigh(h)
        ref = (v * np.exp(-1j * w * t)) @ v.conj().T
        np.testing.assert_allclose(u, ref, atol=1e-12)


def test_matexp_pauli_x_half_period():
    # exp(-i sx pi/2) = -i sx
    sx = Operator(np.array([[0, 1], [1, 0]], dtype=complex), (2,))
    u = matexp_unitary(sx, np.pi / 2).entries
    np.testing.assert_allclose(u, -1j * sx.entries, atol=1e-12)


def test_matexp_rejects_non_hermitian():
    m = Operator(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), (2,))
    with pytest.raises(HermiticityError):
        matexp_unitary(m, 1.0)


def test_fidelity_global_phase_invariance():
    rng = np.random.default_rng(23)
    for _ in range(25):
        psi = random_state(rng, (2, 3))
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        rotated = StateVector(phase * psi.amplitudes, psi.dims)
        assert fidelity_up_to_global_phase(psi, rotated) == pytest.approx(1.0)


def test_partial_trace_product_state():
    rng = np.random.default_rng(3)
    a = random_state(rng, (3,))
    b = random_state(rng, (4,))
    joint = StateVector(np.kron(a.amplitudes, b.amplitudes), (3, 4))
    rho_a = partial_trace(joint, [0]).entries
    np.testing.assert_allclose(rho_a, np.outer(a.amplitudes,
                                               a.amplitudes.conj()),
                               atol=1e-12)
    rho_b = partial_trace(joint, [1]).entries
    np.testing.assert_allclose(rho_b, np.outer(b.amplitudes,
                                               b.amplitudes.conj()),
                               atol=1e-12)


def test_partial_trace_bell_state_is_mixed():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    rho = partial_trace(StateVector(v, (2, 2)), [0]).entries
    np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_trace_one_and_hermitian():
    rng = np.random.default_rng(9)
    for _ in range(10):
        psi = random_state(rng, (2, 3, 2))
        keep = [int(k) for k in rng.permutation(3)[:2]]
        rho = partial_trace(psi, keep)
        assert np.trace(rho.entries).real == pytest.approx(1.0)
        np.testing.assert_allclose(rho.entries, rho.entries.conj().T,
                                   atol=1e-12)
