"""State/operator container invariants and linear-algebra helpers."""

import re

import numpy as np
import pytest

from squidqed.hilbert import (CapacityError, HermiticityError, Operator,
                              StateVector, basis_state, block_eigh,
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


@pytest.mark.parametrize("dims", [(3.7, 3), [3, 3.7], np.array([3.7, 3]),
                                  (float("nan"), 3), (float("inf"), 3),
                                  ("3", 3)])
def test_non_integral_dimensions_are_refused_by_name(dims):
    with pytest.raises(ValueError, match="integers >= 2, got"):
        StateVector(np.ones(9) / 3, dims)
    with pytest.raises(ValueError, match="integers >= 2, got"):
        Operator(np.eye(9), dims)
    with pytest.raises(ValueError, match="integers >= 2, got"):
        basis_state(dims, (0, 0))


def test_whole_float_and_numpy_int_dimensions_are_accepted():
    for dims in ((3.0, 3), (np.int64(3), np.int32(3)), [3, 3],
                 np.array([3, 3]), np.array([3.0, 3.0])):
        assert StateVector(np.ones(9) / 3, dims).dims == (3, 3)
        assert Operator(np.eye(9), dims).dims == (3, 3)
        assert basis_state(dims, (1, 0)).dims == (3, 3)
    assert StateVector(np.ones(3) / np.sqrt(3), 3).dims == (3,)
    assert all(type(d) is int for d in
               StateVector(np.ones(9) / 3, (3.0, np.int64(3))).dims)


def test_basis_state_refuses_a_non_integral_index_by_name():
    for index in ((1.9, 0), (0, 0.5), (float("nan"), 0)):
        with pytest.raises(ValueError, match="basis indices must be "
                                             "integers, got"):
            basis_state((3, 3), index)
    for index in ((1.0, 0), (np.int64(1), np.int32(0)), np.array([1, 0])):
        np.testing.assert_array_equal(basis_state((3, 3), index).amplitudes,
                                      np.eye(9)[3])


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


def test_non_finite_generators_are_refused_by_name():
    # a NaN deviation fails the tolerance: an inf matrix gives inf - inf
    nan = np.full((3, 3), np.nan, dtype=complex)
    inf = np.full((3, 3), np.inf, dtype=complex)
    with np.errstate(invalid="ignore"):
        for bad in (nan, inf):
            with pytest.raises(HermiticityError,
                               match=r"^hermitian_flag set but .* = nan$"):
                Operator(bad, (3,), hermitian_flag=True)
    with pytest.raises(HermiticityError, match=r"needs Hermitian input, "
                                               r"dev=nan$"):
        matexp_unitary(Operator(nan, (3,)), 1.0)


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


@pytest.mark.parametrize("keep", [[0.6], [1.5, 0], (0, 0.5), ["a"]])
def test_partial_trace_refuses_a_non_integral_keep_by_name(keep):
    psi = basis_state((3, 3), (1, 2))
    with pytest.raises(ValueError, match="keep indices must be integers"):
        partial_trace(psi, keep)


def test_partial_trace_takes_whole_float_and_numpy_int_indices():
    psi = basis_state((3, 4), (1, 2))
    want = partial_trace(psi, [1]).entries
    for keep in ([np.int64(1)], np.array([1]), (1.0,), 1):
        rho = partial_trace(psi, keep)
        assert rho.dims == (4,)
        assert np.array_equal(rho.entries, want)


def test_partial_trace_trace_one_and_hermitian():
    rng = np.random.default_rng(9)
    for _ in range(10):
        psi = random_state(rng, (2, 3, 2))
        keep = [int(k) for k in rng.permutation(3)[:2]]
        rho = partial_trace(psi, keep)
        assert np.trace(rho.entries).real == pytest.approx(1.0)
        np.testing.assert_allclose(rho.entries, rho.entries.conj().T,
                                   atol=1e-12)


@pytest.mark.parametrize("build, reason", [
    (lambda: StateVector(np.zeros(0), ()),
     "dims must contain at least one subsystem"),
    (lambda: basis_state((3, 3), (1, 1)).overlap(basis_state((9,), (4,))),
     "dimension mismatch: (3, 3) vs (9,)"),
    (lambda: Operator(np.zeros((2, 3)), (2,)),
     "operator entries must be square, got shape (2, 3)"),
    (lambda: basis_state((3, 3), (1,)), "2 subsystems but 1 indices"),
    (lambda: basis_state((3, 3), (1, 3)),
     "index 3 out of range for dimension 3"),
    (lambda: partial_trace(basis_state((2, 3), (0, 1)), []),
     "keep must be a nonempty list of distinct indices"),
    (lambda: partial_trace(basis_state((2, 3), (0, 1)), [1, 1]),
     "keep must be a nonempty list of distinct indices"),
    (lambda: partial_trace(basis_state((2, 3), (0, 1)), [2]),
     "keep index 2 invalid for 2 subsystems"),
], ids=["empty dims", "overlap dims", "non-square operator",
        "basis index count", "basis index range", "keep empty",
        "keep repeated", "keep out of range"])
def test_hilbert_refusals_are_named(build, reason):
    with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
        build()


def test_a_space_above_the_cap_is_refused_before_it_is_built(monkeypatch):
    # every cavity dimension is checked against the cap, which is read at
    # call time, before any (dim x dim) array exists
    import squidqed.hilbert as hilbert
    from squidqed.hamiltonians import CavityMode
    from squidqed.protocols import ExecutionParams
    from squidqed.verify import rwa_error_point

    with pytest.raises(CapacityError, match="^total dimension 4104 exceeds"):
        ExecutionParams(explicit_cavity=True, fock_cutoff=456)
    assert ExecutionParams(explicit_cavity=True, fock_cutoff=455)
    with pytest.raises(CapacityError, match="^total dimension 3000000000 "):
        CavityMode(omega_c=1.0, fock_cutoff=10 ** 9)
    monkeypatch.setattr(hilbert, "MAX_TOTAL_DIM", 40)
    for build, dim in ((lambda: CavityMode(omega_c=1.0, fock_cutoff=14), 42),
                       (lambda: rwa_error_point(0.01, fock_cutoff=14), 42),
                       (lambda: ExecutionParams(explicit_cavity=True,
                                                fock_cutoff=5), 45)):
        with pytest.raises(CapacityError,
                           match=f"^total dimension {dim} exceeds the "
                                 "dense-storage cap 40$"):
            build()
    assert CavityMode(omega_c=1.0, fock_cutoff=13).fock_cutoff == 13


def _check_block_eigh(h, labels):
    """block_eigh of h against the block label of every basis state: an
    eigensystem to roundoff, exactly zero off-block, pairs those of equal
    labels."""
    w, v, (j, l) = block_eigh(h)
    n = len(h)
    assert np.abs(v.conj().T @ v - np.eye(n)).max() <= 1e-14
    assert np.abs((v * w) @ v.conj().T - h).max() <= 1e-14 * np.abs(h).max()
    same = labels[:, None] == labels[None, :]
    assert not v[~same].any()
    want_j, want_l = np.nonzero(np.triu(same, 1))
    assert np.array_equal(j, want_j) and np.array_equal(l, want_l)


def test_block_eigh_keeps_a_dense_matrix_one_block():
    rng = np.random.default_rng(41)
    for n in (1, 2, 12, 36):
        _check_block_eigh(random_hermitian(rng, n), np.zeros(n))


def test_block_eigh_finds_the_connected_components():
    # blocks of sizes 1 to 4, scattered over the basis by a permutation,
    # each a chain 0-1-2-3 whose ends couple only through the middle
    rng = np.random.default_rng(43)
    sizes = (3, 1, 4, 2, 4, 1, 3)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    h = np.zeros((len(labels),) * 2, dtype=complex)
    start = 0
    for size in sizes:
        block = random_hermitian(rng, size)
        block[np.abs(np.subtract.outer(range(size), range(size))) > 1] = 0.0
        h[start:start + size, start:start + size] = block
        start += size
    perm = rng.permutation(len(labels))
    _check_block_eigh(h[np.ix_(perm, perm)], labels[perm])
