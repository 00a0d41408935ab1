"""Dense complex linear algebra over finite tensor-product Hilbert spaces.

Everything downstream (spectra, Hamiltonians, time evolution, fidelity
checks) runs on the two value types defined here: :class:`StateVector` and
:class:`Operator`, each carrying an explicit list of subsystem dimensions.
Every generator is hbar-normalized, in rad/s.  Matrix exponentials go
through a Hermitian eigendecomposition so propagators are unitary to
roundoff; storage is dense with a configurable hard cap on the total
dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MAX_TOTAL_DIM",
    "CapacityError",
    "HermiticityError",
    "StateVector",
    "Operator",
    "basis_state",
    "kron",
    "matexp_unitary",
    "fidelity_up_to_global_phase",
    "partial_trace",
]

#: Hard cap on the total Hilbert-space dimension for dense storage.
MAX_TOTAL_DIM = 4096

#: Tolerance for the Hermiticity assertion on flagged operators.
HERMITICITY_TOL = 1e-12


class CapacityError(ValueError):
    """Requested space exceeds the dense-storage dimension cap."""


class HermiticityError(ValueError):
    """An operator required to be Hermitian is not."""


def _check_dims(dims: tuple[int, ...], size: int) -> None:
    if len(dims) == 0:
        raise ValueError("dims must contain at least one subsystem")
    for d in dims:
        if int(d) != d or d < 2:
            raise ValueError(f"subsystem dimensions must be integers >= 2, got {d}")
    prod = 1
    for d in dims:
        prod *= int(d)
    if prod != size:
        raise ValueError(f"product of dims {dims} is {prod}, expected {size}")
    if prod > MAX_TOTAL_DIM:
        raise CapacityError(
            f"total dimension {prod} exceeds the dense-storage cap {MAX_TOTAL_DIM}"
        )


@dataclass(frozen=True)
class StateVector:
    """Complex column vector over a composed Hilbert space.

    amplitudes has length equal to the product of ``dims``; subsystem
    ordering follows the Kronecker convention (first subsystem varies
    slowest).
    """

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        dims = tuple(int(d) for d in np.atleast_1d(self.dims))
        _check_dims(dims, amps.size)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def overlap(self, other: "StateVector") -> complex:
        if self.dims != other.dims:
            raise ValueError(f"dimension mismatch: {self.dims} vs {other.dims}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class Operator:
    """Square complex matrix over a composed Hilbert space."""

    entries: np.ndarray
    dims: tuple[int, ...]
    hermitian_flag: bool = field(default=False)

    def __post_init__(self):
        mat = np.array(self.entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator entries must be square, got shape {mat.shape}")
        dims = tuple(int(d) for d in np.atleast_1d(self.dims))
        _check_dims(dims, mat.shape[0])
        if self.hermitian_flag:
            dev = float(np.max(np.abs(mat - mat.conj().T)))
            if dev >= HERMITICITY_TOL:
                raise HermiticityError(
                    f"hermitian_flag set but max|H - H^dag| = {dev:.3e}"
                )
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def basis_state(dims, index, amplitude: complex = 1.0) -> StateVector:
    """Product basis state amplitude * |i1, i2, ...> for one index per
    subsystem (the amplitude gives the declared phases of truth tables)."""
    dims = tuple(int(d) for d in np.atleast_1d(dims))
    idx = tuple(int(i) for i in np.atleast_1d(index))
    if len(idx) != len(dims):
        raise ValueError(f"{len(dims)} subsystems but {len(idx)} indices")
    flat = 0
    for d, i in zip(dims, idx):
        if not 0 <= i < d:
            raise ValueError(f"index {i} out of range for dimension {d}")
        flat = flat * d + i
    amps = np.zeros(int(np.prod(dims)), dtype=complex)
    amps[flat] += amplitude  # adding to +0 keeps a zero real part positive
    return StateVector(amps, dims)


def kron(a: Operator, b: Operator) -> Operator:
    """Tensor product; dims concatenate, capacity cap enforced."""
    total = a.dim * b.dim
    if total > MAX_TOTAL_DIM:
        raise CapacityError(
            f"kron result dimension {total} exceeds cap {MAX_TOTAL_DIM}"
        )
    return Operator(
        np.kron(a.entries, b.entries),
        a.dims + b.dims,
        hermitian_flag=a.hermitian_flag and b.hermitian_flag,
    )


def matexp_unitary(h: Operator, t: float) -> Operator:
    """U = exp(-i h t) via Hermitian eigendecomposition.

    ``h`` is an hbar-normalized generator in rad/s, so the phase is h*t
    directly.  The result is unitary up to roundoff because the eigenphases
    are exponentiated exactly.
    """
    dev = float(np.max(np.abs(h.entries - h.entries.conj().T)))
    if dev >= HERMITICITY_TOL:
        raise HermiticityError(f"matexp_unitary needs Hermitian input, dev={dev:.3e}")
    w, v = np.linalg.eigh(h.entries)
    u = (v * np.exp(-1j * w * t)) @ v.conj().T
    return Operator(u, h.dims)


def fidelity_up_to_global_phase(psi: StateVector, phi: StateVector) -> float:
    """|<psi|phi>|^2 — insensitive to the global phase of either state."""
    return float(abs(psi.overlap(phi)) ** 2)


def partial_trace(state: StateVector, keep) -> Operator:
    """Reduced density matrix of a pure state over the kept subsystems;
    ``keep`` lists subsystem indices to retain, in order."""
    dims = state.dims
    keep = [int(k) for k in np.atleast_1d(keep)]
    n_sub = len(dims)
    if len(keep) == 0 or len(set(keep)) != len(keep):
        raise ValueError("keep must be a nonempty list of distinct indices")
    for k in keep:
        if not 0 <= k < n_sub:
            raise ValueError(f"keep index {k} invalid for {n_sub} subsystems")
    traced = [i for i in range(n_sub) if i not in keep]
    kept_dims = tuple(dims[k] for k in keep)
    d_keep = int(np.prod(kept_dims))

    # reorder so kept axes come first, then contract the traced axes
    tensor = np.transpose(state.amplitudes.reshape(dims), keep + traced)
    tensor = tensor.reshape(d_keep, -1)
    rho = tensor @ tensor.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return Operator(rho, kept_dims, hermitian_flag=True)
