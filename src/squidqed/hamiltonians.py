"""Builders for every Hamiltonian in the model.

Covers the bare three-level loop and the cavity mode, the inductive
loop-cavity coupling in the interaction picture (with and without the
rotating-wave reduction), the classical microwave drive (full and resonant
forms), and the dispersive two-loop effective Hamiltonians that generate the
gates.

Unit convention: the bare-system builders (`h_squid`, `h_cavity`) return
energies in joules; every coupling, drive, and effective builder returns an
hbar-normalized generator in rad/s (pass ``hbar_units="radps"`` downstream).
Composite spaces order subsystems (loop_a, loop_b, cavity); single-loop
interaction builders use (loop, cavity).

Time-dependent builders are factories ``h_xxx_factory(...)`` returning a
closure ``t -> Operator`` that carries an ``omega_max`` attribute (the
fastest phase present) for the integrator's step-size check, plus any
reduction-condition metadata.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import HBAR, MU0
from .hilbert import Operator
from .squid import LevelStructure

__all__ = [
    "CavityMode",
    "CouplingSet",
    "DriveSpec",
    "fock_lowering",
    "fock_number",
    "transition_frequency",
    "h_squid",
    "h_cavity",
    "cavity_ladders",
    "couplings_from_structure",
    "drive_from_structure",
    "h_int_full_factory",
    "h_int_rwa_factory",
    "h_drive_full_factory",
    "h_drive_rwa",
    "gamma_eff",
    "h_eff_two_squid",
    "h_eff_vacuum",
]

#: Level pairs a classical drive may address.
VALID_TARGETS = ((0, 1), (0, 2), (1, 2))

#: Reduction-condition threshold: a frequency ratio below this counts as
#: "much smaller than one" for the recorded validity flags.
CONDITION_RATIO_MAX = 0.1


@dataclass(frozen=True)
class CavityMode:
    """Single cavity mode: angular frequency omega_c (rad/s), Fock-space
    truncation, and the scalar effective flux amplitude (Wb) of the mode."""

    omega_c: float
    fock_cutoff: int = 4
    effective_flux_amplitude: float = 0.0

    def __post_init__(self):
        if self.omega_c <= 0:
            raise ValueError("omega_c must be positive")
        if self.fock_cutoff < 2:
            raise ValueError("fock_cutoff must be at least 2")


@dataclass(frozen=True)
class CouplingSet:
    """Cavity coupling constants g[i, j] (rad/s, symmetric 3x3) and the
    inductive coupling parameter lambda_c = -1/L (1/H).

    Only magnitudes enter protocol timings; signs are preserved from the
    flux-element gauge.
    """

    g: np.ndarray
    lambda_c: float

    def __post_init__(self):
        g = np.array(self.g, dtype=float)
        if g.shape != (3, 3):
            raise ValueError(f"coupling matrix must be 3x3, got {g.shape}")
        if not np.array_equal(g, g.T):
            raise ValueError("coupling matrix must be exactly symmetric")
        g.setflags(write=False)
        object.__setattr__(self, "g", g)


@dataclass(frozen=True)
class DriveSpec:
    """Classical microwave drive on one level pair.

    rabi is the off-diagonal amplitude Omega_ij (rad/s, positive by
    convention — eigenfunction sign gauges are unobservable in the rotation
    maps); diag_rabi holds the signed diagonal amplitudes (Omega_ii,
    Omega_jj) for the two target levels, which only matter for the
    full (non-resonant-reduced) drive Hamiltonian.
    """

    target_levels: tuple[int, int]
    rabi: float
    omega_uw: float
    duration: float
    effective_flux_amplitude: float = 0.0
    diag_rabi: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        pair = tuple(sorted(int(k) for k in self.target_levels))
        if pair not in VALID_TARGETS:
            raise ValueError(f"target_levels must be one of {VALID_TARGETS}")
        object.__setattr__(self, "target_levels", pair)
        if self.rabi <= 0:
            raise ValueError("rabi must be positive")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.omega_uw <= 0:
            raise ValueError("omega_uw must be positive")

    def is_resonant(self, ls: LevelStructure, rtol: float = 1e-9) -> bool:
        """Whether the drive frequency matches the target transition."""
        w = transition_frequency(ls, self.target_levels)
        return abs(self.omega_uw - w) <= rtol * w


def fock_lowering(n: int) -> np.ndarray:
    """Photon annihilation operator on an n-dimensional Fock space."""
    return np.diag(np.sqrt(np.arange(1, n)), 1).astype(complex)


def fock_number(n: int) -> np.ndarray:
    return np.diag(np.arange(n)).astype(complex)


def transition_frequency(ls: LevelStructure, pair) -> float:
    i, j = sorted(int(k) for k in pair)
    table = {(0, 1): ls.omega_10, (0, 2): ls.omega_20, (1, 2): ls.omega_21}
    if (i, j) not in table:
        raise ValueError(f"no transition frequency for level pair ({i}, {j})")
    return table[(i, j)]


def h_squid(ls: LevelStructure) -> Operator:
    """Diagonal three-level loop Hamiltonian (J)."""
    if ls.n_levels != 3:
        raise ValueError(f"expected exactly 3 retained levels, got {ls.n_levels}")
    return Operator(np.diag(ls.energies.astype(complex)), (3,),
                    hermitian_flag=True)


def h_cavity(m: CavityMode) -> Operator:
    """Cavity Hamiltonian hbar*omega_c*(n + 1/2) (J) on the truncated space."""
    n = np.arange(m.fock_cutoff)
    return Operator(np.diag(HBAR * m.omega_c * (n + 0.5)).astype(complex),
                    (m.fock_cutoff,), hermitian_flag=True)


def cavity_ladders(m: CavityMode) -> tuple[Operator, Operator]:
    """(a, a_dagger) on the truncated Fock space."""
    a = fock_lowering(m.fock_cutoff)
    return (Operator(a, (m.fock_cutoff,)),
            Operator(a.conj().T, (m.fock_cutoff,)))


def couplings_from_structure(ls: LevelStructure, m: CavityMode, L: float,
                             Phi_x: float) -> CouplingSet:
    """Cavity couplings from flux matrix elements.

    g_ij = lambda_c sqrt(hbar omega_c / 2 mu_0) <i|Phi|j> Phi_c / hbar with
    the bias flux subtracted on the diagonal (<i|Phi|i> - Phi_x).  All mode
    geometry lives in the scalar effective flux amplitude, so these numbers
    are only as physical as that calibration; consumers may equally set g
    directly.  A zero amplitude (the mode's default) is refused.
    """
    if ls.n_levels < 3:
        raise ValueError("need at least 3 levels for the coupling matrix")
    if m.effective_flux_amplitude == 0.0:
        raise ValueError("effective_flux_amplitude is 0, so every g is 0")
    lambda_c = -1.0 / L
    prefactor = lambda_c * np.sqrt(HBAR * m.omega_c / (2.0 * MU0)) \
        * m.effective_flux_amplitude / HBAR
    g = np.empty((3, 3))
    for i in range(3):
        for j in range(i, 3):
            elem = ls.flux_elements[i, j] - (Phi_x if i == j else 0.0)
            g[i, j] = prefactor * elem
            g[j, i] = g[i, j]
    return CouplingSet(g=g, lambda_c=lambda_c)


def drive_from_structure(ls: LevelStructure, target, L: float, Phi_x: float,
                         flux_amplitude: float, duration: float,
                         omega_uw: float | None = None) -> DriveSpec:
    """DriveSpec from flux matrix elements: Omega_ij = lambda_uw <i|Phi|j>
    Phi_uw / hbar, with the bias subtracted on the diagonals.  Defaults to
    exact resonance with the target transition."""
    i, j = sorted(int(k) for k in target)
    lam = -1.0 / L
    scale = lam * flux_amplitude / HBAR
    rabi = abs(scale * ls.flux_elements[i, j])
    if rabi == 0.0:
        raise ValueError(f"dark {i}<->{j} transition: zero drive amplitude")
    diag = (scale * (ls.flux_elements[i, i] - Phi_x),
            scale * (ls.flux_elements[j, j] - Phi_x))
    if omega_uw is None:
        omega_uw = transition_frequency(ls, (i, j))
    return DriveSpec(target_levels=(i, j), rabi=rabi, omega_uw=omega_uw,
                     duration=duration, effective_flux_amplitude=flux_amplitude,
                     diag_rabi=diag)


# ---------------------------------------------------------------------------
# interaction-picture loop-cavity coupling
# ---------------------------------------------------------------------------

def _int_pieces(cs: CouplingSet, m: CavityMode):
    """Constant matrices shared by the interaction-picture builders."""
    n = m.fock_cutoff
    a = fock_lowering(n)
    ad = a.conj().T
    diag = np.diag([cs.g[0, 0], cs.g[1, 1], cs.g[2, 2]]).astype(complex)
    x02 = np.zeros((3, 3), dtype=complex)
    x02[0, 2] = 1.0
    return {
        "diag_a": np.kron(diag, a),
        "x02_a": cs.g[0, 2] * np.kron(x02, a),
        "x02_ad": cs.g[0, 2] * np.kron(x02, ad),
        "dims": (3, n),
    }


def h_int_full_factory(cs: CouplingSet, ls: LevelStructure, m: CavityMode):
    """Factory for the full interaction-picture coupling.

    The returned closure evaluates, at time t, the sum of the diagonal
    micromotion terms (phases at omega_c, weights g_00, g_11, g_22), the
    counter-rotating 0<->2 pair (phases at omega_c + omega_20) and the
    co-rotating 0<->2 pair (phases at omega_c - omega_20).  The 0<->1 and
    1<->2 exchange terms are far off cavity resonance and are not part of
    this reduced model.  ``omega_max`` on the closure is omega_c + omega_20.
    """
    p = _int_pieces(cs, m)
    wc = m.omega_c
    wp = m.omega_c + ls.omega_20
    wm = m.omega_c - ls.omega_20

    def h(t: float) -> Operator:
        half = (np.exp(-1j * wc * t) * p["diag_a"]
                + np.exp(-1j * wp * t) * p["x02_a"]
                + np.exp(1j * wm * t) * p["x02_ad"])
        return Operator(half + half.conj().T, p["dims"], hermitian_flag=True)

    h.omega_max = wp
    h.detuning = wm
    return h


def h_int_rwa_factory(cs: CouplingSet, ls: LevelStructure, m: CavityMode):
    """Factory for the resonant-only (rotating-wave) coupling.

    Keeps the co-rotating 0<->2 pair alone, phases e^{+/- i (omega_c -
    omega_20) t}.  The closure records the reduction condition: attributes
    ``detuning`` (rad/s), ``condition_ratio`` (detuning / omega_c) and
    ``condition_ok`` (ratio below the module threshold).
    """
    p = _int_pieces(cs, m)
    wm = m.omega_c - ls.omega_20

    def h(t: float) -> Operator:
        half = np.exp(1j * wm * t) * p["x02_ad"]
        return Operator(half + half.conj().T, p["dims"], hermitian_flag=True)

    h.omega_max = abs(wm)
    h.detuning = wm
    h.condition_ratio = abs(wm) / m.omega_c
    h.condition_ok = h.condition_ratio < CONDITION_RATIO_MAX
    return h


# ---------------------------------------------------------------------------
# classical microwave drive
# ---------------------------------------------------------------------------

def h_drive_full_factory(d: DriveSpec, ls: LevelStructure):
    """Factory for the full (pre-reduction) drive Hamiltonian on one loop.

    Diagonal terms oscillate at the drive frequency with the signed
    amplitudes in ``diag_rabi``; the off-diagonal pair carries both the
    slow (omega_uw - omega_ji) and fast (omega_uw + omega_ji) phases.
    """
    i, j = d.target_levels
    w_tr = transition_frequency(ls, (i, j))
    pii = np.zeros((3, 3), dtype=complex)
    pii[i, i] = d.diag_rabi[0]
    pii[j, j] = d.diag_rabi[1]
    xij = np.zeros((3, 3), dtype=complex)
    xij[i, j] = d.rabi
    wu = d.omega_uw

    def h(t: float) -> Operator:
        half = (np.exp(1j * wu * t) * pii
                + (np.exp(-1j * (wu + w_tr) * t)
                   + np.exp(1j * (wu - w_tr) * t)) * xij)
        return Operator(half + half.conj().T, (3,), hermitian_flag=True)

    h.omega_max = wu + w_tr
    return h


def h_drive_rwa(d: DriveSpec, ls: LevelStructure) -> Operator:
    """Resonant reduced drive: rabi * (|i><j| + |j><i|), time-independent.

    Requires the drive to actually be resonant with its target transition.
    """
    if not d.is_resonant(ls):
        w = transition_frequency(ls, d.target_levels)
        raise ValueError(
            f"drive at {d.omega_uw:.6e} rad/s is not resonant with the "
            f"{d.target_levels} transition at {w:.6e} rad/s")
    i, j = d.target_levels
    mat = np.zeros((3, 3), dtype=complex)
    mat[i, j] = d.rabi
    mat[j, i] = d.rabi
    return Operator(mat, (3,), hermitian_flag=True)


# ---------------------------------------------------------------------------
# dispersive two-loop effective forms
# ---------------------------------------------------------------------------

def gamma_eff(g02: float, detuning: float) -> float:
    """Effective dispersive rate g_02^2 / detuning (rad/s)."""
    if detuning == 0.0:
        raise ValueError("detuning must be nonzero in the dispersive regime")
    return g02 * g02 / detuning


def h_eff_two_squid(cs: CouplingSet, detuning: float,
                    m: CavityMode) -> Operator:
    """Dispersive effective Hamiltonian on (loop_a, loop_b, cavity).

    gamma * [ sum_m ( |2><2|_m a a_dag - |0><0|_m a_dag a ) + cross ] with
    cross = |2><0|_a |0><2|_b + h.c. acting on the loops alone.  The
    dispersive condition (|g_02| much smaller than the detuning) is the
    caller's responsibility; `gamma_eff` gives the rate.
    """
    gam = gamma_eff(cs.g[0, 2], detuning)
    n = m.fock_cutoff
    a = fock_lowering(n)
    aad = a @ a.conj().T
    ada = a.conj().T @ a
    p0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    p2 = np.diag([0.0, 0.0, 1.0]).astype(complex)
    i3 = np.eye(3, dtype=complex)
    x20 = np.zeros((3, 3), dtype=complex)
    x20[2, 0] = 1.0
    x02 = x20.T.copy()

    stark = (np.kron(np.kron(p2, i3), aad) - np.kron(np.kron(p0, i3), ada)
             + np.kron(np.kron(i3, p2), aad) - np.kron(np.kron(i3, p0), ada))
    cross = np.kron(np.kron(x20, x02) + np.kron(x02, x20), np.eye(n))
    return Operator(gam * (stark + cross), (3, 3, n), hermitian_flag=True)


def h_eff_vacuum(gamma: float) -> Operator:
    """Vacuum-projected dispersive Hamiltonian on the two loops (9x9):
    gamma * [ |2><2|_a + |2><2|_b + |2><0|_a |0><2|_b + h.c. ]."""
    if not np.isfinite(gamma):
        raise ValueError("gamma must be finite")
    p2 = np.diag([0.0, 0.0, 1.0]).astype(complex)
    i3 = np.eye(3, dtype=complex)
    x20 = np.zeros((3, 3), dtype=complex)
    x20[2, 0] = 1.0
    x02 = x20.T.copy()
    mat = (np.kron(p2, i3) + np.kron(i3, p2)
           + np.kron(x20, x02) + np.kron(x02, x20))
    return Operator(gamma * mat, (3, 3), hermitian_flag=True)
