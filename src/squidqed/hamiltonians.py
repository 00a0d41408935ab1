"""Builders for every Hamiltonian in the model.

Covers the truncated Fock operators of the cavity mode, the inductive
loop-cavity coupling in the lab frame and in the interaction picture (with
and without the rotating-wave reduction), the classical microwave drive
(full and resonant forms), and the dispersive two-loop effective
Hamiltonian that generates the gates.  Every loop-cavity generator, on
one loop or two, comes from `loop_cavity_hamiltonian`.  Every detuning in
the library is Delta = omega_20 - omega_c, signed, and gamma = g_02^2 /
Delta.

Unit convention: every builder returns an hbar-normalized generator in
rad/s, so a propagator's phase is the generator times the time.
Composite spaces order subsystems (loop_a, loop_b, cavity); single-loop
interaction builders use (loop, cavity).

Time-dependent builders are factories ``h_xxx_factory(...)`` returning a
closure ``t -> Operator`` that carries an ``omega_max`` attribute (the
fastest phase present) for the integrator's step-size check, plus any
reduction-condition metadata.

`LevelStructure` appears in annotations only, so it is imported for type
checkers alone: building Hamiltonians never loads the loop solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import TYPE_CHECKING

import numpy as np

from .constants import HBAR, MU0
from .hilbert import Operator, _check_dims

if TYPE_CHECKING:
    from .squid import LevelStructure

__all__ = [
    "CavityMode",
    "CouplingSet",
    "DriveSpec",
    "fock_lowering",
    "fock_number",
    "transition_frequency",
    "couplings_from_structure",
    "drive_from_structure",
    "loop_cavity_hamiltonian",
    "h_int_full_factory",
    "h_int_rwa_factory",
    "h_drive_full_factory",
    "h_drive_rwa",
    "gamma_eff",
    "h_eff_vacuum",
]

#: Level pairs a classical drive may address.
VALID_TARGETS = ((0, 1), (0, 2), (1, 2))

#: Reduction-condition threshold: a frequency ratio below this counts as
#: "much smaller than one" for the recorded validity flags.
CONDITION_RATIO_MAX = 0.1


def _check_inductance(L) -> None:
    """Refuse, by name, a loop inductance that is not finite and positive:
    every coupling and drive amplitude divides by it."""
    if not 0 < L < np.inf:
        raise ValueError(
            f"loop inductance L must be finite and positive, got {L}")


def _check_fock_cutoff(fock_cutoff, n_loops: int) -> None:
    """Refuse, by name, a Fock-space truncation that is not an int >= 2, or
    that puts ``n_loops`` loops and the cavity above the dense-storage cap."""
    if (isinstance(fock_cutoff, bool)
            or not isinstance(fock_cutoff, (int, np.integer))):
        raise ValueError(f"fock_cutoff must be an int, got {fock_cutoff!r}")
    if fock_cutoff < 2:
        raise ValueError("fock_cutoff must be at least 2")
    _check_dims((3,) * n_loops + (fock_cutoff,), 3 ** n_loops * fock_cutoff)


@dataclass(frozen=True)
class CavityMode:
    """Single cavity mode: angular frequency omega_c (rad/s), Fock-space
    truncation, and the scalar effective flux amplitude (Wb) of the mode,
    which must be finite."""

    omega_c: float
    fock_cutoff: int = 4
    effective_flux_amplitude: float = 0.0

    def __post_init__(self):
        if not 0 < self.omega_c < np.inf:
            raise ValueError(
                f"omega_c must be finite and positive, got {self.omega_c}")
        _check_fock_cutoff(self.fock_cutoff, 1)
        if not np.isfinite(self.effective_flux_amplitude):
            raise ValueError(f"effective_flux_amplitude must be finite, got "
                             f"{self.effective_flux_amplitude}")


@dataclass(frozen=True)
class CouplingSet:
    """Cavity coupling constants g[i, j] (rad/s, symmetric 3x3).

    Only magnitudes enter protocol timings; signs are preserved from the
    flux-element gauge.  Every entry must be finite.
    """

    g: np.ndarray

    def __post_init__(self):
        g = np.array(self.g, dtype=float)
        if g.shape != (3, 3):
            raise ValueError(f"coupling matrix must be 3x3, got {g.shape}")
        if not np.isfinite(g).all():
            raise ValueError(f"coupling matrix entries must be finite, got "
                             f"{g.tolist()}")
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
    full (non-resonant-reduced) drive Hamiltonian.  The flux amplitude
    and the diagonal amplitudes must be finite; the flux amplitude is
    checked before the rates derived from it.
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
        if not np.isfinite(self.effective_flux_amplitude):
            raise ValueError(f"effective_flux_amplitude must be finite, got "
                             f"{self.effective_flux_amplitude}")
        for name in ("rabi", "duration", "omega_uw"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and positive, "
                                 f"got {getattr(self, name)}")
        if not np.all(np.isfinite(self.diag_rabi)):
            raise ValueError(f"diag_rabi must be finite, got "
                             f"{self.diag_rabi}")

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


def couplings_from_structure(ls: LevelStructure, m: CavityMode, L: float,
                             Phi_x: float) -> CouplingSet:
    """Cavity couplings from flux matrix elements.

    g_ij = lambda_c sqrt(hbar omega_c / 2 mu_0) <i|Phi|j> Phi_c / hbar with
    the inductive coupling lambda_c = -1/L and the bias flux subtracted on
    the diagonal (<i|Phi|i> - Phi_x).  All mode geometry lives in the scalar
    effective flux amplitude, so these numbers are only as physical as that
    calibration; consumers may equally set g directly.  A zero amplitude
    (the mode's default), or an L that is not finite and positive, is
    refused.
    """
    if ls.n_levels < 3:
        raise ValueError("need at least 3 levels for the coupling matrix")
    _check_inductance(L)
    if m.effective_flux_amplitude == 0.0:
        raise ValueError("effective_flux_amplitude is 0, so every g is 0")
    lambda_c = -1.0 / L
    prefactor = lambda_c * np.sqrt(HBAR * m.omega_c / (2.0 * MU0)) \
        * m.effective_flux_amplitude / HBAR
    g = prefactor * (ls.flux_elements[:3, :3] - Phi_x * np.eye(3))
    return CouplingSet(g=g)


def drive_from_structure(ls: LevelStructure, target, L: float, Phi_x: float,
                         flux_amplitude: float, duration: float,
                         omega_uw: float | None = None) -> DriveSpec:
    """DriveSpec from flux matrix elements: Omega_ij = lambda_uw <i|Phi|j>
    Phi_uw / hbar, with the bias subtracted on the diagonals.  Defaults to
    exact resonance with the target transition.  An L that is not finite
    and positive is refused."""
    _check_inductance(L)
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
# loop-cavity generator
# ---------------------------------------------------------------------------

def _unit(i: int, j: int) -> np.ndarray:
    """Read-only 3x3 matrix unit |i><j| on one loop."""
    m = np.zeros((3, 3), dtype=complex)
    m[i, j] = 1.0
    m.setflags(write=False)
    return m


#: Read-only loop operators: |0><2|, |2><0| and the projector on |2>.
_X02, _X20, _P2 = _unit(0, 2), _unit(2, 0), _unit(2, 2)


def _on_loop(m3: np.ndarray, loop: int, dims) -> np.ndarray:
    """Place a 3x3 matrix on factor ``loop`` of ``dims``, identity on every
    other factor."""
    mats = [np.eye(d, dtype=complex) for d in dims]
    mats[loop] = m3
    return reduce(np.kron, mats)


def loop_cavity_hamiltonian(levels, omega_c: float, g, fock_cutoff: int,
                            n_loops: int = 1, *,
                            rotating_wave: bool = False) -> np.ndarray:
    """H0 + V (rad/s) of n_loops (1 or 2) identical three-level loops and
    one cavity mode, cavity factor last.

    H0 is diagonal: the loop level frequencies ``levels`` plus omega_c per
    photon.  V couples each loop to the mode through the 3x3 couplings g:
    with ``rotating_wave``, g_02 (|0><2| a_dag + h.c.); otherwise
    L (x) (a + a_dag) with L = diag(g_00, g_11, g_22) + g_02 (|0><2| + h.c.).
    The 0<->1 and 1<->2 exchange terms are far off cavity resonance and are
    left out.  V has no diagonal, so H0 is the diagonal of the result.
    """
    if n_loops not in (1, 2):
        raise ValueError(f"n_loops must be 1 or 2, got {n_loops}")
    g = np.asarray(g)
    a = fock_lowering(fock_cutoff)
    if rotating_wave:
        loop_op, field = g[0, 2] * _X02, a.conj().T
    else:
        loop_op = np.diag(np.diag(g)) + g[0, 2] * (_X02 + _X20)
        field = a + a.conj().T
    loops = (3,) * n_loops
    v = sum(np.kron(_on_loop(loop_op, k, loops), field)
            for k in range(n_loops))
    if rotating_wave:
        v = v + v.conj().T
    h0 = reduce(np.add.outer, [np.asarray(levels, dtype=float)] * n_loops
                + [omega_c * np.arange(fock_cutoff)])
    return np.diag(h0.ravel()) + v


def _interaction_picture(cs: CouplingSet, ls: LevelStructure, m: CavityMode,
                         rotating_wave: bool):
    """Closure t -> e^{i H0 t} V e^{-i H0 t} of the one-loop
    `loop_cavity_hamiltonian` H0 + V, with H0 its diagonal."""
    h = loop_cavity_hamiltonian((0.0, ls.omega_10, ls.omega_20), m.omega_c,
                                cs.g, m.fock_cutoff,
                                rotating_wave=rotating_wave)
    e0 = np.diag(h).real
    upper, gaps = np.triu(h, 1), 1j * np.subtract.outer(e0, e0)

    def at(t: float) -> Operator:
        half = upper * np.exp(gaps * t)
        return Operator(half + half.conj().T, (3, m.fock_cutoff),
                        hermitian_flag=True)

    return at


def h_int_full_factory(cs: CouplingSet, ls: LevelStructure, m: CavityMode):
    """Factory for the full interaction-picture coupling on (loop, cavity).

    The returned closure evaluates e^{i H0 t} V e^{-i H0 t} of
    `loop_cavity_hamiltonian`: the diagonal micromotion terms (phases at
    omega_c, weights g_00, g_11, g_22), the counter-rotating 0<->2 pair
    (phases at omega_c + omega_20) and the co-rotating 0<->2 pair (phases
    at omega_c - omega_20).  ``omega_max`` on the closure is
    omega_c + omega_20; ``detuning`` is omega_20 - omega_c.
    """
    h = _interaction_picture(cs, ls, m, rotating_wave=False)
    h.omega_max = m.omega_c + ls.omega_20
    h.detuning = ls.omega_20 - m.omega_c
    return h


def h_int_rwa_factory(cs: CouplingSet, ls: LevelStructure, m: CavityMode):
    """Factory for the resonant-only (rotating-wave) coupling.

    Keeps the co-rotating 0<->2 pair alone, phases e^{+/- i (omega_c -
    omega_20) t}.  The closure records the reduction condition: attributes
    ``detuning`` (omega_20 - omega_c, rad/s), ``condition_ratio``
    (|detuning| / omega_c) and ``condition_ok`` (ratio below the module
    threshold).
    """
    h = _interaction_picture(cs, ls, m, rotating_wave=True)
    wm = ls.omega_20 - m.omega_c
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
    pii = d.diag_rabi[0] * _unit(i, i) + d.diag_rabi[1] * _unit(j, j)
    xij = d.rabi * _unit(i, j)
    wu = d.omega_uw

    def h(t: float) -> Operator:
        half = (np.exp(1j * wu * t) * pii
                + (np.exp(-1j * (wu + w_tr) * t)
                   + np.exp(1j * (wu - w_tr) * t)) * xij)
        return Operator(half + half.conj().T, (3,), hermitian_flag=True)

    h.omega_max = wu + w_tr
    return h


def _resonant_drive(levels, rabi: float) -> Operator:
    """rabi (|i><j| + |j><i|) on one loop: the reduced drive and every pulse."""
    m = _unit(*levels)
    return Operator(rabi * (m + m.T), (3,), hermitian_flag=True)


def h_drive_rwa(d: DriveSpec, ls: LevelStructure) -> Operator:
    """Resonant reduced drive: rabi * (|i><j| + |j><i|), time-independent.

    Requires the drive to actually be resonant with its target transition.
    """
    if not d.is_resonant(ls):
        w = transition_frequency(ls, d.target_levels)
        raise ValueError(
            f"drive at {d.omega_uw:.6e} rad/s is not resonant with the "
            f"{d.target_levels} transition at {w:.6e} rad/s")
    return _resonant_drive(d.target_levels, d.rabi)


# ---------------------------------------------------------------------------
# dispersive two-loop effective form
# ---------------------------------------------------------------------------

def gamma_eff(g02: float, detuning: float) -> float:
    """Effective dispersive rate g_02^2 / detuning (rad/s)."""
    if detuning == 0.0:
        raise ValueError("detuning must be nonzero in the dispersive regime")
    return g02 * g02 / detuning


def h_eff_vacuum(gamma: float) -> Operator:
    """Vacuum-projected dispersive Hamiltonian on the two loops (9x9):
    gamma * [ |2><2|_a + |2><2|_b + |2><0|_a |0><2|_b + h.c. ]."""
    if not np.isfinite(gamma):
        raise ValueError("gamma must be finite")
    p2 = _on_loop(_P2, 0, (3, 3)) + _on_loop(_P2, 1, (3, 3))
    cross = np.kron(_X20, _X02) + np.kron(_X02, _X20)
    return Operator(gamma * (p2 + cross), (3, 3), hermitian_flag=True)
