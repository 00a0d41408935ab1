"""Finite-difference eigensolver for the rf-SQUID loop in the flux basis.

The loop Hamiltonian is

    H = Q^2 / 2C + (Phi - Phi_x)^2 / 2L - E_J cos(2 pi Phi / Phi_0)

with [Phi, Q] = i*hbar, junction capacitance C, loop inductance L, critical
current Ic (E_J = Ic Phi_0 / 2 pi) and external bias flux Phi_x.  Discretized
on a uniform flux grid with second-order central differences, the kinetic
term becomes a symmetric tridiagonal stencil, so the spectrum comes from a
dedicated tridiagonal eigensolver.  Eigenfunctions are chosen real with a
fixed sign gauge; flux matrix elements <i|Phi|j> use trapezoidal quadrature.

`solve` trusts a spectrum only if its transition energies survive a halving
of the grid step.  That check reads eigenvalues alone: one bisection on the
doubled grid over a window whose lower edge is the Gershgorin bound (so the
values found are certified to be the lowest) and whose upper edge sits just
above the coarse top level.  Too few values in the window, or a shift too
close to the tolerance for that bisection to decide, send it to the
index-mode search instead.  Bisection resolves eigenvalues only to about
eps * max|diag|; when the check fails on transitions near that floor (the
collapsing 0-1 splitting at the symmetric bias), the error names that limit
instead of advising more points.

Biased near half a flux quantum with loop parameter beta_L = 2 pi L Ic / Phi_0
slightly above 1, the potential is a tilted double well whose two lowest
levels sit in separate wells while the second excited level lies near the
barrier top and overlaps both — the three-level lambda configuration the
protocols need.  `lambda_check` scores a solved structure against that
requirement.  Two presets ship as data files: a double-well point found by a
bracketing sweep (see the preset file note) and the exactly solvable
harmonic case used by convergence tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .constants import HBAR, PHI0, TWO_PI

__all__ = [
    "ResolutionError",
    "SquidParams",
    "FluxGrid",
    "LevelStructure",
    "LambdaReport",
    "build_potential",
    "solve",
    "lambda_check",
    "harmonic_scale_element",
    "load_preset",
    "preset_path",
    "PRESET_DIR",
]

PRESET_DIR = Path(__file__).parent / "presets"

#: Keys a preset file must define (plus an optional free-text "note").
PRESET_KEYS = (
    "C_farad",
    "L_henry",
    "Ic_ampere",
    "Phix_over_Phi0",
    "grid_points",
    "grid_halfwidth_over_Phi0",
)


class ResolutionError(RuntimeError):
    """The flux grid cannot resolve the requested levels."""


@dataclass(frozen=True)
class SquidParams:
    """Loop parameters: capacitance C (F), inductance L (H), critical
    current Ic (A), external bias flux Phi_x (Wb)."""

    C: float
    L: float
    Ic: float
    Phi_x: float

    def __post_init__(self):
        if not (self.C > 0 and self.L > 0):
            raise ValueError("C and L must be positive")
        if self.Ic < 0:
            raise ValueError("Ic must be nonnegative")

    @property
    def E_J(self) -> float:
        """Josephson energy Ic Phi_0 / 2 pi (J)."""
        return self.Ic * PHI0 / TWO_PI

    @property
    def beta_L(self) -> float:
        """Loop parameter 2 pi L Ic / Phi_0 (dimensionless)."""
        return TWO_PI * self.L * self.Ic / PHI0

    @property
    def omega_lc(self) -> float:
        """Bare LC angular frequency 1/sqrt(LC) (rad/s)."""
        return 1.0 / np.sqrt(self.L * self.C)


@dataclass(frozen=True)
class FluxGrid:
    """Uniform flux grid: center (Wb), half_width (Wb), odd point count."""

    center: float
    half_width: float
    points: int

    def __post_init__(self):
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")
        if self.points < 64 or self.points % 2 == 0:
            raise ValueError(f"points must be odd and >= 64, got {self.points}")

    @property
    def step(self) -> float:
        return 2.0 * self.half_width / (self.points - 1)

    def values(self) -> np.ndarray:
        return np.linspace(self.center - self.half_width,
                           self.center + self.half_width, self.points)

    def doubled(self) -> "FluxGrid":
        """Same span at half the step (keeps the point count odd)."""
        return FluxGrid(self.center, self.half_width, 2 * self.points - 1)


@dataclass(frozen=True)
class LevelStructure:
    """Retained eigenlevels of one loop.

    energies are in joules, ascending; flux_elements[i, j] = <i|Phi|j> in Wb,
    exactly symmetric (real eigenfunctions, enforced by mirroring the upper
    triangle).  Transition angular frequencies are derived from the energies.
    The solving parameters and grid ride along as provenance.
    """

    energies: np.ndarray
    flux_elements: np.ndarray
    omega_10: float
    omega_20: float
    omega_21: float
    params: SquidParams | None = None
    grid: FluxGrid | None = None

    def __post_init__(self):
        en = np.array(self.energies, dtype=float)
        el = np.array(self.flux_elements, dtype=float)
        if np.any(np.diff(en) <= 0):
            raise ValueError("energies must be strictly ascending")
        if el.shape != (en.size, en.size):
            raise ValueError("flux_elements must be square, one row per level")
        if not np.array_equal(el, el.T):
            raise ValueError("flux_elements must be exactly symmetric")
        if en.size >= 3:
            target = self.omega_21 + self.omega_10
            if abs(self.omega_20 - target) > 1e-9 * abs(self.omega_20):
                raise ValueError("omega_20 must equal omega_21 + omega_10")
        en.setflags(write=False)
        el.setflags(write=False)
        object.__setattr__(self, "energies", en)
        object.__setattr__(self, "flux_elements", el)

    @property
    def n_levels(self) -> int:
        return self.energies.size


def build_potential(p: SquidParams, g: FluxGrid) -> np.ndarray:
    """Potential energy (J) sampled on the grid."""
    phi = g.values()
    return ((phi - p.Phi_x) ** 2 / (2.0 * p.L)
            - p.E_J * np.cos(TWO_PI * phi / PHI0))


def _tridiagonal(p: SquidParams, g: FluxGrid):
    """Central-difference Hamiltonian on one grid: its diagonal and
    off-diagonal (J), and the potential it samples (J)."""
    v_pot = build_potential(p, g)
    kin = HBAR * HBAR / (2.0 * p.C * g.step * g.step)
    return 2.0 * kin + v_pot, np.full(g.points - 1, -kin), v_pot


def _solve_grid(p: SquidParams, g: FluxGrid, n_levels: int):
    """Eigenpairs of the central-difference Hamiltonian on one grid."""
    # imported here: scipy.linalg is most of the package's import time, and
    # only the eigensolver needs it
    from scipy.linalg import eigh_tridiagonal

    phi = g.values()
    d = g.step
    diag, off, v_pot = _tridiagonal(p, g)
    energies, vecs = eigh_tridiagonal(
        diag, off, select="i", select_range=(0, n_levels - 1))
    # L2-normalize by trapezoidal quadrature and fix the real sign gauge
    for k in range(n_levels):
        col = vecs[:, k]
        col /= np.sqrt(np.trapezoid(col * col, dx=d))
        if col[np.argmax(np.abs(col))] < 0:
            col *= -1.0
    return energies, vecs, phi, v_pot


#: Upper edge of the doubled-grid search window, above the coarse top level,
#: as a fraction of the coarse span E_top - E_0.  Wide enough for the fine
#: top level on any grid that passes the check; narrow enough to keep the
#: next level out, which bisection would otherwise also resolve.
_BRACKET_MARGIN = 1e-3

#: Width, in units of floor / smallest transition, of the band around
#: ``check_rtol`` inside which the value search cannot decide.  Bisection
#: narrows each eigenvalue to a bracket eps * (max|diag| + 2 kin) <= 2 * floor
#: wide and returns its midpoint, so two searches can place one eigenvalue
#: up to 2 * floor apart and one transition up to 4 * floor.
_UNDECIDED_BAND = 4.0


def _transition_shift(coarse: np.ndarray, fine: np.ndarray):
    """Largest relative change of the transitions E_k - E_0 from coarse to
    fine, and the smallest fine transition (J)."""
    coarse_tr = coarse[1:] - coarse[0]
    fine_tr = fine[1:] - fine[0]
    shift = np.max(np.abs(coarse_tr - fine_tr) / np.abs(fine_tr))
    return float(shift), float(np.min(np.abs(fine_tr)))


def _doubled_grid_energies(p: SquidParams, g: FluxGrid, coarse: np.ndarray,
                           check_rtol: float):
    """Lowest ``coarse.size`` eigenvalues on the doubled grid, without
    eigenvectors, and the resolution floor eps * max|diag| there (J).

    One value-range bisection over (lo, hi]: lo is the Gershgorin bound
    min(diag) - 2 kin, below which no eigenvalue lies, so the values found
    are certified to be the lowest ones; hi is the coarse top level plus
    :data:`_BRACKET_MARGIN` of the coarse span.  The index-mode search, which
    gives the same values as a full solve on that grid, runs instead when
    the window holds too few values (a grid far from convergence) or when
    the resulting shift lies within :data:`_UNDECIDED_BAND` resolutions of
    ``check_rtol``, so the check passes and raises where it always has.
    """
    from scipy.linalg import eigvalsh_tridiagonal

    n_levels = coarse.size
    diag, off, _ = _tridiagonal(p, g.doubled())
    floor = np.finfo(float).eps * np.max(np.abs(diag))
    lo = diag.min() - 2.0 * abs(off[0])
    hi = coarse[-1] + _BRACKET_MARGIN * (coarse[-1] - coarse[0])
    fine = eigvalsh_tridiagonal(diag, off, select="v",
                                select_range=(lo, hi))[:n_levels]
    if fine.size == n_levels:
        shift, smallest = _transition_shift(coarse, fine)
        if abs(shift - check_rtol) > _UNDECIDED_BAND * floor / smallest:
            return fine, floor
    fine = eigvalsh_tridiagonal(diag, off, select="i",
                                select_range=(0, n_levels - 1))
    return fine, floor


def solve(p: SquidParams, g: FluxGrid, n_levels: int = 3, *,
          check_convergence: bool = True, check_rtol: float = 1e-6
          ) -> LevelStructure:
    """Solve for the lowest ``n_levels`` levels and their flux elements.

    The grid must contain the retained levels (edge potential above the
    highest retained eigenvalue) and, when ``check_convergence`` is on,
    reproduce the transition energies on a doubled grid to ``check_rtol``
    relative; violations raise :class:`ResolutionError` with a diagnostic.

    The check reads eigenvalues only: the doubled grid gets one bisection
    over a certified window (see :func:`_doubled_grid_energies`), with no
    eigenvectors, and falls back to the index-mode search when that window
    holds too few levels or cannot decide.  It never changes the returned
    structure.  Bisection resolves eigenvalues to about eps * max|diag|;
    when that floor exceeds ``check_rtol`` times the smallest transition
    (near the symmetric bias, where the 0-1 splitting collapses), the
    error names that limit instead of advising more points.
    """
    if not 1 <= n_levels <= 8:
        raise ValueError(f"n_levels must be in 1..8, got {n_levels}")
    energies, vecs, phi, v_pot = _solve_grid(p, g, n_levels)

    top = energies[-1]
    if v_pot[0] <= top or v_pot[-1] <= top:
        raise ResolutionError(
            "grid too narrow: edge potential "
            f"({min(v_pot[0], v_pot[-1]):.4e} J) does not exceed the highest "
            f"retained level ({top:.4e} J); widen half_width")

    if check_convergence and n_levels >= 2:
        fine, floor = _doubled_grid_energies(p, g, energies, check_rtol)
        shift, smallest = _transition_shift(energies, fine)
        if shift > check_rtol:
            if floor / smallest > check_rtol:
                advice = (f"the smallest transition ({smallest:.3e} J) is "
                          f"only {smallest / floor:.1e} times the eigensolver "
                          f"resolution floor ({floor:.3e} J), so more points "
                          "cannot help")
            else:
                advice = "increase points"
            raise ResolutionError(
                f"transition energies shift by {shift:.3e} relative on grid "
                f"doubling (tolerance {check_rtol:.1e}); {advice}")

    d = g.step
    elements = np.empty((n_levels, n_levels))
    for i in range(n_levels):
        for j in range(i, n_levels):
            elements[i, j] = np.trapezoid(vecs[:, i] * phi * vecs[:, j], dx=d)
            elements[j, i] = elements[i, j]

    omega_10 = float((energies[1] - energies[0]) / HBAR) if n_levels >= 2 else 0.0
    omega_20 = float((energies[2] - energies[0]) / HBAR) if n_levels >= 3 else 0.0
    omega_21 = float((energies[2] - energies[1]) / HBAR) if n_levels >= 3 else 0.0
    return LevelStructure(energies, elements, omega_10, omega_20, omega_21,
                          params=p, grid=g)


def harmonic_scale_element(p: SquidParams) -> float:
    """Ground-to-first flux element of the Ic = 0 oscillator,
    sqrt(hbar sqrt(L/C) / 2) (Wb) — the natural scale for Phi elements."""
    return float(np.sqrt(HBAR * np.sqrt(p.L / p.C) / 2.0))


@dataclass(frozen=True)
class LambdaReport:
    """Outcome of the lambda-configuration check: `ok` plus the measured
    ratios/elements and a reason string per failed requirement."""

    ok: bool
    reasons: tuple[str, ...]
    ratio_20: float
    ratio_21: float
    element_02: float
    element_12: float
    floor: float

    def __bool__(self) -> bool:
        return self.ok


def lambda_check(ls: LevelStructure, ratio_threshold: float = 5.0,
                 element_floor: float = 1e-4) -> LambdaReport:
    """Check the three-level lambda requirements on a solved structure.

    Both upper transitions must be at least ``ratio_threshold`` times the
    0-1 splitting, and both 0<->2 and 1<->2 flux elements must exceed
    ``element_floor`` times the harmonic-scale element (needs the structure's
    provenance params for that scale).
    """
    if ls.n_levels < 3:
        raise ValueError("lambda_check needs at least 3 levels")
    if ls.params is None:
        raise ValueError("lambda_check needs provenance params on the "
                         "LevelStructure for the element floor scale")
    floor = element_floor * harmonic_scale_element(ls.params)
    r20 = ls.omega_20 / ls.omega_10 if ls.omega_10 > 0 else np.inf
    r21 = ls.omega_21 / ls.omega_10 if ls.omega_10 > 0 else np.inf
    e02 = float(abs(ls.flux_elements[0, 2]))
    e12 = float(abs(ls.flux_elements[1, 2]))

    reasons = []
    if r20 < ratio_threshold:
        reasons.append(f"transition ratio omega_20/omega_10 = {r20:.2f} "
                       f"below {ratio_threshold}")
    if r21 < ratio_threshold:
        reasons.append(f"transition ratio omega_21/omega_10 = {r21:.2f} "
                       f"below {ratio_threshold}")
    if e02 < floor:
        reasons.append("dark 0<->2 transition")
    if e12 < floor:
        reasons.append("dark 1<->2 transition")
    return LambdaReport(ok=not reasons, reasons=tuple(reasons),
                        ratio_20=float(r20), ratio_21=float(r21),
                        element_02=e02, element_12=e12, floor=floor)


def preset_path(name: str) -> Path:
    """Resolve a preset name or path to a file path."""
    p = Path(name)
    if p.suffix == ".json" and p.exists():
        return p
    candidate = PRESET_DIR / f"{name}.json"
    if candidate.exists():
        return candidate
    available = sorted(f.stem for f in PRESET_DIR.glob("*.json"))
    raise FileNotFoundError(
        f"no preset named {name!r}; available: {', '.join(available)}")


def load_preset(name: str) -> tuple[SquidParams, FluxGrid]:
    """Load a preset parameter file by name or path.

    Files are flat JSON with the keys in :data:`PRESET_KEYS` (fluxes are
    recorded as fractions of the flux quantum; the grid is centered at half
    a flux quantum) plus an optional "note" recording how the numbers were
    found.
    """
    path = preset_path(name)
    data = json.loads(path.read_text())
    unknown = set(data) - set(PRESET_KEYS) - {"note"}
    if unknown:
        raise ValueError(f"unknown keys in preset {path.name}: "
                         f"{', '.join(sorted(unknown))}")
    missing = set(PRESET_KEYS) - set(data)
    if missing:
        raise ValueError(f"preset {path.name} missing keys: "
                         f"{', '.join(sorted(missing))}")
    params = SquidParams(C=float(data["C_farad"]), L=float(data["L_henry"]),
                         Ic=float(data["Ic_ampere"]),
                         Phi_x=float(data["Phix_over_Phi0"]) * PHI0)
    grid = FluxGrid(center=0.5 * PHI0,
                    half_width=float(data["grid_halfwidth_over_Phi0"]) * PHI0,
                    points=int(data["grid_points"]))
    return params, grid
