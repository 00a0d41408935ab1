"""Finite-difference eigensolver for the rf-SQUID loop in the flux basis.

The loop Hamiltonian is

    H = Q^2 / 2C + (Phi - Phi_x)^2 / 2L - E_J cos(2 pi Phi / Phi_0)

with [Phi, Q] = i*hbar, junction capacitance C, loop inductance L, critical
current Ic (E_J = Ic Phi_0 / 2 pi) and external bias flux Phi_x.  Discretized
on a uniform flux grid with second-order central differences, the kinetic
term becomes a symmetric tridiagonal stencil, so the spectrum comes from a
dedicated tridiagonal eigensolver.  Eigenfunctions are chosen real with a
fixed sign gauge; flux matrix elements <i|Phi|j> use trapezoidal quadrature.

Each grid is solved by prediction and certificate.  The lowest levels are
found first on a grid 2^m times coarser (m <= 3); their eigenvectors,
interpolated onto the full grid, give Rayleigh-quotient shifts for one
inverse iteration there, and one Rayleigh-Ritz step on the resulting
vectors gives the levels.  Each level's residual interval holds an
eigenvalue; when the intervals are disjoint and one Sturm count finds no
other eigenvalue below the top one, each holds its own level.  Any miss
falls back to the full bisection of the grid, as does any solve whose
smallest transition is below 2^26 resolution floors (eps * max|diag|, the
resolution of bisection), so near the symmetric bias every result and
refusal is the bisection's.

`solve` trusts a spectrum only if its transition energies survive a halving
of the grid step.  That check reads eigenvalues alone and, on a converged
grid, makes no bisection: each eigenvector, interpolated onto the doubled
grid, predicts its fine level by its Rayleigh quotient, and Sturm counts
certify that a narrow window around each prediction holds exactly one
eigenvalue and that no other lies below the top window.  The check passes
on those counts when the bound they give keeps every transition within
tolerance.  Any miss, or a bound too wide to pass, sends it to the full
bisection of the doubled grid, values only, which decides and words every
refusal.  The check certifies the step, not the box: the hard wall one step
outside the box stays where it is, so at Phi_x = (0.5 +- 9.8e-3) Phi_0
widening the shipped box from 0.35 to 0.42 Phi_0 moves omega_20 by 5.4e-6
while the check passes on both.  When the check fails on transitions near
the resolution floor (the collapsing 0-1 splitting at the symmetric bias),
the error names that limit instead of advising more points, and levels that
coincide on the grid are refused by name.

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
import sys
from dataclasses import dataclass, field
from functools import cache
from numbers import Integral
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
    "params_from_keys",
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
        for name in ("C", "L", "Ic", "Phi_x"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(
                    f"{name} must be finite, got {getattr(self, name)}")
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
        for name in ("center", "half_width"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(
                    f"{name} must be finite, got {getattr(self, name)}")
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")
        if (isinstance(self.points, bool)
                or not isinstance(self.points, Integral)):
            raise ValueError(f"points must be an int, got {self.points!r}")
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
    triangle).  The transition angular frequencies omega_ji = (E_j - E_i) /
    hbar are computed from the energies at construction, 0.0 where level j
    is not retained; they cannot be passed.  The solving parameters and grid
    ride along as provenance, passed by keyword.
    """

    energies: np.ndarray
    flux_elements: np.ndarray
    omega_10: float = field(init=False)
    omega_20: float = field(init=False)
    omega_21: float = field(init=False)
    params: SquidParams | None = field(default=None, kw_only=True)
    grid: FluxGrid | None = field(default=None, kw_only=True)

    def __post_init__(self):
        en = np.array(self.energies, dtype=float)
        el = np.array(self.flux_elements, dtype=float)
        if np.any(np.diff(en) <= 0):
            raise ValueError("energies must be strictly ascending")
        if el.shape != (en.size, en.size):
            raise ValueError("flux_elements must be square, one row per level")
        if not np.array_equal(el, el.T):
            raise ValueError("flux_elements must be exactly symmetric")
        for name, arr in (("energies", en), ("flux_elements", el)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        for name, i, j in (("omega_10", 0, 1), ("omega_20", 0, 2),
                           ("omega_21", 1, 2)):
            object.__setattr__(self, name, float((en[j] - en[i]) / HBAR)
                               if j < en.size else 0.0)

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
    off-diagonal (J), the potential it samples (J), and its resolution floor
    eps * max|diag| (J), to about which bisection places an eigenvalue.
    Finite parameters can still overflow here (a bias of 1e170 Phi_0, a
    capacitance whose 2 C step^2 underflows to 0); such a Hamiltonian is
    refused by name, as LAPACK would take it without a word."""
    scale = 2.0 * p.C * g.step * g.step
    kin = HBAR * HBAR / scale if scale > 0 else np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        v_pot = build_potential(p, g)
        diag = 2.0 * kin + v_pot
    if not np.all(np.isfinite(diag)):
        raise ValueError("loop Hamiltonian is not finite on the grid: "
                         "C, L, Ic, Phi_x or the grid step overflow it")
    return (diag, np.full(g.points - 1, -kin), v_pot,
            np.finfo(float).eps * np.max(np.abs(diag)))


@cache
def _lapack():
    """The module whose ``dstebz``, ``dstein`` and ``dsyev`` the solver
    calls: scipy's compiled LAPACK extension, ``scipy.linalg._flapack``.

    The extension is reused when it is already loaded.  Otherwise it is
    loaded from scipy's ``linalg`` directory without ``scipy.linalg``'s
    package import, which took longer than the rest of a ``spectrum`` run,
    and registered under its own name, so that a later
    ``import scipy.linalg`` shares it; the top-level ``scipy`` package is
    imported first, as its init sets up the library paths and distributor
    hooks the extension may need.  Where the extension cannot be found,
    the public ``scipy.linalg.lapack``, with the same routines, is returned
    instead."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    import importlib.machinery
    import importlib.util

    import scipy

    spec = importlib.machinery.PathFinder.find_spec(
        name, [str(Path(scipy.__file__).parent / "linalg")])
    if spec is None:
        from scipy.linalg import lapack
        return lapack
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _check_info(info: int, routine: str) -> None:
    """Raise on a failed LAPACK call as scipy's wrappers do: ValueError for
    an illegal argument (info < 0), LinAlgError for no convergence."""
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal "
                         f"{routine}")
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{routine} did not converge (LAPACK info={info})")


def _lowest(diag: np.ndarray, off: np.ndarray, n: int, vectors: bool):
    """The ``n`` lowest eigenvalues of the tridiagonal (diag, off), by
    index-mode bisection (``stebz``), and with ``vectors`` their
    eigenvectors by inverse iteration (``stein``) as columns: the calls and
    the ordering scipy's ``eigh_tridiagonal(select="i")`` makes."""
    lapack = _lapack()
    m, w, iblock, isplit, info = lapack.dstebz(
        diag, off, 2, 0.0, 1.0, 1, n, 0.0, "B" if vectors else "E")
    _check_info(info, "stebz")
    w = w[:m]
    if not vectors:
        return w
    v, info = lapack.dstein(diag, off, w, iblock, isplit)
    _check_info(info, "stein")
    order = np.argsort(w)
    return w[order], v[:, order]


#: Error of one Sturm count, in resolution floors: the count LAPACK makes
#: at x is exact for a matrix whose entries differ from the stored ones by a
#: few ulps of max|diag|, so it can only miss or add eigenvalues this close
#: to x.
_STURM_SLOP = 4.0

#: Rounding error of a computed residual norm, in resolution floors: each
#: entry (V_i - theta) x_i - kin (x_{i+1} - 2 x_i + x_{i-1}) sums a few
#: terms, each at most max|diag| times the nearby |x|, with a few roundings
#: each.
_RESIDUAL_SLOP = 16.0

#: Smallest transition, in resolution floors, that the predicted solve
#: takes on; closer levels go to the full bisection, so that every result
#: and refusal near the symmetric bias is the bisection's.
_PREDICT_FLOORS = 2.0 ** 26


def _count(diag: np.ndarray, off: np.ndarray, lo: float, hi: float) -> int:
    """Eigenvalues of the tridiagonal (diag, off) in (lo, hi]: a ``stebz``
    call whose tolerance equals its range, so two Sturm counts and no
    bisection."""
    m, _, _, _, info = _lapack().dstebz(diag, off, 1, lo, hi, 1, 1, hi - lo,
                                        "E")
    _check_info(info, "stebz")
    return m


def _count_below(diag: np.ndarray, off: np.ndarray, floor: float,
                 hi: float) -> int:
    """Eigenvalues of the tridiagonal (diag, off) up to hi, counted from
    below its Gershgorin bound."""
    lo = diag.min() - 2.0 * abs(off[0]) - _STURM_SLOP * floor
    return _count(diag, off, lo, hi)


def _prolong(v: np.ndarray) -> np.ndarray:
    """Grid values ``v`` interpolated onto the grid of half the step: the
    even points keep v, and each midpoint takes the cubic 4-point value
    (-v[i-1] + 9 v[i] + 9 v[i+1] - v[i+2]) / 16, with zeros beyond the
    ends."""
    pad = np.zeros(v.size + 2)
    pad[1:-1] = v
    x = np.empty(2 * v.size - 1)
    x[::2] = v
    x[1::2] = (9.0 * (pad[1:-2] + pad[2:-1]) - pad[:-3] - pad[3:]) / 16.0
    return x


def _rayleigh_quotient(pot: np.ndarray, kin: float, x: np.ndarray) -> float:
    """Rayleigh quotient of ``x`` on the tridiagonal with diagonal
    pot + 2 kin and off-diagonal -kin, the kinetic part summed as squared
    differences, which do not cancel."""
    dx = np.diff(x)
    return (pot @ (x * x) + kin * (dx @ dx + x[0] ** 2 + x[-1] ** 2)
            ) / (x @ x)


def _rayleigh_levels(diag: np.ndarray, off: np.ndarray, vecs: np.ndarray):
    """Rayleigh quotients on the doubled-grid tridiagonal (diag, off) of the
    coarse eigenvectors ``vecs`` (columns), prolonged onto that grid."""
    kin = -off[0]
    pot = diag - 2.0 * kin
    return np.array([_rayleigh_quotient(pot, kin, _prolong(v))
                     for v in vecs.T])


def _coarse_grid(g: FluxGrid):
    """The grid 2^m times coarser over the same span, for the largest
    m <= 3 that leaves a valid grid, and m; None if m = 1 leaves none."""
    span = g.points - 1
    for m in (3, 2, 1):
        if span % 2 ** (m + 1) == 0 and span // 2 ** m + 1 >= 64:
            return FluxGrid(g.center, g.half_width, span // 2 ** m + 1), m
    return None


def _predicted_pairs(p: SquidParams, g: FluxGrid, diag: np.ndarray,
                     off: np.ndarray, floor: float, n_levels: int):
    """Lowest ``n_levels`` eigenpairs of the tridiagonal (diag, off) on grid
    ``g``, predicted from a coarser grid and certified, or None.

    The eigenvectors on :func:`_coarse_grid`, prolonged onto ``g``, give
    Rayleigh-quotient shifts for one ``stein`` inverse iteration there, and
    one Rayleigh-Ritz step on those vectors gives values theta_k and
    vectors x_k with residual norms r_k = |T x_k - theta_k x_k| / |x_k|.
    Each interval theta_k +- (r_k + :data:`_RESIDUAL_SLOP` floors) holds an
    eigenvalue (Weinstein's bound); when the intervals are disjoint and one
    Sturm count finds exactly ``n_levels`` eigenvalues below the top one,
    the k-th holds exactly the k-th lowest.  None when the coarse grid
    cannot be made, the smallest coarse transition is below
    :data:`_PREDICT_FLOORS` floors, ``stein`` fails or the certificate
    does not hold.
    """
    coarse = _coarse_grid(g)
    if coarse is None:
        return None
    grid, m = coarse
    c_diag, c_off = _tridiagonal(p, grid)[:2]
    c_energies, c_vecs = _lowest(c_diag, c_off, n_levels, vectors=True)
    if not np.all(c_energies[1:] - c_energies[0] >= _PREDICT_FLOORS * floor):
        return None

    kin = -off[0]
    pot = diag - 2.0 * kin
    shifts = np.empty(n_levels)
    for k in range(n_levels):
        x = c_vecs[:, k]
        for _ in range(m):
            x = _prolong(x)
        shifts[k] = _rayleigh_quotient(pot, kin, x)
    if np.any(np.diff(shifts) <= 0):
        return None
    lapack = _lapack()
    split = np.zeros(diag.size, dtype=np.int32)
    split[0] = diag.size  # one unsplit block
    basis, info = lapack.dstein(diag, off, shifts,
                                np.ones(diag.size, dtype=np.int32), split)
    if info != 0:
        return None

    # Rayleigh-Ritz, the kinetic part again as products of differences
    dif = np.diff(basis, axis=0, prepend=0.0, append=0.0)
    ritz = basis.T @ (pot[:, None] * basis) + kin * (dif.T @ dif)
    del dif
    # LAPACK's plain symmetric solver on the small Ritz matrix
    theta, y, info = lapack.dsyev(ritz)
    if info != 0:
        return None
    vecs = basis @ y
    half = np.empty(n_levels)
    for k in range(n_levels):
        x = vecs[:, k]
        dx = np.diff(x, prepend=0.0, append=0.0)
        res = (pot - theta[k]) * x - kin * np.diff(dx)
        half[k] = np.sqrt((res @ res) / (x @ x)) + _RESIDUAL_SLOP * floor
    if (np.all(theta[1:] - half[1:] > theta[:-1] + half[:-1])
            and _count_below(diag, off, floor, theta[-1] + half[-1]
                             + _STURM_SLOP * floor) == n_levels):
        return theta, vecs
    return None


#: Relative margin within which eigenvector entries count as equally large
#: for the sign gauge: the two lobes of an odd level of a symmetric
#: potential differ only by rounding (by up to ~4e-11 on the harmonic
#: preset).
_GAUGE_TIE = 1e-9


def _normalize(vecs: np.ndarray, step: float) -> None:
    """L2-normalize the columns of ``vecs`` in place by trapezoidal
    quadrature and fix the real sign gauge: the entry of largest magnitude
    is positive, and of entries within :data:`_GAUGE_TIE` of it the last
    decides, so the odd levels of a symmetric potential do not take their
    sign from rounding."""
    for k in range(vecs.shape[1]):
        col = vecs[:, k]
        col /= np.sqrt(np.trapezoid(col * col, dx=step))
        mag = np.abs(col)
        if col[np.flatnonzero(mag >= (1.0 - _GAUGE_TIE) * mag.max())[-1]] < 0:
            col *= -1.0


def _solve_grid(p: SquidParams, g: FluxGrid, n_levels: int):
    """Eigenpairs of the central-difference Hamiltonian on one grid, with
    the grid values, the potential and the resolution floor there: the
    certified prediction of :func:`_predicted_pairs` where it holds, else
    the full index-mode bisection."""
    phi = g.values()
    diag, off, v_pot, floor = _tridiagonal(p, g)
    pairs = _predicted_pairs(p, g, diag, off, floor, n_levels)
    if pairs is None:
        pairs = _lowest(diag, off, n_levels, vectors=True)
    energies, vecs = pairs
    _normalize(vecs, g.step)
    return energies, vecs, phi, v_pot, floor


def _transition_shift(coarse: np.ndarray, fine: np.ndarray):
    """Largest relative change of the transitions E_k - E_0 from coarse to
    fine, and the smallest fine transition (J)."""
    coarse_tr = coarse[1:] - coarse[0]
    fine_tr = fine[1:] - fine[0]
    shift = np.max(np.abs(coarse_tr - fine_tr) / np.abs(fine_tr))
    return float(shift), float(np.min(np.abs(fine_tr)))


def _doubled_grid_energies(p: SquidParams, g: FluxGrid, coarse: np.ndarray,
                           vecs: np.ndarray, check_rtol: float):
    """Lowest ``coarse.size`` eigenvalues on the doubled grid, or predictions
    certified to pass the check, and the resolution floor there (J).

    :func:`_rayleigh_levels` predicts each level rho_k from the coarse
    eigenvectors ``vecs``.  Sturm counts certify the predictions when the
    windows (rho_k - h, rho_k + h] are disjoint and hold one value each and
    a count from below the Gershgorin bound up to the top edge finds
    ``coarse.size`` values; counts being monotone in x, the k-th lowest
    eigenvalue then lies within h + :data:`_STURM_SLOP` floors of rho_k, and
    the index-mode value within one floor and one slop more.  h is 16 floors
    or, if wider, ``check_rtol`` / 8 of the smallest predicted transition.
    Each count is one :func:`_count`: no bisection.  Unless that bound keeps
    every index-mode transition within ``check_rtol`` of the coarse one, the
    index-mode search (the full bisection of the doubled grid, values only)
    decides instead, so the check passes and raises where it alone would.
    That search gives the values the doubled grid's own :func:`_solve_grid`
    returns wherever that solve falls back, near the resolution floor among
    them, without computing the eigenvectors.
    """
    diag, off, _, floor = _tridiagonal(p, g.doubled())
    rho = _rayleigh_levels(diag, off, vecs)
    gap = rho[1:] - rho[0]
    half = max(16.0 * floor, check_rtol * gap.min() / 8.0)
    # bound on |index-mode transition - gap|
    err = 2.0 * (half + (2.0 * _STURM_SLOP + 1.0) * floor)
    if (np.all(np.diff(rho) > 2.0 * half) and gap[0] > err
            and np.max((np.abs(coarse[1:] - coarse[0] - gap) + err)
                       / (gap - err)) < check_rtol
            and _count_below(diag, off, floor, rho[-1] + half) == rho.size
            and all(_count(diag, off, r - half, r + half) == 1 for r in rho)):
        return rho, floor
    return _lowest(diag, off, coarse.size, vectors=False), floor


def solve(p: SquidParams, g: FluxGrid, n_levels: int = 3, *,
          check_convergence: bool = True, check_rtol: float = 1e-6
          ) -> LevelStructure:
    """Solve for the lowest ``n_levels`` levels and their flux elements.

    The grid must contain the retained levels (edge potential above the
    highest retained eigenvalue) and resolve them (no two coincide), and,
    when ``check_convergence`` is on, reproduce the transition energies on a
    doubled grid to ``check_rtol`` relative; violations raise
    :class:`ResolutionError` with a diagnostic.

    The levels are predicted from a grid up to 8 times coarser and
    certified by residual intervals and one Sturm count (see
    :func:`_predicted_pairs`); an uncertified prediction, or a smallest
    transition below 2^26 resolution floors, takes the full bisection of
    the grid instead.  The check reads eigenvalues only and, on a converged
    grid, makes no bisection: the eigenvectors predict the doubled-grid
    levels, and Sturm counts certify that the predictions pass (see
    :func:`_doubled_grid_energies`); otherwise the full bisection of the
    doubled grid, values only, decides and words any refusal.  It never
    changes the returned structure, and it certifies the grid step, not
    the box (widen ``half_width`` to see the box error).  Bisection
    resolves eigenvalues to about eps * max|diag|; when that floor exceeds
    ``check_rtol`` times the smallest transition (near the symmetric bias,
    where the 0-1 splitting collapses), the error names that limit instead
    of advising more points.  ``n_levels`` must be an int in 1..8 and ``check_rtol``
    finite and positive.
    """
    if (isinstance(n_levels, bool) or not isinstance(n_levels, Integral)
            or not 1 <= n_levels <= 8):
        raise ValueError(f"n_levels must be an int in 1..8, got {n_levels!r}")
    if not 0 < check_rtol < np.inf:
        raise ValueError(
            f"check_rtol must be finite and positive, got {check_rtol}")
    energies, vecs, phi, v_pot, floor = _solve_grid(p, g, n_levels)

    top = energies[-1]
    if v_pot[0] <= top or v_pot[-1] <= top:
        raise ResolutionError(
            "grid too narrow: edge potential "
            f"({min(v_pot[0], v_pot[-1]):.4e} J) does not exceed the highest "
            f"retained level ({top:.4e} J); widen half_width")
    same = np.flatnonzero(np.diff(energies) <= 0)
    if same.size:
        k = int(same[0])
        raise ResolutionError(
            f"levels {k} and {k + 1} coincide at {energies[k]:.4e} J: their "
            "splitting is below the eigensolver resolution floor "
            f"({floor:.3e} J), so more points cannot help")

    if check_convergence and n_levels >= 2:
        fine, floor = _doubled_grid_energies(p, g, energies, vecs, check_rtol)
        shift, smallest = _transition_shift(energies, fine)
        if not shift <= check_rtol:
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

    return LevelStructure(energies, elements, params=p, grid=g)


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


#: `lambda_check` thresholds: the smallest omega_20/omega_10 and
#: omega_21/omega_10, and the floor on the 0<->2 and 1<->2 flux elements as a
#: fraction of the harmonic-scale element.
LAMBDA_RATIO_MIN = 5.0
LAMBDA_ELEMENT_FLOOR = 1e-4


def lambda_check(ls: LevelStructure) -> LambdaReport:
    """Check the three-level lambda requirements on a solved structure.

    Both upper transitions must be at least :data:`LAMBDA_RATIO_MIN` times
    the 0-1 splitting, and both 0<->2 and 1<->2 flux elements must exceed
    :data:`LAMBDA_ELEMENT_FLOOR` times the harmonic-scale element (needs the
    structure's provenance params for that scale).
    """
    if ls.n_levels < 3:
        raise ValueError("lambda_check needs at least 3 levels")
    if ls.params is None:
        raise ValueError("lambda_check needs provenance params on the "
                         "LevelStructure for the element floor scale")
    floor = LAMBDA_ELEMENT_FLOOR * harmonic_scale_element(ls.params)
    r20 = ls.omega_20 / ls.omega_10 if ls.omega_10 > 0 else np.inf
    r21 = ls.omega_21 / ls.omega_10 if ls.omega_10 > 0 else np.inf
    e02 = float(abs(ls.flux_elements[0, 2]))
    e12 = float(abs(ls.flux_elements[1, 2]))

    reasons = []
    if r20 < LAMBDA_RATIO_MIN:
        reasons.append(f"transition ratio omega_20/omega_10 = {r20:.2f} "
                       f"below {LAMBDA_RATIO_MIN}")
    if r21 < LAMBDA_RATIO_MIN:
        reasons.append(f"transition ratio omega_21/omega_10 = {r21:.2f} "
                       f"below {LAMBDA_RATIO_MIN}")
    if e02 < floor:
        reasons.append("dark 0<->2 transition")
    if e12 < floor:
        reasons.append("dark 1<->2 transition")
    return LambdaReport(ok=not reasons, reasons=tuple(reasons),
                        ratio_20=float(r20), ratio_21=float(r21),
                        element_02=e02, element_12=e12, floor=floor)


def preset_path(name: str) -> Path:
    """Path of the shipped preset file with this name."""
    candidate = PRESET_DIR / f"{name}.json"
    if candidate.exists():
        return candidate
    available = sorted(f.stem for f in PRESET_DIR.glob("*.json"))
    raise FileNotFoundError(
        f"no preset named {name!r}; available: {', '.join(available)}")


def params_from_keys(data) -> tuple[SquidParams, FluxGrid]:
    """Loop parameters and flux grid from a mapping holding the keys in
    :data:`PRESET_KEYS`: fluxes are fractions of the flux quantum, and the
    grid is centered at half a flux quantum."""
    params = SquidParams(C=float(data["C_farad"]), L=float(data["L_henry"]),
                         Ic=float(data["Ic_ampere"]),
                         Phi_x=float(data["Phix_over_Phi0"]) * PHI0)
    grid = FluxGrid(center=0.5 * PHI0,
                    half_width=float(data["grid_halfwidth_over_Phi0"]) * PHI0,
                    points=int(data["grid_points"]))
    return params, grid


def load_preset(name: str) -> tuple[SquidParams, FluxGrid]:
    """Load a shipped preset by name (the stem of a file in
    :data:`PRESET_DIR`, e.g. "ref15_like"); a file path is not accepted.

    Files are flat JSON with the keys in :data:`PRESET_KEYS`, read by
    :func:`params_from_keys`, plus an optional "note" recording how the
    numbers were found.
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
    return params_from_keys(data)
