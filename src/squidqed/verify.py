"""Validation instruments: protocol truth tables, gate and state fidelity
metrics, two-qubit concurrence, and the two approximation-error scans
(rotating-wave reduction and dispersive reduction).

The rotating-wave scan compares both models exactly (neither is
time-stepped) at a whole number of carrier periods, so it measures the
reduction.  The dispersive scan does not: every default g/detuning point
makes the dispersive wait a whole number of detuning periods, where the
leading leakage term vanishes, so its error column reads one favourable
sampling phase, not the envelope over the segment.

The shipped truth tables are shared like the shipped schedules they
hold: each `truth_table_*` builder returns one immutable instance per
process, whose declared columns are stacked once, at construction.

Truth tables, the computational propagator, photon excursions and each
dispersive scan point run their inputs as one block through
`protocols._run_block` (one block per backend), and read every check from
that (inputs, steps + 1, dim) array.

Photon statistics are sampled at 512 evenly spaced times from a table of
phases e^{-i w t} on the generator's eigenvalues w.  For an
explicit-cavity segment the table depends only on (g02, detuning,
fock_cutoff, segment length), so `_segment_phases` builds it once and
every later run of that segment reads it; a rotating-wave point builds its
own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache, partial

import numpy as np

from .constants import TWO_PI
from .hamiltonians import (CONDITION_RATIO_MAX, _check_fock_cutoff,
                           loop_cavity_hamiltonian)
from .hilbert import Operator, StateVector, basis_state
from .protocols import (AraStep, ExecutionParams, GateSchedule, PulseAction,
                        _cavity_eigensystem, _run_block, schedule_cps,
                        schedule_swap, schedule_transfer)

__all__ = [
    "TruthRow",
    "TruthTable",
    "TruthCheck",
    "ScanResult",
    "gate_fidelity",
    "concurrence",
    "computational_propagator",
    "truth_table_cps",
    "truth_table_swap",
    "truth_table_transfer",
    "check_truth_table",
    "corrupt_first_pulse",
    "rwa_error_point",
    "rwa_error_scan",
    "dispersive_error_point",
    "dispersive_error_scan",
    "photon_excursion",
    "halving_ratios",
    "DEFAULT_RWA_RATIOS",
    "DEFAULT_DISPERSIVE_RATIOS",
]

#: The computational basis inputs, (label, (loop a level, loop b level)),
#: in the column order of `computational_propagator`.
_BASIS = (("|00>", (0, 0)), ("|01>", (0, 1)), ("|10>", (1, 0)),
          ("|11>", (1, 1)))

#: Their indices within the 9-dimensional two-loop space, and the inputs
#: themselves as the rows of a `_run_block` block, both in `_BASIS` order.
_COMP = tuple(3 * a + b for _, (a, b) in _BASIS)
_BASIS_ROWS = np.eye(9, dtype=complex)[list(_COMP)]
_BASIS_ROWS.setflags(write=False)

#: Detuning-to-carrier ratios for the rotating-wave scan: a 0.1 GHz
#: detuning against 20.1, 40.1 and 80.1 GHz carriers.
DEFAULT_RWA_RATIOS = (0.1 / 20.1, 0.1 / 40.1, 0.1 / 80.1)

#: Coupling-to-detuning ratios for the dispersive scan.
DEFAULT_DISPERSIVE_RATIOS = (0.1, 0.05, 0.025)

#: Population in the top Fock level beyond this marks the truncation as
#: untrustworthy for the run.
FOCK_VIOLATION_TOL = 1e-6

#: Largest amplitude deviation a truth-table column may show and still
#: pass: the exact backends reach their declared images to roundoff.
TRUTH_TABLE_ATOL = 1e-9

#: Time points evaluated together when photon statistics are sampled; it
#: bounds the (columns x block x dimension) temporaries of each product.
_SAMPLE_BLOCK = 128


# ---------------------------------------------------------------------------
# fidelity metrics
# ---------------------------------------------------------------------------

def _as_matrix(u) -> np.ndarray:
    return u.entries if isinstance(u, Operator) else np.asarray(u, dtype=complex)


def _unitarity_defect(u: np.ndarray) -> float:
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def gate_fidelity(u_sim, u_ideal, unitarity_tol: float = 1e-8) -> float:
    """|Tr(U_ideal^dag U_sim)|^2 / d^2 for two same-shape unitaries.

    Both arguments must be unitary within unitarity_tol; a projected
    propagator that has leaked population fails this check unless the
    caller passes a looser tolerance on purpose.
    """
    a, b = _as_matrix(u_sim), _as_matrix(u_ideal)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    for label, mat in (("u_sim", a), ("u_ideal", b)):
        defect = _unitarity_defect(mat)
        if defect > unitarity_tol:
            raise ValueError(f"{label} is not unitary within "
                             f"{unitarity_tol:.0e} (defect {defect:.3e})")
    d = a.shape[0]
    return float(abs(np.trace(b.conj().T @ a)) ** 2) / d ** 2


def concurrence(state: StateVector, support_tol: float = 1e-10) -> float:
    """Two-qubit concurrence 2|ad - bc| of a pure two-loop state.

    The state may live on dims (2, 2) or on (3, 3) with negligible
    population outside the computational subspace; auxiliary-level support
    above support_tol is an error.
    """
    if state.dims == (2, 2):
        v = state.amplitudes
    elif state.dims == (3, 3):
        outside = 1.0 - float(np.sum(np.abs(state.amplitudes[list(_COMP)]) ** 2))
        if outside > support_tol:
            raise ValueError(f"population {outside:.3e} outside the "
                             f"computational subspace")
        v = state.amplitudes[list(_COMP)]
    else:
        raise ValueError(f"concurrence needs a two-qubit state, got dims "
                         f"{state.dims}")
    a, b, c, d = v
    return float(2.0 * abs(a * d - b * c))


def computational_propagator(schedule: GateSchedule,
                             backend: str = "analytic",
                             params: ExecutionParams | None = None
                             ) -> np.ndarray:
    """4x4 matrix of the schedule on the computational basis.

    Columns are the output amplitudes on {|00>, |01>, |10>, |11>}; on the
    explicit-cavity backend the cavity-vacuum sector is taken, so leakage
    shows up as a unitarity defect of the returned matrix.
    """
    runs = _run_block(schedule, _BASIS_ROWS, backend, params)
    return _loop_amplitudes(runs[:, -1])[:, _COMP].T


def _loop_amplitudes(states: np.ndarray) -> np.ndarray:
    """The nine two-loop amplitudes of every run state along the last
    axis: the state itself on dims (3, 3), its cavity-vacuum sector on dims
    (3, 3, fock_cutoff)."""
    return states.reshape(*states.shape[:-1], 9, -1)[..., 0]


# ---------------------------------------------------------------------------
# truth tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TruthRow:
    """One input state and its declared image after every step."""

    label: str
    input_state: StateVector
    expected: tuple[StateVector, ...]


@dataclass(frozen=True)
class TruthTable:
    """Declared per-step images of a schedule on selected inputs.

    ``columns`` holds the declared images as one read-only
    (rows, steps, 9) array, stacked once at construction; it is derived
    from ``rows`` and takes no part in comparison."""

    schedule: GateSchedule
    rows: tuple[TruthRow, ...]
    columns: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.schedule.steps)
        for row in self.rows:
            if len(row.expected) != n:
                raise ValueError(
                    f"row {row.label!r} declares {len(row.expected)} "
                    f"columns for a {n}-step schedule")
        columns = np.array([[e.amplitudes for e in row.expected]
                            for row in self.rows])
        columns.setflags(write=False)
        object.__setattr__(self, "columns", columns)


@dataclass(frozen=True)
class TruthCheck:
    """Result of comparing executed intermediates against a table."""

    ok: bool
    max_deviation: float
    failures: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


@cache
def truth_table_cps() -> TruthTable:
    """Controlled-phase table with intermediate columns.  One shared
    instance per process."""
    ket = partial(basis_state, (3, 3))
    rows = (
        TruthRow("|00>", ket((0, 0)), (ket((0, 0)),) * 3),
        TruthRow("|01>", ket((0, 1)), (ket((0, 1)),) * 3),
        TruthRow("|10>", ket((1, 0)),
                 (ket((2, 0), -1j), ket((2, 0), -1j), ket((1, 0)))),
        TruthRow("|11>", ket((1, 1)),
                 (ket((2, 1), -1j), ket((2, 1), 1j), ket((1, 1), -1.0))),
    )
    return TruthTable(schedule_cps(), rows)


@cache
def truth_table_swap() -> TruthTable:
    """Swap table with intermediate columns.  One shared instance per
    process."""
    ket = partial(basis_state, (3, 3))
    rows = (
        TruthRow("|00>", ket((0, 0)), (ket((0, 0)),) * 5),
        TruthRow("|01>", ket((0, 1)),
                 (ket((0, 2), -1j), ket((2, 0), 1j), ket((2, 0), -1j),
                  ket((2, 0), -1j), ket((1, 0)))),
        TruthRow("|10>", ket((1, 0)),
                 (ket((2, 0), -1j), ket((0, 2), 1j), ket((0, 1)),
                  ket((0, 1)), ket((0, 1)))),
        TruthRow("|11>", ket((1, 1)),
                 (ket((2, 2), -1.0), ket((2, 2)), ket((2, 1), 1j),
                  ket((2, 1), -1j), ket((1, 1)))),
    )
    return TruthTable(schedule_swap(), rows)


@cache
def truth_table_transfer() -> TruthTable:
    """Transfer table; only inputs with loop b in |0> are declared.  One
    shared instance per process."""
    ket = partial(basis_state, (3, 3))
    rows = (
        TruthRow("|00>", ket((0, 0)), (ket((0, 0)),) * 3),
        TruthRow("|10>", ket((1, 0)),
                 (ket((2, 0), -1j), ket((0, 2), 1j), ket((0, 1)))),
    )
    return TruthTable(schedule_transfer(), rows)


def check_truth_table(table: TruthTable, backend: str = "analytic",
                      params: ExecutionParams | None = None) -> TruthCheck:
    """Execute the table's schedule on every declared input and compare all
    intermediate columns phase-exactly (amplitude-by-amplitude, no global
    phase allowance) within `TRUTH_TABLE_ATOL`; a NaN deviation fails."""
    inputs = np.stack([row.input_state.amplitudes for row in table.rows])
    runs = _run_block(table.schedule, inputs, backend, params)
    return _compare_truth_table(table, _loop_amplitudes(runs))


def _compare_truth_table(table: TruthTable, loops: np.ndarray) -> TruthCheck:
    """Compare the two-loop amplitudes of runs of the table's inputs, a
    (rows, steps + 1, 9) array in the order of ``table.rows``, with the
    declared ``table.columns`` as `check_truth_table` does."""
    dev = np.max(np.abs(loops[:, 1:] - table.columns), axis=-1)
    failures = tuple(f"{table.schedule.name} row {table.rows[r].label} "
                     f"step {k + 1}: deviation {dev[r, k]:.3e}"
                     for r, k in zip(*np.nonzero(~(dev <= TRUTH_TABLE_ATOL))))
    return TruthCheck(ok=not failures, max_deviation=float(dev.max()),
                      failures=failures)


def corrupt_first_pulse(schedule: GateSchedule) -> GateSchedule:
    """Negative control: scale the first pulse angle by 9/10 (a pi pulse
    becomes 0.9 pi) so the schedule must fail its truth table."""
    steps = list(schedule.steps)
    for idx, step in enumerate(steps):
        if isinstance(step, AraStep):
            first = step.actions[0]
            bent = PulseAction(first.target, first.levels,
                               first.theta_over_pi * Fraction(9, 10))
            steps[idx] = AraStep((bent,) + step.actions[1:])
            break
    else:
        raise ValueError("schedule has no pulse step to corrupt")
    return GateSchedule(name=f"{schedule.name}-corrupted",
                        steps=tuple(steps))


# ---------------------------------------------------------------------------
# approximation-error scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanResult:
    """Columns of one scan: the swept parameter, the reduction error, the
    peak expected photon number seen during the run, and a per-point flag
    marking runs where the top Fock level was populated beyond tolerance."""

    kind: str
    parameter: np.ndarray
    error: np.ndarray
    peak_photon_population: np.ndarray
    fock_violation: np.ndarray
    meta: dict

    def __post_init__(self):
        for name in ("parameter", "error", "peak_photon_population",
                     "fock_violation"):
            arr = np.array(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n = len(self.parameter)
        if any(len(getattr(self, f)) != n for f in
               ("error", "peak_photon_population", "fock_violation")):
            raise ValueError("scan columns must have equal length")


def halving_ratios(scan: ScanResult) -> np.ndarray:
    """error[k] / error[k+1] for a scan ordered from coarse to fine."""
    e = scan.error
    return np.asarray(e[:-1]) / np.asarray(e[1:])


#: Flux-element pattern of the shipped loop (bias subtracted on the diagonal,
#: divided by element [0, 2]) and omega_10/omega_20, copied at full repr
#: precision from an unchecked solve of ref15_like so a scan needs no
#: eigensolver; tests/test_verify.py re-derives both and prints new literals.
_PRESET_PATTERN = np.array(
    [[-5.8432580619258205, 0.001263590786081636, 1.0],
     [0.001263590786081636, 5.82537488190978, -0.012330120331091425],
     [1.0, -0.012330120331091425, -5.270983114047934]])
_PRESET_PATTERN.setflags(write=False)
_PRESET_LEVEL_RATIO = 0.08897007948531035


def _scan(kind: str, ratio_list, point, meta: dict) -> ScanResult:
    """Run ``point`` on each ratio, from coarse to fine, and stack its
    returned values into columns: every value beyond error, peak and
    violation becomes a per-point array in ``meta``."""
    ratios = np.array(sorted(ratio_list, reverse=True), dtype=float)
    if ratios.size == 0:
        raise ValueError("the ratio list must not be empty")
    if not all(0 < r < 1 for r in ratios):
        raise ValueError("ratios must lie strictly between 0 and 1")
    points = [point(ratio) for ratio in ratios]
    cols = {k: np.array([p[k] for p in points]) for k in points[0]}
    return ScanResult(kind=kind, parameter=ratios, error=cols.pop("error"),
                      peak_photon_population=cols.pop("peak"),
                      fock_violation=cols.pop("violation"),
                      meta={**meta, **cols})


def rwa_error_point(ratio: float, g02: float = TWO_PI * 1.0e7, *,
                    detuning: float = -TWO_PI * 1.0e8,
                    fock_cutoff: int = 4) -> dict:
    """Error of the rotating-wave reduction at one detuning-to-carrier
    ratio, at coupling g02 and signed detuning Delta = omega_20 - omega_c.

    The carrier is omega_c = |detuning| / ratio and the 0<->2 transition
    sits at omega_c + detuning, on either side of the cavity; the default
    puts it below.  The probe (|0> + |2>)/sqrt(2) (x) |vacuum> runs for
    one exchange period pi/|g_02|, rounded to a whole number of carrier
    periods; the error is 1 - |<psi_rwa(T)|psi_full(T)>|^2.

    Both models share the diagonal H0 of `loop_cavity_hamiltonian` (loop
    levels 0, omega_10, omega_20 plus omega_c per photon), so each is
    propagated exactly with one eigendecomposition of its H0 + V; the
    interaction-picture frame e^{i H0 T} is common to both and cancels in
    the overlap.  Photon statistics do not depend on the frame and are
    sampled densely on the full model's eigenbasis.  The couplings are the
    stored loop pattern scaled by g02: numpy only, in process.

    Returns ``error``, ``peak`` (photon number), ``violation`` (top Fock
    level populated beyond `FOCK_VIOLATION_TOL`) and the reduction
    condition |detuning| / omega_c as ``condition_ratio`` with
    ``condition_ok``.  A ratio that is not finite and positive, a zero
    detuning, a transition that is not positive (ratio >= 1 below the
    cavity), a carrier, probe time or carrier-period count that is not
    finite, or a ``fock_cutoff`` that is not an int >= 2, raises
    ValueError.
    """
    if not 0 < ratio < math.inf:
        raise ValueError(f"ratio must be finite and positive, got {ratio}")
    _check_fock_cutoff(fock_cutoff)
    g = _PRESET_PATTERN * g02
    if g[0, 2] == 0.0:
        raise ValueError("zero 0<->2 coupling g[0, 2]: the exchange period "
                         "that sets the probe time is infinite")
    t_exchange = math.pi / abs(float(g[0, 2]))
    if not math.isfinite(t_exchange):
        raise ValueError("probe time pi/|g_02| is not finite")
    if detuning == 0.0:
        raise ValueError("zero detuning omega_20 - omega_c: the carrier "
                         "|detuning| / ratio is zero")
    omega_c = abs(detuning) / ratio
    if not math.isfinite(omega_c):
        raise ValueError("carrier omega_c = detuning / ratio is not finite")
    omega_20 = omega_c + detuning
    if not omega_20 > 0.0:
        raise ValueError("0<->2 transition omega_c + detuning is not positive")
    levels = (0.0, _PRESET_LEVEL_RATIO * omega_20, omega_20)
    carrier = TWO_PI / omega_c
    periods = t_exchange / carrier
    if not math.isfinite(periods):
        raise ValueError("probe time pi/|g_02| in carrier periods is not "
                         "finite")
    t_end = max(1, round(periods)) * carrier

    probe = np.zeros(3 * fock_cutoff, dtype=complex)
    probe[0] = probe[2 * fock_cutoff] = 1.0 / math.sqrt(2.0)
    w, v = np.linalg.eigh(loop_cavity_hamiltonian(levels, omega_c, g,
                                                  fock_cutoff))
    psi_full = v @ (np.exp(-1j * w * t_end) * (v.conj().T @ probe))
    peak_n, peak_top = _sampled_photon_peaks(_phase_table(w, t_end), v,
                                             probe, fock_cutoff)
    w, v = np.linalg.eigh(loop_cavity_hamiltonian(
        levels, omega_c, g, fock_cutoff, rotating_wave=True))
    psi_rwa = v @ (np.exp(-1j * w * t_end) * (v.conj().T @ probe))
    condition = abs(omega_20 - omega_c) / omega_c
    return {"error": 1.0 - abs(np.vdot(psi_rwa, psi_full)) ** 2,
            "peak": peak_n, "violation": peak_top >= FOCK_VIOLATION_TOL,
            "condition_ratio": condition,
            "condition_ok": condition < CONDITION_RATIO_MAX}


def rwa_error_scan(ratio_list=DEFAULT_RWA_RATIOS,
                   g02: float = TWO_PI * 1.0e7, *,
                   detuning: float = -TWO_PI * 1.0e8,
                   fock_cutoff: int = 4) -> ScanResult:
    """`rwa_error_point` over a list of detuning-to-carrier ratios, from
    coarse to fine.  ``meta`` holds g02, detuning and fock_cutoff, and each
    point's reduction condition (``condition_ratio``, ``condition_ok``)."""
    return _scan("rwa", ratio_list,
                 partial(rwa_error_point, g02=g02, detuning=detuning,
                         fock_cutoff=fock_cutoff),
                 {"g02": g02, "detuning": detuning,
                  "fock_cutoff": fock_cutoff})


def _phase_table(w: np.ndarray, t_end: float, n_samples: int = 512
                 ) -> np.ndarray:
    """Phases e^{-i w t}, one row per time of n_samples evenly spaced times
    in [0, t_end], one column per eigenvalue in w."""
    return np.exp(-1j * np.outer(np.linspace(0.0, t_end, n_samples), w))


@lru_cache(maxsize=8)
def _segment_phases(g02: float, detuning: float, fock_cutoff: int,
                    t_end: float) -> np.ndarray:
    """Read-only `_phase_table` of the explicit-cavity segment of length
    t_end, on the eigenvalues of `_cavity_eigensystem`: it does not depend
    on the states sampled, so each segment builds it once.  Its last row
    is the e^{-i w t_end} of the segment propagator, bit for bit up to the
    sign of a zero."""
    w, _ = _cavity_eigensystem(g02, detuning, fock_cutoff)
    phases = _phase_table(w, t_end)
    phases.setflags(write=False)
    return phases


def _sampled_photon_peaks(phases: np.ndarray, v: np.ndarray,
                          vecs: np.ndarray, nfock: int
                          ) -> tuple[float, float]:
    """Peak expected photon number and peak top-Fock-level population of
    v e^{-i w t} v^dag vec at the times of a `_phase_table` ``phases``
    (rows e^{-i w t}), maximised over every column vec of the (dim x k)
    block vecs (a 1-D vector is one column).  The states end in the cavity
    factor, cavity index fast.  The table comes from the caller: memoized
    per segment by `_segment_phases` for cavity runs, built per point by
    `rwa_error_point`.  Each block of _SAMPLE_BLOCK rows meets all k
    columns in one batched product, rows e^{-i w t} (v^dag vec) times v^T,
    that numpy runs as one product per column; top-level populations are
    summed from a (k, levels, rows) gather, in a one-column call's order.
    So the peaks are bit-identical to the maxima of k one-column calls."""
    cols = np.ascontiguousarray(vecs.T if vecs.ndim == 2 else vecs[None])
    num_diag = np.tile(np.arange(nfock, dtype=float), cols.shape[1] // nfock)
    top = np.arange(nfock - 1, cols.shape[1], nfock)
    v_dag = v.conj().T
    coeffs = np.stack([v_dag @ col for col in cols])[:, None]
    peak_n, peak_top = 0.0, 0.0
    for start in range(0, len(phases), _SAMPLE_BLOCK):
        block = phases[start:start + _SAMPLE_BLOCK]
        prob = np.abs((block * coeffs) @ v.T) ** 2
        peak_n = max(peak_n, float((num_diag * prob).sum(axis=-1).max()))
        peak_top = max(peak_top, float(
            np.take(prob.swapaxes(1, 2), top, axis=1).sum(axis=1).max()))
    return peak_n, peak_top


def _run_photon_peaks(schedule: GateSchedule, params: ExecutionParams,
                      runs: np.ndarray) -> tuple[float, float]:
    """Peak expected photon number and peak top-Fock-level population over
    finished explicit-cavity runs of one schedule, the (k, steps + 1, dim)
    array of `_run_block`.  Pulses leave the cavity alone, so only
    dispersive segments are sampled, each from the states the runs start it
    in, on the eigensystem the segment propagator was built from.  The
    schedule is walked once: every segment is one sampler call on the block
    of all runs, with the segment's memoized `_segment_phases` table, so the
    runs, and every later run of the segment, share that table."""
    nfock = params.fock_cutoff
    _, v = _cavity_eigensystem(params.g02, params.detuning, nfock)
    peak_n, peak_top = 0.0, 0.0
    for k, step in enumerate(schedule.steps):
        if not isinstance(step, AraStep):
            phases = _segment_phases(params.g02, params.detuning, nfock,
                                     step.duration(params.gamma))
            n, top = _sampled_photon_peaks(phases, v, runs[:, k].T, nfock)
            peak_n = max(peak_n, n)
            peak_top = max(peak_top, top)
    return peak_n, peak_top


def photon_excursion(schedule: GateSchedule, params: ExecutionParams,
                     psi0: StateVector) -> tuple[float, float]:
    """Peak expected photon number and peak top-Fock-level population over
    one explicit-cavity run of a schedule (pulses leave the cavity alone,
    so only dispersive segments are sampled).  Callers that already hold
    the runs use `_run_photon_peaks` and skip the run."""
    if not params.explicit_cavity:
        raise ValueError("photon excursion is defined for the "
                         "explicit-cavity backend")
    runs = _run_block(schedule, psi0.amplitudes[None], "hamiltonian", params)
    return _run_photon_peaks(schedule, params, runs)


def dispersive_error_point(ratio: float, *, fock_cutoff: int = 4) -> dict:
    """Error of the vacuum-projected dispersive reduction at one
    coupling-to-detuning ratio, probed with the controlled-phase schedule.

    Computational basis inputs are dark until the first pulse lifts them
    onto the auxiliary level, so each input is propagated through the full
    schedule on both backends; the error is the worst vacuum-sector
    infidelity over the four inputs.  Photon statistics are sampled
    densely inside the dispersive segments, from the cavity runs already
    made, with one `_run_photon_peaks` call: the four inputs share each
    segment's phase tables.  Returns ``error``, ``peak``, ``violation``,
    the controlled-phase ``gate_fidelity`` of the explicit-cavity run, and
    the dispersive condition g02 / detuning as ``condition_ratio`` with
    ``condition_ok`` (below `CONDITION_RATIO_MAX`, the threshold the
    cavity backend of ``gate`` fails at).
    """
    sched = schedule_cps()
    p_cav = ExecutionParams(g02=float(ratio), detuning=1.0,
                            explicit_cavity=True, fock_cutoff=fock_cutoff)
    p_vac = ExecutionParams(gamma=p_cav.gamma)
    runs = _run_block(sched, _BASIS_ROWS, "hamiltonian", p_cav)
    cav = _loop_amplitudes(runs[:, -1])
    vac = _run_block(sched, _BASIS_ROWS, "analytic", p_vac)[:, -1]
    err = max(0.0, *(1.0 - abs(np.vdot(a, b)) ** 2 for a, b in zip(vac, cav)))

    peak_n, peak_top = _run_photon_peaks(sched, p_cav, runs)
    condition = p_cav.g02 / p_cav.detuning
    return {"error": err, "peak": peak_n,
            "violation": peak_top >= FOCK_VIOLATION_TOL,
            "gate_fidelity": gate_fidelity(
                cav[:, _COMP].T, sched.ideal_unitary.entries,
                unitarity_tol=1.0),
            "condition_ratio": condition,
            "condition_ok": condition < CONDITION_RATIO_MAX}


def dispersive_error_scan(g_over_delta_list=DEFAULT_DISPERSIVE_RATIOS, *,
                          fock_cutoff: int = 4) -> ScanResult:
    """`dispersive_error_point` over a list of coupling-to-detuning ratios,
    from coarse to fine.  ``meta`` holds each point's controlled-phase
    ``gate_fidelity`` and its dispersive condition (``condition_ratio``,
    ``condition_ok``)."""
    return _scan("dispersive", g_over_delta_list,
                 partial(dispersive_error_point, fock_cutoff=fock_cutoff),
                 {"fock_cutoff": fock_cutoff})
