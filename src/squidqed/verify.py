"""Validation instruments: protocol truth tables, gate and state fidelity
metrics, two-qubit concurrence, and the two approximation-error scans
(rotating-wave reduction and dispersive reduction).

The rotating-wave scan compares both models exactly (neither is
time-stepped) at a whole number of carrier periods, so it measures the
reduction.  The dispersive scan does not: every default g/detuning point
makes the dispersive wait a whole number of detuning periods, where the
leading leakage term vanishes, so its error column reads one favourable
sampling phase, not the envelope over the segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .constants import TWO_PI
from .hamiltonians import CONDITION_RATIO_MAX, loop_cavity_hamiltonian
from .hilbert import Operator, StateVector, basis_state
from .protocols import (AraStep, ExecutionParams, GateSchedule, PulseAction,
                        _cavity_eigensystem, execute, schedule_cps,
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

#: Computational-subspace indices within the 9-dimensional two-loop space.
_COMP = (0, 1, 3, 4)

#: The computational basis inputs, (label, (loop a level, loop b level)),
#: in the column order of `computational_propagator`.
_BASIS = (("|00>", (0, 0)), ("|01>", (0, 1)), ("|10>", (1, 0)),
          ("|11>", (1, 1)))

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
#: keeps the (block x dimension) temporaries small.
_SAMPLE_BLOCK = 64


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
    return _propagator([execute(schedule, basis_state((3, 3), ab), backend,
                                params).final_state for _, ab in _BASIS])


def _loop_amplitudes(state: StateVector) -> np.ndarray:
    """The nine two-loop amplitudes of a run's state: the state itself on
    dims (3, 3), its cavity-vacuum sector on dims (3, 3, fock_cutoff)."""
    return state.amplitudes.reshape(9, -1)[:, 0]


def _propagator(finals) -> np.ndarray:
    """4x4 matrix whose columns are the computational amplitudes of the
    final states of the four basis inputs, given in `_BASIS` order."""
    return np.stack([_loop_amplitudes(s)[list(_COMP)] for s in finals],
                    axis=1)


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
    """Declared per-step images of a schedule on selected inputs."""

    schedule: GateSchedule
    rows: tuple[TruthRow, ...]

    def __post_init__(self):
        n = len(self.schedule.steps)
        for row in self.rows:
            if len(row.expected) != n:
                raise ValueError(
                    f"row {row.label!r} declares {len(row.expected)} "
                    f"columns for a {n}-step schedule")


@dataclass(frozen=True)
class TruthCheck:
    """Result of comparing executed intermediates against a table."""

    ok: bool
    max_deviation: float
    failures: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def truth_table_cps() -> TruthTable:
    """Controlled-phase table with intermediate columns."""
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


def truth_table_swap() -> TruthTable:
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


def truth_table_transfer() -> TruthTable:
    """Transfer table; only inputs with loop b in |0> are declared."""
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
    phase allowance) within `TRUTH_TABLE_ATOL`."""
    trails = {row.label: execute(table.schedule, row.input_state, backend,
                                 params, record_intermediate=True
                                 ).intermediates for row in table.rows}
    return _compare_truth_table(table, trails)


def _compare_truth_table(table: TruthTable, trails) -> TruthCheck:
    """Compare recorded intermediates, one sequence per row label in
    ``trails``, with the table's declared columns as `check_truth_table`
    does."""
    worst = 0.0
    failures: list[str] = []
    for row in table.rows:
        for k, (g, e) in enumerate(zip(trails[row.label], row.expected)):
            dev = float(np.max(np.abs(_loop_amplitudes(g) - e.amplitudes)))
            worst = max(worst, dev)
            if dev > TRUTH_TABLE_ATOL:
                failures.append(
                    f"{table.schedule.name} row {row.label} step {k + 1}: "
                    f"deviation {dev:.3e}")
    return TruthCheck(ok=not failures, max_deviation=worst,
                      failures=tuple(failures))


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
    if np.any(ratios <= 0) or np.any(ratios >= 1):
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
    ``condition_ok``.  A zero detuning, a transition that is not positive
    (ratio >= 1 below the cavity), or a carrier, probe time or
    carrier-period count that is not finite, raises ValueError.
    """
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
    peak_n, peak_top = _sampled_photon_peaks(w, v, probe, t_end, fock_cutoff)
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


def _sampled_photon_peaks(w: np.ndarray, v: np.ndarray, vecs: np.ndarray,
                          t_end: float, nfock: int, n_samples: int = 512
                          ) -> tuple[float, float]:
    """Peak expected photon number and peak top-Fock-level population of
    v e^{-i w t} v^dag vec, sampled at n_samples evenly spaced times in
    [0, t_end], maximised over every column vec of the (dim x k) block
    vecs (a 1-D vector is one column).  The states end in the cavity
    factor, cavity index fast.  Each block of _SAMPLE_BLOCK times builds
    its phase table e^{-i w t} once and applies it to every column, one
    matrix product per column: rows e^{-i w t} (v^dag vec) times v^T.
    Every column runs the same operations as a call with that column
    alone, so the peaks are bit-identical to the maxima of k such calls."""
    cols = np.ascontiguousarray(vecs.T if vecs.ndim == 2 else vecs[None])
    num_diag = np.tile(np.arange(nfock, dtype=float), cols.shape[1] // nfock)
    top_mask = num_diag == nfock - 1
    v_dag = v.conj().T
    coeffs = [v_dag @ col for col in cols]
    times = np.linspace(0.0, t_end, n_samples)
    peak_n, peak_top = 0.0, 0.0
    for start in range(0, n_samples, _SAMPLE_BLOCK):
        phases = np.exp(-1j * np.outer(times[start:start + _SAMPLE_BLOCK], w))
        for c in coeffs:
            prob = np.abs((phases * c) @ v.T) ** 2
            peak_n = max(peak_n, float((num_diag * prob).sum(axis=1).max()))
            peak_top = max(peak_top,
                           float(prob[:, top_mask].sum(axis=1).max()))
    return peak_n, peak_top


def _run_photon_peaks(schedule: GateSchedule, params: ExecutionParams,
                      inputs, intermediates) -> tuple[float, float]:
    """Peak expected photon number and peak top-Fock-level population over
    finished explicit-cavity runs of one schedule, from their two-loop
    inputs and their recorded intermediates (one sequence per input, in
    the same order).  Pulses leave the cavity alone, so only dispersive segments
    are sampled, each from the states the runs start it in, on the
    eigensystem the segment propagator was built from.  The schedule is
    walked once: every segment is one sampler call on the block of all
    inputs, so the inputs share its phase tables."""
    nfock = params.fock_cutoff
    w, v = _cavity_eigensystem(params.g02, params.detuning, nfock)
    vacuum = np.eye(1, nfock, dtype=complex)[0]  # as `execute` builds it
    states = [np.kron(psi.amplitudes, vacuum) for psi in inputs]
    peak_n, peak_top = 0.0, 0.0
    for k, step in enumerate(schedule.steps):
        if not isinstance(step, AraStep):
            n, top = _sampled_photon_peaks(w, v, np.stack(states, axis=1),
                                           step.duration(params.gamma),
                                           nfock)
            peak_n = max(peak_n, n)
            peak_top = max(peak_top, top)
        states = [trail[k].amplitudes for trail in intermediates]
    return peak_n, peak_top


def photon_excursion(schedule: GateSchedule, params: ExecutionParams,
                     psi0: StateVector) -> tuple[float, float]:
    """Peak expected photon number and peak top-Fock-level population over
    one explicit-cavity run of a schedule (pulses leave the cavity alone,
    so only dispersive segments are sampled).  Callers that already hold
    the run's intermediates use `_run_photon_peaks` and skip the run."""
    if not params.explicit_cavity:
        raise ValueError("photon excursion is defined for the "
                         "explicit-cavity backend")
    res = execute(schedule, psi0, "hamiltonian", params,
                  record_intermediate=True)
    return _run_photon_peaks(schedule, params, [psi0], [res.intermediates])


def dispersive_error_point(ratio: float, *, fock_cutoff: int = 4) -> dict:
    """Error of the vacuum-projected dispersive reduction at one
    coupling-to-detuning ratio, probed with the controlled-phase schedule.

    Computational basis inputs are dark until the first pulse lifts them
    onto the auxiliary level, so each input is propagated through the full
    schedule on both backends; the error is the worst vacuum-sector
    infidelity over the four inputs.  Photon statistics are sampled
    densely inside the dispersive segments, from the cavity runs already
    made, with one `_run_photon_peaks` call: the four inputs share each
    segment's phase tables.  Returns ``error``, ``peak``, ``violation`` and
    the controlled-phase ``gate_fidelity`` of the explicit-cavity run.
    """
    sched = schedule_cps()
    p_cav = ExecutionParams(g02=float(ratio), detuning=1.0,
                            explicit_cavity=True, fock_cutoff=fock_cutoff)
    p_vac = ExecutionParams(gamma=p_cav.gamma)

    err = 0.0
    inputs, trails = [], []
    for _, ab in _BASIS:
        psi = basis_state((3, 3), ab)
        res_c = execute(sched, psi, "hamiltonian", p_cav,
                        record_intermediate=True)
        res_v = execute(sched, psi, "analytic", p_vac)
        err = max(err, 1.0 - abs(np.vdot(
            res_v.final_state.amplitudes,
            _loop_amplitudes(res_c.final_state))) ** 2)
        inputs.append(psi)
        trails.append(res_c.intermediates)

    peak_n, peak_top = _run_photon_peaks(sched, p_cav, inputs, trails)
    return {"error": err, "peak": peak_n,
            "violation": peak_top >= FOCK_VIOLATION_TOL,
            "gate_fidelity": gate_fidelity(
                _propagator([t[-1] for t in trails]),
                sched.ideal_unitary.entries, unitarity_tol=1.0)}


def dispersive_error_scan(g_over_delta_list=DEFAULT_DISPERSIVE_RATIOS, *,
                          fock_cutoff: int = 4) -> ScanResult:
    """`dispersive_error_point` over a list of coupling-to-detuning ratios,
    from coarse to fine.  ``meta["gate_fidelity"]`` holds each point's
    controlled-phase gate fidelity."""
    return _scan("dispersive", g_over_delta_list,
                 partial(dispersive_error_point, fock_cutoff=fock_cutoff),
                 {"fock_cutoff": fock_cutoff})
