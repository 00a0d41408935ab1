"""Gate protocols: pulse/dispersive step types, the four shipped schedules,
closed-form step maps, and schedule execution on three backends.

A schedule is a symbolic sequence of steps; physical rates (the dispersive
rate gamma, pulse Rabi amplitudes, coupling and detuning for the explicit
cavity) are bound only at execution time.  Conventions:

* A resonant rotation by angle theta on levels (i, j) maps the pair by
  cos(theta/2) on the diagonal and -i sin(theta/2) off it; a pi pulse sends
  |j> to -i|i>.  Rotations are instantaneous next to the dispersive
  timescale, and each acts on its own loop alone, never on the cavity.
* Dispersive step durations are rational multiples of pi/gamma, stored
  exactly as fractions.
* Two-loop product states live on dims (3, 3) ordered (loop_a, loop_b);
  the explicit-cavity backend extends this to (3, 3, fock_cutoff).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache

import numpy as np

from .hamiltonians import (_X02, _X20, _check_fock_cutoff, _on_loop,
                           _resonant_drive, gamma_eff, h_eff_vacuum,
                           loop_cavity_hamiltonian)
from .hilbert import Operator, StateVector, matexp_unitary
from .dynamics import EvolutionResult

__all__ = [
    "PulseAction",
    "AraStep",
    "DispersiveStep",
    "GateSchedule",
    "ExecutionParams",
    "rotation_map",
    "dispersive_map",
    "pulse",
    "simultaneous",
    "schedule_cps",
    "schedule_swap",
    "schedule_transfer",
    "schedule_entanglement",
    "SCHEDULE_BUILDERS",
    "execute",
]

_TARGETS = ("a", "b")
_PULSE_PAIRS = ((0, 2), (1, 2))  # 0<->1 rotations are never scheduled


@dataclass(frozen=True)
class PulseAction:
    """One resonant rotation: which loop, which level pair, what angle
    (exact rational multiple of pi)."""

    target: str
    levels: tuple[int, int]
    theta_over_pi: Fraction

    def __post_init__(self):
        if self.target not in _TARGETS:
            raise ValueError(f"target must be one of {_TARGETS}")
        pair = tuple(sorted(int(k) for k in self.levels))
        if pair not in _PULSE_PAIRS:
            raise ValueError(f"pulse levels must be one of {_PULSE_PAIRS}")
        object.__setattr__(self, "levels", pair)
        frac = Fraction(self.theta_over_pi)
        if frac <= 0:
            raise ValueError("theta_over_pi must be positive")
        object.__setattr__(self, "theta_over_pi", frac)

    @property
    def theta(self) -> float:
        return float(self.theta_over_pi) * math.pi

    def duration(self, rabi: float) -> float:
        """Length of the rotation (s) at Rabi rate rabi (rad/s); a length
        that is not finite raises ValueError."""
        t = self.theta / (2.0 * rabi)
        if not math.isfinite(t):
            raise ValueError(f"rotation length theta / (2 rabi) at rabi = "
                             f"{rabi!r} rad/s is not finite")
        return t


@dataclass(frozen=True)
class AraStep:
    """A group of simultaneous resonant rotations, at most one per loop.

    Actions on different loops commute, so the step unitary is the product
    of the individual rotations, each placed on its own loop.  So the
    interaction is off while pulses run, and the cavity is untouched.
    """

    actions: tuple[PulseAction, ...]

    def __post_init__(self):
        if not self.actions:
            raise ValueError("AraStep needs at least one action")
        targets = [a.target for a in self.actions]
        if len(set(targets)) != len(targets):
            raise ValueError("at most one action per loop in a step")
        object.__setattr__(self, "actions", tuple(self.actions))


@dataclass(frozen=True)
class DispersiveStep:
    """Free dispersive evolution for duration (duration_over_pi_gamma *
    pi / gamma); the multiple is an exact fraction."""

    duration_over_pi_gamma: Fraction

    def __post_init__(self):
        frac = Fraction(self.duration_over_pi_gamma)
        if frac <= 0:
            raise ValueError("duration_over_pi_gamma must be positive")
        object.__setattr__(self, "duration_over_pi_gamma", frac)

    def duration(self, gamma: float) -> float:
        """Length of the segment (s) at dispersive rate gamma (rad/s); a
        length that is not finite raises ValueError."""
        t = float(self.duration_over_pi_gamma) * math.pi / gamma
        if not math.isfinite(t):
            raise ValueError(f"dispersive segment length at gamma = "
                             f"{gamma!r} rad/s is not finite")
        return t


@dataclass(frozen=True, eq=False)
class GateSchedule:
    """Named step sequence with optional declared ideal action.

    ``ideal_unitary`` (when set) acts on the two-qubit computational
    subspace, dims (2, 2); ``target_state`` (when set) is the declared
    output on dims (3, 3) for a state-preparation schedule started from
    |0, 0>.  A schedule compares and hashes by identity, so `execute` can
    look up all of its step propagators with one cheap key.  Its fields
    cannot be set and its arrays cannot be written, so the shipped
    schedules are shared: each builder returns one instance per process,
    and every run of it reuses the same cached propagators.
    """

    name: str
    steps: tuple
    ideal_unitary: Operator | None = None
    target_state: StateVector | None = None

    def __post_init__(self):
        if not self.steps:
            raise ValueError("schedule needs at least one step")
        for s in self.steps:
            if not isinstance(s, (AraStep, DispersiveStep)):
                raise TypeError(f"unsupported step type {type(s).__name__}")
        object.__setattr__(self, "steps", tuple(self.steps))


def pulse(target: str, levels, theta_over_pi) -> AraStep:
    """Single rotation step."""
    return AraStep((PulseAction(target, tuple(levels),
                                Fraction(theta_over_pi)),))


def simultaneous(*actions: PulseAction) -> AraStep:
    """Step with several rotations running together."""
    return AraStep(tuple(actions))


# ---------------------------------------------------------------------------
# closed-form step maps
# ---------------------------------------------------------------------------

def rotation_map(levels, theta: float) -> Operator:
    """Resonant rotation on one loop: identity outside the level pair,
    [[cos(theta/2), -i sin(theta/2)], [-i sin(theta/2), cos(theta/2)]] on
    it."""
    i, j = sorted(int(k) for k in levels)
    u = np.eye(3, dtype=complex)
    u[i, i] = u[j, j] = math.cos(theta / 2.0)
    u[i, j] = u[j, i] = -1j * math.sin(theta / 2.0)
    return Operator(u, (3,))


def dispersive_map(gamma: float, t: float) -> Operator:
    """Closed-form dispersive propagator on the two loops (dims (3, 3)).

    The |0,2>/|2,0> pair mixes with overall phase e^{-i gamma t}, cosine
    on the diagonal and -i sine across; |1,2> and |2,1> pick up
    e^{-i gamma t}; |2,2> picks up e^{-2 i gamma t}; everything else is
    untouched.
    """
    c, s = math.cos(gamma * t), math.sin(gamma * t)
    ph = np.exp(-1j * gamma * t)
    u = np.eye(9, dtype=complex)
    u[2, 2] = u[6, 6] = ph * c
    u[2, 6] = u[6, 2] = -1j * ph * s
    u[5, 5] = u[7, 7] = ph
    u[8, 8] = ph * ph
    return Operator(u, (3, 3))


# ---------------------------------------------------------------------------
# shipped schedules
# ---------------------------------------------------------------------------

def _cps_ideal() -> Operator:
    return Operator(np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex), (2, 2))


def _swap_ideal() -> Operator:
    u = np.zeros((4, 4), dtype=complex)
    u[0, 0] = u[3, 3] = 1.0
    u[1, 2] = u[2, 1] = 1.0
    return Operator(u, (2, 2))


def _entangled_target() -> StateVector:
    amps = np.zeros(9, dtype=complex)
    amps[1] = 1j / math.sqrt(2.0)   # |0,1>
    amps[3] = -1.0 / math.sqrt(2.0)  # |1,0>
    return StateVector(amps, (3, 3))


@cache
def schedule_cps() -> GateSchedule:
    """Controlled phase: pi rotation (1,2) on loop a, dispersive pi/gamma,
    3*pi rotation (1,2) on loop a.  Acts as diag(1, 1, 1, -1) on the
    computational subspace.  One shared instance per process."""
    return GateSchedule(
        name="cps",
        steps=(
            pulse("a", (1, 2), 1),
            DispersiveStep(Fraction(1)),
            pulse("a", (1, 2), 3),
        ),
        ideal_unitary=_cps_ideal(),
    )


@cache
def schedule_swap() -> GateSchedule:
    """State swap between the loops in five steps.  One shared instance
    per process."""
    return GateSchedule(
        name="swap",
        steps=(
            simultaneous(PulseAction("a", (1, 2), Fraction(1)),
                         PulseAction("b", (1, 2), Fraction(1))),
            DispersiveStep(Fraction(1, 2)),
            simultaneous(PulseAction("a", (1, 2), Fraction(2)),
                         PulseAction("b", (1, 2), Fraction(1))),
            DispersiveStep(Fraction(1)),
            pulse("a", (1, 2), 3),
        ),
        ideal_unitary=_swap_ideal(),
    )


@cache
def schedule_transfer() -> GateSchedule:
    """One-way state transfer a -> b; requires loop b to start in |0>.
    alpha|0>_a + beta|1>_a arrives on loop b with no residual phase.  One
    shared instance per process."""
    return GateSchedule(
        name="transfer",
        steps=(
            pulse("a", (1, 2), 1),
            DispersiveStep(Fraction(1, 2)),
            pulse("b", (1, 2), 1),
        ),
    )


@cache
def schedule_entanglement() -> GateSchedule:
    """Maximally entangling preparation from |0, 0>: target state
    (i|0,1> - |1,0>)/sqrt(2) up to a global phase.  One shared instance
    per process."""
    return GateSchedule(
        name="entanglement",
        steps=(
            pulse("a", (0, 2), 1),
            DispersiveStep(Fraction(1, 4)),
            simultaneous(PulseAction("a", (1, 2), Fraction(1)),
                         PulseAction("b", (1, 2), Fraction(1))),
        ),
        target_state=_entangled_target(),
    )


SCHEDULE_BUILDERS = {
    "cps": schedule_cps,
    "swap": schedule_swap,
    "transfer": schedule_transfer,
    "entanglement": schedule_entanglement,
}


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExecutionParams:
    """Physical bindings for the Hamiltonian backends.

    gamma is the dispersive rate (rad/s) every backend times its waits by.
    With ``explicit_cavity`` it is set to g02^2 / detuning, whatever was
    passed; the defaults give the working point g02/detuning = 0.05.
    detuning is Delta = omega_20 - omega_c, positive with the cavity below
    the 0<->2 transition.  rabi sets the pulse amplitude; rotations are exact
    exponentials, so its value does not affect the resulting map.
    """

    gamma: float = 1.0
    rabi: float = 1.0
    g02: float = 0.05
    detuning: float = 1.0
    fock_cutoff: int = 4
    explicit_cavity: bool = False

    def __post_init__(self):
        if self.explicit_cavity:
            if not (0 < self.g02 < math.inf and 0 < self.detuning < math.inf):
                raise ValueError("explicit cavity needs finite, positive g02 "
                                 "and detuning")
            _check_fock_cutoff(self.fock_cutoff, 2)
            gamma = gamma_eff(self.g02, self.detuning)
            if not 0 < gamma < math.inf:
                raise ValueError(f"explicit cavity rate g02^2/detuning = "
                                 f"{gamma!r} is not finite and positive")
            object.__setattr__(self, "gamma", gamma)
        if not (0 < self.gamma < math.inf and 0 < self.rabi < math.inf):
            raise ValueError("gamma and rabi must be finite and positive")


def _run_dims(params: ExecutionParams) -> tuple:
    """Dims of a run: the two loops, then the cavity under explicit_cavity."""
    return (3, 3, params.fock_cutoff) if params.explicit_cavity else (3, 3)


@lru_cache(maxsize=16)
def _cavity_eigensystem(g02: float, detuning: float, fock_cutoff: int
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Read-only eigensystem (w, v) of the explicit-cavity generator in the
    frame co-rotating with the 0<->2 transitions,
    H' = -Delta n_hat + g02 (a |2><0|_a + a |2><0|_b + h.c.)
    on (loop_a, loop_b, cavity), with Delta = omega_20 - omega_c:
    `loop_cavity_hamiltonian` with zero level frequencies and omega_c
    replaced by -Delta.  Shared by the dispersive-segment propagator and the
    photon statistics sampled inside the segment."""
    w, v = np.linalg.eigh(loop_cavity_hamiltonian(
        (0.0, 0.0, 0.0), -detuning, g02 * (_X02 + _X20).real, fock_cutoff, 2,
        rotating_wave=True))
    w.setflags(write=False)
    v.setflags(write=False)
    return w, v


def _cavity_dispersive_unitary(params: ExecutionParams, t: float) -> np.ndarray:
    """Exact propagator of the resonant-exchange cavity model over t, in
    the interaction picture of the bare loops and cavity.

    In the frame co-rotating with the 0<->2 transitions the generator H'
    (see `_cavity_eigensystem`) is constant, and the interaction-picture
    state is e^{-i Delta n_hat t} e^{-i H' t} psi_0.
    """
    n = params.fock_cutoff
    w, v = _cavity_eigensystem(params.g02, params.detuning, n)
    core = (v * np.exp(-1j * w * t)) @ v.conj().T
    frame = np.exp(-1j * params.detuning * np.arange(n) * t)
    return np.kron(np.ones(9), frame)[:, None] * core


def _step_unitary(step, backend: str, params: ExecutionParams) -> np.ndarray:
    """Read-only propagator of one constant segment on the run's dims, each
    rotation built on its own loop; memoized only by `_schedule_unitaries`."""
    dims = _run_dims(params)
    if isinstance(step, AraStep):
        u = np.eye(math.prod(dims), dtype=complex)
        for act in step.actions:
            if backend == "analytic":
                r = rotation_map(act.levels, act.theta)
            else:
                r = matexp_unitary(_resonant_drive(act.levels, params.rabi),
                                   act.duration(params.rabi))
            u = _on_loop(r.entries, _TARGETS.index(act.target), dims) @ u
    else:
        t = step.duration(params.gamma)
        if params.explicit_cavity:
            u = _cavity_dispersive_unitary(params, t)
        elif backend == "analytic":
            u = dispersive_map(params.gamma, t).entries
        else:
            u = matexp_unitary(h_eff_vacuum(params.gamma), t).entries
    u.setflags(write=False)
    return u


@lru_cache(maxsize=64)
def _schedule_unitaries(schedule: GateSchedule, backend: str,
                        params: ExecutionParams) -> tuple:
    """The read-only propagators of a schedule's steps, in order, each built
    by `_step_unitary`: the one memo of step propagators.  A schedule
    hashes by identity, so a run resolves all of its steps with one cheap
    lookup here; the shipped builders hand out one instance each, so
    their warm runs never miss."""
    return tuple(_step_unitary(step, backend, params)
                 for step in schedule.steps)


def _with_cavity_vacuum(amplitudes: np.ndarray, fock_cutoff: int
                        ) -> np.ndarray:
    """Two-loop amplitudes (last axis) next to the cavity vacuum |0>, the
    first row of an identity, on (loop_a, loop_b, cavity): the product
    `np.kron` forms, bit for bit, without its overhead."""
    return (amplitudes[..., None] * np.eye(1, fock_cutoff, dtype=complex)[0]
            ).reshape(*amplitudes.shape[:-1], -1)


def _run_block(schedule: GateSchedule, inputs: np.ndarray, backend: str,
               params: ExecutionParams | None) -> np.ndarray:
    """Run a schedule on a (k x 9) block of two-loop inputs, as `execute`
    does one.  Returns a (k, steps + 1, dim) array: each input (next to the
    cavity vacuum on the explicit-cavity backend) and then its state after
    every step.  Each row runs its own chain of matrix-vector products, so
    a row holds the bits of a one-input run."""
    if backend not in ("analytic", "hamiltonian"):
        raise ValueError(f"unknown backend {backend!r}")
    params = params or ExecutionParams()
    if backend == "analytic" and params.explicit_cavity:
        raise ValueError("backend 'analytic' has no cavity: explicit_cavity "
                         "needs backend 'hamiltonian'")
    block = np.asarray(inputs, dtype=complex)
    if block.ndim != 2 or block.shape[1] != 9:
        raise ValueError(f"inputs of shape {block.shape} are not a block "
                         f"of two-loop rows")
    if params.explicit_cavity:
        block = _with_cavity_vacuum(block, params.fock_cutoff)
    units = _schedule_unitaries(schedule, backend, params)
    runs = np.empty((len(block), len(units) + 1, block.shape[1]),
                    dtype=complex)
    runs[:, 0] = block
    for run in runs:
        for k, u in enumerate(units):
            np.matmul(u, run[k], out=run[k + 1])
    return runs


def execute(schedule: GateSchedule, psi0: StateVector,
            backend: str = "analytic",
            params: ExecutionParams | None = None, *,
            record_intermediate: bool = False) -> EvolutionResult:
    """Run a schedule on one input state: the one-row view of `_run_block`.

    backend "analytic" composes the closed-form step maps; backend
    "hamiltonian" exponentiates the generators instead — the
    vacuum-projected dispersive form by default, or the explicit-cavity
    model when ``params.explicit_cavity`` is set (the input is then
    embedded next to the cavity vacuum, and results live on dims
    (3, 3, fock_cutoff)).  Inputs live on the two loops, dims (3, 3).  The
    analytic backend has no cavity, so it refuses
    ``params.explicit_cavity``.  ``max_norm_drift`` is the largest
    |norm - 1| over the input and every step's state; a NaN drift is
    rejected.
    """
    if psi0.dims != (3, 3):
        raise ValueError(f"input state dims {psi0.dims} not supported "
                         f"for backend {backend!r}")
    params = params or ExecutionParams()
    run = _run_block(schedule, psi0.amplitudes[None], backend, params)[0]
    dims = _run_dims(params)
    return EvolutionResult(
        final_state=StateVector(run[-1], dims),
        propagator=None,
        step_count=len(schedule.steps),
        max_norm_drift=float(abs(np.linalg.norm(run, axis=1) - 1.0).max()),
        intermediates=(tuple(StateVector(vec, dims) for vec in run[1:])
                       if record_intermediate else None),
    )
