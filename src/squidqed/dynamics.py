"""Unitary time evolution under a time-dependent Hamiltonian in rad/s.

The integrator is an exponential midpoint rule (constant generators go to
`hilbert.matexp_unitary` instead): one exact matrix exponential of H
evaluated at the step midpoint per step.  Each step is exactly unitary, so
norm is preserved to rounding regardless of step count; the commutator
error makes the scheme second order in the step size (halving the step
shrinks the state error by about 4x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import TWO_PI
from .hilbert import Operator, StateVector

__all__ = [
    "EvolutionResult",
    "StepSizeError",
    "evolve_timedep",
    "max_step_for",
]

#: Minimum number of steps per period of the fastest phase in the generator.
STEPS_PER_PERIOD = 20

#: Norm drift beyond this means the evolution cannot be trusted.
NORM_DRIFT_MAX = 1e-8


class StepSizeError(ValueError):
    """Raised when the requested step under-resolves the fastest phase."""


@dataclass(frozen=True)
class EvolutionResult:
    """Outcome of one evolution call.

    ``max_norm_drift`` is the largest |norm - 1| observed over the whole
    run, and a drift above `NORM_DRIFT_MAX` or NaN rejects the result;
    ``propagator`` (`evolve_timedep` only) and ``intermediates`` are
    populated only on request.
    """

    final_state: StateVector
    propagator: Operator | None
    step_count: int
    max_norm_drift: float
    intermediates: tuple[StateVector, ...] | None = None

    def __post_init__(self):
        if not self.max_norm_drift <= NORM_DRIFT_MAX:  # NaN fails too
            raise RuntimeError(
                f"norm drift {self.max_norm_drift:.3e} exceeds "
                f"{NORM_DRIFT_MAX:.0e}; result rejected")


def max_step_for(omega_max: float) -> float:
    """Largest allowed step for a generator whose fastest phase is omega_max."""
    if omega_max <= 0:
        return math.inf
    return (TWO_PI / omega_max) / STEPS_PER_PERIOD


def evolve_timedep(h_of_t, t0: float, t1: float, dt: float,
                   psi: StateVector, *, omega_max: float | None = None,
                   want_propagator: bool = False,
                   record_intermediate: bool = False) -> EvolutionResult:
    """Evolve psi from t0 to t1 under h_of_t with midpoint steps of size ~dt.

    h_of_t maps a time to an Operator holding a generator in rad/s.  The
    fastest phase omega_max is taken from the argument or, failing that,
    from an ``omega_max`` attribute on h_of_t; when known, dt must satisfy
    dt <= (2 pi / omega_max) / 20 or a StepSizeError is raised.  t1 < t0
    integrates backwards.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if omega_max is None:
        omega_max = getattr(h_of_t, "omega_max", None)
    if omega_max is not None:
        cap = max_step_for(omega_max)
        if dt > cap * (1.0 + 1e-12):
            raise StepSizeError(
                f"dt = {dt:.3e} s under-resolves omega_max = {omega_max:.3e} "
                f"rad/s; need dt <= (2*pi/omega_max)/{STEPS_PER_PERIOD} "
                f"= {cap:.3e} s")

    span = t1 - t0
    n_steps = max(1, math.ceil(abs(span) / dt))
    step = span / n_steps

    vec = psi.amplitudes.copy()
    u_total = np.eye(psi.dim, dtype=complex) if want_propagator else None
    trail: list[StateVector] = []
    drift = abs(psi.norm() - 1.0)

    for k in range(n_steps):
        t_mid = t0 + (k + 0.5) * step
        w, v = np.linalg.eigh(h_of_t(t_mid).entries)
        phases = np.exp(-1j * w * step)
        # U = V e^{-i w dt} V^dag applied without forming U when possible
        vec = v @ (phases * (v.conj().T @ vec))
        if want_propagator:
            u_total = v @ (phases[:, None] * (v.conj().T @ u_total))
        nrm = float(np.linalg.norm(vec))
        drift = max(drift, abs(nrm - 1.0))
        if record_intermediate:
            trail.append(StateVector(vec, psi.dims))

    final = StateVector(vec, psi.dims)
    return EvolutionResult(
        final_state=final,
        propagator=(Operator(u_total, psi.dims) if want_propagator else None),
        step_count=n_steps,
        max_norm_drift=drift,
        intermediates=tuple(trail) if record_intermediate else None,
    )
