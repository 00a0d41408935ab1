"""Decoherence feasibility arithmetic for the cavity-mediated gates.

Small closed-form budget: the cavity lifetime T_c = Q / (2 pi nu), the
probability P = t_op / t_r that a gate run leaves a virtual photon exposed
to cavity loss, the resulting effective decay time T_c / P, and the minimum
quality factor q_min = 2 pi nu t_op the cavity must beat.  "Much greater
than" is operationalized as a configurable margin factor on q_min; the raw
number is always reported.

The budget is plain float arithmetic and imports no numpy; only
`gate_time_estimate`, which walks a gate schedule, imports ``protocols``
(and with it numpy), when it is called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .constants import TWO_PI

if TYPE_CHECKING:
    from .protocols import GateSchedule

__all__ = [
    "FeasibilityInput",
    "FeasibilityReport",
    "assess",
    "gate_time_estimate",
    "DEFAULT_MARGIN",
]

DEFAULT_MARGIN = 10.0


@dataclass(frozen=True)
class FeasibilityInput:
    """Cavity quality factor, cavity frequency nu (Hz, the shifted cavity
    frequency, not the bare transition), gate time t_op (s), and the
    auxiliary-level relaxation time t_r (s)."""

    q_factor: float
    nu: float
    t_op: float
    t_r: float

    def __post_init__(self):
        for name in ("q_factor", "nu", "t_op", "t_r"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")


@dataclass(frozen=True)
class FeasibilityReport:
    """Derived quantities; every field is recomputed by `assess`, nothing
    is cached across calls."""

    T_c: float
    P: float
    effective_decay: float
    q_min: float
    margin: float
    margin_achieved: float
    ok: bool

    def __bool__(self) -> bool:
        return self.ok

    def lines(self) -> tuple[str, ...]:
        """Structured text form used by the CLI."""
        verdict = "pass" if self.ok else "FAIL"
        return (
            f"cavity_lifetime_T_c_s      {self.T_c:.6e}",
            f"virtual_photon_prob_P      {self.P:.6e}",
            f"effective_decay_s          {self.effective_decay:.6e}",
            f"q_min                      {self.q_min:.6e}",
            f"margin_required            {self.margin:.6e}",
            f"margin_achieved            {self.margin_achieved:.6e}",
            f"verdict                    {verdict}",
        )


def assess(f: FeasibilityInput, margin: float = DEFAULT_MARGIN
           ) -> FeasibilityReport:
    """Evaluate the decoherence budget; passes iff Q >= margin * q_min.

    A derived quantity that overflows or underflows (not finite and
    positive) raises ValueError naming it.
    """
    if not 0 < margin < math.inf:
        raise ValueError("margin must be finite and positive")
    t_c = _derived("T_c", f.q_factor / (TWO_PI * f.nu))
    p = _derived("P", f.t_op / f.t_r)
    q_min = _derived("q_min", TWO_PI * f.nu * f.t_op)
    return FeasibilityReport(
        T_c=t_c,
        P=p,
        effective_decay=_derived("effective_decay", t_c / p),
        q_min=q_min,
        margin=margin,
        margin_achieved=_derived("margin_achieved", f.q_factor / q_min),
        ok=f.q_factor >= margin * q_min,
    )


def _derived(name: str, value: float) -> float:
    """A derived budget quantity, refused by name unless it is finite and
    positive: extreme inputs can overflow or underflow it."""
    if not 0 < value < math.inf:
        raise ValueError(f"derived {name} = {value!r} is not finite and "
                         f"positive")
    return value


def gate_time_estimate(gamma: float, schedule: GateSchedule,
                       rabi: float) -> float:
    """Wall-clock duration of a schedule at the given rates (s).

    Dispersive segments contribute their exact rational multiples of
    pi/gamma; a pulse group contributes the duration of its longest
    rotation, theta / (2 rabi), since simultaneous rotations overlap.
    """
    from .protocols import DispersiveStep

    if not (0 < gamma < math.inf and 0 < rabi < math.inf):
        raise ValueError("gamma and rabi must be finite, positive rates")
    total = 0.0
    for step in schedule.steps:
        if isinstance(step, DispersiveStep):
            total += step.duration(gamma)
        else:
            total += max(a.duration(rabi) for a in step.actions)
    if not math.isfinite(total):
        raise ValueError(f"total gate time of schedule {schedule.name!r} "
                         f"is not finite")
    return total
