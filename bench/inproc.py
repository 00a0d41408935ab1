"""Jobs that run inside one warm worker process.

`gate_batch` and `flux_sweep` call the library directly on inputs drawn
from the seed; the command-line workloads call `cli.main` in-process
when traced.  Every job returns a list of failure messages (empty when
its outputs passed their checks).
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import os
import shutil
import sys

import numpy as np

import squidqed
from squidqed import cli, hilbert, protocols, squid, verify
from squidqed.constants import PHI0
from squidqed.protocols import ExecutionParams

from workloads import SRC, check_cli_job, cli_argv, cli_jobs, bytes_written

if not os.path.abspath(squidqed.__file__).startswith(SRC + os.sep):
    raise ImportError(f"squidqed imported from {squidqed.__file__}, "
                      f"not from {SRC}")

# ---------------------------------------------------------------------------
# gate_batch
# ---------------------------------------------------------------------------

#: Backend name -> (protocols backend, params).  The explicit-cavity point
#: g02/detuning = 0.05 is the package default.
_VACUUM = ExecutionParams(gamma=1.0, rabi=100.0)
_BACKENDS = {
    "analytic": ("analytic", _VACUUM),
    "vacuum": ("hamiltonian", _VACUUM),
    "cavity": ("hamiltonian", ExecutionParams(
        gamma=0.05 ** 2, rabi=100.0, g02=0.05, detuning=1.0, fock_cutoff=4,
        explicit_cavity=True)),
}
_CUTOFFS = (4, 8)
_TABLES = {"cps": verify.truth_table_cps, "swap": verify.truth_table_swap,
           "transfer": verify.truth_table_transfer}
_RANDOM_INPUTS = 4


def _cavity_params(fock_cutoff: int) -> ExecutionParams:
    return dataclasses.replace(_BACKENDS["cavity"][1],
                               fock_cutoff=fock_cutoff)


def _random_state(rng) -> hilbert.StateVector:
    v = rng.normal(size=9) + 1j * rng.normal(size=9)
    return hilbert.StateVector(v / np.linalg.norm(v), (3, 3))


def _computational_inputs() -> list[hilbert.StateVector]:
    return [hilbert.basis_state((3, 3), ab)
            for ab in ((0, 0), (0, 1), (1, 0), (1, 1))]


def gate_batch_jobs(rng):
    """Endless stream of gate passes; each draws its own random inputs."""
    while True:
        yield {"schedules": {name: build() for name, build
                             in protocols.SCHEDULE_BUILDERS.items()},
               "inputs": _computational_inputs()
               + [_random_state(rng) for _ in range(_RANDOM_INPUTS)],
               "excursion_inputs": [_random_state(rng) for _ in _CUTOFFS]}


def run_gate_pass(job: dict) -> list[str]:
    """One pass over every schedule x backend, the three truth tables on
    both exact backends, the cavity propagator and photon excursion at two
    Fock cutoffs, and the dispersive scan on its default grid."""
    failures: list[str] = []
    schedules = job["schedules"]
    for name, sched in schedules.items():
        for k, psi in enumerate(job["inputs"]):
            out = {b: protocols.execute(sched, psi, backend, params)
                   for b, (backend, params) in _BACKENDS.items()}
            exact = out["analytic"].final_state.amplitudes
            dev = float(np.max(np.abs(
                out["vacuum"].final_state.amplitudes - exact)))
            if dev > 1e-9:
                failures.append(f"{name} input {k}: analytic vs vacuum "
                                f"deviation {dev:.3e}")
            drift = out["cavity"].max_norm_drift
            if drift > 1e-9:
                failures.append(f"{name} input {k}: cavity norm drift "
                                f"{drift:.3e}")

    for name, table in _TABLES.items():
        rows = table().rows
        for b in ("analytic", "vacuum"):
            backend, params = _BACKENDS[b]
            chk = verify.check_truth_table(
                verify.TruthTable(schedules[name], rows), backend, params)
            if not chk.ok:
                failures.append(f"{name} truth table on {b}: "
                                f"{chk.failures[0]}")

    ideal = protocols.schedule_cps().ideal_unitary
    for cutoff, psi in zip(_CUTOFFS, job["excursion_inputs"]):
        params = _cavity_params(cutoff)
        u = verify.computational_propagator(schedules["cps"], "hamiltonian",
                                            params)
        fid = verify.gate_fidelity(u, ideal, unitarity_tol=1.0)
        if fid < 0.999:
            failures.append(f"cps cavity propagator (cutoff {cutoff}): gate "
                            f"fidelity {fid:.6f}")
        peak_n, peak_top = verify.photon_excursion(schedules["cps"], params,
                                                   psi)
        if not 0.0 < peak_n < 0.1 or peak_top >= verify.FOCK_VIOLATION_TOL:
            failures.append(f"cps photon excursion (cutoff {cutoff}): peak "
                            f"n {peak_n:.3e}, top level {peak_top:.3e}")

    scan = verify.dispersive_error_scan()
    errs = [float(e) for e in scan.error]
    if not all(errs[k] > errs[k + 1] > 0 for k in range(len(errs) - 1)) \
            or max(errs) > 1e-2 or bool(np.any(scan.fock_violation)):
        failures.append(f"dispersive scan errors {errs}, fock violation "
                        f"{scan.fock_violation.tolist()}")
    return failures


# ---------------------------------------------------------------------------
# flux_sweep
# ---------------------------------------------------------------------------

_SWEEP_PAIRS = 30
#: Offsets u from Phi_0 / 2.  The shipped bias 0.4998 sits at u = 2e-4;
#: closer to the symmetric point the 0-1 tunnel splitting collapses and
#: the doubled-grid check refuses the solve by design (u -> 0 shifts the
#: transitions by 1.02e-6 > 1e-6), so the sweep tilts outward from the
#: shipped bias to |0.5 +- u - 0.4998| <= 0.01.
_SWEEP_OFFSETS = (2e-4, 9.8e-3)


def flux_sweep_jobs(rng):
    """Endless rounds of the harmonic oracle plus 30 mirrored bias pairs
    Phi_x = (0.5 +- u) Phi_0, u drawn from the seed, in a seeded order."""
    offsets = rng.uniform(*_SWEEP_OFFSETS, size=_SWEEP_PAIRS)
    pairs = [{"kind": "pair", "biases": (0.5 + float(u), 0.5 - float(u))}
             for u in offsets]
    order = rng.permutation(len(pairs))
    while True:
        yield {"kind": "oracle"}
        for i in order:
            yield pairs[i]


@functools.lru_cache(maxsize=None)
def _preset(name: str):
    return squid.load_preset(name)


def run_flux_job(job: dict) -> list[str]:
    """Solve both biases of a mirrored pair with the doubled-grid check and
    run the lambda check on each.  The loop potential is symmetric about
    Phi_0 / 2 on the shipped grid, so the pair must give the same spectrum
    and the same |<0|Phi|2>|."""
    if job["kind"] == "oracle":
        return _harmonic_oracle()
    params, grid = _preset("ref15_like")
    solved = []
    failures = []
    for x in job["biases"]:
        ls = squid.solve(dataclasses.replace(params, Phi_x=x * PHI0), grid)
        report = squid.lambda_check(ls)
        if not (np.all(np.isfinite(ls.energies))
                and np.all(np.diff(ls.energies) > 0)
                and np.all(np.isfinite(ls.flux_elements))
                and np.isfinite(report.ratio_20)):
            failures.append(f"bias {x:.6f}: non-finite or unordered levels")
        solved.append((ls, report))
    (a, ra), (b, rb) = solved
    rel = float(np.max(np.abs(a.energies - b.energies) / np.abs(a.energies)))
    e02 = abs(a.flux_elements[0, 2])
    el = abs(e02 - abs(b.flux_elements[0, 2]))
    if rel > 1e-9 or el > 1e-6 * e02 or ra.ok != rb.ok:
        x, y = job["biases"]
        failures.append(f"biases {x:.6f}/{y:.6f}: mirror spectra differ "
                        f"(energy {rel:.3e}, |Phi_02| {el:.3e})")
    return failures


def _harmonic_oracle() -> list[str]:
    """The Ic = 0 preset is an exact oscillator: equal spacings of
    hbar/sqrt(LC) and <0|Phi|1> equal to the harmonic-scale element."""
    params, grid = _preset("harmonic")
    ls = squid.solve(params, grid)
    omega = 1.0 / np.sqrt(params.L * params.C)
    err10 = abs(ls.omega_10 / omega - 1.0)
    err20 = abs(ls.omega_20 / (2.0 * omega) - 1.0)
    err_el = abs(abs(ls.flux_elements[0, 1])
                 / squid.harmonic_scale_element(params) - 1.0)
    if max(err10, err20, err_el) > 1e-5:
        return [f"harmonic oracle off: omega_10 {err10:.2e}, omega_20 "
                f"{err20:.2e}, element {err_el:.2e}"]
    return []


# ---------------------------------------------------------------------------
# command-line jobs in-process
# ---------------------------------------------------------------------------

def clear_package_caches() -> None:
    """Empty every lru_cache in the package, as a fresh process would
    start."""
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("squidqed"):
            for obj in vars(mod).values():
                if hasattr(obj, "cache_clear") and \
                        getattr(obj, "__module__", "").startswith("squidqed"):
                    obj.cache_clear()


class InProcessCli:
    """Runs command-line jobs through `cli.main` in this process, scan
    workers forced to 1, caches emptied before each job."""

    def __init__(self, work_root: str):
        self.work_root = work_root
        self.bytes_written = 0
        self._n = 0

    def __call__(self, job: dict) -> list[str]:
        self._n += 1
        work = os.path.join(self.work_root, f"job{self._n}")
        argv = cli_argv(job, work)
        if "--workers" in argv:
            argv[argv.index("--workers") + 1] = "1"
        clear_package_caches()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        out = os.path.join(work, "out")
        failures = check_cli_job(job, code, out)
        if os.path.isdir(out):
            self.bytes_written += bytes_written(out)
        shutil.rmtree(work, ignore_errors=True)
        return failures


# ---------------------------------------------------------------------------
# workload table
# ---------------------------------------------------------------------------

def make(workload: str, seed: int, work_root: str):
    """(runner factory, job stream, warm-up jobs) for a workload.  A
    runner is a callable job -> failures; each runner keeps its own state.
    Warm-up inputs come from their own seeded stream, so the measured jobs
    are the same whether or not a run warms up first."""
    if workload == "gate_batch":
        return (lambda: run_gate_pass,
                gate_batch_jobs(np.random.default_rng([seed, 0])),
                [next(gate_batch_jobs(np.random.default_rng([seed, 1])))])
    if workload == "flux_sweep":
        warm = [{"kind": "oracle"}, {"kind": "pair", "biases": (0.5002, 0.4998)}]
        return (lambda: run_flux_job,
                flux_sweep_jobs(np.random.default_rng(seed)), warm)
    return (lambda: InProcessCli(work_root),
            itertools.cycle(cli_jobs(workload, seed)), [])
