"""Workload definitions shared by the client and the worker processes.

Standard library only: the client imports this module without loading
numpy or the package under test.  It holds the four workload names, the
job lists made from a seed, the output checks for jobs that run the
command line, the closed loop that times jobs, and the small statistics
helpers both sides use.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")

WORKLOADS = ("cli_session", "gate_batch", "flux_sweep", "rwa_scan")

#: Workloads whose jobs are fresh `python -m squidqed` processes; the
#: other two run their jobs inside one warm worker process.
SUBPROCESS_WORKLOADS = ("cli_session", "rwa_scan")

#: Fixed job-list length of a traced run (the first jobs of the same
#: seeded stream an untraced run draws from).
TRACE_JOBS = {"cli_session": 17, "gate_batch": 8, "flux_sweep": 31,
              "rwa_scan": 1}

#: Jobs per unit of a timed run, which runs whole units: a cli_session
#: run is whole sessions, so every run has the same mix of commands.
UNIT_JOBS = {"cli_session": 17}

#: Environment variables that cap BLAS/OpenMP pools at one thread per
#: process, so that the at most `nproc` busy processes use at most
#: `nproc` threads.
THREAD_CAPS = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

GATE_SCHEDULES = ("cps", "swap", "transfer", "entangle")
GATE_BACKENDS = ("analytic", "dispersive", "cavity")
TRUTH_TABLE_SCHEDULES = ("cps", "swap", "transfer")

#: Harmonic preset loop (Ic = 0): C = 4e-14 F, L = 1e-10 H, so the level
#: spacing is hbar / sqrt(L C) = hbar * 5e11 rad/s.
HBAR = 1.054571817e-34
HARMONIC_SPACING_J = HBAR / math.sqrt(4e-14 * 1e-10)


def child_env() -> dict:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env.update(THREAD_CAPS)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    return env


# ---------------------------------------------------------------------------
# job lists
# ---------------------------------------------------------------------------

def cli_session_jobs(seed: int) -> list[dict]:
    """The 17 command-line jobs of one session, in a seeded order.

    Gate rates and the rates of the derived feasibility run are drawn from
    the seed; every other input is the documented default.
    """
    rng = random.Random(seed)
    jobs = [{"name": f"spectrum-{p}", "command": "spectrum",
             "config": {"preset": p}, "options": []}
            for p in ("ref15_like", "harmonic")]
    for sched in GATE_SCHEDULES:
        for backend in GATE_BACKENDS:
            cfg = {"schedule": sched,
                   "gamma_radps": round(rng.uniform(0.5, 2.0), 6),
                   "rabi_radps": round(rng.uniform(50.0, 200.0), 6)}
            jobs.append({"name": f"gate-{sched}-{backend}", "command": "gate",
                         "config": cfg, "options": ["--backend", backend]})
    jobs.append({"name": "feasibility-default", "command": "feasibility",
                 "config": {}, "options": []})
    jobs.append({"name": "feasibility-derived", "command": "feasibility",
                 "config": {"gamma_radps": round(rng.uniform(2e8, 5e8), 1),
                            "rabi_radps": round(rng.uniform(4e9, 8e9), 1)},
                 "options": []})
    jobs.append({"name": "scan-dispersive", "command": "scan",
                 "config": {"scan_kind": "dispersive"},
                 "options": ["--workers", "1"]})
    rng.shuffle(jobs)
    return jobs


def rwa_scan_jobs(seed: int, workers: int = 2) -> list[dict]:
    """The one rotating-wave scan job.  Its input is the default grid, so
    the seed does not change it."""
    del seed
    return [{"name": "scan-rwa", "command": "scan",
             "config": {"scan_kind": "rwa"},
             "options": ["--workers", str(workers)]}]


def cli_jobs(workload: str, seed: int) -> list[dict]:
    if workload == "cli_session":
        return cli_session_jobs(seed)
    return rwa_scan_jobs(seed)


def cli_argv(job: dict, work_dir: str) -> list[str]:
    """Write the job's config into work_dir and return the CLI arguments
    (without the program name)."""
    os.makedirs(work_dir, exist_ok=True)
    cfg_path = os.path.join(work_dir, "config.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(job["config"], fh)
    return [job["command"], "--config", cfg_path,
            "--out", os.path.join(work_dir, "out")] + job["options"]


# ---------------------------------------------------------------------------
# output checks for command-line jobs
# ---------------------------------------------------------------------------

def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _summary(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.partition(" ")
            out.setdefault(key, value.strip())
    return out


def _csv_rows(text: str) -> list[list[str]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def check_cli_job(job: dict, exit_code: int, out_dir: str) -> list[str]:
    """Failures of one finished command-line job (empty when it passed)."""
    if exit_code != 0:
        return [f"{job['name']}: exit code {exit_code}"]
    try:
        return [f"{job['name']}: {msg}"
                for msg in _CHECKS[job["command"]](job, out_dir)]
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"{job['name']}: unreadable output ({exc!r})"]


def _check_spectrum(job, out_dir):
    summary = _summary(_read(os.path.join(out_dir, "spectrum_summary.txt")))
    levels = _csv_rows(_read(os.path.join(out_dir, "spectrum_levels.csv")))
    energies = [float(r[1]) for r in levels]
    if len(energies) != 3:
        return [f"{len(energies)} levels written, expected 3"]
    if job["config"]["preset"] == "harmonic":
        worst = max(abs((energies[k + 1] - energies[k]) / HARMONIC_SPACING_J
                        - 1.0) for k in range(2))
        return [] if worst < 1e-5 else \
            [f"harmonic spacing off the oracle by {worst:.3e}"]
    return [] if summary.get("lambda_config") == "ok" else \
        ["lambda_config is not ok at the shipped working point"]


def _check_gate(job, out_dir):
    summary = _summary(_read(os.path.join(out_dir, "gate_summary.txt")))
    states = _csv_rows(_read(os.path.join(out_dir, "gate_states.csv")))
    failures = []
    if summary.get("physics_checks") != "pass":
        failures.append("physics_checks not pass")
    backend = job["options"][1]
    if (job["config"]["schedule"] in TRUTH_TABLE_SCHEDULES
            and backend != "cavity" and summary.get("truth_table") != "pass"):
        failures.append("truth_table not pass")
    if not states:
        failures.append("no intermediate states written")
    return failures


def _check_feasibility(job, out_dir):
    summary = _summary(_read(os.path.join(out_dir, "feasibility.txt")))
    source = "derived-from-cps" if job["config"] else "default"
    failures = []
    if summary.get("t_op_source") != source:
        failures.append(f"t_op_source {summary.get('t_op_source')!r}, "
                        f"expected {source!r}")
    if summary.get("verdict") is None:
        failures.append("no verdict line")
    return failures


def scan_errors(out_dir: str) -> list[float]:
    rows = _csv_rows(_read(os.path.join(out_dir, "scan.csv")))
    return [float(r[1]) for r in rows]


def check_scan_errors(kind: str, errors: list[float]) -> list[str]:
    """Scan rows must be finite and fall strictly from coarse to fine; the
    rotating-wave scan must also stay below 1e-3 and halve its ratio with
    factors inside the (3, 5.5) band the package's own tests use."""
    if len(errors) != 3:
        return [f"{len(errors)} scan rows, expected 3"]
    if not all(math.isfinite(e) and e > 0 for e in errors):
        return [f"non-finite or non-positive error in {errors}"]
    failures = []
    if not all(errors[k] > errors[k + 1] for k in range(2)):
        failures.append(f"errors not monotone: {errors}")
    if kind == "rwa":
        if max(errors) >= 1e-3:
            failures.append(f"rotating-wave error {max(errors):.3e} >= 1e-3")
        for k in range(2):
            factor = errors[k] / errors[k + 1]
            if not 3.0 < factor < 5.5:
                failures.append(f"halving factor {factor:.3f} outside (3, 5.5)")
    return failures


def _check_scan(job, out_dir):
    text = _read(os.path.join(out_dir, "scan.csv"))
    failures = check_scan_errors(job["config"]["scan_kind"],
                                 scan_errors(out_dir))
    if "# monotone=pass" not in text:
        failures.append("scan.csv does not report monotone=pass")
    return failures


_CHECKS = {"spectrum": _check_spectrum, "gate": _check_gate,
           "feasibility": _check_feasibility, "scan": _check_scan}


def bytes_written(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, name))
               for name in os.listdir(out_dir))


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------

def closed_loop(runner, jobs, seconds=None, unit=1):
    """Run jobs one after another; `runner(job)` returns failure messages.

    With `seconds`, jobs are run in whole units of `unit` jobs, and the
    next unit starts only while the elapsed time plus half the mean unit
    time is below `seconds`: the run ends as close to `seconds` as whole
    units allow, and always runs at least one unit.  Without `seconds`,
    every job in `jobs` runs.
    """
    latencies, failures, failed = [], [], 0
    start = time.monotonic()
    end = start
    for n, job in enumerate(jobs):
        if seconds is not None and n and n % unit == 0 and \
                end - start + (end - start) / (n / unit) / 2 >= seconds:
            break
        t = time.monotonic()
        try:
            msgs = runner(job)
        except Exception as exc:  # a job that raises counts as failed
            msgs = [f"{type(exc).__name__}: {exc}"]
        end = time.monotonic()
        latencies.append(end - t)
        if msgs:
            failed += 1
            failures.extend(msgs[:2])
    return {"latencies_s": latencies, "failed": failed,
            "failures": failures[:10], "wall_s": end - start}


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail_percentile(n: int) -> int | None:
    """Highest whole percentile p >= 50 that leaves at least ten of n
    samples above its nearest-rank value, or None when n is too small."""
    for p in range(99, 49, -1):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return None


def latency_summary(latencies_s: list[float]) -> dict:
    """Median and tail latency (ms) with the tail's definition.  Below 20
    samples no percentile >= 50 has ten samples beyond it, and the tail is
    the maximum."""
    ordered = sorted(latencies_s)
    n = len(ordered)
    p = tail_percentile(n)
    if p is None:
        tail, label = ordered[-1], f"max (n={n} < 20)"
    else:
        tail, label = ordered[math.ceil(p * n / 100) - 1], f"p{p}"
    return {"samples": n, "p50_ms": 1e3 * statistics.median(ordered),
            "tail_ms": 1e3 * tail, "tail_percentile": label}
