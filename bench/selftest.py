"""Self-test of the benchmark: its checks catch failures, and the counts
of a traced run repeat exactly.

    python3 bench/selftest.py [--workloads cli_session,gate_batch,...]

Negative controls: a controlled-phase schedule bent by
`verify.corrupt_first_pulse` must fail a gate pass; a command-line job
that exits non-zero must count as failed, whether it runs as a process or
in-process; a mirrored flux pair whose biases do not mirror, and
rotating-wave scan rows that break monotonicity or the halving band,
must fail their checks.  Then every chosen workload gets two traced runs
with the same seed, whose counts must be equal.  Takes about two minutes
with rwa_scan, which alone traces a 20 s scan twice per run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from workloads import (OUT, SRC, THREAD_CAPS, WORKLOADS, check_scan_errors,
                       child_env, closed_loop)

os.environ.update(THREAD_CAPS)
sys.path.insert(0, SRC)

import inproc  # noqa: E402  (after the thread caps and the source path)
import run  # noqa: E402
from squidqed import verify  # noqa: E402

#: Per-layer metrics that are counts and must repeat exactly.
COUNTS = ("cli.main.calls", "cli.bytes_written",
          "squid.solve.checked.calls", "squid.solve.unchecked.calls",
          "squid.lambda_check.calls", "hamiltonians.generator_evals",
          "hamiltonians.generator_out_bytes.computed",
          "verify.rwa_error_scan.calls", "dynamics.evolve_timedep.calls",
          "dynamics.evolve_const.calls", "protocols.execute.analytic.calls",
          "protocols.execute.vacuum.calls", "protocols.execute.cavity.calls",
          "verify.check_truth_table.calls",
          "verify.computational_propagator.calls",
          "verify.photon_excursion.calls",
          "verify.dispersive_error_scan.calls", "verify.execute_runs",
          "verify.execute_reruns", "hilbert.operator_constructions",
          "hilbert.matexp_unitary.calls", "feasibility.assess.calls",
          "feasibility.gate_time_estimate.calls", "trace.jobs", "trace.spans")

SEED = 3

BAD_CLI_JOB = {"name": "gate-unknown-schedule", "command": "gate",
               "config": {"schedule": "no-such-schedule"}, "options": []}


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        raise SystemExit(1)


def negative_controls() -> None:
    make_runner, stream, _ = inproc.make("gate_batch", 7, "")
    good = next(stream)
    bad = dict(good, schedules=dict(
        good["schedules"], cps=verify.corrupt_first_pulse(
            good["schedules"]["cps"])))
    res = closed_loop(make_runner(), [good, bad])
    expect(res["failed"] == 1 and any("cps truth table" in f
                                      for f in res["failures"]),
           f"gate_batch: corrupted cps pass counted failed ({res['failures'][:1]})")

    work = os.path.join(OUT, f"selftest-{os.getpid()}")
    good_cli = inproc.cli_jobs("cli_session", 7)[0]
    res = closed_loop(run.CliProcesses(child_env(), run.Budget(), work),
                      [good_cli, BAD_CLI_JOB])
    expect(res["failed"] == 1,
           f"cli process: non-zero exit counted failed ({res['failures']})")
    res = closed_loop(inproc.InProcessCli(work), [good_cli, BAD_CLI_JOB])
    expect(res["failed"] == 1,
           f"cli in-process: non-zero exit counted failed ({res['failures']})")

    res = closed_loop(inproc.run_flux_job,
                      [{"kind": "pair", "biases": (0.503, 0.497)},
                       {"kind": "pair", "biases": (0.503, 0.4975)}])
    expect(res["failed"] == 1, f"flux_sweep: broken mirror pair counted "
                               f"failed ({res['failures']})")

    good_rwa = [2.91e-5, 7.26e-6, 1.79e-6]
    expect(not check_scan_errors("rwa", good_rwa)
           and check_scan_errors("rwa", [2.91e-5, 1.79e-6, 7.26e-6])
           and check_scan_errors("rwa", [2.91e-5, 2.91e-6, 2.91e-7])
           and check_scan_errors("rwa", [2.0e-3, 5.0e-4, 1.25e-4]),
           "rwa_scan: non-monotone, out-of-band and too-large errors fail")


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, run.__file__, "--workload",
                           workload, "--seed", str(seed), "--seconds", "1",
                           "--trace", "1"], capture_output=True, text=True,
                          check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"traced {workload} run not correct: {result}")
    return {k: result["metrics"][k]["value"] for k in COUNTS}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args()
    negative_controls()
    for workload in args.workloads.split(","):
        first = traced_counts(workload, SEED)
        second = traced_counts(workload, SEED)
        diff = {k: (first[k], second[k]) for k in COUNTS
                if first[k] != second[k]}
        expect(not diff, f"{workload}: traced counts repeat exactly "
                         f"{diff or ''}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
