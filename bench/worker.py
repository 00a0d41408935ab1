"""Worker process of the benchmark.  Started by run.py, never by hand.

    python worker.py setup <workload> <seed> <t0> [env]
    python worker.py run   <workload> <seed> <t0> <seconds>
    python worker.py trace <workload> <seed> <t0>

Every mode first imports the package and finishes the workload's warm-up;
``setup_s`` is the time from `t0` (the client's monotonic clock just
before it started this process) to that point.  `setup` stops there;
`run` then runs jobs in a closed loop for about `seconds`; `trace` runs
each job of the workload's fixed list once untraced and once traced.  The
result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

MODE, WORKLOAD, SEED, T0 = sys.argv[1], sys.argv[2], int(sys.argv[3]), \
    float(sys.argv[4])

# The CLI workloads' set-up is the import `python -m squidqed` does; their
# names are spelled out (as in workloads.SUBPROCESS_WORKLOADS) so that no
# benchmark module is imported before the clock is read.
if WORKLOAD in ("cli_session", "rwa_scan") and MODE == "setup":
    import squidqed.cli  # noqa: F401
    SETUP_S = time.monotonic() - T0
else:
    import inproc
    from workloads import OUT, TRACE_JOBS, closed_loop
    WORK = os.path.join(OUT, f"work-{os.getpid()}")
    MAKE_RUNNER, STREAM, WARMUP = inproc.make(WORKLOAD, SEED, WORK)
    RUNNER = MAKE_RUNNER()
    for job in WARMUP:
        RUNNER(job)
    SETUP_S = time.monotonic() - T0


def environment() -> dict:
    """Library and machine facts recorded with every result."""
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "thread_caps": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}


def main() -> dict:
    result = {"setup_s": SETUP_S}
    if MODE == "setup":
        if len(sys.argv) > 5:
            result["env"] = environment()
        return result
    if MODE == "run":
        result.update(closed_loop(RUNNER, STREAM, float(sys.argv[5])))
    else:
        result.update(trace())
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return result


def trace() -> dict:
    """Run the fixed job list twice, once traced and once not, alternating
    which goes first job by job so that both see the same machine state;
    each side has its own runner."""
    import itertools
    import shutil
    import tracer

    jobs = list(itertools.islice(STREAM, TRACE_JOBS[WORKLOAD]))
    tr = tracer.Tracer()
    sides = {False: RUNNER, True: MAKE_RUNNER()}
    wall = {False: 0.0, True: 0.0}
    latencies, failures, failed = [], [], 0
    for i, job in enumerate(jobs):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tr.job = i
                tr.install()
            try:
                res = closed_loop(sides[traced], [job])
            finally:
                tr.uninstall()
            wall[traced] += res["wall_s"]
            latencies += res["latencies_s"]
            failed += res["failed"]
            failures += res["failures"]
    os.makedirs(OUT, exist_ok=True)
    tr.write(os.path.join(OUT, f"spans-{WORKLOAD}-seed{SEED}.json"))
    shutil.rmtree(WORK, ignore_errors=True)
    metrics = tracer.layer_metrics(tr)
    metrics["cli.bytes_written"] = getattr(sides[True], "bytes_written", 0)
    metrics["trace.jobs"] = len(jobs)
    metrics["trace.untraced_wall_s"] = wall[False]
    metrics["trace.traced_wall_s"] = wall[True]
    metrics["trace.overhead_s"] = wall[True] - wall[False]
    metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / wall[False]
    return {"metrics": metrics, "env": environment(), "latencies_s": latencies,
            "failed": failed, "failures": failures[:10]}


if __name__ == "__main__":
    print(json.dumps(main()))
