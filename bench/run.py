"""Benchmark of squidqed: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Workloads: cli_session, gate_batch,
flux_sweep, rwa_scan (see bench/README.md).  With ``--trace 0`` the jobs
run without tracing in a closed loop for about ``--seconds`` and the
result carries the end-to-end metrics; with ``--trace 1`` the workload's
fixed job list runs once untraced and once traced in one process and the
result carries the per-layer metrics.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics;
the line before it holds the details (environment, tail percentile,
sample counts, failure messages), which are also written to
bench/out/results/.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from workloads import (OUT, ROOT, SRC, SUBPROCESS_WORKLOADS, UNIT_JOBS,
                       WORKLOADS, check_cli_job, child_env, cli_argv, cli_jobs,
                       closed_loop, latency_summary)

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")

#: Fresh-process set-ups per run; their median is `setup_s`.
SETUP_SAMPLES = 3
#: Fresh interpreters per import-time probe in a traced run.
IMPORT_SAMPLES = 3
#: Every process the benchmark starts must be done by this many seconds
#: after it starts.
HARD_LIMIT_S = 170.0


class Budget:
    """Seconds left before the hard limit of this run."""

    def __init__(self):
        self.start = time.monotonic()

    def left(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.start)


def spawn(argv, env, budget, **kw):
    """Start a process in its own session, so a timeout kills its whole
    group; return (seconds, exit code, peak RSS in KB of it and its
    reaped children)."""
    t0 = time.monotonic()
    proc = subprocess.Popen(argv, env=env, start_new_session=True, **kw)
    done = threading.Event()

    def kill():
        if not done.is_set():
            os.killpg(proc.pid, signal.SIGKILL)
    timer = threading.Timer(max(budget.left(), 0.0), kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        done.set()
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return time.monotonic() - t0, proc.returncode, usage.ru_maxrss


def run_worker(mode, workload, seed, env, budget, extra=()):
    """Start worker.py and return its JSON result (t0 is taken here)."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, WORKER, mode, workload, str(seed), repr(t0),
         *map(str, extra)],
        env=env, cwd=HERE, capture_output=True, text=True,
        timeout=max(budget.left(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} {workload} exited "
                           f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class CliProcesses:
    """Runs each command-line job as a fresh `python -m squidqed` process
    and checks its output files; keeps the peak RSS over all jobs."""

    def __init__(self, env, budget, work_root):
        self.env, self.budget, self.work_root = env, budget, work_root
        self.peak_rss_kb = 0
        self._n = 0

    def __call__(self, job: dict) -> list[str]:
        self._n += 1
        work = os.path.join(self.work_root, f"job{self._n}")
        argv = [sys.executable, "-m", "squidqed"] + cli_argv(job, work)
        with open(os.path.join(work, "stderr.txt"), "w") as err:
            _, code, rss_kb = spawn(argv, self.env, self.budget, cwd=work,
                                    stdout=subprocess.DEVNULL, stderr=err)
        self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        msgs = check_cli_job(job, code, os.path.join(work, "out"))
        shutil.rmtree(work, ignore_errors=True)
        return msgs


def import_probes(env, budget) -> dict:
    """Interpreter start, package import and the scipy.linalg share of it,
    each in fresh interpreters."""
    def wall(code):
        return statistics.median(
            spawn([sys.executable, "-c", code], env, budget,
                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)[0]
            for _ in range(IMPORT_SAMPLES))
    interp = wall("pass")
    imported = wall("import squidqed.cli")
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import squidqed.cli"], env=env, capture_output=True,
                          text=True, timeout=max(budget.left(), 1.0))
    linalg_us = 0
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == "scipy.linalg":
            linalg_us = int(parts[1])
    return {"cli.interpreter_s": interp, "cli.import_s": imported - interp,
            "cli.import_scipy_linalg_s": linalg_us / 1e6}


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "commit": git_commit()}


def git_commit() -> str:
    """HEAD commit read from .git without running git (the benchmark may
    run in an exported tree that has none)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (no .git)"


def run_untraced(workload, seed, seconds, env, budget, work_root):
    setups, env_info = [], None
    n_probes = SETUP_SAMPLES - (0 if workload in SUBPROCESS_WORKLOADS else 1)
    for i in range(n_probes):
        res = run_worker("setup", workload, seed, env, budget,
                         extra=("env",) if i == 0 else ())
        setups.append(res["setup_s"])
        env_info = res.get("env", env_info)
    if workload in SUBPROCESS_WORKLOADS:
        runner = CliProcesses(env, budget, work_root)
        res = closed_loop(runner, itertools.cycle(cli_jobs(workload, seed)),
                          seconds, UNIT_JOBS.get(workload, 1))
        res["peak_rss_kb"] = runner.peak_rss_kb
    else:
        res = run_worker("run", workload, seed, env, budget, extra=(seconds,))
        setups.append(res["setup_s"])
    lat = latency_summary(res["latencies_s"])
    metrics = {"setup_s": statistics.median(setups),
               "jobs_per_s": len(res["latencies_s"]) / res["wall_s"],
               "job_p50_ms": lat["p50_ms"], "job_tail_ms": lat["tail_ms"],
               "peak_rss_mb": res["peak_rss_kb"] / 1024.0}
    details = {"setup_samples_s": setups, "latency": lat,
               "failures": res["failures"], "env": env_info}
    return metrics, len(res["latencies_s"]), res["failed"], details


def run_traced(workload, seed, env, budget):
    metrics = import_probes(env, budget)
    res = run_worker("trace", workload, seed, env, budget)
    metrics.update(res["metrics"])
    details = {"env": res["env"], "failures": res["failures"]}
    return metrics, len(res["latencies_s"]), res["failed"], details


def spec_units(trace: bool) -> dict:
    """Metric name -> unit, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "squidqed", "__init__.py")):
        print(f"bench: no package source under {SRC}", file=sys.stderr)
        return 2
    units = spec_units(bool(args.trace))
    budget = Budget()
    env = child_env()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_root = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(work_root, exist_ok=True)
    try:
        if args.trace:
            values, attempted, failed, details = run_traced(
                args.workload, args.seed, env, budget)
        else:
            values, attempted, failed, details = run_untraced(
                args.workload, args.seed, args.seconds, env, budget, work_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    missing = sorted(set(units) - set(values))
    if missing:
        print(f"bench: metrics not measured: {missing}", file=sys.stderr)
        return 3
    details.update(machine())
    details.update({"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace,
                    "attempted": attempted, "failed": failed,
                    "failed_frac": failed / attempted})
    result = {"correct": failed == 0 and attempted > 0,
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": values[k], "unit": units[k]}
                          for k in units}}
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", tag + ".json"), "w",
              encoding="utf-8") as fh:
        json.dump({"result": result, "details": details}, fh, indent=1)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
