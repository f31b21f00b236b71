"""Closed-loop job runner: one client, one job at a time, no threads.

Run as a child of run.py so that its peak resident memory belongs to
the program under test alone:

    python3 perfbench/worker.py SPEC.json RESULT.json

SPEC holds the job list, the mode and the time budget.  Every job is one
in-process call to ``isofold.cli.main`` on files the benchmark wrote.

Modes:
  measure  untraced, jobs in order (cycling) until the budget is spent.
  trace    untraced for half the budget, then the same jobs traced; the
           pair gives the tracing overhead and a byte-identity check.
  build    set-up only: run every job once, untimed for the result,
           keeping each construction's step counters.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import isofold  # noqa: E402
from isofold import cli  # noqa: E402

import tracer  # noqa: E402


def job_argv(job: dict, tag: str) -> list:
    """CLI arguments for a job; output files are tagged per attempt."""
    if job["kind"] == "verify":
        return ["verify", "--map", job["map"], "--instance", job["input"]]
    argv = ["extend", "--input", job["input"], "--output", f"{job['stem']}.{tag}.map.json"]
    if job.get("svg"):
        argv += ["--svg", f"{job['stem']}.{tag}.svg"]
    return argv + list(job.get("extra", ()))


def run_job(job: dict, tag: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    argv = job_argv(job, tag)
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is a failed job, not a failed run
            code = None
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
    return {
        "tag": tag,
        "code": code,
        "error": error,
        "wall_s": wall,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
    }


def closed_loop(jobs, seconds: float, prefix: str) -> list:
    """Run jobs in order, cycling, starting none after the budget is spent."""
    records = []
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        index = k % len(jobs)
        rec = run_job(jobs[index], f"{prefix}{k}")
        rec["job"] = index
        records.append(rec)
        k += 1
    return records


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as handle:
        spec = json.load(handle)
    jobs = spec["jobs"]
    result = {
        "env": {
            "python": sys.version.split()[0],
            "rational_backend": isofold.rational_backend(),
            "kernel_backend": isofold.kernel_backend(),
        },
    }
    if spec.get("warmup"):
        run_job(spec["warmup"], "warmup")

    mode = spec["mode"]
    if mode == "build":
        tr = tracer.Tracer(only={tracer.CONSTRUCTION_SPAN})
        result["records"] = []
        with tr.installed():
            for index, job in enumerate(jobs):
                tr.job = index
                rec = run_job(job, "build")
                rec["job"] = index
                result["records"].append(rec)
        result["constructions"] = tr.constructions
    elif mode == "measure":
        result["records"] = closed_loop(jobs, spec["seconds"], "u")
    elif mode == "trace":
        # Untraced first, while the heap is still free of trace records,
        # then the same jobs traced; the pair gives the overhead.
        untraced = closed_loop(jobs, spec["seconds"] / 2, "u")
        tr = tracer.Tracer()
        traced = []
        with tr.installed():
            for k, rec in enumerate(untraced):
                tr.job = k
                again = run_job(jobs[rec["job"]], f"t{k}")
                again["job"] = rec["job"]
                traced.append(again)
        result["records"] = traced
        result["untraced"] = untraced
        result["per_layer"] = tr.metrics(
            len(traced),
            sum(r["wall_s"] for r in traced),
            sum(r["wall_s"] for r in untraced),
        )
        result["constructions"] = tr.constructions
        result["trace_missing"] = tr.missing
    else:
        raise SystemExit(f"unknown mode {mode!r}")

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
