"""Benchmark of the qtl verifier: one workload per run, end to end.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exit-reach --seed 1 --seconds 35 --trace 0

Each run starts the workload in a fresh single-threaded child process
(``worker.py``), so peak memory is the workload's own.  With ``--trace 0``
the last line of standard output is a JSON object with the end-to-end
metrics; with ``--trace 1`` a second, traced child runs the same passes and
the last line carries the per-layer metrics and the tracing overhead.  The
lines before it record the run conditions and every failing query.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

WORKLOADS = ("exit-reach", "lattice-small", "lattice-large")

END_TO_END = [
    ("setup_s", "s"),
    ("verdicts_per_s", "1/s"),
    ("verdict_s.p50", "s"),
    ("verdict_s.p90", "s"),
    ("decided_share", "fraction"),
    ("correct_share", "fraction"),
    ("peak_rss_mb", "MB"),
]

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# A run, traced or not, must end within this many seconds.
RUN_BUDGET_S = 175


def _child(args, trace, timeout):
    out = os.path.join(".perfbench_work", f"result-{args.workload}-{os.getpid()}-{trace}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
           "--out", out]
    cmd += ["--tiny"] * args.tiny + ["--plant-wrong"] * args.plant_wrong
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    try:
        proc = subprocess.run(cmd, env=env, timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"workload process exited with {proc.returncode}")
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        if os.path.exists(out):
            os.remove(out)


def end_to_end(result) -> dict:
    """The end-to-end metrics of one run.  Times are in reference seconds
    (``pace.py``): each interval's wall time scaled by how fast the host ran
    the fixed reference work around it.  The latency percentiles pool every
    query of the passes; throughput and the shares count every query of
    the run."""
    records = result["records"]
    completed = sum(r["error"] is None for r in records)
    failed = sum(r["ok"] is False for r in records)
    timed = [r["ref_seconds"] for r in records if r["pass"] >= 0]
    return {
        "setup_s": statistics.median(result["setup_ref_s"]),
        "verdicts_per_s": completed / sum(r["ref_seconds"] for r in records),
        "verdict_s.p50": statistics.median(timed),
        "verdict_s.p90": statistics.quantiles(timed, n=10, method="inclusive")[-1],
        "decided_share": sum(r["decided"] for r in records) / len(records),
        "correct_share": 1.0 - failed / len(records),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def report(result, metrics, units, other_failed=()):
    """Print the run conditions, each failing or unchecked query once, and
    the result line; ``other_failed`` are failures of the untraced run that
    precedes a traced one."""
    records = result["records"]
    failed = [r for r in records if r["ok"] is False]
    unchecked = [r for r in records if r["ok"] is None]
    info = {
        "workload": result["workload"],
        "seed": result["seed"],
        "conditions": result["conditions"] | {var: "1" for var in THREAD_VARS},
        "passes": result["passes"],
        "queries_per_pass": result["queries_per_pass"],
        "queries_once_per_run": result["once_per_run"],
        "verdict_s_samples": len(records),
        "setup_runs": len(result["setup_s"]),
        "wall_setup_s": result["setup_s"],
        "wall_query_phase_s": result["query_phase_s"],
        "reference_work": result["pace"],
        "unchecked": len(unchecked),
        "conservative_until": result["conservative_until"],
    }
    print(json.dumps({"run": info}))
    listed = set()
    for r in list(other_failed) + failed + unchecked:  # each query once, with its first failure
        if r["qid"] not in listed:
            listed.add(r["qid"])
            print(json.dumps({"failed" if r["ok"] is False else "unchecked": r}))
    print(json.dumps({
        "correct": not failed and not other_failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    parser.add_argument("--plant-wrong", action="store_true", dest="plant_wrong",
                        help="plant one wrong known answer, for the self-test")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join("src", "qtl")):
        print("error: run from the root of a qtl-verifier checkout (src/qtl is missing)", file=sys.stderr)
        return 2
    os.makedirs(".perfbench_work", exist_ok=True)
    start = time.monotonic()
    try:
        untraced = _child(args, 0, RUN_BUDGET_S / (2 if args.trace else 1))
        if not args.trace:
            report(untraced, end_to_end(untraced), END_TO_END)
            return 0
        import tracing

        traced = _child(args, 1, RUN_BUDGET_S - (time.monotonic() - start))
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = traced["query_phase_s"] - untraced["query_phase_s"]
    print(json.dumps({"untraced_end_to_end": end_to_end(untraced)}))
    report(traced, layers, tracing.PER_LAYER, [r for r in untraced["records"] if r["ok"] is False])
    return 0


if __name__ == "__main__":
    sys.exit(main())
