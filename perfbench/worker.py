"""One workload in one fresh process: set-up, timed query phase, answer check.

Started by ``run.py`` from the root of a checkout; imports ``qtl`` from
``./src`` only.  Every query goes through ``qtl.cli.main`` in process with
its standard output captured, one query after the other (a closed loop
with one client).  Known answers are checked after the timed phase, so
oracle time counts in no metric.  The result is written as JSON to
``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import sys

ROOT = os.getcwd()
WORK_ROOT = ".perfbench_work"

# Per-query time limit: well above the slowest query at the seed commit
# (about 17-22 s for the 2-qubit reach), low enough that a run still ends
# inside its own time budget.
QUERY_LIMIT_S = 60.0
SETUP_REPS = 5


class QueryTimeout(BaseException):
    """Raised by the alarm handler; not an Exception, so no handler in the
    program under test can swallow it."""


def _import_qtl():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import qtl
    import qtl.cli

    if not os.path.abspath(qtl.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"qtl was imported from {qtl.__file__}, not from {src}")
    return qtl


def _on_alarm(signum, frame):
    raise QueryTimeout()


def run_query(qtl, argv, clock):
    """(stopwatch, exit code or None, stdout, error text or None)."""
    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, QUERY_LIMIT_S)
    rc, error = None, None
    try:
        with clock, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = qtl.cli.main(argv)
    except QueryTimeout:
        error = f"time limit of {QUERY_LIMIT_S:g} s"
    except Exception as exc:  # a query that raises is a failed query, not a failed run
        error = f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    if rc not in (0, 1, 2) and error is None:
        error = f"exit code {rc}: {err.getvalue().strip()}"
    return clock, rc, out.getvalue(), error


def _versions():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--plant-wrong", action="store_true", dest="plant_wrong")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    qtl = _import_qtl()
    import pace
    import tracing
    import workloads

    signal.signal(signal.SIGALRM, _on_alarm)
    work = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    tracer = tracing.Tracer() if args.trace else None
    # The traced run takes no speed samples: they would land in the spans.
    speed = None if args.trace else pace.Pace()
    try:
        if speed is not None:
            speed.start()
        setups = []
        for rep in range(SETUP_REPS):
            rep_dir = os.path.join(work, f"setup{rep}")
            os.makedirs(rep_dir)
            if tracer is not None and rep == SETUP_REPS - 1:
                tracer.install()  # one traced set-up, then the traced queries
                tracer.set_query("setup")
            with pace.Stopwatch(speed) as clock:
                plan = workloads.SETUP[args.workload](
                    lambda a: qtl.cli.main(a), rep_dir, random.Random(args.seed), args.tiny
                )
            setups.append(clock)

        prologue, passes = plan.passes(args.seconds)
        records = []

        def run_pass(queries, index):
            for query in queries:
                if tracer is not None:
                    tracer.set_query(f"p{index}.{query.qid}")
                clock, rc, stdout, error = run_query(qtl, query.argv, pace.Stopwatch(speed))
                records.append({"pass": index, "qid": query.qid, "clock": clock, "rc": rc,
                                "stdout": stdout, "error": error})

        with pace.Stopwatch(speed) as phase:
            run_pass(prologue, -1)
            for index, queries in enumerate(passes):
                run_pass(queries, index)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if speed is not None:
            speed.stop()
        for rec in records:
            clock = rec.pop("clock")
            rec["seconds"], rec["ref_seconds"] = clock.seconds, clock.reference_seconds()

        if tracer is not None:
            tracer.uninstall()
            tracer.dump(os.path.join(WORK_ROOT, f"spans-{args.workload}.bin"))

        oracle = workloads.Oracle(plan, plant_wrong=args.plant_wrong)
        by_qid = {q.qid: q for q in plan.queries}
        for rec in records:
            query = by_qid[rec["qid"]]
            rec["decided"] = False
            if rec["error"] is not None:
                rec["ok"], rec["detail"] = False, rec["error"]
                continue
            output = json.loads(rec["stdout"])
            rec["status"] = output.get("status")
            rec["decided"] = query.kind != "check" or output["status"] in ("valid", "not_valid")
            try:
                rec["ok"], rec["detail"] = oracle.verify(query, output)
            except Exception as exc:  # an oracle that cannot check is reported, not hidden
                rec["ok"], rec["detail"] = None, f"oracle raised {type(exc).__name__}: {exc}"
            rec["output"] = output

        result = {
            "workload": args.workload,
            "seed": args.seed,
            "setup_s": [clock.seconds for clock in setups],
            "setup_ref_s": [clock.reference_seconds() for clock in setups],
            "passes": len(passes),
            "queries_per_pass": [len(queries) for queries in passes],
            "once_per_run": len(prologue),
            "query_phase_s": phase.seconds,
            "pace": speed.summary() if speed is not None else None,
            "peak_rss_mb": peak_rss_mb,
            "conditions": _versions(),
            "conservative_until": sorted(set(oracle.conservative)),
            "records": [
                {key: rec.get(key) for key in ("pass", "qid", "seconds", "ref_seconds", "rc", "error", "decided", "status", "ok", "detail")}
                | {"argv": by_qid[rec["qid"]].argv}
                for rec in records
            ],
        }
        if tracer is not None:
            result["layers"] = tracing.layer_metrics(tracer, [rec.get("output") for rec in records])
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
