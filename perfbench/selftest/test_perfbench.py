"""Self-test of the benchmark: tiny runs of every workload.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/selftest

Each test starts ``perfbench/run.py`` with ``--tiny`` (a few small inputs
per workload) and checks the printed result against ``BENCHMARK.json``.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(workload, *extra, trace=0, cwd=ROOT):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(
        [sys.executable if part == "python3" else part for part in cmd] + ["--tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def _units(result):
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float)) and not isinstance(value["value"], bool)
    return {name: value["unit"] for name, value in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    result = _result(_run(workload))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert _units(result) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    result = _result(_run(workload, trace=1))
    assert result["correct"]
    assert _units(result) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert result["metrics"]["cli.main.calls"]["value"] >= result["attempted"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_planted_wrong_answer_counts_as_failed(workload):
    result = _result(_run(workload, "--plant-wrong"))
    assert not result["correct"] and result["failed"] >= 1
    assert result["metrics"]["correct_share"]["value"] < 1.0


def test_refuses_to_run_without_the_program():
    bare = os.path.join(ROOT, ".perfbench_work", f"bare-{os.getpid()}")
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in BENCH["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(WORKLOADS[0], cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare)


def test_speed_samples_are_taken_out_of_the_measured_time():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import pace

    speed = pace.Pace()
    speed.start()
    try:
        with pace.Stopwatch(speed) as clock:
            while len(speed.seconds) < 5:
                sum(range(10000))
    finally:
        speed.stop()
    samples = list(zip(speed.starts, speed.seconds))
    inside = [s for t, s in samples if clock.start <= t <= clock.end]
    near = [s for t, s in samples if clock.start - pace.WINDOW_S <= t <= clock.end + pace.WINDOW_S]
    assert inside and 0 < clock.seconds < clock.end - clock.start - sum(inside)
    assert clock.reference_seconds() == pytest.approx(clock.seconds * pace.REFERENCE_S / statistics.median(near))
