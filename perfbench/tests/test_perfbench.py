"""Tests of the benchmark itself, on tiny runs (a few ops, one round).

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))

import common  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

TINY = {"cli-cold": 5, "char-deep": 6, "block-session": 8}
SEED = 3


def run_bench(workload: str, trace: int, *extra: str):
    proc = subprocess.run(
        [
            sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
            "--limit", str(TINY[workload]), *extra,
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr
    return proc, json.loads(lines[-1])


def details(workload: str, trace: int) -> dict:
    path = ROOT / ".perfbench_out" / f"{workload}-seed{SEED}-trace{trace}.json"
    return json.loads(path.read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", common.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc, result = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    printed = proc.stdout.splitlines()
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(
            line.startswith(m["name"] + " ") and line.endswith(" " + m["unit"]) for line in printed
        ), m["name"]
    assert any(line.startswith("fail_ratio 0 ") for line in printed)


@pytest.mark.parametrize("workload", common.WORKLOADS)
def test_gate_catches_a_corrupted_reference_digest(workload, tmp_path):
    reference = common.load_reference()
    victim = common.build_round(reference, workload, SEED)[0]["key"]
    reference["outcomes"][workload][victim] = "0:0123456789abcdef"
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(reference))
    proc, result = run_bench(workload, 0, "--reference", str(corrupted))
    assert proc.returncode == 1
    assert not result["correct"]
    assert result["failed"] >= 1
    assert set(details(workload, 0)["failures"]) == {victim}
    assert f"FAILED {victim}" in proc.stdout


@pytest.mark.parametrize("workload", common.WORKLOADS)
def test_self_times_add_up_to_traced_wall_time(workload):
    proc, _ = run_bench(workload, 1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    trace = details(workload, 1)["trace"]
    traced, untraced, self_sum = trace["traced_op_s"], trace["untraced_op_s"], trace["self_sum_s"]
    assert self_sum <= traced * (1 + 1e-9)
    assert traced - self_sum <= max(traced - untraced, 0.0) + 0.05 * traced


@pytest.mark.parametrize("workload", common.WORKLOADS)
def test_rounds_are_seeded_and_covered_by_the_reference(workload):
    reference = common.load_reference()
    outcomes = reference["outcomes"][workload]
    rounds = [common.build_round(reference, workload, seed) for seed in range(40)]
    assert rounds[0] == common.build_round(reference, workload, 0)
    assert len({json.dumps(r) for r in rounds}) > 1
    for ops in rounds:
        assert all(op["key"] in outcomes for op in ops)
        assert common.tail_percentile(len(set(common.op_index(ops)))) > 50


def test_tail_percentile_leaves_ten_ops_beyond():
    for n in (11, 20, 62, 150, 1000):
        pct = common.tail_percentile(n)
        index = common.nearest_rank(list(range(n)), pct)
        assert n - 1 - index >= 10


def test_op_latencies_pool_rounds_or_take_each_ops_fastest():
    calls = [{"key": "a", "op": 0}, {"key": "b", "op": 0}, {"key": "c", "op": 1}]
    latencies = [1.0, 2.0, 10.0, 5.0, 1.0, 30.0, 2.0, 2.0, 20.0]  # three rounds
    records = [[i % 3, calls[i % 3]["key"], lat, "", True] for i, lat in enumerate(latencies)]
    assert run.op_latencies(records, calls, False) == [3.0, 4.0, 6.0, 10.0, 20.0, 30.0]
    assert run.op_latencies(records, calls, True) == [3.0, 10.0]
    assert common.op_index([{"key": "x"}, {"key": "y"}]) == [0, 1]
    measured = run.Pass(records=records, rounds=3)
    pooled = run.end_to_end(measured, calls, [0.1, 0.3, 0.2], False)
    assert pooled["ops_per_s"][0] == 6 / 73.0
    assert pooled["op_p50_ms"][0] == 8000.0
    assert pooled["setup_s"][0] == 0.2
    fastest = run.end_to_end(measured, calls, [0.1, 0.3, 0.2], True)
    assert fastest["ops_per_s"][0] == 2 / 13.0
    assert fastest["op_p50_ms"][0] == 6500.0


def test_self_time_subtracts_child_spans():
    spans = [
        (0, -1, "cli.main", 0.0, 10.0, 0, None),
        (0, 0, "rootsys.weyl_group", 1.0, 4.0, 384, "C4"),
        (0, 0, "report.render_json", 5.0, 6.0, 100, None),
    ]
    assert tracer.self_times(spans) == [6.0, 3.0, 1.0]
    values = tracer.summarize(spans)
    assert values["cli.self_s"] == 6.0
    assert values["rootsys.weyl_group.incl_s.C4"] == 3.0
    assert values["rootsys.weyl_group.elements"] == 384
