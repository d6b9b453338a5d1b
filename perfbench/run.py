"""ghcseries benchmark: one seeded workload, checked against the reference.

    python3 perfbench/run.py --workload block-session --seed 1 --seconds 60 --trace 0

Run from the root of a checkout. Workloads (all closed loop, one client, one
process at a time):

  cli-cold       each op is a fresh `python -m ghcseries ...` process (run by
                 hand: its long rounds are too few per run to gate a change)
  char-deep      one process; `character` ladders through cli.main, E1 pages
                 and deep socles
  block-session  one process; central characters, multiplicity matrices,
                 socle characters and blocks on a session of pairs

Every op's exit code and stdout digest (CLI ops) or result digest / error
type (library ops) is compared with reference.json; golden commands are also
compared byte for byte with tests/golden/. Any mismatch fails the op and the
command exits 1. The last stdout line is the JSON result; with --trace 0 it
holds the end-to-end metrics, with --trace 1 the per-layer metrics from
traced runs of the same rounds as an untraced pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import common
import tracer

SETUP_SAMPLES = 9
OUT_DIR = ".perfbench_out"
IMPORT_READY = "import ghcseries, ghcseries.cli; print('{}', flush=True)"


class BenchError(Exception):
    """The benchmark cannot run here (no checkout, or a worker broke)."""


def spawn_ready(cmd: list[str], root: Path) -> tuple[subprocess.Popen, float]:
    """Start a process; time until its first stdout line, less its own benchmark work."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=root, env=common.child_env(root), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        if not line:
            raise BenchError(f"{cmd[1]} exited before it was ready")
        info = json.loads(line)
    except BaseException:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        raise
    return proc, elapsed - info.get("bench_s", 0.0)


def finish(proc: subprocess.Popen) -> dict:
    out = proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def setup_samples(cmd: list[str], root: Path, n: int, warm_up: bool) -> list[float]:
    """n fresh set-ups, after one untimed warm-up (which may compile bytecode) if asked."""
    samples = []
    for _ in range(n + warm_up):
        proc, seconds = spawn_ready(cmd, root)
        finish(proc)
        samples.append(seconds)
    return samples[warm_up:]


# ---------------------------------------------------------------- passes


@dataclass
class Pass:
    """What one pass over the rounds measured."""

    records: list = field(default_factory=list)  # [position, key, latency, outcome, golden ok]
    rounds: int = 0  # whole rounds run
    setup: list = field(default_factory=list)  # set-up time of each round's worker
    traced: list = field(default_factory=list)  # records of traced op runs
    spans: list = field(default_factory=list)
    process_s: float = 0.0  # traced CLI process time outside cli.main


def merge_spans(all_spans: list, spans: list, op_offset: int) -> None:
    """Append one process's spans, renumbering their ops and parents."""
    base = len(all_spans)
    for op, parent, *rest in spans:
        all_spans.append((op + op_offset, parent + base if parent >= 0 else -1, *rest))


def run_rounds(seconds: float, run_one) -> None:
    """Whole rounds, each by run_one(), while the next is expected to end within `seconds`.

    At least one round runs. Rounds are never cut, so every op of a round is
    measured equally often and per-round counts are exact.
    """
    t0 = time.perf_counter()
    rounds = 0
    while True:
        run_one()
        rounds += 1
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / rounds > seconds:
            return


def run_cli_pass(ops, root: Path, seconds: float, spans_dir: Path | None) -> Pass:
    """Rounds of fresh CLI processes, each op once per round.

    With spans_dir, every op runs twice in a row, plainly and then traced, so
    that the tracing overhead is measured on pairs and not across a drift of
    the machine.
    """
    env = common.child_env(root)
    run, main_s = Pass(), []
    golden_dir = root / "tests" / "golden"

    def run_once(pos, op, records, spans_path):
        if spans_path is None:
            cmd = [sys.executable, "-m", "ghcseries", *op["argv"]]
        else:
            spans_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(common.HERE / "traced_cli.py"), str(spans_path), *op["argv"]]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, check=False)
        latency = time.perf_counter() - t0
        golden_ok = not op.get("golden") or proc.stdout == (golden_dir / op["golden"]).read_bytes()
        outcome = f"{proc.returncode}:{common.digest(proc.stdout)}"
        records.append([pos, op["key"], latency, outcome, golden_ok])
        if spans_path is not None:
            spans = json.loads(spans_path.read_text())
            merge_spans(run.spans, spans, len(records) - 1)
            main_s.append(latency - sum(s[4] - s[3] for s in spans if s[2] == "cli.main"))

    def run_op(pos, op):
        run_once(pos, op, run.records, None)
        if spans_dir is not None:
            run_once(pos, op, run.traced, spans_dir / "op.json")

    def one_round():
        for pos, op in enumerate(ops):
            run_op(pos, op)
        run.rounds += 1

    run_rounds(seconds, one_round)
    run.process_s = sum(main_s)
    return run


def worker_cmd(workload: str, out: Path, name: str, **job) -> list[str]:
    """Command line of a fresh worker; its job file goes to `out`."""
    job = {"workload": workload, "ops": [], "trace": False, "setup_only": False,
           "spans_path": "", **job}
    job_path = out / f"job-{workload}-{name}.json"
    job_path.write_text(json.dumps(job))
    return [sys.executable, str(common.HERE / "worker.py"), str(job_path)]


def run_session_pass(workload, ops, root: Path, out: Path, seconds: float, trace: bool) -> Pass:
    """Rounds of char-deep or block-session ops, each round in a fresh worker.

    A fresh worker per round means every round pays the first build of
    whatever the library caches, as a new session would. With trace, each
    untraced round is followed by the same round in a traced worker.
    """
    run = Pass()
    untraced_cmd = worker_cmd(workload, out, "round", ops=ops)
    spans_path = out / "spans.json"
    traced_cmd = worker_cmd(workload, out, "traced", ops=ops, trace=True,
                            spans_path=str(spans_path))

    def one_round():
        proc, setup = spawn_ready(untraced_cmd, root)
        result = finish(proc)
        run.setup.append(setup)
        run.records += [[pos, key, lat, outcome, True] for pos, key, lat, outcome in result["ops"]]
        if trace:
            proc, _ = spawn_ready(traced_cmd, root)
            result = finish(proc)
            merge_spans(run.spans, json.loads(spans_path.read_text()), len(run.traced))
            run.traced += [[pos, key, lat, outcome, True]
                           for pos, key, lat, outcome in result["ops"]]
        run.rounds += 1

    run_rounds(seconds, one_round)
    return run


# ---------------------------------------------------------------- results


def check(records, reference: dict) -> list[str]:
    """Keys of the ops whose outcome differs from the reference."""
    return [
        key for _, key, _, outcome, golden_ok in records
        if reference.get(key) != outcome or not golden_ok
    ]


def op_latencies(records, calls: list[dict], fastest: bool) -> list[float]:
    """Op latencies of the run, sorted.

    With fastest, one value per op of a round: the op's fastest round.
    Otherwise every op of every round. An op is one call, except in
    block-session, where the calls that carry the same "op" index form one
    op and its latency is their sum. Records hold whole rounds in order.
    """
    op_of = common.op_index(calls)
    totals: dict[tuple[int, int], float] = {}
    for i, (pos, _, latency, _, _) in enumerate(records):
        key = (op_of[pos], i // len(calls))
        totals[key] = totals.get(key, 0.0) + latency
    if not fastest:
        return sorted(totals.values())
    best: dict[int, float] = {}
    for (op, _), latency in totals.items():
        best[op] = min(latency, best.get(op, latency))
    return sorted(best.values())


def end_to_end(run: Pass, calls: list[dict], setup: list[float], fastest: bool) -> dict:
    latencies = op_latencies(run.records, calls, fastest)
    per_round = len(set(common.op_index(calls)))
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (1000.0 * statistics.median(latencies), "ms"),
        "op_tail_ms": (
            1000.0 * common.nearest_rank(latencies, common.tail_percentile(per_round)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0, "MB"),
    }


def tail_weyl_share(records, spans, per_round: int) -> float:
    """Share of the tail ops' latency spent inside rootsys.weyl_group spans."""
    cut = common.nearest_rank(sorted(r[2] for r in records), common.tail_percentile(per_round))
    tail = {i for i, r in enumerate(records) if r[2] >= cut}
    inside = sum(s[4] - s[3] for s in spans if s[0] in tail and s[2] == "rootsys.weyl_group")
    return inside / sum(records[i][2] for i in tail)


def provenance(root: Path, workload: str, seed: int, per_round: int) -> dict:
    sha = "not a git checkout"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, check=False)
        sha = proc.stdout.strip() or sha
    src = b"".join(p.read_bytes() for p in sorted((root / "src" / "ghcseries").glob("*.py")))
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload, "seed": seed, "held_out_seed": common.HELD_OUT_SEED,
        "git_sha": sha, "src_digest": common.digest(src), "python": platform.python_version(),
        "nproc": os.cpu_count(), "cpu": cpu, "ops_per_round": per_round,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int, default=0,
                        help="run only the first N ops of each round (tiny runs for tests)")
    parser.add_argument("--reference", type=Path, default=common.REFERENCE)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "ghcseries" / "__init__.py").is_file():
        print("error: run from the root of a ghcseries checkout (no src/ghcseries here)",
              file=sys.stderr)
        return 2
    reference = common.load_reference(args.reference)
    ops = common.build_round(reference, args.workload, args.seed)
    if args.limit:
        ops = ops[: args.limit]
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    per_round = len(set(common.op_index(ops)))
    info = provenance(root, args.workload, args.seed, per_round)
    print("provenance " + json.dumps(info, sort_keys=True))

    expected = reference["outcomes"][args.workload]
    detail = {"provenance": info}
    # A traced run runs every untraced round again traced: op by op for
    # cli-cold, as a second fresh worker otherwise.
    if args.workload == "cli-cold":
        setup_cmd = [sys.executable, "-c", IMPORT_READY]
    else:
        setup_cmd = worker_cmd(args.workload, out, "setup", setup_only=True)
    # Set-up samples are taken before and after the timed part, so that one
    # slow spell of the machine does not decide their median.
    setup = [] if args.trace else setup_samples(setup_cmd, root, SETUP_SAMPLES // 2, True)
    if args.workload == "cli-cold":
        run = run_cli_pass(ops, root, args.seconds, out if args.trace else None)
    else:
        run = run_session_pass(args.workload, ops, root, out, args.seconds, bool(args.trace))
    if not args.trace:
        setup += run.setup + setup_samples(setup_cmd, root, SETUP_SAMPLES - SETUP_SAMPLES // 2,
                                           False)

    records, traced, rounds, spans = run.records, run.traced, run.rounds, run.spans
    all_records = records + traced
    failures = check(all_records, expected)
    attempted = len(all_records)
    print(f"{per_round} ops ({len(ops)} calls) per round x {rounds} rounds; "
          f"attempted {attempted} calls")
    print(f"fail_ratio {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
    for key in failures[:10]:
        print(f"  FAILED {key}")

    if args.trace:
        untraced_s = sum(r[2] for r in records)
        traced_s = sum(r[2] for r in traced)
        values = tracer.per_layer(spans, rounds, run.process_s, traced_s / untraced_s)
        units = tracer.metric_names()
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        self_total = sum(values[f"{layer}.self_s"] for layer in tracer.LAYERS) * rounds
        detail["trace"] = {
            "untraced_op_s": untraced_s, "traced_op_s": traced_s,
            "self_sum_s": self_total + run.process_s, "rounds": rounds,
            "layer_share": {layer: values[f"{layer}.self_s"] * rounds / traced_s
                            for layer in tracer.LAYERS},
        }
        detail["trace"]["tail_ops_weyl_share"] = tail_weyl_share(traced, spans, len(ops))
        shares = detail["trace"]["layer_share"]
        print("layer self-time share " + " ".join(f"{k}={v:.3f}" for k, v in shares.items()))
        print(f"ops at or above the tail percentile spend "
              f"{detail['trace']['tail_ops_weyl_share']:.3f} of their time in rootsys.weyl_group")
    else:
        pct = common.tail_percentile(per_round)
        fastest = args.workload in common.FASTEST_ROUND_WORKLOADS
        e2e = end_to_end(run, ops, setup, fastest)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}
        latency = (f"each op's fastest of {rounds} rounds" if fastest
                   else f"all {per_round * rounds} ops of {rounds} rounds")
        print(f"op latencies are {latency}; op_tail_ms is p{pct:g} (nearest rank), "
              f"fixed by the {per_round} ops of a round")
        detail["setup_samples_s"] = setup
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    detail.update({"metrics": metrics, "records": all_records, "failures": failures})
    detail_path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(detail, indent=1))
    print(f"details {detail_path.relative_to(root)}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": metrics,
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(2)
