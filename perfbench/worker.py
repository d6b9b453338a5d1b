"""One fresh process running one round of a char-deep or block-session job.

    python3 perfbench/worker.py JOB_JSON

The job names the workload and the ops of one round. The worker imports
ghcseries and builds the workload's pairs (its set-up), then prints one JSON
line: {"bench_s": ...}, the time it spent before that line on benchmark work
(reading the job, installing the tracer). With "setup_only" it exits there.
Otherwise it runs each op of the round once, in order, and prints one JSON
line with each op's position, key, latency and outcome.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    bench_s = time.perf_counter() - T_START

    from ops import Session

    tracer = None
    if job["trace"]:
        t0 = time.perf_counter()
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        bench_s += time.perf_counter() - t0
    session = Session(job["workload"])
    if tracer is not None:
        tracer.spans.clear()
    print(json.dumps({"bench_s": bench_s}), flush=True)
    if job["setup_only"]:
        return 0

    results = []
    for pos, op in enumerate(job["ops"]):
        if tracer is not None:
            tracer.op = pos
        latency, outcome = session.run(op)
        results.append([pos, op["key"], latency, outcome])
    if tracer is not None:
        with open(job["spans_path"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    print(json.dumps({"ops": results}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
