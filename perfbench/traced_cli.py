"""Run one ghcseries CLI command with layer tracing on.

    python3 perfbench/traced_cli.py SPANS_JSON ARGS...

Behaves like `python -m ghcseries ARGS...` (same stdout, stderr and exit
code) and writes the spans of the call to SPANS_JSON when it ends.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    from ghcseries import cli

    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    raise SystemExit(main())
