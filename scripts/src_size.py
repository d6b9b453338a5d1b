"""Print the size of the library as one JSON line.

Usage: python scripts/src_size.py

src_lines counts the non-blank lines of src/ghcseries/*.py and exports
is len(ghcseries.__all__), both read from this checkout.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    sys.path.insert(0, str(SRC))
    import ghcseries

    lines = sum(
        1
        for path in sorted((SRC / "ghcseries").glob("*.py"))
        for line in path.read_text().splitlines()
        if line.strip()
    )
    print(json.dumps({"src_lines": lines, "exports": len(ghcseries.__all__)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
