"""Print the size of the library as one JSON line.

Usage: python scripts/src_size.py

src_lines counts the non-blank lines of src/ghcseries/*.py, exports is
len(ghcseries.__all__), and private_imports counts the _-prefixed names
that one ghcseries module imports from another (from .rootsys import
_scale counts one), all read from this checkout.
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    sys.path.insert(0, str(SRC))
    import ghcseries

    texts = [path.read_text() for path in sorted((SRC / "ghcseries").glob("*.py"))]
    lines = sum(1 for text in texts for line in text.splitlines() if line.strip())
    private = sum(
        1
        for text in texts
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    )
    print(
        json.dumps(
            {"src_lines": lines, "exports": len(ghcseries.__all__), "private_imports": private}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
