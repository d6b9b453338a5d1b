"""Print the size of the library as one JSON line.

Usage: python scripts/src_size.py

src_lines counts the non-blank lines of src/ghcseries/*.py, exports is
len(ghcseries.__all__), and private_imports counts the _-prefixed names
that one ghcseries module takes from another: each name it imports (from
.rootsys import _scale counts one) and each distinct attribute it reads
off a sibling module it imports (charseries._f1_mu, after from . import
charseries, counts one however often it is read); all read from this
checkout.
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _private_names(tree: ast.Module) -> int:
    imports = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level]
    names = [alias.name for node in imports for alias in node.names]
    # from . import charseries binds a sibling module.
    siblings = {a.asname or a.name for node in imports if not node.module for a in node.names}
    reads = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in siblings
        and node.attr.startswith("_")
    }
    return sum(name.startswith("_") for name in names) + len(reads)


def main() -> int:
    sys.path.insert(0, str(SRC))
    import ghcseries

    texts = [path.read_text() for path in sorted((SRC / "ghcseries").glob("*.py"))]
    lines = sum(1 for text in texts for line in text.splitlines() if line.strip())
    private = sum(_private_names(ast.parse(text)) for text in texts)
    print(
        json.dumps(
            {"src_lines": lines, "exports": len(ghcseries.__all__), "private_imports": private}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
