"""Lossless serialization of result documents to JSON or aligned text.

All numbers stay exact: integers as JSON integers, non-integral
rationals as "p/q" strings.  Rendering is deterministic, so identical
inputs produce byte-identical output.

An IntRows list is written unchecked, so only the CLI builds one, from
the character rows it knows hold plain ints.  Every other list keeps all
of the writer's checks.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii as _encode_str


def rational(x):
    """Exact JSON value for a rational: int when integral, else 'p/q'."""
    f = Fraction(x)
    if f.denominator == 1:
        return int(f)
    return f"{f.numerator}/{f.denominator}"


def weight_coords(w) -> list:
    return [rational(c) for c in w.coords]


def character_pairs(mults: dict) -> list:
    """Sorted [weight, multiplicity] pairs of a character map."""
    return [[k, v] for k, v in sorted(mults.items())]


class IntRows(list):
    """Rows written unchecked: only cli builds one, from non-empty rows of one
    width whose every cell has the exact type int.  Nothing checks that, and
    %d writes what breaks it wrongly: a bool as 1, a Fraction 3/2 as 1, and
    [[]] as text json.dumps would not give."""


def render_json(doc: dict) -> str:
    """json.dumps(doc, indent=2) + "\n", byte for byte.

    With indent set, json.dumps leaves its C encoder for a generator per
    item; this writer makes one join per list or dict instead, and a list
    of equal-width rows of plain ints (checked, or trusted as IntRows) is
    one %-format over all its cells.
    """
    return _json_text(doc, "\n") + "\n"


_int = int.__repr__
_ONLY_INT = frozenset([int])
_ROWS = frozenset([list, tuple])


def _json_text(value, pad: str) -> str:
    """The indent=2 JSON text of value; pad is a newline plus its indent."""
    kind = type(value)
    if kind is int:
        return _int(value)
    if kind is str:
        return _encode_str(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if kind is IntRows:
        return _rows_text(value, tuple(chain.from_iterable(value)), pad) if value else "[]"
    if isinstance(value, (list, tuple)) and value:
        inner = pad + "  "
        kinds = set(map(type, value))
        if kinds <= _ONLY_INT:
            items = map(_int, value)
        elif kinds <= _ROWS and (text := _int_rows_text(value, pad)) is not None:
            return text
        else:
            items = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(value, dict) and value:
        inner = pad + "  "
        items = [_json_key(k) + ": " + _json_text(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    # float, empty containers, int and str subclasses: json's own text, and
    # its TypeError for anything it cannot encode.
    return json.dumps(value)


def _int_rows_text(rows, pad: str) -> str | None:
    """The text of lists or tuples of one width, every cell a plain int, else
    None; every check runs over C iterators, as a per-row one would cost as
    much as the formatting it saves."""
    if not (all(rows) and len(set(map(len, rows))) == 1):
        return None
    cells = tuple(chain.from_iterable(rows))
    if not _ONLY_INT.issuperset(map(type, cells)):
        return None
    return _rows_text(rows, cells, pad)


def _rows_text(rows, cells: tuple, pad: str) -> str:
    """The text of non-empty rows of one width, from their cells in order; %d
    writes an int as repr does, and raises its ValueError past the digit limit."""
    inner = pad + "  "
    deeper = inner + "  "
    row = "[" + deeper + ("," + deeper).join(["%d"] * len(rows[0])) + inner + "]"
    return ("[" + inner + ("," + inner).join([row] * len(rows)) + pad + "]") % cells


def _json_key(key) -> str:
    if type(key) is str:
        return _encode_str(key)
    # json turns an int, float, bool or None key into a string, and
    # refuses any other: '{"<key>": 0}' minus its frame.
    return json.dumps({key: 0})[1:-4]


def render_table(doc: dict) -> str:
    lines: list[str] = []
    _walk(doc, 0, lines)
    return "\n".join(lines) + "\n"


def _scalar(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return "[" + ", ".join(_scalar(v) for v in value) + "]"
    return str(value)


def _walk(node: dict, depth: int, lines: list[str]) -> None:
    pad = "  " * depth
    for key, value in node.items():
        items = _item_type(value)
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            _walk(value, depth + 1, lines)
        elif items is list:
            lines.append(f"{pad}{key}:")
            lines.extend(_aligned_rows(value, depth + 1))
        elif items is dict:
            lines.append(f"{pad}{key}:")
            lines.extend(_aligned_records(value, depth + 1))
        else:
            lines.append(f"{pad}{key}: {_scalar(value)}")


def _item_type(value):
    """The one type of the items of a non-empty list; None for anything else."""
    if isinstance(value, list) and value:
        types = set(map(type, value))
        if len(types) == 1:
            return types.pop()
    return None


def _aligned_rows(rows: list, depth: int) -> list[str]:
    pad = "  " * depth
    cells = [[_scalar(v) for v in row] for row in rows]
    widths = [
        max(len(row[i]) for row in cells if i < len(row))
        for i in range(max(len(row) for row in cells))
    ]
    return [
        pad + "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        for row in cells
    ]


def _aligned_records(records: list, depth: int) -> list[str]:
    pad = "  " * depth
    keys = list(records[0].keys())
    rows = [[_scalar(rec.get(k)) for k in keys] for rec in records]
    widths = [
        max(len(keys[i]), max(len(row[i]) for row in rows)) for i in range(len(keys))
    ]
    lines = [(pad + "  ".join(k.ljust(widths[i]) for i, k in enumerate(keys))).rstrip()]
    for row in rows:
        line = pad + "  ".join(row[i].ljust(widths[i]) for i in range(len(keys)))
        lines.append(line.rstrip())
    return lines
