"""The one writer of every file the package writes, and so of each format.

JSON is indented by 1 with sorted keys and a trailing newline (`json_text` is
that text, for a caller that also hashes it). JSONL is one compact object per
line, written row by row. CSV goes through `csv.writer` with LF line ends: a
float cell is its repr, None is empty, and a cell with a comma is quoted.
Text (the SVGs) is UTF-8, and `write_bytes` writes the weight blob. Each call
writes its file whole, in place, so an atomic write is a change here alone.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Sequence


def json_text(obj) -> str:
    """`obj` as the package's JSON text: indent 1, sorted keys, a trailing newline."""
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def write_text(path: str | Path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def write_bytes(path: str | Path, data: bytes) -> None:
    Path(path).write_bytes(data)


def write_json(path: str | Path, obj) -> None:
    write_text(path, json_text(obj))


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # a numpy float64 too, without its type in the text
    return str(value)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows([_cell(v) for v in row] for row in rows)
