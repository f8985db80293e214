"""The one writer of every file the package writes, and so of each format.

JSON is indented by 1 with sorted keys and a trailing newline (`json_text` is
that text, for a caller that also hashes it). JSONL is one compact object per
line, written row by row. CSV goes through `csv.writer` with LF line ends: a
float cell is its repr, None is empty, and a cell with a comma is quoted.
Text (the SVGs) is UTF-8, and `write_bytes` writes the weight blob. Every
write is atomic: it goes to a temporary file beside the target, which then
replaces the target with `os.replace`. A reader sees the old file or the
whole new one, and a write that raises leaves the old file and no temporary.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Sequence


@contextmanager
def _replacing(path: str | Path, mode: str, **open_kwargs):
    """A file handle open on a temporary beside `path`, moved onto `path` once
    the block ends without error and removed if it raises."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def json_text(obj) -> str:
    """`obj` as the package's JSON text: indent 1, sorted keys, a trailing newline."""
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def write_text(path: str | Path, text: str) -> None:
    with _replacing(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_bytes(path: str | Path, data: bytes) -> None:
    with _replacing(path, "wb") as fh:
        fh.write(data)


def write_json(path: str | Path, obj) -> None:
    write_text(path, json_text(obj))


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> None:
    with _replacing(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # a numpy float64 too, without its type in the text
    return str(value)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with _replacing(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows([_cell(v) for v in row] for row in rows)
