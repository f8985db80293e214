"""The file formats of `eksft.files`, and the guard that keeps every write there."""

import ast
import csv
from pathlib import Path

import numpy as np
import pytest

import eksft
from eksft import files

WRITE_CALLS = {"write_text", "write_bytes"}


def _write_mode(call: ast.Call) -> bool:
    """Whether an open() call may write: a mode with w, a, x or +, or one not spelled out."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def _writes(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
        owner = getattr(fn, "value", None)
        if name in WRITE_CALLS and getattr(owner, "id", None) != "files":
            found.append(f"line {node.lineno}: {name}()")
        elif name == "writer" and getattr(owner, "id", None) == "csv":
            found.append(f"line {node.lineno}: csv.writer()")
        elif name == "open" and _write_mode(node):
            found.append(f"line {node.lineno}: open() in a write mode")
    return found


def test_only_the_files_module_writes_files():
    src = Path(eksft.__file__).parent
    offenders = {p.name: _writes(ast.parse(p.read_text(encoding="utf-8")))
                 for p in sorted(src.glob("*.py")) if p.name != "files.py"}
    assert {name: w for name, w in offenders.items() if w} == {}
    assert _writes(ast.parse((src / "files.py").read_text(encoding="utf-8")))  # the scan sees writes


def test_guard_flags_each_kind_of_write():
    code = "\n".join([
        "Path(p).write_text('x')", "p.write_bytes(b'')", "csv.writer(fh)",
        "open(p, 'w')", "open(p, mode='a')", "open(p, 'r+')", "open(p, m)",
        "files.write_text(p, s)", "open(p)", "open(p, 'rb')",
        "open(p, newline='', encoding='utf-8')", "csv.reader(fh)",
    ])
    assert [w.split(": ")[0] for w in _writes(ast.parse(code))] == [
        f"line {i}" for i in range(1, 8)]


def test_csv_cells_and_line_ends(tmp_path):
    path = tmp_path / "t.csv"
    files.write_csv(path, ["label", "k", "x", "gap"],
                    [["a,b", 1, 0.1, None], ["plain", 2, np.float64(1 / 3), 2.5e-17]])
    assert path.read_bytes() == (b"label,k,x,gap\n"
                                 b'"a,b",1,0.1,\n'
                                 b"plain,2,0.3333333333333333,2.5e-17\n")
    with open(path, newline="", encoding="utf-8") as fh:
        assert next(iter(list(csv.DictReader(fh))))["label"] == "a,b"


def test_json_and_jsonl_text(tmp_path):
    files.write_json(tmp_path / "a.json", {"b": [1, 2], "a": 0.5})
    assert (tmp_path / "a.json").read_text() == files.json_text({"a": 0.5, "b": [1, 2]})
    assert files.json_text({"b": 1, "a": {"d": None}}) == '{\n "a": {\n  "d": null\n },\n "b": 1\n}\n'
    files.write_jsonl(tmp_path / "r.jsonl", ({"z": i, "a": True} for i in range(2)))
    assert (tmp_path / "r.jsonl").read_text() == '{"z": 0, "a": true}\n{"z": 1, "a": true}\n'
    files.write_jsonl(tmp_path / "empty.jsonl", [])
    assert (tmp_path / "empty.jsonl").read_bytes() == b""


def _interrupted(rows):
    yield from rows
    raise KeyboardInterrupt  # an interruption, not an error of the data


@pytest.mark.parametrize("write, args", [
    (files.write_csv, (["a"], _interrupted([[2]]))),
    (files.write_jsonl, (_interrupted([{"a": 2}]),)),
    (files.write_text, ("x\ud800",)),  # a lone surrogate fails to encode mid-file
    (files.write_json, ({"a": object()},)),
], ids=["csv", "jsonl", "text", "json"])
def test_a_write_that_raises_leaves_the_old_file_and_no_temporary(tmp_path, write, args):
    path = tmp_path / "out.txt"
    files.write_csv(path, ["a"], [[1]])
    with pytest.raises((KeyboardInterrupt, UnicodeEncodeError, TypeError)):
        write(path, *args)
    assert path.read_bytes() == b"a\n1\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_a_write_replaces_the_file_whole_and_leaves_no_temporary(tmp_path):
    path = tmp_path / "w.bin"
    files.write_bytes(path, b"0123456789")
    files.write_bytes(path, b"ab")
    assert path.read_bytes() == b"ab"
    assert [p.name for p in tmp_path.iterdir()] == ["w.bin"]
