"""No dead code in `src/eksft/`: every top-level function and class, and every
method, is referenced by the program, its benchmark or its experiments, not by
the tests alone. Dunders are exempt; Python calls them itself."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM = [ROOT / "src", ROOT / "deskbench", ROOT / "experiments"]


def _definitions(tree: ast.Module) -> list[str]:
    """Names of the module's top-level functions and classes, and of their methods."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f.name for f in node.body
                      if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def _references(tree: ast.AST, inside=()) -> set[str]:
    """Every name the code uses: variables, attributes, imported names and the
    dotted parts of string constants (deskbench's tracer names its targets as
    "module.function"). A use inside the definition of the same name, such as
    a recursive call, does not count."""
    found = set()
    if isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = (*inside, tree.name)
    if isinstance(tree, ast.Name):
        found.add(tree.id)
    elif isinstance(tree, ast.Attribute):
        found.add(tree.attr)
    elif isinstance(tree, ast.alias):
        found.add(tree.name.rsplit(".", 1)[-1])
    elif isinstance(tree, ast.Constant) and isinstance(tree.value, str):
        found.update(tree.value.split("."))
    for child in ast.iter_child_nodes(tree):
        found |= _references(child, inside)
    return found - set(inside)


def _unreferenced(package: Path, program: list[Path]) -> dict[str, list[str]]:
    used = set()
    for top in program:
        for path in sorted(top.rglob("*.py")):
            used |= _references(ast.parse(path.read_text(encoding="utf-8")))
    missing = {}
    for path in sorted(package.glob("*.py")):
        names = _definitions(ast.parse(path.read_text(encoding="utf-8")))
        if unused := [n for n in names if n not in used]:
            missing[path.name] = unused
    return missing


def test_every_definition_in_src_is_used_outside_the_tests():
    assert _unreferenced(ROOT / "src" / "eksft", PROGRAM) == {}


def test_the_scan_sees_an_unused_method_and_a_recursive_function(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "m.py").write_text(
        "class V:\n"
        "    def __init__(self): pass\n"
        "    def used(self): return 1\n"
        "    def unused(self): return 2\n"
        "def loop(n): return loop(n - 1) if n else V().used()\n"
        "def named(): pass\n")
    (tmp_path / "main.py").write_text("from pkg.m import V\nTRACE = ['m.named']\n")
    assert _unreferenced(tmp_path / "pkg", [tmp_path]) == {"m.py": ["unused", "loop"]}
