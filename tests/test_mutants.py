"""The mutation table of experiments/mutants.py is current: every entry's old
text occurs exactly once in its file. No mutant runs here; the script itself
runs them and reports which the tests kill."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_mutant_applies_to_exactly_one_place():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "experiments" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.MUTANTS
    assert {m.name: mutants.occurrences(ROOT, m) for m in mutants.MUTANTS} == {
        m.name: 1 for m in mutants.MUTANTS}
    for m in mutants.MUTANTS:
        assert m.tests and all((ROOT / test.split("::")[0]).is_file() for test in m.tests), m.name
