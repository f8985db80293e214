"""Apply each committed mutant in a temporary copy of the tree and run the tests that must kill it.

    python3 experiments/mutants.py

MUTANTS is the table: per entry a name, a file, an exact old text, the new
text that replaces it, and the tests expected to fail. For each entry, one
at a time, src/, tests/, deskbench/, experiments/ and pyproject.toml are
copied from this working tree into a fresh temporary directory, the one
occurrence of the old text is replaced there, and pytest runs the named
tests in one process with that copy's src/ on PYTHONPATH. The entry is
  - killed when the tests fail,
  - survived when they all pass,
  - stale when the old text does not occur exactly once in its file, or
    pytest cannot run the named tests (a refactor moved the code or the
    tests: update the entry, never weaken it).
First the named tests of every entry run once on an unmutated copy, and the
script exits 2 if any of them fails, as no verdict would then mean
anything. It prints one line per entry and exits 1 if any entry survived or
is stale, else 0. It is not part of the test suite; the suite only checks
that every entry's old text occurs exactly once (tests/test_mutants.py).
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "deskbench", "experiments", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant("adamw_eps_inside_sqrt", "src/eksft/train.py",
           "(np.sqrt(v / bc2) + ADAM_EPS)", "np.sqrt(v / bc2 + ADAM_EPS)",
           ("tests/test_train.py::test_adamw_first_step_closed_form",)),
    Mutant("nll_sum_takes_abs_weights", "src/eksft/objective.py",
           "rows = weights[:, None] * rows", "rows = np.abs(weights)[:, None] * rows",
           ("tests/test_objective.py::test_nll_sum_fd_with_signed_weights",)),
    Mutant("rl_update_without_1_over_T", "src/eksft/train.py",
           "-d_lp[adv != 0.0])[1] / config.temperature", "-d_lp[adv != 0.0])[1]",
           ("tests/test_train.py::test_rl_update_gradient_matches_fd_of_the_clipped_surrogate",
            "tests/test_train.py::test_rl_update_gradient_is_the_one_hot_chain_rule_through_log_softmax")),
    Mutant("entropy_and_kl_sums_swapped", "src/eksft/objective.py",
           "return float(h.sum()), float(kl.sum()), d", "return float(kl.sum()), float(h.sum()), d",
           ("tests/test_objective.py",)),
    Mutant("stitch_keeps_the_last_keys", "src/eksft/model.py",
           "reshape(B, L, cfg.n_heads, -1)[..., :L]", "reshape(B, L, cfg.n_heads, -1)[..., -L:]",
           ("tests/test_model.py::test_stitch_of_a_forwards_own_packing_gives_back_its_cache",)),
)


def occurrences(root: Path, mutant: Mutant) -> int:
    return (root / mutant.file).read_text(encoding="utf-8").count(mutant.old)


def run_tests(tests, mutant: Mutant | None = None) -> int:
    """pytest's exit code for `tests` in a copy of the working tree, with `mutant` applied."""
    with tempfile.TemporaryDirectory(prefix="mutant_") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, tree / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, tree / name)
        if mutant is not None:
            path = tree / mutant.file
            path.write_text(path.read_text(encoding="utf-8").replace(mutant.old, mutant.new),
                            encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                               *tests], cwd=tree, env=env, capture_output=True, timeout=1800).returncode


def verdict(mutant: Mutant) -> str:
    """'killed', 'survived' or 'stale' for one entry."""
    if occurrences(ROOT, mutant) != 1:
        return "stale"
    return {0: "survived", 1: "killed"}.get(run_tests(mutant.tests, mutant), "stale")


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter).parse_args(argv)
    named = sorted({test for m in MUTANTS for test in m.tests})
    if run_tests(named) != 0:
        print("the named tests fail on the unmutated tree; no verdict is possible")
        return 2
    bad = 0
    for mutant in MUTANTS:
        t0 = time.perf_counter()
        v = verdict(mutant)
        bad += v != "killed"
        print(f"{v:8s} {mutant.name} ({time.perf_counter() - t0:.1f} s)", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
