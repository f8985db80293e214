"""Compare two result files written by sweep.py (A = before, B = after).

    python3 deskbench/compare.py A.jsonl B.jsonl

For each workload and end-to-end metric it prints each side's median and
quartiles, the share of seed-paired runs that B won (ties count for
neither), and a verdict against the metric's bound in BENCHMARK.json:

  regressed   B's median is worse than A's by more than the bound
  unresolved  a side's spread (quartile distance over median) is wider
              than the bound, and not every B run beats every A run
  improved    B won at least 9 in 10 pairs and the medians differ by more
              than A's own quartile distance
  within      none of the above
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from sweep import quartiles  # noqa: E402


def load(path: Path) -> dict[tuple[str, int], dict]:
    runs = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["trace"] == 0 and rec["result"]:
                runs[(rec["workload"], rec["seed"])] = rec["result"]
    return runs


def verdict(a: list[float], b: list[float], pairs: list[tuple[float, float]], bound: float,
            higher_better: bool) -> tuple[str, float]:
    sign = -1.0 if higher_better else 1.0  # sign * (x - y) > 0 means x is worse than y
    (qa1, ma, qa3), (qb1, mb, qb3) = quartiles(a), quartiles(b)
    wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
    won = wins / len(pairs) if pairs else 0.0
    worse = sign * (mb - ma) / ma
    spread = max((qa3 - qa1) / ma, (qb3 - qb1) / mb)
    every_b_better = min(b) > max(a) if higher_better else max(b) < min(a)
    if worse > bound:
        return "regressed", won
    if spread > bound and not every_b_better:
        return "unresolved", won
    if won >= 0.9 and -worse * ma > (qa3 - qa1):
        return "improved", won
    return "within", won


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a_runs, b_runs = load(Path(argv[0])), load(Path(argv[1]))
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = sorted({w for w, _ in a_runs} & {w for w, _ in b_runs})
    for workload in workloads:
        a_seeds = sorted(s for w, s in a_runs if w == workload)
        b_seeds = sorted(s for w, s in b_runs if w == workload)
        paired = sorted(set(a_seeds) & set(b_seeds))
        print(f"{workload}: A {len(a_seeds)} runs, B {len(b_seeds)} runs, {len(paired)} seed pairs")
        for m in bench["end_to_end"]:
            name = m["name"]
            a = [a_runs[(workload, s)]["metrics"][name]["value"] for s in a_seeds]
            b = [b_runs[(workload, s)]["metrics"][name]["value"] for s in b_seeds]
            pairs = [(a_runs[(workload, s)]["metrics"][name]["value"],
                      b_runs[(workload, s)]["metrics"][name]["value"]) for s in paired]
            v, won = verdict(a, b, pairs, m["bound"], m["better"] == "higher")
            (qa1, ma, qa3), (qb1, mb, qb3) = quartiles(a), quartiles(b)
            print(f"  {name:14s} A {ma:.4f} [{qa1:.4f}, {qa3:.4f}]  B {mb:.4f} [{qb1:.4f}, {qb3:.4f}] "
                  f"{m['unit']:4s} change {(mb - ma) / ma:+.1%}  B won {won:.0%}  "
                  f"bound {m['bound']:.0%}: {v}")
        fa = sum(r["failed"] for (w, _), r in a_runs.items() if w == workload)
        fb = sum(r["failed"] for (w, _), r in b_runs.items() if w == workload)
        print(f"  failed operations: A {fa}, B {fb}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
