"""One set-up: generate the data and pretrain the base, in a fresh process.

    python3 deskbench/make_inputs.py WORK_DIR SEED [--smoke]

run.py starts this several times per run and times each process from start
to exit (imports, gen-data and pretrain), so set-up time is measured the way
a user pays it, and the run's own peak memory covers only the timed part.
"""

import argparse
import contextlib
import io
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from eksft import cli  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("work", type=Path)
    p.add_argument("seed", type=int)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    args.work.mkdir(parents=True, exist_ok=True)
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    for argv in workloads.setup_argvs(args.work, args.seed, sizes):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        if rc != 0:
            print(f"set-up step {argv[0]} exited {rc}:\n{out.getvalue()}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
