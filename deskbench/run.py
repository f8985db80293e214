"""One benchmark run of one workload, in this process.

    python3 deskbench/run.py --workload {sft_eksft,rl_grpo,eval_passk} \\
        --seed N --seconds S --trace {0,1} [--smoke]

A run sets up its inputs several times, each in a fresh process (see
make_inputs.py), then repeats the workload's subcommand through
`eksft.cli.main` in whole rounds until S seconds have passed, and checks
every round's outputs. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; attempted counts rounds and
failed counts rounds whose outputs failed a check.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured with
nothing wrapped except, on eval_passk, a token counter around sample_group.
--trace 1 wraps eksft's public functions (tracer.py), runs the checks that
need sampled sequences or logits, reports the per-layer metrics of
BENCHMARK.json as means per round and writes the span trace to
deskbench/out/. Exit status is 0 when a result was printed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORK_ROOT = ROOT / ".deskbench_work"
SETUPS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes (workloads.SMOKE)")
    return p.parse_args(argv)


class SetupError(RuntimeError):
    pass


def run_setups(work: Path, seed: int, smoke: bool, workloads, checks) -> tuple[list[float], list[str]]:
    """Set up SETUPS times, each in a fresh process; returns (seconds, failures)."""
    times, digests = [], []
    for i in range(SETUPS):
        cmd = [sys.executable, str(HERE / "make_inputs.py"), str(work / f"setup{i}"), str(seed)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd + (["--smoke"] if smoke else []), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=170)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SetupError(f"set-up {i} exited {proc.returncode}: {proc.stderr.strip()}")
        digests.append(checks.file_digest(workloads.setup_outputs(work / f"setup{i}")))
    fails = [f"set-up {i} outputs differ from set-up 0" for i, d in enumerate(digests) if d != digests[0]]
    return times, fails


class Capture:
    """Per-round state filled by the traced run's hooks."""

    def __init__(self):
        self.groups: list = []  # (prompt ids, sampled group) in call order
        self.fails: list[str] = []
        self.eval_tokens = 0


def install_hooks(forward, checks, tracer_mod, tracer, capture: Capture):
    def after_sampling(groups, a, k):
        params, prompt = a[0], a[1]
        temperature = a[3] if len(a) > 3 else k["temperature"]
        capture.groups.append((tuple(prompt), groups))
        capture.fails += checks.check_sampled_logprobs(forward, params, prompt, temperature, groups)

    def after_objective(terms, a, k):
        capture.fails += checks.check_token_stats(a[1], a[2], a[4], terms.stats)

    tracer_mod.install(tracer, {
        "evaluation.sample_group": after_sampling,
        "objective.objective_terms": after_objective,
    })


def count_eval_tokens(capture: Capture) -> None:
    """eval_passk: a token counter around sample_group (the program writes no count)."""
    from eksft import evaluation

    sample_group = evaluation.sample_group

    def counted(*a, **k):
        groups = sample_group(*a, **k)
        capture.eval_tokens += sum(len(g.tokens) for g in groups)
        return groups

    evaluation.sample_group = counted


def round_tokens(workload: str, out: Path, sizes, checks, capture: Capture) -> int:
    """Tokens of work in one round, from the program's own outputs where it writes them."""
    if workload == "sft_eksft":
        rows = checks.read_csv(out / "metrics.csv")
        return sum(int(r["n_supervised"]) + int(r["n_masked"]) for r in rows)
    if workload == "rl_grpo":
        rows = checks.read_csv(out / "metrics.csv")
        per_step = sizes.rl_group * sizes.rl_prompts_per_step
        return sum(round(float(r["mean_gen_len"]) * per_step) for r in rows)
    return capture.eval_tokens


def file_checks(workload: str, inputs: Path, out: Path, sizes, checks, workloads) -> list[str]:
    """Checks on one round's output files."""
    if workload == "sft_eksft":
        n_sft = len(checks.read_jsonl(inputs / "data" / "sft.jsonl"))
        steps_per_epoch = -(-n_sft // workloads.SFT_BATCH)
        return checks.check_mask_dump(out / "mask_dump.jsonl", workloads.RHO, workloads.SFT_BATCH) + \
            checks.check_sft_metrics(
                checks.read_csv(out / "metrics.csv"), float(workloads.LAMBDA_H),
                float(workloads.LAMBDA_KL), checks.response_token_count(inputs / "data" / "sft.jsonl"),
                steps_per_epoch, sizes.sft_epochs)
    if workload == "rl_grpo":
        rows = checks.read_csv(out / "metrics.csv")
        bad = [r["step"] for r in rows if not all(math.isfinite(float(v)) for v in r.values())]
        fails = [f"metrics.csv step {s} is not finite" for s in bad]
        if len(rows) != sizes.rl_steps:
            fails.append(f"metrics.csv has {len(rows)} rows, expected {sizes.rl_steps}")
        return fails
    report = json.loads((out / "reports" / "eval.json").read_text(encoding="utf-8"))
    fails = checks.check_eval_report(report)
    n_eval = len(checks.read_jsonl(inputs / "data" / "eval.jsonl"))
    if len(report["per_prompt"]) != n_eval:
        fails.append(f"eval report has {len(report['per_prompt'])} prompts, split has {n_eval}")
    return fails


def capture_checks(workload: str, out: Path, sizes, checks, capture: Capture) -> list[str]:
    """Traced-run checks that need the sequences sampled in this round."""
    if workload == "rl_grpo":
        return checks.check_rl_rewards(capture.groups, checks.read_csv(out / "metrics.csv"),
                                       sizes.rl_prompts_per_step)
    if workload == "eval_passk":
        report = json.loads((out / "reports" / "eval.json").read_text(encoding="utf-8"))
        return checks.check_eval_counts(capture.groups, report)
    return []


def per_layer_value(name: str, totals: dict, rounds: int, traced_walls: list[float]) -> float:
    if name == "trace.wall_s":
        return statistics.fmean(traced_walls)
    if name == "trace.self_total_s":
        from tracer import CHECK_SPAN

        return sum(v for k, v in totals["self_ns"].items() if k != CHECK_SPAN) / 1e9 / rounds
    qual, _, quantity = name.rpartition(".")
    if quantity == "s":
        return totals["self_ns"].get(qual, 0) / 1e9 / rounds
    if quantity == "total_s":
        return totals["total_ns"].get(qual, 0) / 1e9 / rounds
    if quantity == "calls":
        return totals["calls"].get(qual, 0) / rounds
    return totals["counts"].get(name, 0) / rounds


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "eksft" / "cli.py").is_file():
        print(f"error: no eksft sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    tag = f"{args.workload}_s{args.seed}_t{args.trace}" + ("_smoke" if args.smoke else "")
    # The eval report records its input paths, so runs of one seed share the work path.
    work = WORK_ROOT / (f"{args.workload}_s{args.seed}" + ("_smoke" if args.smoke else ""))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return run(args, work, tag, sizes, wanted, checks, workloads)
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()


def run(args, work: Path, tag: str, sizes, wanted: list[dict], checks, workloads) -> int:
    setup_times, setup_fails = run_setups(work, args.seed, args.smoke, workloads, checks)
    inputs = work / "setup0"

    from eksft import cli, model

    capture = Capture()
    if args.workload == "eval_passk":
        count_eval_tokens(capture)  # before the tracer, which then wraps the counter
    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        install_hooks(model.forward, checks, tracer_mod, tracer, capture)

    rounds: list[dict] = []
    before = tracer.snapshot() if tracer else None
    t_start = time.perf_counter()
    while not rounds or time.perf_counter() - t_start < args.seconds:
        out = work / f"r{len(rounds)}"
        argv = workloads.round_argv(args.workload, inputs, out, args.seed, sizes)
        capture.groups, capture.fails, capture.eval_tokens = [], [], 0
        check_ns = tracer.total_ns.get("bench.check", 0) if tracer else 0
        stdout = io.StringIO()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(stdout):
                rc = cli.main(argv)
            error = None if rc == 0 else f"exit {rc}: {stdout.getvalue().strip()}"
        except Exception as e:  # a crash is one failed operation, not the end of the run
            error = f"{type(e).__name__}: {e}"
        wall = time.perf_counter() - t0
        rec = {"wall_s": wall, "cpu_s": time.process_time() - c0, "fails": list(capture.fails)}
        if tracer:
            rec["check_s"] = (tracer.total_ns.get("bench.check", 0) - check_ns) / 1e9
        if error:
            rec["fails"].append(error)
        else:
            rec["tokens"] = round_tokens(args.workload, out, sizes, checks, capture)
            rec["digest"] = checks.file_digest(workloads.round_outputs(args.workload, out))
            if tracer:
                rec["fails"] += capture_checks(args.workload, out, sizes, checks, capture)
            if rounds and out.exists():
                shutil.rmtree(out)  # round 0 is kept for the file checks below
        rounds.append(rec)
    timed_s = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Rounds that reproduce round 0 byte for byte share the verdict of its file checks.
    first = rounds[0]
    file_fails = file_checks(args.workload, inputs, work / "r0", sizes, checks, workloads) \
        if "digest" in first else []
    for i, rec in enumerate(rounds):
        if "digest" not in rec:
            continue
        if rec["digest"] == first.get("digest"):
            rec["fails"] += file_fails
        else:
            rec["fails"].append(f"round {i} outputs differ from round 0")
        if rec["tokens"] != first.get("tokens"):
            rec["fails"].append(f"round {i} did {rec['tokens']} tokens of work, round 0 {first.get('tokens')}")
    failed = sum(1 for r in rounds if r["fails"])
    correct = failed == 0 and not setup_fails

    ok = [r for r in rounds if not r["fails"]] or rounds
    metrics: dict[str, dict] = {}
    if args.trace:
        after = tracer.snapshot()
        from tracer import delta

        totals = delta(after, before)
        traced_walls = [r["wall_s"] - r["check_s"] for r in ok]
        for m in wanted:
            metrics[m["name"]] = {"value": per_layer_value(m["name"], totals, len(rounds), traced_walls),
                                  "unit": m["unit"]}
        tracer.write(OUT_DIR / f"trace_{tag}.json", {"workload": args.workload, "seed": args.seed,
                                                     "rounds": len(rounds)})
    else:
        e2e = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(r["wall_s"] for r in ok),
            "tokens_per_s": statistics.median(r.get("tokens", 0) / r["wall_s"] for r in ok),
            "peak_rss_mb": peak_rss_mb,
        }
        for m in wanted:
            metrics[m["name"]] = {"value": e2e[m["name"]], "unit": m["unit"]}

    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
        "seconds": args.seconds, "timed_s": timed_s, "setup_times_s": setup_times,
        "setup_fails": setup_fails, "rounds": rounds, "metrics": metrics,
    }
    if tracer:
        details["max_abs_ratio_minus_1"] = tracer.max_abs_ratio_minus_1
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"run_{tag}.json").write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")

    for fail in setup_fails + [f for r in rounds for f in r["fails"]][:20]:
        print(f"CHECK FAILED: {fail}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {len(rounds)} rounds in "
          f"{timed_s:.1f} s, {failed} failed, tokens/round {first.get('tokens')}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(rounds), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
