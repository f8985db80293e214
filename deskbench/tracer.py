"""Span tracer that wraps eksft's public functions from outside the package.

Every wrapped call records a span (name, start, end, parent). A span's self
time is its duration minus the time its child spans cover, so the self times
of all spans under a root add up to the root's duration. Per-name totals
(self seconds, calls) and extra counts (positions, flops, tokens) are kept
as the spans close; the span list itself stays in memory until `write`.

Nothing under src/ changes: the wrappers are installed by assigning module
attributes (and one class attribute), which every call site looks up at
call time. Names imported by value into another module are patched there
too (train.sample_group, evaluation.verify).
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

CHECK_SPAN = "bench.check"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int]] = []  # (name id, start ns, end ns, parent)
        self._stack: list[list] = []  # [span index, name id, parent index, start ns, child ns]
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.max_abs_ratio_minus_1 = 0.0  # importance ratios seen by clipped_pg_loss
        self.suspended = False  # True inside check()
        self.t0 = time.perf_counter_ns()

    def _name_id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _open(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)  # filled on close; keeps parents before children
        self._stack.append([idx, self._name_id(name), parent, time.perf_counter_ns(), 0])

    def _close(self) -> None:
        end = time.perf_counter_ns()
        idx, nid, parent, start, child_ns = self._stack.pop()
        dur = end - start
        self.spans[idx] = (nid, start - self.t0, end - self.t0, parent)
        name = self.names[nid]
        self.self_ns[name] += dur - child_ns
        self.total_ns[name] += dur
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][4] += dur

    @contextmanager
    def check(self):
        """A CHECK_SPAN inside which wrapped functions record nothing.

        A check's own calls into eksft (say, a full forward) then add no
        spans, calls or counts to any layer, and its whole duration is the
        CHECK_SPAN's self time.
        """
        self._open(CHECK_SPAN)
        self.suspended = True
        try:
            yield
        finally:
            self.suspended = False
            self._close()

    def wrap(self, name: str, fn, count=None):
        """Span-recording wrapper.

        count(tracer, result, args, kwargs) runs after the span closes, so its
        cost lands in the caller's self time (tracing overhead), not the layer's.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.suspended:
                return fn(*args, **kwargs)
            tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close()
            if count is not None:
                count(tracer, out, args, kwargs)
            return out

        return wrapper

    def snapshot(self) -> dict:
        return {
            "self_ns": dict(self.self_ns),
            "total_ns": dict(self.total_ns),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    def write(self, path: Path, meta: dict) -> None:
        """One JSON object: names table plus [name id, start ns, end ns, parent] rows."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "names": self.names, "spans": self.spans}, fh,
                      separators=(",", ":"))
            fh.write("\n")


def delta(after: dict, before: dict) -> dict:
    return {
        kind: {k: v - before[kind].get(k, 0) for k, v in after[kind].items()}
        for kind in ("self_ns", "total_ns", "calls", "counts")
    }


# -----------------------------------------------------------------------------
# counters attached to the wrapped functions
# -----------------------------------------------------------------------------


def _count_forward(tr, out, args, kwargs):
    ids = args[1] if len(args) > 1 else kwargs["token_ids"]
    tr.counts["model.forward.positions"] += int(np.size(ids))


def _count_backward(tr, out, args, kwargs):
    cache = args[1] if len(args) > 1 else kwargs["cache"]
    tr.counts["model.backward.positions"] += int(cache["ids"].size)


def _count_matmul(tr, out, args, kwargs):
    a, b = args[0], args[1]
    tr.counts["numerics.matmul.flops"] += 2 * a.size * b.shape[1]


def _count_matmul_backward(tr, out, args, kwargs):
    a, b = args[1], args[2]
    # grad_a = grad_out @ b.T and grad_b = a^T grad_out: 2*m*k*n flops each
    tr.counts["numerics.matmul_backward.flops"] += 4 * a.size * b.shape[1]


def _count_group_advantages(tr, out, args, kwargs):
    if np.all(np.asarray(out) == 0.0):
        tr.counts["train.group_advantages.uniform_groups"] += 1


def _count_clipped_pg(tr, out, args, kwargs):
    new, old, adv = (np.asarray(x, dtype=np.float64) for x in args[:3])
    c_l, c_h = args[3], args[4]
    tr.counts["train.clipped_pg_loss.tokens"] += int(new.size)
    tr.counts["train.clipped_pg_loss.nonzero_adv_tokens"] += int(np.count_nonzero(adv))
    ratio = np.exp(new - old)
    tr.counts["train.clipped_pg_loss.clipped_tokens"] += int(
        np.count_nonzero((ratio < 1.0 - c_l) | (ratio > 1.0 + c_h))
    )
    if ratio.size:
        tr.max_abs_ratio_minus_1 = max(tr.max_abs_ratio_minus_1, float(np.max(np.abs(ratio - 1.0))))


# -----------------------------------------------------------------------------
# installation
# -----------------------------------------------------------------------------

# (<module>.<function>, counter); the qualified name is also the span name.
WRAPPED = [
    ("numerics.matmul", _count_matmul),
    ("numerics.matmul_backward", _count_matmul_backward),
    ("numerics.log_softmax", None),
    ("numerics.layer_norm", None),
    ("numerics.layer_norm_backward", None),
    ("numerics.gelu", None),
    ("numerics.gelu_backward", None),
    ("numerics.embedding_lookup", None),
    ("numerics.embedding_lookup_backward", None),
    ("model.forward", _count_forward),
    ("model.backward", _count_backward),
    ("model.load_checkpoint", None),
    ("model.save_checkpoint", None),
    ("selection.stats_from_log_probs", None),
    ("selection.build_mask", None),
    ("selection.mask_dump_rows", None),
    ("objective.objective_terms", None),
    ("train.batchify", None),
    ("train.adamw_step", None),
    ("train.train_sft", None),
    ("train.train_rl", None),
    ("train.group_advantages", _count_group_advantages),
    ("train.clipped_pg_loss", _count_clipped_pg),
    ("tasks.load_samples", None),
    ("tasks.verify", None),
    ("evaluation.evaluate", None),
    ("cli.main", None),
]

# Modules that imported a wrapped function by name: (module, attribute, source).
REBOUND = [
    ("train", "sample_group", "evaluation.sample_group"),
    ("evaluation", "verify", "tasks.verify"),
]


def install(tracer: Tracer, hooks: dict | None = None) -> None:
    """Patch eksft in place.

    hooks maps a qualified name to hook(result, args, kwargs). A hook runs
    right after the call returns, inside `Tracer.check`, so neither its time
    nor the calls it makes into eksft count towards any layer.
    """
    import importlib

    hooks = hooks or {}
    mods = {m: importlib.import_module(f"eksft.{m}") for m in
            ("numerics", "model", "selection", "objective", "train", "tasks", "evaluation", "cli")}
    for qual, count in WRAPPED:
        mod, fn_name = qual.split(".")
        fn = getattr(mods[mod], fn_name)
        if qual in hooks:
            fn = _with_hook(tracer, fn, hooks[qual])
        setattr(mods[mod], fn_name, tracer.wrap(qual, fn, count))

    ref_cls = mods["model"].ReferenceModel
    ref_cls.logits = tracer.wrap("model.reference_logits", ref_cls.logits)

    ev = mods["evaluation"]
    sample_group = ev.sample_group
    timed_sampler = tracer.wrap("evaluation.sample_group", sample_group)

    @functools.wraps(sample_group)
    def sampler(*args, **kwargs):
        positions = tracer.counts["model.forward.positions"]
        forwards = tracer.calls["model.forward"]
        groups = timed_sampler(*args, **kwargs)
        # The forwards made under this call are its children; each has n rows.
        n = len(groups)
        tracer.counts["evaluation.sample_group.tokens"] += sum(len(g.tokens) for g in groups)
        tracer.counts["evaluation.sample_group.positions"] += (
            tracer.counts["model.forward.positions"] - positions)
        tracer.counts["evaluation.sample_group.row_steps"] += n * (
            tracer.calls["model.forward"] - forwards)
        if "evaluation.sample_group" in hooks:
            with tracer.check():
                hooks["evaluation.sample_group"](groups, args, kwargs)
        return groups

    ev.sample_group = sampler
    for mod, attr, source in REBOUND:
        src_mod, src_attr = source.split(".")
        setattr(mods[mod], attr, getattr(mods[src_mod], src_attr))


def _with_hook(tracer: Tracer, fn, hook):
    @functools.wraps(fn)
    def inner(*args, **kwargs):
        out = fn(*args, **kwargs)
        with tracer.check():
            hook(out, args, kwargs)
        return out

    return inner
