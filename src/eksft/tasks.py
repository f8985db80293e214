"""Synthetic verifiable tasks: generation, tokenization, answer checking.

Two char-level families, each producing prompt/response/answer triples:

  mod_add_chain  "3+7+2="  ->  "10,12#12"   (running sums mod M, then #answer)
  reverse_copy   "abc>"    ->  "#cba"        (> rendered as a unicode arrow)

Responses end with the answer marker '#' followed by the canonical answer;
an EOS token is appended at tokenization time. Splits are a seeded
partition of the instance space, so pretrain/sft/rl/eval never overlap.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, GenerationError, InputError, LengthError, TokenizationError

PAD = 0
BOS = 1
EOS = 2
ANSWER_MARK = 3

_ARROW = "→"
_LETTERS = "abcdefghijklmn"
_TEXT_CHARS = "#" + "0123456789" + "+=," + _ARROW + _LETTERS  # id 3 onward

FAMILIES = ("mod_add_chain", "reverse_copy")


@dataclass(frozen=True)
class Vocabulary:
    char_to_id: dict[str, int]
    id_to_char: dict[int, str]

    @property
    def size(self) -> int:
        return 3 + len(self.char_to_id)  # PAD/BOS/EOS have no text form

    def tokenize(self, text: str) -> list[int]:
        ids = []
        for offset, ch in enumerate(text):
            if ch not in self.char_to_id:
                raise TokenizationError(f"unknown character {ch!r} at offset {offset}")
            ids.append(self.char_to_id[ch])
        return ids

    def detokenize(self, ids) -> str:
        chars = []
        for i, token in enumerate(ids):
            token = int(token)
            if token not in self.id_to_char:
                raise InputError(f"id {token} at index {i} has no text form")
            chars.append(self.id_to_char[token])
        return "".join(chars)


_CHAR_TO_ID = {ch: 3 + i for i, ch in enumerate(_TEXT_CHARS)}
VOCAB = Vocabulary(_CHAR_TO_ID, {v: k for k, v in _CHAR_TO_ID.items()})


@dataclass(frozen=True)
class Sample:
    prompt: str
    response: str
    answer: str
    prompt_tokens: tuple[int, ...] = field(repr=False)  # leading BOS
    response_tokens: tuple[int, ...] = field(repr=False)  # trailing EOS

    @property
    def tokens(self) -> tuple[int, ...]:
        return self.prompt_tokens + self.response_tokens


def make_sample(prompt: str, response: str, answer: str) -> Sample:
    return Sample(
        prompt=prompt,
        response=response,
        answer=answer,
        prompt_tokens=(BOS, *VOCAB.tokenize(prompt)),
        response_tokens=(*VOCAB.tokenize(response), EOS),
    )


def canonicalize_answer(text: str) -> str:
    """Strip leading zeros from all-digit answers; other answers unchanged."""
    if text and text.isdigit():
        return text.lstrip("0") or "0"
    return text


def verify(sample: Sample, generated_tokens) -> bool:
    """True iff the span after the LAST answer marker matches the gold answer.

    The span runs up to the first EOS (or the end). Any malformed output --
    no marker, untokenizable ids in the span -- scores False, never raises.
    """
    ids = [int(t) for t in generated_tokens]
    if ANSWER_MARK not in ids:
        return False
    start = len(ids) - 1 - ids[::-1].index(ANSWER_MARK)
    span = []
    for token in ids[start + 1 :]:
        if token == EOS:
            break
        if token not in VOCAB.id_to_char:
            return False
        span.append(VOCAB.id_to_char[token])
    return canonicalize_answer("".join(span)) == canonicalize_answer(sample.answer)


# -----------------------------------------------------------------------------
# task spec and generation
# -----------------------------------------------------------------------------


@dataclass(frozen=True)
class TaskSpec:
    family: str = "mod_add_chain"
    seed: int = 0
    n_pretrain: int = 512
    n_sft: int = 64
    n_rl: int = 256
    n_eval: int = 64
    chain_len_min: int = 2
    chain_len_max: int = 3
    modulus: int = 100
    str_len_min: int = 3
    str_len_max: int = 5

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if min(self.n_pretrain, self.n_sft, self.n_rl, self.n_eval) < 0:
            raise ConfigError("split counts must be >= 0")
        if self.family == "mod_add_chain":
            if not (2 <= self.chain_len_min <= self.chain_len_max):
                raise ConfigError("need 2 <= chain_len_min <= chain_len_max")
            if self.modulus < 2:
                raise ConfigError("modulus must be >= 2")
        else:
            if not (1 <= self.str_len_min <= self.str_len_max):
                raise ConfigError("need 1 <= str_len_min <= str_len_max")

    def counts(self) -> dict[str, int]:
        return {
            "pretrain": self.n_pretrain,
            "sft": self.n_sft,
            "rl_prompts": self.n_rl,
            "eval": self.n_eval,
        }


SPLIT_NAMES = ("pretrain", "sft", "rl_prompts", "eval")


def instance_space_size(spec: TaskSpec) -> int:
    if spec.family == "mod_add_chain":
        return sum(10**n for n in range(spec.chain_len_min, spec.chain_len_max + 1))
    return sum(len(_LETTERS) ** n for n in range(spec.str_len_min, spec.str_len_max + 1))


def _draw_instance(spec: TaskSpec, rng: np.random.Generator):
    if spec.family == "mod_add_chain":
        n = int(rng.integers(spec.chain_len_min, spec.chain_len_max + 1))
        return tuple(int(d) for d in rng.integers(0, 10, size=n))
    n = int(rng.integers(spec.str_len_min, spec.str_len_max + 1))
    return "".join(_LETTERS[i] for i in rng.integers(0, len(_LETTERS), size=n))


def render_instance(spec: TaskSpec, instance) -> Sample:
    """Build the full Sample (prompt, expert response, gold answer) for one instance."""
    if spec.family == "mod_add_chain":
        digits = instance
        prompt = "+".join(str(d) for d in digits) + "="
        partials = []
        acc = digits[0]
        for d in digits[1:]:
            acc = (acc + d) % spec.modulus
            partials.append(acc)
        answer = str(acc)
        response = ",".join(str(p) for p in partials) + "#" + answer
    else:
        prompt = instance + _ARROW
        answer = instance[::-1]
        response = "#" + answer
    return make_sample(prompt, response, answer)


def generate_splits(spec: TaskSpec) -> dict[str, list[Sample]]:
    """Seeded, disjoint pretrain/sft/rl/eval splits of rendered samples."""
    counts = spec.counts()
    total = sum(counts.values())
    space = instance_space_size(spec)
    if total > space:
        raise GenerationError(
            f"requested {total} instances but the {spec.family} space only has {space}"
        )
    rng = np.random.default_rng(spec.seed)
    seen = set()
    instances = []
    budget = 200 * total + 10_000
    while len(instances) < total and budget > 0:
        budget -= 1
        inst = _draw_instance(spec, rng)
        if inst not in seen:
            seen.add(inst)
            instances.append(inst)
    if len(instances) < total:
        raise GenerationError(
            f"could not draw {total} distinct instances from a space of {space}"
        )
    splits: dict[str, list[Sample]] = {}
    offset = 0
    for name in SPLIT_NAMES:
        chunk = instances[offset : offset + counts[name]]
        offset += counts[name]
        samples = [render_instance(spec, inst) for inst in chunk]
        for s in samples:
            if not verify(s, s.response_tokens):
                raise GenerationError(f"expert response failed verification: {s}")
        splits[name] = samples
    return splits


def write_jsonl(samples: list[Sample], path: Path) -> str:
    """Write one {prompt, response, answer} object per line; returns sha256 hex."""
    lines = [
        json.dumps({"prompt": s.prompt, "response": s.response, "answer": s.answer})
        for s in samples
    ]
    data = ("\n".join(lines) + "\n") if lines else ""
    path.write_text(data, encoding="utf-8")
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def generate_dataset(spec: TaskSpec, out_dir: str | Path, force: bool = False) -> dict:
    """Write the four split files; returns {split: {path, sha256, count}}."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {name: out_dir / f"{name}.jsonl" for name in SPLIT_NAMES}
    existing = [str(p) for p in paths.values() if p.exists()]
    if existing and not force:
        raise ConfigError(f"refusing to overwrite existing files (use force): {existing}")
    splits = generate_splits(spec)
    report = {}
    for name in SPLIT_NAMES:
        digest = write_jsonl(splits[name], paths[name])
        report[name] = {"path": str(paths[name]), "sha256": digest, "count": len(splits[name])}
    (out_dir / "task_spec.json").write_text(
        json.dumps(spec.__dict__, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return report


def load_samples(path: str | Path, context_len: int | None = None) -> list[Sample]:
    """Read a JSONL split back into Samples, rejecting overlong ones."""
    samples = []
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict) or not all(
                        isinstance(obj.get(k), str) for k in ("prompt", "response", "answer")):
                    raise InputError(f"want an object of string prompt, response and answer, got {line}")
                s = make_sample(obj["prompt"], obj["response"], obj["answer"])
            except (json.JSONDecodeError, InputError) as e:
                raise InputError(f"{path} line {i}: {e}") from e
            if context_len is not None and len(s.tokens) > context_len + 1:
                raise LengthError(
                    f"{path} sample {i} has {len(s.tokens)} tokens, context allows {context_len + 1}"
                )
            samples.append(s)
    return samples


def dataset_hash(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
