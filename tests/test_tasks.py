import json

import pytest

from eksft import tasks
from eksft.errors import ConfigError, GenerationError, InputError, LengthError, TokenizationError
from eksft.tasks import ANSWER_MARK, BOS, EOS, PAD, TaskSpec, VOCAB


def test_vocab_fits_default_model():
    assert VOCAB.size == 32
    assert sorted(VOCAB.id_to_char) == list(range(3, 32))
    assert VOCAB.char_to_id["#"] == ANSWER_MARK


def test_tokenize_round_trip():
    for text in ("3+7+2=", "10,12#12", "abc→", "#cba", "00,07#7"):
        assert VOCAB.detokenize(VOCAB.tokenize(text)) == text


def test_tokenize_unknown_character_names_offset():
    with pytest.raises(TokenizationError) as exc:
        VOCAB.tokenize("12x!")
    assert "offset 3" in str(exc.value) or "offset 2" in str(exc.value)


def test_detokenize_rejects_structural_ids():
    with pytest.raises(InputError):
        VOCAB.detokenize([PAD])


def test_render_mod_add_chain():
    spec = TaskSpec(family="mod_add_chain", chain_len_min=2, chain_len_max=4)
    s = tasks.render_instance(spec, (3, 7, 2))
    assert s.prompt == "3+7+2="
    assert s.response == "10,12#12"
    assert s.answer == "12"
    assert s.prompt_tokens[0] == BOS
    assert s.response_tokens[-1] == EOS


def test_render_mod_add_chain_wraps_modulus():
    spec = TaskSpec(family="mod_add_chain", chain_len_min=2, chain_len_max=4, modulus=10)
    s = tasks.render_instance(spec, (9, 8))
    assert s.answer == "7"
    assert s.response == "7#7"


def test_render_reverse_copy():
    spec = TaskSpec(family="reverse_copy")
    s = tasks.render_instance(spec, "abc")
    assert s.prompt == "abc→"
    assert s.response == "#cba"
    assert s.answer == "cba"


def test_expert_responses_verify():
    for spec in (
        TaskSpec(family="mod_add_chain", n_pretrain=50, n_sft=10, n_rl=10, n_eval=10, seed=2),
        TaskSpec(family="reverse_copy", n_pretrain=50, n_sft=10, n_rl=10, n_eval=10, seed=2),
    ):
        splits = tasks.generate_splits(spec)
        for samples in splits.values():
            assert all(tasks.verify(s, s.response_tokens) for s in samples)


def test_verify_requires_marker():
    s = tasks.make_sample("1+1=", "2#2", "2")
    assert tasks.verify(s, VOCAB.tokenize("2") + [EOS]) is False


def test_verify_strips_leading_zeros():
    s = tasks.make_sample("1+1=", "2#2", "12")
    assert tasks.verify(s, VOCAB.tokenize("#012") + [EOS]) is True
    assert tasks.verify(s, VOCAB.tokenize("#0") + [EOS]) is False


def test_verify_uses_last_marker():
    s = tasks.make_sample("1+1=", "2#2", "2")
    assert tasks.verify(s, VOCAB.tokenize("#9#2") + [EOS]) is True
    assert tasks.verify(s, VOCAB.tokenize("#2#9") + [EOS]) is False


def test_verify_ignores_tokens_after_eos():
    s = tasks.make_sample("1+1=", "2#2", "2")
    ids = VOCAB.tokenize("#2") + [EOS] + VOCAB.tokenize("9")
    assert tasks.verify(s, ids) is True


def test_verify_malformed_span_scores_false():
    s = tasks.make_sample("1+1=", "2#2", "2")
    assert tasks.verify(s, [ANSWER_MARK, PAD, EOS]) is False


def test_canonicalize_answer():
    assert tasks.canonicalize_answer("012") == "12"
    assert tasks.canonicalize_answer("000") == "0"
    assert tasks.canonicalize_answer("cba") == "cba"


def test_generation_deterministic(tmp_path):
    spec = TaskSpec(n_pretrain=30, n_sft=10, n_rl=20, n_eval=10, seed=1)
    r1 = tasks.generate_dataset(spec, tmp_path / "a")
    r2 = tasks.generate_dataset(spec, tmp_path / "b")
    for name in tasks.SPLIT_NAMES:
        assert r1[name]["sha256"] == r2[name]["sha256"]
        assert (tmp_path / "a" / f"{name}.jsonl").read_bytes() == (
            tmp_path / "b" / f"{name}.jsonl"
        ).read_bytes()


def test_generation_seed_changes_output(tmp_path):
    base = dict(n_pretrain=30, n_sft=10, n_rl=20, n_eval=10)
    r1 = tasks.generate_dataset(TaskSpec(seed=1, **base), tmp_path / "a")
    r2 = tasks.generate_dataset(TaskSpec(seed=2, **base), tmp_path / "b")
    assert r1["sft"]["sha256"] != r2["sft"]["sha256"]


def test_generation_refuses_overwrite(tmp_path):
    spec = TaskSpec(n_pretrain=5, n_sft=5, n_rl=5, n_eval=5)
    tasks.generate_dataset(spec, tmp_path)
    with pytest.raises(ConfigError):
        tasks.generate_dataset(spec, tmp_path)
    tasks.generate_dataset(spec, tmp_path, force=True)


def test_splits_disjoint_by_hash_join():
    spec = TaskSpec(n_pretrain=200, n_sft=50, n_rl=100, n_eval=50, seed=9)
    splits = tasks.generate_splits(spec)
    seen: dict[str, str] = {}
    for name, samples in splits.items():
        for s in samples:
            assert s.prompt not in seen, f"{s.prompt} in both {seen.get(s.prompt)} and {name}"
            seen[s.prompt] = name
    assert len(seen) == 400


def test_generation_infeasible_counts():
    spec = TaskSpec(
        family="mod_add_chain", chain_len_min=2, chain_len_max=2,
        n_pretrain=90, n_sft=10, n_rl=10, n_eval=10,  # 120 > 100 instances
    )
    with pytest.raises(GenerationError):
        tasks.generate_splits(spec)


def test_all_ids_in_vocab_over_corpus():
    spec = TaskSpec(n_pretrain=100, n_sft=20, n_rl=20, n_eval=20, seed=3)
    for samples in tasks.generate_splits(spec).values():
        for s in samples:
            assert all(0 <= t < VOCAB.size for t in s.tokens)


def test_load_samples_round_trip(tmp_path):
    spec = TaskSpec(n_pretrain=10, n_sft=10, n_rl=10, n_eval=10, seed=4)
    tasks.generate_dataset(spec, tmp_path)
    loaded = tasks.load_samples(tmp_path / "sft.jsonl")
    assert len(loaded) == 10
    assert all(tasks.verify(s, s.response_tokens) for s in loaded)


def test_load_samples_rejects_overlong(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text(
        json.dumps({"prompt": "1+1=", "response": "2#2", "answer": "2"}) + "\n",
        encoding="utf-8",
    )
    with pytest.raises(LengthError) as exc:
        tasks.load_samples(path, context_len=4)
    assert "sample 0" in str(exc.value)


@pytest.mark.parametrize("line", [
    "[1, 2]", "5", '"x"', '{"prompt": 5, "response": "2#2", "answer": "2"}',
    '{"prompt": "1+1=", "response": "2#2"}', "{not json",
])
def test_load_samples_rejects_malformed_line(tmp_path, line):
    path = tmp_path / "data.jsonl"
    path.write_text('{"prompt": "1+1=", "response": "2#2", "answer": "2"}\n' + line + "\n",
                    encoding="utf-8")
    with pytest.raises(InputError, match="line 1: "):
        tasks.load_samples(path)


def test_task_spec_validation():
    with pytest.raises(ConfigError):
        TaskSpec(family="nope")
    with pytest.raises(ConfigError):
        TaskSpec(chain_len_min=1)
