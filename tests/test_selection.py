import json
import math
from fractions import Fraction

import numpy as np
import pytest

from eksft import numerics as nk
from eksft import selection as sel
from eksft.errors import ConfigError, DimensionError, InputError
from eksft.selection import MaskSet

from conftest import random_log_probs


def _entropy(row) -> float:  # the one kernel, through a 1-row input
    return float(nk.entropy(np.asarray(row)[None])[0])


def _kl(row, ref_row) -> float:
    return float(nk.kl(np.asarray(row)[None], np.asarray(ref_row)[None])[0])


def test_entropy_uniform_is_log_v():
    lp = np.full(32, -math.log(32))
    assert abs(_entropy(lp) - math.log(32)) <= 1e-12


def test_entropy_one_hot_is_zero():
    p = np.zeros(8)
    p[3] = 1.0
    with np.errstate(divide="ignore"):
        lp = np.log(p)
    assert _entropy(lp) == 0.0


def test_entropy_two_point():
    lp = np.log(np.array([0.25, 0.75]))
    # direct summation oracle
    expected = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
    assert abs(_entropy(lp) - expected) <= 1e-12
    assert abs(expected - 0.5623) <= 5e-5


def test_entropy_bounds_random():
    rng = np.random.default_rng(0)
    for _ in range(500):
        v = int(rng.integers(2, 40))
        h = _entropy(random_log_probs(rng, v, scale=3.0))
        assert 0.0 <= h <= math.log(v) + 1e-12


def test_kl_identity_zero():
    rng = np.random.default_rng(1)
    lp = random_log_probs(rng, 12)
    assert _kl(lp, lp.copy()) == 0.0


def test_kl_two_point():
    lp = np.log(np.array([0.75, 0.25]))
    ref = np.log(np.array([0.5, 0.5]))
    expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)  # direct summation
    assert abs(_kl(lp, ref) - expected) <= 1e-12
    assert abs(expected - 0.13081) <= 5e-6


def test_kl_size_mismatch():
    with pytest.raises(InputError):
        _kl(np.full(3, -math.log(3)), np.full(4, -math.log(4)))


def test_kl_nonnegative_many_pairs():
    rng = np.random.default_rng(2)
    lp = nk.log_softmax(rng.normal(0, 3.0, size=(100_000, 16)))
    ref = nk.log_softmax(rng.normal(0, 3.0, size=(100_000, 16)))
    kl = nk.kl(lp, ref)
    assert kl.min() >= -1e-9


def test_stats_clamp_only_roundoff_kl():
    lp = np.log(np.full((1, 3, 2), 0.5))
    ref = lp.copy()
    ref[0, 1] += 1e-12  # KL -1e-12: roundoff, read as 0
    ref[0, 2] += 1e-6  # KL -1e-6: below KL_FLOOR, kept
    stats = sel.stats_from_log_probs(lp, ref, np.ones((1, 3), bool))
    assert stats.kl[:2].tolist() == [0.0, 0.0]
    assert stats[2].kl == pytest.approx(-1e-6, rel=1e-6)
    assert stats.entropy.tolist() == [math.log(2)] * 3


def test_stats_gathered_equal_full_array_stats():
    """Gathering the valid rows before the kernels changes no bit of any statistic."""
    rng = np.random.default_rng(21)
    for _ in range(50):
        b, length, v = (int(rng.integers(1, 5)), int(rng.integers(1, 10)), int(rng.integers(2, 41)))
        lp = nk.log_softmax(rng.normal(0.0, 3.0, size=(b, length, v)))
        ref = nk.log_softmax(rng.normal(0.0, 3.0, size=(b, length, v)))
        ref[0, 0] = lp[0, 0]  # one exactly-zero KL
        valid = rng.random((b, length)) < 0.5
        stats = sel.stats_from_log_probs(lp, ref, valid)
        bi, li = np.nonzero(valid)
        kl = nk.kl(lp, ref)
        kl = np.where((kl < 0.0) & (kl >= sel.KL_FLOOR), 0.0, kl)
        assert np.array_equal(stats.ref.sequence_index, bi)
        assert np.array_equal(stats.ref.token_position, li)
        assert np.array_equal(stats.entropy, nk.entropy(lp)[bi, li])
        assert np.array_equal(stats.kl, kl[bi, li])


def test_stats_reject_shape_mismatch():
    lp = nk.log_softmax(np.zeros((1, 3, 5)))
    valid = np.ones((1, 3), bool)
    for ref in (nk.log_softmax(np.zeros((1, 4, 5))), nk.log_softmax(np.zeros((1, 3, 6)))):
        with pytest.raises(DimensionError):
            sel.stats_from_log_probs(lp, ref, valid)


def _stats(items):
    """Token statistics from [((seq, pos), entropy, kl), ...]."""
    seq = [ref[0] for ref, _, _ in items]
    pos = [ref[1] for ref, _, _ in items]
    return sel.token_stats(seq, pos, [h for _, h, _ in items], [kl for _, _, kl in items])


def _entropy_stats(values):
    return _stats([((0, i), v, 0.0) for i, v in enumerate(values)])


def test_topk_basic():
    m = sel.build_mask(_entropy_stats([0.9, 0.9, 0.5, 0.1]), 0.5)
    assert m.m_entropy.tolist() == [True, True, False, False]


def test_topk_tie_break_exact_k():
    m = sel.build_mask(_entropy_stats([0.9, 0.9, 0.9, 0.1]), 0.5)
    assert m.m_entropy.tolist() == [True, True, False, False]
    # ties go to ascending (sequence, position), whatever the order of the list
    stats = _stats([((1, 0), 0.9, 0.0), ((0, 3), 0.9, 0.0), ((0, 2), 0.9, 0.0), ((0, 0), 0.1, 0.0)])
    assert sel.build_mask(stats, 0.5).m_entropy.tolist() == [False, True, True, False]


def test_topk_ceil():
    m = sel.build_mask(_entropy_stats([float(i) for i in range(7)]), 0.2)
    assert int(m.m_entropy.sum()) == int(m.m_kl.sum()) == 2  # ceil(1.4)
    assert m.m_entropy[5:].all()


def test_topk_rho_zero_empty():
    for n in range(6):
        assert sel.selected_count(0.0, n) == 0
    assert not sel.build_mask(_entropy_stats([float(i) for i in range(5)]), 0.0).m_entropy.any()


def test_topk_rho_out_of_range():
    with pytest.raises(ConfigError):
        sel.build_mask(_entropy_stats([1.0]), 1.5)
    with pytest.raises(ConfigError):
        sel.selected_count(-0.1, 10)
    with pytest.raises(ConfigError):
        sel.selected_count(float("nan"), 10)


def test_selected_count_uses_decimal_rho():
    # ceil of the binary product would give 8, 8 and 56
    assert sel.selected_count(0.28, 25) == 7
    assert sel.selected_count(0.07, 100) == 7
    assert sel.selected_count(0.55, 100) == 55
    for i in range(1, 100):
        rho = i / 100
        for total in range(1, 400):
            assert sel.selected_count(rho, total) == math.ceil(Fraction(str(rho)) * total)


def test_build_mask_rho_zero():
    stats = _stats([((0, i), float(i), float(i)) for i in range(5)])
    m = sel.build_mask(stats, 0.0)
    for vec in (m.m_entropy, m.m_kl, m.m_union):
        assert vec.shape == (5,) and not vec.any()
    assert int(m.m_entropy.sum()) == int(m.m_kl.sum()) == 0 and m.m_union.size == 5


def test_build_mask_disjoint_union_is_2k():
    stats = _stats([((0, 0), 1.0, 0.0), ((0, 1), 0.9, 0.1), ((0, 2), 0.1, 0.9), ((0, 3), 0.0, 1.0)])
    m = sel.build_mask(stats, 0.5)
    assert int(m.m_entropy.sum()) == int(m.m_kl.sum()) == 2
    assert int(m.m_union.sum()) == 4


def test_build_mask_empty_warns(caplog):
    with caplog.at_level("WARNING"):
        m = sel.build_mask(_stats([]), 0.3)
    assert int(m.m_entropy.sum()) == int(m.m_kl.sum()) == 0 and m.m_union.size == 0
    assert any("zero valid tokens" in r.message for r in caplog.records)


def _oracle_topk(items, column, rho):
    """Independent oracle on plain tuples: python sort, descending value then ascending ref."""
    ranked = sorted(((item[column], item[0]) for item in items), key=lambda t: (-t[0], t[1]))
    k = 0 if rho == 0 else math.ceil(rho * len(items))
    return frozenset(ref for _, ref in ranked[:k])


def _refs_in(items, selected):
    return frozenset(item[0] for item, chosen in zip(items, selected) if chosen)


@pytest.mark.parametrize("quantize", [False, True])
def test_build_mask_matches_oracle(quantize):
    rng = np.random.default_rng(42 if quantize else 43)
    for _ in range(200):
        n = int(rng.integers(1, 60))
        b = int(rng.integers(1, 5))
        per_seq = -(-n // b)  # distinct (seq, pos) pairs for every draw
        all_refs = [(s, t) for s in range(b) for t in range(per_seq)]
        chosen = rng.permutation(len(all_refs))[:n]
        items = []
        for idx in chosen:
            h, kl = rng.random(), rng.random()
            if quantize:  # engineered ties
                h, kl = round(h * 4) / 4, round(kl * 4) / 4
            items.append((all_refs[idx], h, kl))
        rho = float(rng.choice([0.0, 0.1, 0.2, 0.33, 0.5, 1.0]))
        m = sel.build_mask(_stats(items), rho)
        expect_h = _oracle_topk(items, 1, rho)
        expect_kl = _oracle_topk(items, 2, rho)
        assert _refs_in(items, m.m_entropy) == expect_h
        assert _refs_in(items, m.m_kl) == expect_kl
        assert _refs_in(items, m.m_union) == expect_h | expect_kl
        k = 0 if rho == 0 else math.ceil(rho * n)
        assert int(m.m_entropy.sum()) == int(m.m_kl.sum()) == k
        assert k <= int(m.m_union.sum()) <= 2 * k or k == 0


def test_selection_shift_invariance():
    rng = np.random.default_rng(9)
    z = rng.normal(0, 2, size=(3, 7))
    lp = nk.log_softmax(z)
    lp_shifted = nk.log_softmax(z + 123.0)
    assert np.allclose(nk.entropy(lp), nk.entropy(lp_shifted), atol=1e-12, rtol=0)


def _set_iou(a, b):
    return sel.iou(len(a & b), len(a | b))


def test_iou_examples():
    assert _set_iou({1, 2, 3}, {3, 4}) == 0.25
    assert _set_iou({1, 2}, {1, 2}) == 1.0
    assert _set_iou(set(), set()) == 1.0
    assert _set_iou({1}, set()) == 0.0


def test_iou_symmetric_bounded():
    rng = np.random.default_rng(10)
    for _ in range(200):
        a = set(rng.integers(0, 30, size=rng.integers(0, 12)).tolist())
        b = set(rng.integers(0, 30, size=rng.integers(0, 12)).tolist())
        v = _set_iou(a, b)
        assert 0.0 <= v <= 1.0
        assert v == _set_iou(b, a)


def test_mask_dump_rows():
    stats = _stats([((0, 1), 0.5, 0.2), ((1, 0), 0.1 + 0.2, 0.9)])
    mask = MaskSet(np.array([True, False]), np.array([False, True]))
    rows = sel.mask_dump_rows(7, stats, mask)
    assert rows[0] == {
        "step": 7, "seq": 0, "pos": 1, "entropy": 0.5, "kl": 0.2, "in_mH": True, "in_mKL": False,
    }
    assert rows[1]["seq"] == 1 and rows[1]["in_mKL"] is True
    assert json.dumps(rows[1]).endswith('"in_mH": false, "in_mKL": true}')
    # golden bytes: a numpy int or bool in a row would make json.dumps raise
    assert json.dumps(rows) == (
        '[{"step": 7, "seq": 0, "pos": 1, "entropy": 0.5, "kl": 0.2, "in_mH": true, "in_mKL": false}, '
        '{"step": 7, "seq": 1, "pos": 0, "entropy": 0.30000000000000004, "kl": 0.9, "in_mH": false, '
        '"in_mKL": true}]'
    )
