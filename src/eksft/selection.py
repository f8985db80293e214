"""Per-token uncertainty statistics and Top-K union masking.

`stats_from_log_probs` turns a batch's policy and reference log-probs into
one TokenStats per valid token, with the entropy and KL of `numerics`
(KL roundoff negatives above KL_FLOOR clamped to 0). The valid tokens T are
then ranked twice, once by entropy and once by KL. Each criterion keeps
exactly k = ceil(rho * |T|) tokens (ties broken by ascending (sequence,
position)), and the final mask is the union of the two sets. Masks are bool
vectors in the order of the batch's TokenStats list, which is the row-major
order of its valid positions. Selection is a hard, non-differentiable
choice: downstream losses treat the mask as a constant.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from . import numerics as nk
from .errors import ConfigError

log = logging.getLogger(__name__)

KL_FLOOR = -1e-9  # KL in [KL_FLOOR, 0) is roundoff and reads as 0


class TokenRef(NamedTuple):
    """Identity of one valid token within a batch; tuple order is the tie-break key."""

    sequence_index: int
    token_position: int


@dataclass(frozen=True)
class TokenStats:
    ref: TokenRef
    entropy: float
    kl: float


@dataclass(frozen=True)
class MaskSet:
    """Selected tokens as bool vectors aligned with the batch's TokenStats list."""

    m_entropy: np.ndarray
    m_kl: np.ndarray
    m_union: np.ndarray
    k: int
    total_valid: int

    @staticmethod
    def empty(total_valid: int = 0) -> "MaskSet":
        none = np.zeros(total_valid, dtype=bool)
        return MaskSet(none, none, none, 0, total_valid)


def selected_count(rho: float, total: int) -> int:
    """k = ceil(rho * total) for rho > 0; rho == 0 selects nothing.

    rho is taken at its decimal value: in binary floating point 0.28 * 25
    is 7.000000000000001, whose ceiling would select 8 tokens, not 7.
    """
    if not (0.0 <= rho <= 1.0):
        raise ConfigError(f"top-k ratio must lie in [0, 1], got {rho}")
    if rho == 0.0 or total == 0:
        return 0
    return math.ceil(Fraction(str(float(rho))) * total)


def _top_k(values: np.ndarray, seq: np.ndarray, pos: np.ndarray, k: int) -> np.ndarray:
    """Bool vector marking the k largest values; ties go to ascending (seq, pos)."""
    out = np.zeros(values.size, dtype=bool)
    out[np.lexsort((pos, seq, -values))[:k]] = True
    return out


def build_mask(stats: Sequence[TokenStats], rho: float) -> MaskSet:
    """Union of entropy Top-K and KL Top-K over one batch's valid tokens (batch-global)."""
    k = selected_count(rho, len(stats))
    if not stats:
        log.warning("build_mask called with zero valid tokens; returning empty mask")
        return MaskSet.empty(0)
    if k == 0:
        return MaskSet.empty(len(stats))
    seq = np.array([s.ref.sequence_index for s in stats])
    pos = np.array([s.ref.token_position for s in stats])
    m_entropy = _top_k(np.array([s.entropy for s in stats]), seq, pos, k)
    m_kl = _top_k(np.array([s.kl for s in stats]), seq, pos, k)
    return MaskSet(m_entropy, m_kl, m_entropy | m_kl, k, len(stats))


def iou(n_both: int, n_either: int) -> float:
    """Intersection over union from the two set sizes; both empty counts as 1.0."""
    if n_either == 0:
        return 1.0
    return n_both / n_either


def stats_from_log_probs(
    log_probs: np.ndarray, reference_log_probs: np.ndarray, valid_mask: np.ndarray
) -> list[TokenStats]:
    """TokenStats for every valid (sequence, position) in a batch.

    log_probs and reference_log_probs are (B, L, V); valid_mask is (B, L)
    bool selecting the response-token positions that make up T. KL values
    in [KL_FLOOR, 0) are clamped to 0, so the ranking never sees roundoff.
    """
    bi, li = np.nonzero(valid_mask)
    ent = nk.entropy(log_probs)[bi, li].tolist()
    kl = nk.kl(log_probs, reference_log_probs)
    kl = np.where((kl < 0.0) & (kl >= KL_FLOOR), 0.0, kl)[bi, li].tolist()
    return [
        TokenStats(TokenRef(b, t), h, d)
        for b, t, h, d in zip(bi.tolist(), li.tolist(), ent, kl)
    ]


def mask_dump_rows(step: int, stats: Sequence[TokenStats], mask: MaskSet, seq_offset: int = 0) -> list[dict]:
    """JSONL-ready rows {step, seq, pos, entropy, kl, in_mH, in_mKL}.

    seq_offset shifts sequence indices so micro-batches within one optimizer
    step get distinct ids.
    """
    return [
        {
            "step": step,
            "seq": s.ref.sequence_index + seq_offset,
            "pos": s.ref.token_position,
            "entropy": s.entropy,
            "kl": s.kl,
            "in_mH": in_mh,
            "in_mKL": in_mkl,
        }
        for s, in_mh, in_mkl in zip(stats, mask.m_entropy.tolist(), mask.m_kl.tolist())
    ]
