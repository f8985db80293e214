"""Per-token uncertainty statistics and Top-K union masking.

`stats_from_log_probs` gathers a batch's valid rows of policy and reference
log-probs and returns their statistics as one record array (`token_stats`):
per valid token, `ref.sequence_index`, `ref.token_position`, and the
entropy and KL of `numerics` (KL roundoff negatives above KL_FLOOR clamped
to 0), in the row-major order of the valid positions. The valid tokens T
are then ranked twice, once by entropy and once by KL. Each criterion keeps
exactly k = ceil(rho * |T|) tokens (ties broken by ascending (sequence,
position)), and the final mask is the union of the two sets. Masks are bool
vectors aligned with the records. Selection is a hard, non-differentiable
choice: downstream losses treat the mask as a constant.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import numerics as nk
from .errors import ConfigError, DimensionError

log = logging.getLogger(__name__)

KL_FLOOR = -1e-9  # KL in [KL_FLOOR, 0) is roundoff and reads as 0


TOKEN_STATS = np.dtype([
    ("ref", [("sequence_index", np.int64), ("token_position", np.int64)]),
    ("entropy", np.float64),
    ("kl", np.float64),
])


def token_stats(seq, pos, entropy, kl) -> np.recarray:
    """One record per valid token: ref.sequence_index, ref.token_position, entropy, kl."""
    stats = np.empty(len(seq), dtype=TOKEN_STATS)
    stats["ref"]["sequence_index"], stats["ref"]["token_position"] = seq, pos
    stats["entropy"], stats["kl"] = entropy, kl
    return stats.view(np.recarray)


def _columns(stats: np.recarray) -> tuple[np.ndarray, ...]:
    """(sequence_index, token_position, entropy, kl) as views.

    Read through a plain-ndarray view: recarray attribute access rebuilds
    the nested dtype on every call (about 15 us for `ref` on a 2-vCPU
    machine), as long as the rest of `build_mask` takes at the ~100 tokens
    of a batch.
    """
    cols = stats.view(np.ndarray)
    return cols["ref"]["sequence_index"], cols["ref"]["token_position"], cols["entropy"], cols["kl"]


@dataclass(frozen=True)
class MaskSet:
    """Selected tokens as bool vectors aligned with the batch's token statistics."""

    m_entropy: np.ndarray
    m_kl: np.ndarray

    @property
    def m_union(self) -> np.ndarray:
        return self.m_entropy | self.m_kl


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


def build_mask(stats: np.recarray, rho: float) -> MaskSet:
    """Union of entropy Top-K and KL Top-K over one batch's valid tokens (batch-global)."""
    k = selected_count(rho, stats.size)
    if stats.size == 0:
        log.warning("build_mask called with zero valid tokens; returning empty mask")
    seq, pos, entropy, kl = _columns(stats)
    return MaskSet(_top_k(entropy, seq, pos, k), _top_k(kl, seq, pos, k))


def iou(n_both: int, n_either: int) -> float:
    """Intersection over union from the two set sizes; both empty counts as 1.0."""
    if n_either == 0:
        return 1.0
    return n_both / n_either


def stats_from_log_probs(
    log_probs: np.ndarray, reference_log_probs: np.ndarray, valid_mask: np.ndarray
) -> np.recarray:
    """Token statistics of every valid (sequence, position) in a batch, row-major.

    log_probs and reference_log_probs are (B, L, V); valid_mask is (B, L)
    bool selecting the response-token positions that make up T. Only those
    rows reach the kernels. KL values in [KL_FLOOR, 0) are clamped to 0, so
    the ranking never sees roundoff.
    """
    if log_probs.shape != reference_log_probs.shape:
        raise DimensionError(
            f"policy/reference shapes differ: {log_probs.shape} vs {reference_log_probs.shape}"
        )
    bi, li = np.nonzero(valid_mask)
    lp = log_probs[bi, li]
    kl = nk.kl(lp, reference_log_probs[bi, li])
    return token_stats(bi, li, nk.entropy(lp), np.where((kl < 0.0) & (kl >= KL_FLOOR), 0.0, kl))


def mask_dump_rows(step: int, stats: np.recarray, mask: MaskSet) -> list[dict]:
    """JSONL-ready rows {step, seq, pos, entropy, kl, in_mH, in_mKL} of Python scalars;
    seq is the row within the step's batch."""
    columns = (*_columns(stats), mask.m_entropy, mask.m_kl)
    return [
        {"step": step, "seq": b, "pos": t, "entropy": h, "kl": d, "in_mH": in_mh, "in_mKL": in_mkl}
        for b, t, h, d, in_mh, in_mkl in zip(*(c.tolist() for c in columns))
    ]
