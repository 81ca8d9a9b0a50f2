"""Prototype memory over the feature space.

One row per known category holds an exponential moving average of that
category's mean feature vector, updated once per iteration with a
decaying momentum and frozen when its stage ends. The bank never
receives gradients; it feeds three regularizers:

- a replay term pushing the head to classify each prototype as its own
  category;
- an alignment term pulling current features of old categories (under
  the frozen model's pseudo-labels) toward their prototypes;
- a separation term penalizing positive cosine similarity between new
  category features and both the background mean and old prototypes.

EMA state is kept in float64 so long update sequences stay faithful to
their closed form; consumers cast on read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import tensor as T
from .tensor import Tensor

__all__ = [
    "MemoryBank",
    "momentum",
    "class_mean",
    "ema_update",
    "finalize_stage",
    "mem_loss",
    "same_loss",
    "oppo_loss",
]


def momentum(k: int, total: int, m0: float = 0.9, p: float = 0.9) -> float:
    """Decaying EMA momentum: (9*m0/10) * (1 - k/total)**p + m0/10.

    `k` is the 0-based iteration inside the stage, `total` the stage's
    iteration count. Starts at m0, decays monotonically to m0/10.
    """
    total = int(total)
    k = int(k)
    if total < 1:
        raise ValueError(f"momentum: total iterations must be >= 1, got {total}")
    if k < 0 or k > total:
        raise ValueError(f"momentum: iteration {k} outside [0, {total}]")
    if not (0.0 < m0 <= 1.0):
        raise ValueError(f"momentum: m0 must be in (0, 1], got {m0}")
    if p <= 0.0:
        raise ValueError(f"momentum: p must be positive, got {p}")
    return (9.0 * m0 / 10.0) * (1.0 - k / total) ** p + m0 / 10.0


@dataclass
class MemoryBank:
    """Per-category feature prototypes with EMA bookkeeping.

    Row order follows the category registry. `initialized` marks rows
    that have absorbed at least one observation; `frozen` marks rows
    whose stage has ended. `k` counts iterations inside the current
    stage and `total` is the stage's iteration budget for the momentum
    schedule.
    """

    feature_channels: int
    category_ids: list[int] = field(default_factory=list)
    prototypes: np.ndarray = None  # (n, feature_channels) float64
    initialized: np.ndarray = None
    frozen: np.ndarray = None
    m0: float = 0.9
    p: float = 0.9
    k: int = 0
    total: int = 1

    def __post_init__(self):
        n = len(self.category_ids)
        if self.prototypes is None:
            self.prototypes = np.zeros((n, self.feature_channels), dtype=np.float64)
        if self.initialized is None:
            self.initialized = np.zeros(n, dtype=bool)
        if self.frozen is None:
            self.frozen = np.zeros(n, dtype=bool)
        if self.prototypes.shape != (n, self.feature_channels):
            raise ValueError(f"prototypes {self.prototypes.shape} do not match {n} categories x {self.feature_channels}")
        if self.initialized.shape != (n,) or self.frozen.shape != (n,):
            raise ValueError(f"initialized {self.initialized.shape} and frozen {self.frozen.shape} flags do not match {n} categories")

    @property
    def size(self) -> int:
        return len(self.category_ids)

    def row_of(self, category_id: int) -> int:
        try:
            return self.category_ids.index(int(category_id))
        except ValueError:
            raise KeyError(f"category {category_id} has no prototype row") from None

    def has(self, category_id: int) -> bool:
        return int(category_id) in self.category_ids

    def prototype(self, category_id: int) -> np.ndarray:
        return self.prototypes[self.row_of(category_id)]

    def add_categories(self, ids: Sequence[int], total: int) -> None:
        """Open a new stage: append uninitialized rows and reset the
        iteration counter against the new budget."""
        ids = [int(c) for c in ids]
        dup = set(ids) & set(self.category_ids)
        if dup:
            raise ValueError(f"categories already tracked: {sorted(dup)}")
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate ids in {ids}")
        if total < 1:
            raise ValueError(f"stage iteration budget must be >= 1, got {total}")
        n_new = len(ids)
        self.category_ids.extend(ids)
        self.prototypes = np.concatenate([self.prototypes, np.zeros((n_new, self.feature_channels))], axis=0)
        self.initialized = np.concatenate([self.initialized, np.zeros(n_new, dtype=bool)])
        self.frozen = np.concatenate([self.frozen, np.zeros(n_new, dtype=bool)])
        self.k = 0
        self.total = int(total)

    def copy(self) -> "MemoryBank":
        return MemoryBank(
            feature_channels=self.feature_channels,
            category_ids=list(self.category_ids),
            prototypes=self.prototypes.copy(),
            initialized=self.initialized.copy(),
            frozen=self.frozen.copy(),
            m0=self.m0,
            p=self.p,
            k=self.k,
            total=self.total,
        )


def class_mean(features: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray | None, int]:
    """Mean feature vector over masked positions, as plain arrays.

    `features` is (B, C, H, W), `mask` bool (B, H, W). Returns
    (vector, count); an empty mask returns (None, 0) as the no-update
    signal for the EMA.
    """
    features = np.asarray(features)
    mask = np.asarray(mask, dtype=bool)
    if features.ndim != 4 or mask.shape != (features.shape[0],) + features.shape[2:]:
        raise ValueError(f"class_mean: features {features.shape} incompatible with mask {mask.shape}")
    n = int(mask.sum())
    if n == 0:
        return None, 0
    vec = np.moveaxis(features, 1, -1)[mask].mean(axis=0, dtype=np.float64)
    return vec, n


def ema_update(bank: MemoryBank, category_id: int, r_mean: np.ndarray, m: float) -> None:
    """Blend one observation into a category's prototype.

    The first observation initializes the row directly; afterwards the
    row moves by `m` toward the new mean. Frozen rows reject updates.
    """
    row = bank.row_of(category_id)
    if bank.frozen[row]:
        raise ValueError(f"ema_update: prototype row for category {category_id} is frozen")
    r_mean = np.asarray(r_mean, dtype=np.float64)
    if r_mean.shape != (bank.feature_channels,):
        raise ValueError(f"ema_update: observation shape {r_mean.shape}, expected ({bank.feature_channels},)")
    if not np.all(np.isfinite(r_mean)):
        raise ValueError("ema_update: non-finite observation")
    if not (0.0 < m <= 1.0):
        raise ValueError(f"ema_update: momentum must be in (0, 1], got {m}")
    if not bank.initialized[row]:
        bank.prototypes[row] = r_mean
        bank.initialized[row] = True
    else:
        bank.prototypes[row] = (1.0 - m) * bank.prototypes[row] + m * r_mean


def finalize_stage(bank: MemoryBank) -> None:
    """Freeze every row of the just-finished stage.

    Rejects banks with rows that never saw an observation, naming the
    categories. Calling with nothing left to freeze is a no-op.
    """
    open_rows = ~bank.frozen
    missing = [cid for cid, is_open, init in zip(bank.category_ids, open_rows, bank.initialized) if is_open and not init]
    if missing:
        raise ValueError(f"finalize_stage: categories never observed: {missing}")
    bank.frozen[open_rows] = True


def _onehot(rows: np.ndarray, width: int, dtype) -> np.ndarray:
    out = np.zeros((rows.size, width), dtype=dtype)
    out[np.arange(rows.size), rows] = 1
    return out


def mem_loss(bank: MemoryBank, head_w: Tensor, head_b: Tensor) -> Tensor:
    """Mean cross entropy of the head classifying each prototype as its
    own category. Prototypes are constants; gradient reaches the head
    parameters only. Returns exactly 0 with no initialized rows.
    """
    if head_w.data.ndim != 4 or head_w.data.shape[2:] != (1, 1):
        raise T.ShapeError(f"mem_loss: expected a 1x1 head kernel, got {head_w.data.shape}")
    width, cin = head_w.data.shape[:2]
    if cin != bank.feature_channels:
        raise T.ShapeError(f"mem_loss: head reads {cin} channels, prototypes carry {bank.feature_channels}")
    if width != 1 + bank.size:
        raise T.ShapeError(f"mem_loss: head covers {width} channels, bank holds {bank.size} categories")
    rows = np.flatnonzero(bank.initialized)
    dtype = head_w.data.dtype
    if rows.size == 0:
        return T.constant(np.zeros((), dtype=dtype))
    protos = T.constant(bank.prototypes[rows].astype(dtype), dtype)
    w2 = T.reshape(head_w, (width, cin))
    logits = T.matmul(protos, T.transpose2d(w2)) + head_b
    logp = T.log_softmax(logits, axis=1)
    oh = T.constant(_onehot(rows + 1, width, dtype), dtype)  # row i serves head channel i+1
    return T.tsum(T.mul(oh, logp)) * (-1.0 / rows.size)


def _cosine(a: Tensor, b: Tensor) -> Tensor:
    return T.dot(a, b) / T.clamp_min(T.norm(a) * T.norm(b), 1e-12)


def same_loss(bank: MemoryBank, features: Tensor, old_masks: Mapping[int, np.ndarray]) -> Tensor:
    """Sum over old categories of (1 - cos(prototype, current mean)).

    `old_masks` maps old category ids to bool (B, H, W) masks, normally
    the frozen model's pseudo-label footprints. Categories with empty
    masks contribute nothing; with no old categories the loss is exactly
    0. Gradient flows into `features` only.
    """
    dtype = features.data.dtype
    total: Tensor | None = None
    for cid in sorted(old_masks):
        row = bank.row_of(cid)
        if not bank.initialized[row]:
            raise ValueError(f"same_loss: prototype for category {cid} was never observed")
        mask = np.asarray(old_masks[cid], dtype=bool)
        if not mask.any():
            continue
        mean_vec = T.masked_mean(features, mask)
        proto = T.constant(bank.prototypes[row].astype(dtype), dtype)
        term = 1.0 - _cosine(proto, mean_vec)
        total = term if total is None else total + term
    if total is None:
        return T.constant(np.zeros((), dtype=dtype))
    return total


def oppo_loss(
    bank: MemoryBank,
    features: Tensor,
    new_masks: Mapping[int, np.ndarray],
    bg_mask: np.ndarray,
    margin: float = 0.0,
) -> Tensor:
    """Hinge on cosine similarity separating new categories from old ones
    and from background.

    For each new category with a nonempty mask, penalizes max(0, cos -
    margin) against the background mean (over `bg_mask`, if nonempty)
    and against every frozen old prototype. Gradient flows into
    `features` only.
    """
    dtype = features.data.dtype
    bg_mask = np.asarray(bg_mask, dtype=bool)
    bg_mean = T.masked_mean(features, bg_mask) if bg_mask.any() else None
    old_rows = [i for i in range(bank.size) if bank.frozen[i]]
    total: Tensor | None = None
    for cid in sorted(new_masks):
        mask = np.asarray(new_masks[cid], dtype=bool)
        if not mask.any():
            continue
        mean_vec = T.masked_mean(features, mask)
        terms: list[Tensor] = []
        if bg_mean is not None:
            terms.append(T.relu(_cosine(bg_mean, mean_vec) - float(margin)))
        for row in old_rows:
            proto = T.constant(bank.prototypes[row].astype(dtype), dtype)
            terms.append(T.relu(_cosine(proto, mean_vec) - float(margin)))
        for term in terms:
            total = term if total is None else total + term
    if total is None:
        return T.constant(np.zeros((), dtype=dtype))
    return total
