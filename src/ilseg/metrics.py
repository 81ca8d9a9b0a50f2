"""Overlap and boundary-distance metrics plus dataset evaluation.

Dice is 2|A∩B| / (|A|+|B|) with both-empty defined as 1 and one-empty as
0. The 95th-percentile Hausdorff distance runs over boundary pixels (a
mask pixel with any 4-neighbour outside the mask; the image border
counts as outside), using the nearest-rank percentile on ascending
sorted distances and Euclidean distance scaled by pixel spacing. An
empty mask makes the pair degenerate: the distance reported is the
image diagonal and the row is flagged.

HD95 needs, for each boundary pixel of one mask, the distance to the
nearest boundary pixel of the other. It is found in two separable steps
(Felzenszwalb & Huttenlocher, Theory of Computing 8, 2012): an upward and
a downward scan give, in every column, the row gap to the nearest
boundary pixel of that column; then each source pixel takes the least
(dy*sy)**2 + (dx*sx)**2 over the columns that hold one. Rounding is
monotone, so the nearest row of a column is also its nearest in float64,
and the result equals an exact Euclidean distance transform's bit for
bit. Tests cross-check it against scipy's transform and a brute-force
nearest-neighbour oracle.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import data as D
from . import model as M

__all__ = [
    "dice",
    "boundary_mask",
    "hd95",
    "HD95Result",
    "MetricRow",
    "MetricsReport",
    "evaluate",
    "predict_labels",
]

CSV_COLUMNS = ("stage", "category", "DC", "HD95", "degenerate")


def _as_mask(name: str, arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr)
    if arr.ndim != 2:
        raise ValueError(f"{name}: expected a 2-d mask, got shape {arr.shape}")
    return arr.astype(bool)


def dice(pred: np.ndarray, gt: np.ndarray) -> float:
    """Overlap coefficient; both-empty -> 1.0, exactly one empty -> 0.0."""
    pred = _as_mask("dice", pred)
    gt = _as_mask("dice", gt)
    if pred.shape != gt.shape:
        raise ValueError(f"dice: shape mismatch {pred.shape} vs {gt.shape}")
    ps, gs = int(pred.sum()), int(gt.sum())
    if ps == 0 and gs == 0:
        return 1.0
    if ps == 0 or gs == 0:
        return 0.0
    inter = int(np.logical_and(pred, gt).sum())
    return 2.0 * inter / (ps + gs)


def boundary_mask(mask: np.ndarray) -> np.ndarray:
    """Mask pixels with a 4-neighbour outside the mask (border is outside)."""
    mask = _as_mask("boundary_mask", mask)
    padded = np.pad(mask, 1, constant_values=False)
    interior = (
        padded[:-2, 1:-1] & padded[2:, 1:-1] & padded[1:-1, :-2] & padded[1:-1, 2:]
    )
    return mask & ~interior


class HD95Result(NamedTuple):
    value: float
    degenerate: bool


# elements of one (source pixels x columns) block in _directed_p95
_BLOCK = 1 << 15


def _directed_p95(src: np.ndarray, dst: np.ndarray, sy: float, sx: float) -> float:
    """Nearest-rank 95th percentile of the distances from each `src` pixel
    to the nearest `dst` pixel (both masks non-empty)."""
    h, w = dst.shape
    cols = np.flatnonzero(dst.any(axis=0))
    d = dst[:, cols]
    rows = np.arange(h)[:, None]
    # nearest dst row at or above / at or below each row; the sentinels
    # lie h or more rows away, so every kept column has a real nearest row
    above = np.maximum.accumulate(np.where(d, rows, -h), axis=0)
    below = np.minimum.accumulate(np.where(d, rows, 2 * h)[::-1], axis=0)[::-1]
    dy = np.minimum(rows - above, below - rows) * sy
    dx = (np.arange(w)[:, None] - cols) * sx
    dy2, dx2 = dy * dy, dx * dx
    ys, xs = np.nonzero(src)
    sq = np.empty(ys.size)
    step = max(1, _BLOCK // cols.size)
    for lo in range(0, ys.size, step):
        hi = lo + step
        sq[lo:hi] = (dy2[ys[lo:hi]] + dx2[xs[lo:hi]]).min(axis=1)
    idx = int(np.ceil(0.95 * sq.size)) - 1
    # sqrt is monotone, so the root of the rank-idx square is the rank-idx distance
    return float(np.sqrt(np.partition(sq, idx)[idx]))


def hd95(pred: np.ndarray, gt: np.ndarray, spacing: float | tuple[float, float] = 1.0) -> HD95Result:
    """Symmetric 95th-percentile boundary distance.

    Returns the max of the two directed nearest-rank percentiles. If
    either mask is empty the result is the image diagonal with the
    degenerate flag set.
    """
    pred = _as_mask("hd95", pred)
    gt = _as_mask("hd95", gt)
    if pred.shape != gt.shape:
        raise ValueError(f"hd95: shape mismatch {pred.shape} vs {gt.shape}")
    if np.isscalar(spacing):
        sy = sx = float(spacing)
    else:
        sy, sx = (float(s) for s in spacing)
    if sy <= 0 or sx <= 0:
        raise ValueError(f"hd95: spacing must be positive, got {(sy, sx)}")
    h, w = pred.shape
    if not pred.any() or not gt.any():
        diag = float(np.sqrt((h * sy) ** 2 + (w * sx) ** 2))
        return HD95Result(diag, True)
    bp = boundary_mask(pred)
    bg = boundary_mask(gt)
    return HD95Result(max(_directed_p95(bp, bg, sy, sx), _directed_p95(bg, bp, sy, sx)), False)


# ---------------------------------------------------------------------------
# dataset evaluation


@dataclass(frozen=True)
class MetricRow:
    category_id: int
    category: str
    n: int
    dice_mean: float | None
    hd95_mean: float | None
    degenerate_count: int
    absent: bool


@dataclass
class MetricsReport:
    stage: int
    rows: list[MetricRow]

    def mean_dice(self, category_ids: Sequence[int] | None = None) -> float | None:
        vals = [
            r.dice_mean
            for r in self.rows
            if not r.absent and (category_ids is None or r.category_id in category_ids)
        ]
        return float(np.mean(vals)) if vals else None

    def row_for(self, category_id: int) -> MetricRow:
        for r in self.rows:
            if r.category_id == category_id:
                return r
        raise KeyError(f"no metrics row for category {category_id}")

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in self.rows:
            if r.absent:
                writer.writerow([self.stage, r.category, "", "", "absent"])
            else:
                writer.writerow([self.stage, r.category, f"{r.dice_mean:.6f}", f"{r.hd95_mean:.6f}", r.degenerate_count])
        present = [r for r in self.rows if not r.absent]
        if present:
            writer.writerow(
                [
                    self.stage,
                    "mean",
                    f"{np.mean([r.dice_mean for r in present]):.6f}",
                    f"{np.mean([r.hd95_mean for r in present]):.6f}",
                    sum(r.degenerate_count for r in present),
                ]
            )
        return buf.getvalue()

    def write_csv(self, path: Path | str) -> None:
        Path(path).write_text(self.to_csv())


def predict_labels(model: M.SegModel | M.FrozenModel, images: np.ndarray) -> np.ndarray:
    """Argmax category-id map for a batch of images."""
    _, logits = M.forward(model, images)
    channel = logits.data.argmax(axis=1)
    lookup = np.array([0] + list(model.registry), dtype=np.int32)
    return lookup[channel]


def evaluate(
    model: M.SegModel | M.FrozenModel,
    manifest: Mapping | Path | str,
    split: str = "val",
    spacing: float = 1.0,
    stage: int | None = None,
    batch: int = 4,
) -> MetricsReport:
    """Score a model against every annotated category of one split.

    Categories the model has never seen, or that no sample annotates,
    produce rows marked absent rather than zeros. Dice and HD95 average
    over samples; degenerate HD95 cases (empty prediction or empty
    ground truth) contribute the image diagonal and are counted.
    """
    doc = manifest if isinstance(manifest, Mapping) else D.load_manifest(manifest)
    samples = D.manifest_samples(doc, split)
    if not samples:
        raise ValueError(f"evaluate: split {split!r} has no samples")
    known = set(model.registry)
    per_cat: dict[int, list[tuple[float, float, bool]]] = {c: [] for c in doc["categories"]}
    for lo in range(0, len(samples), batch):
        chunk = samples[lo : lo + batch]
        images = np.stack([s.image[None] for s in chunk]).astype(np.float32)
        pred = predict_labels(model, images)
        for s, pmap in zip(chunk, pred):
            for cid in s.annotated:
                if cid not in known:
                    continue
                pm = pmap == cid
                gm = s.labels == cid
                d = dice(pm, gm)
                h = hd95(pm, gm, spacing)
                per_cat[cid].append((d, h.value, h.degenerate))
    rows = []
    for cid in sorted(doc["categories"]):
        name = doc["categories"][cid]
        scored = per_cat.get(cid, [])
        if not scored:
            rows.append(MetricRow(cid, name, 0, None, None, 0, True))
            continue
        ds = [t[0] for t in scored]
        hs = [t[1] for t in scored]
        deg = sum(1 for t in scored if t[2])
        rows.append(MetricRow(cid, name, len(scored), float(np.mean(ds)), float(np.mean(hs)), deg, False))
    return MetricsReport(stage=stage if stage is not None else 0, rows=rows)
