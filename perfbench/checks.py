"""Correctness checks on what one round wrote.

Every check recomputes its expectation independently of the code under
test: label sets and areas from the generator's category table, loss
totals and momenta from their formulas, Dice and HD95 with formulas
written here, convolutions directly from their definition. None compares
against a stored copy of earlier output. Each returns a list of problems;
an empty list is a pass.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from ilseg import data as D
from ilseg import metrics as ME
from ilseg import tensor as T
from ilseg import trainer as TR

from workloads import ALL_CATEGORIES, BATCH_SIZE, STAGE_CATEGORIES, UNSCORED_SPLIT

LOG_FIELDS = {"stage", "epoch", "iter", "lr", "m_k", "loss_total", "loss_seg", "loss_kd", "loss_mem", "loss_same", "loss_oppo"}
LOSS_TOL = 1e-5  # relative; the logged parts and total are float32 values
CSV_TOL = 1.5e-6  # the eval CSV prints six decimals


# ---------------------------------------------------------------------------
# gen-data


def _read_manifest(path: Path) -> list[dict]:
    return json.loads(Path(path).read_text())["samples"]


def check_dataset(data_root: Path, image_size: int, counts: dict[str, int], full_val_count: int) -> list[str]:
    """Samples reload, labels carry only annotated ids, full-split areas
    lie inside each category's `area_range`."""
    problems = []
    areas = {c.id: c.area_range for c in D.CATEGORIES}
    datasets = [(f"stage_{t}", cats, counts) for t, cats in enumerate(STAGE_CATEGORIES, start=1)]
    datasets.append(("full", ALL_CATEGORIES, {"val": full_val_count, "test": UNSCORED_SPLIT}))
    for name, cats, expect in datasets:
        entries = _read_manifest(data_root / name / "manifest.json")
        seen = {split: 0 for split in expect}
        for entry in entries:
            seen[entry["split"]] = seen.get(entry["split"], 0) + 1
            sample = D.load_sample(data_root / name / entry["path"])
            where = f"{name}/{entry['path']}"
            if tuple(sample.annotated) != tuple(cats) or tuple(entry["annotated"]) != tuple(cats):
                problems.append(f"{where}: annotates {sample.annotated}, expected {cats}")
            if sample.image.shape != (image_size, image_size) or sample.labels.shape != (image_size, image_size):
                problems.append(f"{where}: shape {sample.image.shape}")
            if not (np.isfinite(sample.image).all() and sample.image.min() >= 0 and sample.image.max() <= 1):
                problems.append(f"{where}: image values outside [0, 1]")
            extra = set(np.unique(sample.labels).tolist()) - {0, *cats}
            if extra:
                problems.append(f"{where}: labels carry unannotated ids {sorted(extra)}")
            if name == "full":
                for cid in ALL_CATEGORIES:
                    frac = float((sample.labels == cid).sum()) / (image_size * image_size)
                    lo, hi = areas[cid]
                    if not lo <= frac <= hi:
                        problems.append(f"{where}: category {cid} covers {frac:.4f}, outside [{lo}, {hi}]")
        if seen != expect:
            problems.append(f"{name}: split sizes {seen}, expected {expect}")
    return problems


def check_same_files(first: Path, second: Path) -> list[str]:
    """A regeneration from the same config and seed is byte-identical."""
    a = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    b = sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
    if a != b:
        return [f"{second} holds {len(b)} files, {first} {len(a)}"]
    differ = [str(rel) for rel in a if (first / rel).read_bytes() != (second / rel).read_bytes()]
    return [f"{second}: {len(differ)} files differ, first {differ[0]}"] if differ else []


# ---------------------------------------------------------------------------
# train


def momentum(k: int, total: int, m0: float, p: float) -> float:
    return (9.0 * m0 / 10.0) * (1.0 - k / total) ** p + m0 / 10.0


def check_log(log_path: Path, mode: str, stage_cfg: dict, n_samples: int) -> list[str]:
    """Every record finite; loss_total equals the lambda-weighted parts;
    m_k follows the momentum schedule; baselines log no method losses;
    the last epoch's mean loss is below the first's."""
    records = [json.loads(line) for line in Path(log_path).read_text().splitlines() if line]
    epochs = stage_cfg["epochs"]
    per_epoch = math.ceil(n_samples / BATCH_SIZE)
    total_iters = epochs * per_epoch
    if len(records) != total_iters:
        return [f"{log_path.name}: {len(records)} records, expected {total_iters}"]
    problems = []
    lam = {part: stage_cfg[f"lambda_{part}"] for part in ("kd", "mem", "same", "oppo")}
    m0, p = stage_cfg["momentum_m0"], stage_cfg["momentum_p"]
    for k, rec in enumerate(records):
        where = f"{log_path.name} iter {k}"
        if set(rec) != LOG_FIELDS:
            problems.append(f"{where}: fields {sorted(rec)}")
            continue
        if rec["iter"] != k or rec["epoch"] != k // per_epoch:
            problems.append(f"{where}: logged as epoch {rec['epoch']} iter {rec['iter']}")
        losses = [rec[f] for f in LOG_FIELDS if f.startswith("loss_")]
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in losses + [rec["lr"]]):
            problems.append(f"{where}: non-finite value")
            continue
        expect = rec["loss_seg"] + sum(lam[part] * rec[f"loss_{part}"] for part in lam)
        if abs(expect - rec["loss_total"]) > LOSS_TOL * max(1.0, abs(expect)):
            problems.append(f"{where}: loss_total {rec['loss_total']} != weighted parts {expect}")
        if mode == "full":
            m_k = momentum(k, total_iters, m0, p)
            if rec["m_k"] is None or abs(rec["m_k"] - m_k) > 1e-12:
                problems.append(f"{where}: m_k {rec['m_k']} != schedule {m_k}")
        else:
            if rec["m_k"] is not None:
                problems.append(f"{where}: m_k {rec['m_k']} logged in mode {mode}")
            if mode in ("ft", "joint") and any(rec[f"loss_{part}"] != 0 for part in lam):
                problems.append(f"{where}: mode {mode} logged a nonzero kd/mem/same/oppo loss")
    first = [r["loss_total"] for r in records[:per_epoch]]
    last = [r["loss_total"] for r in records[-per_epoch:]]
    if not problems and not np.mean(last) < np.mean(first):
        problems.append(f"{log_path.name}: last-epoch mean loss {np.mean(last):.6f} not below first {np.mean(first):.6f}")
    return problems


def check_checkpoint(path: Path, mode: str, stage: int, registry: tuple[int, ...], scratch: Path) -> list[str]:
    """Reloads and saves back byte for byte; registry is the stages'
    categories in order; in full mode one initialized, frozen prototype
    per category."""
    ckpt = TR.load_checkpoint(path)
    problems = []
    TR.save_checkpoint(ckpt, scratch)
    if scratch.read_bytes() != Path(path).read_bytes():
        problems.append(f"{path.name}: save after load does not reproduce the file")
    scratch.unlink()
    if (ckpt.stage, ckpt.mode) != (stage, mode):
        problems.append(f"{path.name}: holds stage {ckpt.stage} mode {ckpt.mode}")
    if tuple(ckpt.registry) != tuple(registry):
        problems.append(f"{path.name}: registry {ckpt.registry}, expected {registry}")
    if ckpt.completed_epochs != ckpt.total_epochs:
        problems.append(f"{path.name}: {ckpt.completed_epochs} of {ckpt.total_epochs} epochs")
    if not all(np.isfinite(v).all() for v in ckpt.params.values()):
        problems.append(f"{path.name}: non-finite parameters")
    if mode == "full":
        bank = ckpt.bank
        if tuple(bank.category_ids) != tuple(registry):
            problems.append(f"{path.name}: bank covers {bank.category_ids}, expected {registry}")
        elif not (np.all(bank.initialized) and np.all(bank.frozen)):
            problems.append(f"{path.name}: bank rows not all initialized and frozen")
        elif not (np.isfinite(bank.prototypes).all() and np.all(np.linalg.norm(bank.prototypes, axis=1) > 0)):
            problems.append(f"{path.name}: bank holds a zero or non-finite prototype")
    return problems


# ---------------------------------------------------------------------------
# eval


def dice(pred: np.ndarray, gt: np.ndarray) -> float:
    a, b = int(pred.sum()), int(gt.sum())
    if a + b == 0:
        return 1.0
    return 2.0 * int((pred & gt).sum()) / (a + b)


def _boundary_points(mask: np.ndarray) -> np.ndarray:
    """(n, 2) coordinates of mask pixels with a 4-neighbour outside the
    mask; outside the image counts as outside."""
    h, w = mask.shape
    framed = np.zeros((h + 2, w + 2), dtype=bool)
    framed[1:-1, 1:-1] = mask
    inside = framed[:-2, 1:-1] & framed[2:, 1:-1] & framed[1:-1, :-2] & framed[1:-1, 2:]
    return np.argwhere(mask & ~inside).astype(np.float64)


def _directed_p95(src: np.ndarray, dst: np.ndarray) -> float:
    nearest = np.empty(len(src))
    for lo in range(0, len(src), 64):  # bounded memory for ragged masks
        d = src[lo : lo + 64, None, :] - dst[None, :, :]
        nearest[lo : lo + 64] = np.sqrt((d * d).sum(axis=2)).min(axis=1)
    nearest.sort()
    return float(nearest[math.ceil(0.95 * len(nearest)) - 1])


def hd95_brute(pred: np.ndarray, gt: np.ndarray) -> tuple[float, bool]:
    """Symmetric nearest-rank 95th-percentile boundary distance by brute
    force over every pair of boundary pixels; an empty mask gives the
    image diagonal and is degenerate."""
    if not pred.any() or not gt.any():
        return math.hypot(*pred.shape), True
    bp, bg = _boundary_points(pred), _boundary_points(gt)
    return max(_directed_p95(bp, bg), _directed_p95(bg, bp)), False


def parse_eval_csv(text: str) -> dict[str, dict]:
    rows = list(csv.DictReader(io.StringIO(text)))
    return {r["category"]: r for r in rows}


def predict(ckpt_path: Path, images: np.ndarray) -> np.ndarray:
    """Predicted label maps, batched as `evaluate` batches them."""
    model = TR.model_from_checkpoint(TR.load_checkpoint(ckpt_path))
    return np.concatenate([ME.predict_labels(model, images[lo : lo + 4]) for lo in range(0, len(images), 4)])


def load_split(manifest: Path, split: str = "val") -> list[D.Sample]:
    return [D.load_sample(manifest.parent / e["path"]) for e in _read_manifest(manifest) if e["split"] == split]


def check_eval(
    csv_text: str, stage: int, registry: tuple[int, ...], samples: list[D.Sample], preds: np.ndarray
) -> tuple[list[str], dict[int, float]]:
    """Dice and brute-force HD95, recomputed here for every image and
    category from `preds`, must match the eval CSV. Returns the problems
    and the recomputed per-category Dice."""
    problems = []
    rows = parse_eval_csv(csv_text)
    names = {c.id: c.name for c in D.CATEGORIES}
    dices: dict[int, float] = {}
    for cid in ALL_CATEGORIES:
        row = rows.get(names[cid])
        if row is None or row["stage"] != str(stage):
            problems.append(f"category {names[cid]}: no stage-{stage} row")
            continue
        if cid not in registry:
            if row["degenerate"] != "absent":
                problems.append(f"category {names[cid]}: unlearned but not marked absent")
            continue
        pairs = [(p == cid, s.labels == cid) for p, s in zip(preds, samples)]
        dices[cid] = float(np.mean([dice(pm, gm) for pm, gm in pairs]))
        hd = [hd95_brute(pm, gm) for pm, gm in pairs]
        hd_mean = float(np.mean([v for v, _ in hd]))
        degenerate = sum(flag for _, flag in hd)
        if row["degenerate"] == "absent":
            problems.append(f"category {names[cid]}: learned but marked absent")
            continue
        if abs(float(row["DC"]) - dices[cid]) > CSV_TOL:
            problems.append(f"category {names[cid]}: CSV DC {row['DC']} != recomputed {dices[cid]:.6f}")
        if abs(float(row["HD95"]) - hd_mean) > CSV_TOL or int(row["degenerate"]) != degenerate:
            problems.append(
                f"category {names[cid]}: CSV HD95 {row['HD95']} ({row['degenerate']} degenerate)"
                f" != brute force {hd_mean:.6f} ({degenerate})"
            )
    mean = rows.get("mean")
    if dices and (mean is None or abs(float(mean["DC"]) - float(np.mean(list(dices.values())))) > CSV_TOL):
        problems.append(f"mean row DC {None if mean is None else mean['DC']} != recomputed")
    return problems, dices


def check_lobe(dices: dict[int, float], bounds: tuple[float, float] | None) -> list[str]:
    """The stage-1 category's Dice lies inside the workload's bounds."""
    if bounds is None:
        return []
    lo, hi = bounds
    value = dices.get(1)
    if value is None or not lo <= value <= hi:
        return [f"stage-1 category Dice {value} outside [{lo}, {hi}]"]
    return []


# ---------------------------------------------------------------------------
# replayed conv blocks


def check_conv(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int, padding: int, rng: np.random.Generator) -> list[str]:
    """conv2d against the direct sum on sampled output positions, and its
    weight gradient against a patch-by-patch accumulation."""
    xt = T.Tensor(x.copy(), requires_grad=True)
    wt = T.Tensor(w.copy(), requires_grad=True)
    bt = T.Tensor(b.copy(), requires_grad=True)
    out = T.conv2d(xt, wt, bt, stride=stride, padding=padding)
    bsz, cout, ho, wo = out.data.shape
    k = w.shape[2]
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    problems = []
    scale = float(np.abs(out.data).max()) or 1.0
    for _ in range(64):
        n, o, i, j = (int(rng.integers(d)) for d in (bsz, cout, ho, wo))
        patch = xp[n, :, i * stride : i * stride + k, j * stride : j * stride + k]
        ref = float((patch * w[o]).sum() + b[o])
        if abs(ref - float(out.data[n, o, i, j])) > 1e-4 * scale:
            problems.append(f"conv2d output ({n},{o},{i},{j}) {out.data[n, o, i, j]} != direct {ref}")
            break
    g = rng.standard_normal(out.data.shape).astype(x.dtype)
    T.backward(T.tsum(T.mul(out, T.constant(g, x.dtype))))
    ref_gw = np.zeros(w.shape)
    for di in range(k):
        for dj in range(k):
            cols = xp[:, :, di : di + stride * ho : stride, dj : dj + stride * wo : stride]
            ref_gw[:, :, di, dj] = np.einsum("noij,ncij->oc", g.astype(np.float64), cols)
    err = float(np.abs(wt.grad - ref_gw).max()) / max(1.0, float(np.abs(ref_gw).max()))
    if err > 1e-4:
        problems.append(f"conv2d weight gradient off by {err:.2e} relative")
    return problems
