"""Synthetic staged datasets: generation, binary sample IO, batching.

Five ellipse-like structures sit in a fixed relative layout; every image
renders all of them with distinct intensity bands over a textured
background, plus Gaussian noise. Each stage dataset annotates only the
categories introduced at that stage (everything else is background 0),
while the `full` dataset annotates all five for evaluation. Sample
generation is keyed by (seed, stage, split, index) so any byte of any
dataset regenerates identically, independent of generation order.

Sample file layout (little endian): magic "ILSEG1\\0", u32 height, u32
width, height*width float32 image, height*width uint8 labels, u8 count
of annotated ids, then that many uint8 ids.
"""

from __future__ import annotations

import functools
import json
import math
import struct
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "Category",
    "GeneratorConfig",
    "Sample",
    "SampleFormatError",
    "BadMagicError",
    "TruncatedPayloadError",
    "CATEGORIES",
    "STAGE_CATEGORIES",
    "CATEGORY_NAMES",
    "generate",
    "render_sample",
    "save_sample",
    "load_sample",
    "write_manifest",
    "load_manifest",
    "manifest_samples",
    "iterate_batches",
]

MAGIC = b"ILSEG1\0"
MANIFEST_VERSION = 1


class SampleFormatError(ValueError):
    """Sample payload does not follow the on-disk format."""


class BadMagicError(SampleFormatError):
    pass


class TruncatedPayloadError(SampleFormatError):
    pass


@dataclass(frozen=True)
class Category:
    """One structure: an ellipse at a fixed relative position.

    Geometry is in fractions of the image extent; `area_range` bounds the
    admissible rendered pixel area as a fraction of the image area.
    """

    id: int
    name: str
    center: tuple[float, float]
    radii: tuple[float, float]
    angle: float
    intensity: float
    area_range: tuple[float, float]


CATEGORIES: tuple[Category, ...] = (
    Category(1, "lobe", (0.30, 0.36), (0.15, 0.18), 0.10, 0.32, (0.050, 0.120)),
    Category(2, "disc", (0.70, 0.25), (0.095, 0.075), 0.0, 0.47, (0.012, 0.032)),
    Category(3, "band", (0.62, 0.60), (0.15, 0.05), -0.30, 0.62, (0.012, 0.034)),
    Category(4, "pod_left", (0.26, 0.80), (0.125, 0.060), 0.10, 0.74, (0.014, 0.038)),
    Category(5, "pod_right", (0.74, 0.78), (0.060, 0.125), -0.10, 0.95, (0.014, 0.038)),
)

STAGE_CATEGORIES: tuple[tuple[int, ...], ...] = ((1,), (2,), (3,), (4, 5))
CATEGORY_NAMES: dict[int, str] = {c.id: c.name for c in CATEGORIES}

_SPLIT_TAG = {"train": 0, "val": 1, "test": 2}
_FULL_TAG = 0  # stage datasets use their 1-based index


@dataclass(frozen=True)
class GeneratorConfig:
    image_size: int = 128
    train_count: int = 200
    val_count: int = 40
    test_count: int = 40
    full_val_count: int = 40
    full_test_count: int = 40
    noise_sigma: float = 0.05
    background_level: float = 0.12
    texture_amplitude: float = 0.04
    jitter_px: float = 8.0
    shape_jitter_px: float = 3.0
    scale_jitter: float = 0.10
    overlap_tolerance: float = 0.02
    max_attempts: int = 20
    # mild per-stage-dataset brightness shift, mimicking acquisition
    # differences between the source datasets of each stage
    stage_intensity_shift: tuple[float, ...] = (0.0, 0.03, -0.03, 0.05)

    def __post_init__(self) -> None:
        if self.image_size < 16:
            raise ValueError(f"image_size must be >= 16, got {self.image_size}")
        if self.image_size % 8:
            raise ValueError(f"image_size must be divisible by 8, got {self.image_size}")
        for name in ("train_count", "val_count", "test_count", "full_val_count", "full_test_count"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.noise_sigma < 0 or self.texture_amplitude < 0:
            raise ValueError("noise_sigma and texture_amplitude must be >= 0")
        # past half the image most layouts leave the view, and rendering redraws ever longer
        for name in ("jitter_px", "shape_jitter_px"):
            if not 0 <= getattr(self, name) <= self.image_size / 2:
                raise ValueError(f"{name} must be in [0, image_size / 2], got {getattr(self, name)}")
        if not (0 <= self.scale_jitter < 0.5):
            raise ValueError(f"scale_jitter must be in [0, 0.5), got {self.scale_jitter}")
        if self.overlap_tolerance < 0:
            raise ValueError(f"overlap_tolerance must be >= 0, got {self.overlap_tolerance}")
        if len(self.stage_intensity_shift) != len(STAGE_CATEGORIES):
            raise ValueError(f"stage_intensity_shift needs {len(STAGE_CATEGORIES)} entries")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")


@dataclass
class Sample:
    image: np.ndarray  # (H, W) float32
    labels: np.ndarray  # (H, W) uint8
    annotated: tuple[int, ...]

    def validate(self) -> None:
        if self.image.shape != self.labels.shape:
            raise SampleFormatError(f"image {self.image.shape} and labels {self.labels.shape} disagree")
        present = set(np.flatnonzero(np.bincount(self.labels.ravel())).tolist()) - {0}
        extra = present - set(self.annotated)
        if extra:
            raise SampleFormatError(f"labels carry unannotated categories {sorted(extra)}")


def _ellipse_mask(size: int, cat: Category, cx: float, cy: float, scale: float, centres: np.ndarray) -> tuple:
    """Pixels of one ellipse as (y0, x0, inside).

    `inside` covers only the ellipse's bounding box, grown by 2 px and
    clipped to the image, with (y0, x0) its top-left pixel. Every pixel
    centre outside that box has u*u + v*v > 1 by a wide margin, so the
    mask equals the full-image test; each pixel inside gets the same
    float64 operations as there.
    """
    reach = max(cat.radii) * scale * size + 2
    (y0, y1), (x0, x1) = (_span(c * size, reach, size) for c in (cy, cx))
    dx = centres[x0:x1] - cx * size
    dy = centres[y0:y1, None] - cy * size
    cos_a, sin_a = np.cos(cat.angle), np.sin(cat.angle)
    u = (dx * cos_a + dy * sin_a) / (cat.radii[0] * scale * size)
    v = (-dx * sin_a + dy * cos_a) / (cat.radii[1] * scale * size)
    return y0, x0, u * u + v * v <= 1.0


def _span(centre: float, reach: float, size: int) -> tuple[int, int]:
    lo = min(max(0, math.floor(centre - reach)), size)
    return lo, max(lo, min(size, math.ceil(centre + reach)))


def _overlap(a: tuple, b: tuple) -> int:
    """Pixels two `_ellipse_mask` results share, counted on the boxes' intersection."""
    (ay, ax, am), (by, bx, bm) = a, b
    y0, x0 = max(ay, by), max(ax, bx)
    y1 = min(ay + am.shape[0], by + bm.shape[0])
    x1 = min(ax + am.shape[1], bx + bm.shape[1])
    if y0 >= y1 or x0 >= x1:
        return 0
    return np.count_nonzero(am[y0 - ay : y1 - ay, x0 - ax : x1 - ax] & bm[y0 - by : y1 - by, x0 - bx : x1 - bx])


@functools.lru_cache(maxsize=8)
def _pixel_centres(size: int) -> np.ndarray:
    centres = np.arange(size, dtype=np.float64) + 0.5
    centres.flags.writeable = False
    return centres


def render_sample(
    config: GeneratorConfig,
    seed: int,
    stage_tag: int,
    split: str,
    index: int,
    annotated: Sequence[int],
) -> Sample:
    """Render one sample deterministically from its identity tuple.

    All five structures appear in the image; only `annotated` categories
    are written to the label map. Layout jitter that produces structure
    overlap beyond tolerance, or areas outside the configured ranges, is
    redrawn (a fresh draw after `max_attempts` rejections, from the same
    stream, so determinism is preserved).
    """
    size = config.image_size
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stage_tag, _SPLIT_TAG[split], index)))
    centres = _pixel_centres(size)
    area_img = float(size * size)

    while True:
        masks = None
        for _ in range(config.max_attempts):
            gdx = rng.uniform(-config.jitter_px, config.jitter_px)
            gdy = rng.uniform(-config.jitter_px, config.jitter_px)
            gscale = rng.uniform(1.0 - config.scale_jitter, 1.0 + config.scale_jitter)
            trial, counts = [], []
            ok = True
            for cat in CATEGORIES:
                sdx = rng.uniform(-config.shape_jitter_px, config.shape_jitter_px)
                sdy = rng.uniform(-config.shape_jitter_px, config.shape_jitter_px)
                cx = cat.center[0] + (gdx + sdx) / size
                cy = cat.center[1] + (gdy + sdy) / size
                mask = _ellipse_mask(size, cat, cx, cy, gscale, centres)
                count = np.count_nonzero(mask[2])
                if not (cat.area_range[0] <= count / area_img <= cat.area_range[1]):
                    ok = False
                    break
                trial.append(mask)
                counts.append(count)
            if not ok:
                continue
            for i in range(len(trial)):
                for j in range(i + 1, len(trial)):
                    limit = config.overlap_tolerance * min(counts[i], counts[j])
                    if _overlap(trial[i], trial[j]) > limit:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                masks = trial
                break
        if masks is not None:
            break

    fx, fy = rng.uniform(0.5, 2.0, size=2)
    px, py = rng.uniform(0.0, 2 * np.pi, size=2)
    # separable: sin(x term) * sin(y term), each sine taken once per row or column
    texture = np.multiply.outer(np.sin(2 * np.pi * fy * centres / size + py), np.sin(2 * np.pi * fx * centres / size + px))
    image = config.background_level + config.texture_amplitude * texture
    shift = config.stage_intensity_shift[stage_tag - 1] if stage_tag >= 1 else 0.0
    labels = np.zeros((size, size), dtype=np.uint8)
    annotated = tuple(int(a) for a in annotated)
    for cat, (y0, x0, inside) in zip(CATEGORIES, masks):
        box = (slice(y0, y0 + inside.shape[0]), slice(x0, x0 + inside.shape[1]))
        image[box][inside] = cat.intensity
        if cat.id in annotated:
            labels[box][inside] = cat.id
    image = image + shift + rng.normal(0.0, config.noise_sigma, size=(size, size))
    sample = Sample(image=np.clip(image, 0.0, 1.0).astype(np.float32), labels=labels, annotated=annotated)
    sample.validate()
    return sample


def _encode(sample: Sample) -> bytes:
    h, w = sample.image.shape
    return b"".join((
        MAGIC,
        struct.pack("<II", h, w),
        sample.image.astype("<f4").tobytes(order="C"),
        sample.labels.astype(np.uint8).tobytes(order="C"),
        struct.pack("<B", len(sample.annotated)),
        bytes(int(a) for a in sample.annotated),
    ))


def save_sample(sample: Sample, path: Path | str) -> None:
    sample.validate()
    Path(path).write_bytes(_encode(sample))


def load_sample(path: Path | str) -> Sample:
    raw = Path(path).read_bytes()
    if len(raw) < len(MAGIC) or raw[: len(MAGIC)] != MAGIC:
        raise BadMagicError(f"{path}: bad magic")
    off = len(MAGIC)
    if len(raw) < off + 8:
        raise TruncatedPayloadError(f"{path}: truncated payload (missing extents)")
    h, w = struct.unpack_from("<II", raw, off)
    off += 8
    if h == 0 or w == 0:
        raise SampleFormatError(f"{path}: zero extent {h}x{w}")
    need = h * w * 4 + h * w + 1
    if len(raw) < off + need:
        raise TruncatedPayloadError(f"{path}: truncated payload ({len(raw)} bytes, need {off + need})")
    image = np.frombuffer(raw, dtype="<f4", count=h * w, offset=off).reshape(h, w).copy()
    off += h * w * 4
    labels = np.frombuffer(raw, dtype=np.uint8, count=h * w, offset=off).reshape(h, w).copy()
    off += h * w
    n_annot = raw[off]
    off += 1
    if len(raw) < off + n_annot:
        raise TruncatedPayloadError(f"{path}: truncated payload (annotated ids)")
    annotated = tuple(int(b) for b in raw[off : off + n_annot])
    if len(raw) != off + n_annot:
        raise SampleFormatError(f"{path}: {len(raw) - off - n_annot} trailing bytes")
    sample = Sample(image=image, labels=labels, annotated=annotated)
    sample.validate()
    return sample


# ---------------------------------------------------------------------------
# manifests


def write_manifest(
    path: Path | str,
    categories: Mapping[int, str],
    entries: Sequence[tuple[str, Sequence[int], str]],
    seed: int,
) -> None:
    """Write a dataset manifest; entries are (relative path, annotated ids, split)."""
    doc = {
        "version": MANIFEST_VERSION,
        "seed": int(seed),
        "categories": {str(k): categories[k] for k in sorted(categories)},
        "samples": [
            {"path": p, "annotated": [int(a) for a in ann], "split": split} for p, ann, split in entries
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_manifest(path: Path | str, check_files: bool = True) -> dict:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise SampleFormatError(f"{path}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from None
    except UnicodeDecodeError as e:
        raise SampleFormatError(f"{path}: not UTF-8 text: {e.reason}") from None
    if not isinstance(doc, dict):
        raise SampleFormatError(f"{path}: manifest top level must be an object")
    for key in ("version", "seed", "categories", "samples"):
        if key not in doc:
            raise SampleFormatError(f"{path}: manifest missing {key!r}")
    if doc["version"] != MANIFEST_VERSION:
        raise SampleFormatError(f"{path}: unsupported manifest version {doc['version']}")
    cats = doc["categories"]
    if not isinstance(cats, dict) or not all(_is_int_text(k) and isinstance(v, str) for k, v in cats.items()):
        raise SampleFormatError(f"{path}: categories must map integer ids to names")
    doc["categories"] = {int(k): v for k, v in cats.items()}
    if not isinstance(doc["samples"], list):
        raise SampleFormatError(f"{path}: samples must be a list")
    base = path.parent
    for entry in doc["samples"]:
        if not isinstance(entry, dict):
            raise SampleFormatError(f"{path}: sample entry must be an object, got {type(entry).__name__}")
        for key in ("path", "annotated", "split"):
            if key not in entry:
                raise SampleFormatError(f"{path}: sample entry missing {key!r}")
        ann = entry["annotated"]
        if not (isinstance(entry["path"], str) and isinstance(entry["split"], str) and isinstance(ann, list)
                and all(type(a) is int for a in ann)):
            raise SampleFormatError(f"{path}: sample entry needs a string path and split and a list of integer ids")
        if check_files:
            try:
                (base / entry["path"]).stat()
            except (OSError, ValueError):  # ValueError: a NUL byte in the path
                raise SampleFormatError(f"{path}: referenced file missing: {entry['path']}") from None
    doc["base"] = base
    return doc


def _is_int_text(key: str) -> bool:
    try:
        int(key)
    except ValueError:
        return False
    return True


def manifest_samples(doc: Mapping, split: str) -> list[Sample]:
    """Load and validate every sample of one split."""
    out = []
    for entry in doc["samples"]:
        if entry["split"] != split:
            continue
        sample = load_sample(doc["base"] / entry["path"])
        if tuple(sample.annotated) != tuple(entry["annotated"]):
            raise SampleFormatError(
                f"{entry['path']}: annotated ids {sample.annotated} disagree with manifest {entry['annotated']}"
            )
        out.append(sample)
    return out


class _Writer:
    """One background thread that writes files while the caller renders.

    `put` hands over one (path, bytes) pair and waits while the previous
    one is still being written, so at most one write is in flight. The
    thread's first error is raised by the next `put` or `drain`. The
    thread calls no function of this package, so a tracer that patches
    them (perfbench/tracing.py) sees only the caller's thread.
    """

    def __init__(self) -> None:
        self._free = threading.Semaphore(1)
        self._full = threading.Semaphore(0)
        self._item: tuple[Path, bytes] | None = None
        self._error: Exception | None = None
        self._thread = threading.Thread(target=self._run, name="ilseg-writer", daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while True:
            self._full.acquire()
            if self._item is None:
                return
            path, payload = self._item
            self._item = None
            try:
                if self._error is None:
                    path.write_bytes(payload)
            except Exception as e:  # raised again in the caller's thread
                self._error = e
            finally:
                self._free.release()

    def put(self, path: Path, payload: bytes) -> None:
        self._free.acquire()
        if self._error is not None:
            self._free.release()
            raise self._error
        self._item = (path, payload)
        self._full.release()

    def drain(self) -> None:
        """Wait until every file handed over is on disk."""
        self._free.acquire()
        self._free.release()
        if self._error is not None:
            raise self._error

    def close(self) -> None:
        self._free.acquire()
        self._full.release()
        self._thread.join()


def generate(config: GeneratorConfig, seed: int, out_dir: Path | str) -> dict[str, Path]:
    """Write the four stage datasets plus the fully labeled dataset.

    Returns {"stage_1": manifest path, ..., "full": manifest path}.
    Regeneration with identical config and seed is byte-identical.
    Sample files are written by one background thread while the next
    sample renders; each manifest is written once its samples are on disk.
    """
    out_dir = Path(out_dir)
    split_counts = {"train": config.train_count, "val": config.val_count, "test": config.test_count}
    all_ids = tuple(c.id for c in CATEGORIES)
    datasets = [
        (f"stage_{t}", t, cats, {c: CATEGORY_NAMES[c] for c in cats}, split_counts)
        for t, cats in enumerate(STAGE_CATEGORIES, start=1)
    ]
    datasets.append(
        ("full", _FULL_TAG, all_ids, dict(CATEGORY_NAMES), {"val": config.full_val_count, "test": config.full_test_count})
    )
    manifests: dict[str, Path] = {}
    writer = _Writer()
    try:
        for name, tag, cats, names, counts in datasets:
            ds_dir = out_dir / name
            ds_dir.mkdir(parents=True, exist_ok=True)
            entries = []
            for split, count in counts.items():
                for i in range(count):
                    rel = f"{split}_{i:04d}.bin"
                    # render_sample validated the sample; save_sample would again
                    writer.put(ds_dir / rel, _encode(render_sample(config, seed, tag, split, i, cats)))
                    entries.append((rel, cats, split))
            writer.drain()
            manifests[name] = ds_dir / "manifest.json"
            write_manifest(manifests[name], names, entries, seed)
    finally:
        writer.close()
    return manifests


# ---------------------------------------------------------------------------
# batching


def _augment(image: np.ndarray, labels: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Integer translation (zero fill) plus mild intensity gain."""
    dx, dy = rng.integers(-4, 5, size=2)
    gain = rng.uniform(0.9, 1.1)
    h, w = image.shape
    out_img = np.zeros_like(image)
    out_lab = np.zeros_like(labels)
    src_y = slice(max(0, -dy), min(h, h - dy))
    dst_y = slice(max(0, dy), min(h, h + dy))
    src_x = slice(max(0, -dx), min(w, w - dx))
    dst_x = slice(max(0, dx), min(w, w + dx))
    out_img[dst_y, dst_x] = image[src_y, src_x]
    out_lab[dst_y, dst_x] = labels[src_y, src_x]
    return (out_img * np.float32(gain)).astype(np.float32), out_lab


def iterate_batches(
    samples: Sequence[Sample],
    batch_size: int,
    seed: int,
    augment: bool = False,
    n_epochs: int = 1,
    start_epoch: int = 0,
) -> Iterator[tuple[int, np.ndarray, np.ndarray, list[tuple[int, ...]], list[int]]]:
    """Deterministic epoch-shuffled batches.

    Yields (epoch, images (B, 1, H, W) float32, labels (B, H, W) uint8,
    per-sample annotated tuples, source sample indices). Shuffle order
    and augmentation draws depend only on (seed, epoch, position), so
    iteration can restart at any epoch boundary and reproduce the exact
    remaining stream.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if not samples:
        raise ValueError("iterate_batches: no samples")
    n = len(samples)
    for epoch in range(start_epoch, start_epoch + n_epochs):
        order = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(17, epoch))).permutation(n)
        for lo in range(0, n, batch_size):
            idx = order[lo : lo + batch_size]
            images, labels, annots = [], [], []
            for pos, i in enumerate(idx):
                s = samples[int(i)]
                img, lab = s.image, s.labels
                if augment:
                    arng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(19, epoch, lo + pos)))
                    img, lab = _augment(img, lab, arng)
                images.append(img[None])
                labels.append(lab)
                annots.append(tuple(s.annotated))
            yield epoch, np.stack(images), np.stack(labels), annots, [int(i) for i in idx]
