"""Stage training: one optimization loop for every mode, checkpoints, logs.

Every mode runs the same loop: forward, loss, backward, optimizer step,
log record, and a checkpoint after each epoch. Only the loss differs:

- "full" expands the previous stage's head with the stage's categories,
  freezes a copy of the previous model for pseudo-labels and
  distillation, and optimizes

      total = seg + lambda_kd * kd + lambda_mem * mem
                  + lambda_same * same + lambda_oppo * oppo

  on the remapped outputs; after each step the new categories'
  prototypes move by EMA.
- "womem" keeps remapping and distillation but drops the prototype
  memory (the last three terms and the EMA).
- "ft" fine-tunes with plain supervision over every channel, treating
  unlabeled structures as background.
- "joint" trains one model over all stage datasets at once, averaging
  each sample's merged-background loss.

Every random draw is keyed by (seed, stage, epoch, position), so runs
are bitwise reproducible and a run resumed from an epoch checkpoint
finishes byte-identical to an uninterrupted one. A resumed checkpoint
must carry the same stage config, apart from the manifest path.

Checkpoint layout (little endian): magic "ILCKPT1\\0", u32 version,
u32 header length, JSON header (registry, config echo, block table,
sha256 of the payload), then one u32-length-prefixed raw block per
table entry.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import data as D
from . import losses as L
from . import memory as Mem
from . import model as M
from . import tensor as T
from .model import FrozenModel, ModelConfig, SegModel
from .tensor import Tensor

__all__ = [
    "StageConfig",
    "Checkpoint",
    "CheckpointFormatError",
    "CheckpointVersionError",
    "CheckpointChecksumError",
    "LineageError",
    "run_stage",
    "run_ft_baseline",
    "run_joint",
    "save_checkpoint",
    "load_checkpoint",
    "model_from_checkpoint",
    "poly_lr",
]

CKPT_MAGIC = b"ILCKPT1\0"
CKPT_VERSION = 1
MODES = ("full", "womem", "ft", "joint")
LOG_FIELDS = ("stage", "epoch", "iter", "lr", "m_k", "loss_total", "loss_seg", "loss_kd", "loss_mem", "loss_same", "loss_oppo")


class CheckpointFormatError(ValueError):
    pass


class CheckpointVersionError(CheckpointFormatError):
    pass


class CheckpointChecksumError(CheckpointFormatError):
    pass


class LineageError(ValueError):
    """A stage was started without the checkpoint chain it depends on."""


@dataclass(frozen=True)
class StageConfig:
    stage: int
    new_categories: tuple[int, ...]
    manifest: str
    mode: str = "full"
    epochs: int = 40
    batch_size: int = 2
    lr: float | None = None  # stage 1 default 3e-4, later stages 1.5e-4
    lr_power: float = 0.9
    optimizer: str = "adam"  # "adam" | "sgd"
    sgd_momentum: float = 0.9
    lambda_kd: float = 1.0
    lambda_mem: float = 0.1
    lambda_same: float = 0.1
    lambda_oppo: float = 0.1
    ce_weight: float = 1.0
    dice_weight: float = 1.0
    kd_temperature: float = 1.0
    cosine_margin: float = 0.0
    momentum_m0: float = 0.9
    momentum_p: float = 0.9
    bg_sample_cap: int = 1024
    augment: bool = False
    seed: int = 0
    model: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self):
        object.__setattr__(self, "new_categories", tuple(int(c) for c in self.new_categories))

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.stage < 1:
            raise ValueError(f"stage must be >= 1, got {self.stage}")
        if not self.new_categories:
            raise ValueError("a stage must introduce at least one category")
        if len(set(self.new_categories)) != len(self.new_categories):
            raise ValueError(f"duplicate categories in {self.new_categories}")
        if 0 in self.new_categories:
            raise ValueError("category id 0 is reserved for background")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr is not None and self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        for name in ("lambda_kd", "lambda_mem", "lambda_same", "lambda_oppo", "ce_weight", "dice_weight"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"optimizer must be adam or sgd, got {self.optimizer!r}")
        if self.bg_sample_cap < 1:
            raise ValueError("bg_sample_cap must be >= 1")
        if self.kd_temperature <= 0:
            raise ValueError("kd_temperature must be positive")
        self.model.validate()

    def resolved_lr(self) -> float:
        if self.lr is not None:
            return self.lr
        return 3e-4 if self.stage == 1 else 1.5e-4

    def to_dict(self) -> dict:
        d = {
            "stage": self.stage,
            "new_categories": list(self.new_categories),
            "manifest": str(self.manifest),
            "mode": self.mode,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "lr": self.lr,
            "lr_power": self.lr_power,
            "optimizer": self.optimizer,
            "sgd_momentum": self.sgd_momentum,
            "lambda_kd": self.lambda_kd,
            "lambda_mem": self.lambda_mem,
            "lambda_same": self.lambda_same,
            "lambda_oppo": self.lambda_oppo,
            "ce_weight": self.ce_weight,
            "dice_weight": self.dice_weight,
            "kd_temperature": self.kd_temperature,
            "cosine_margin": self.cosine_margin,
            "momentum_m0": self.momentum_m0,
            "momentum_p": self.momentum_p,
            "bg_sample_cap": self.bg_sample_cap,
            "augment": self.augment,
            "seed": self.seed,
            "model": self.model.to_dict(),
        }
        return d

    @staticmethod
    def from_dict(d: Mapping) -> "StageConfig":
        d = dict(d)
        d["new_categories"] = tuple(d["new_categories"])
        d["model"] = ModelConfig.from_dict(d.get("model", {}))
        cfg = StageConfig(**d)
        cfg.validate()
        return cfg


def poly_lr(base: float, epoch: int, total_epochs: int, power: float = 0.9) -> float:
    """Polynomial decay: base * (1 - epoch/total)**power; hits 0 at the end."""
    if epoch < 0 or epoch > total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {total_epochs}]")
    return base * (1.0 - epoch / total_epochs) ** power


# ---------------------------------------------------------------------------
# optimizers


class Adam:
    def __init__(self, params: Mapping[str, Tensor], beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, params: Mapping[str, Tensor], lr: float) -> None:
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.step_count
        c2 = 1.0 - b2 ** self.step_count
        for name in sorted(params):
            p = params[name]
            if p.grad is None:
                continue
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * (g * g)
            update = (m / c1) / (np.sqrt(v / c2) + self.eps)
            p.data -= np.float32(lr) * update

    def state(self) -> dict:
        return {"algo": "adam", "step": self.step_count, "m": self.m, "v": self.v}

    def load_state(self, state: Mapping) -> None:
        self.step_count = int(state["step"])
        for k in self.m:
            self.m[k] = state["m"][k].copy()
            self.v[k] = state["v"][k].copy()


class SGD:
    def __init__(self, params: Mapping[str, Tensor], momentum: float = 0.9):
        self.momentum = momentum
        self.step_count = 0
        self.vel = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, params: Mapping[str, Tensor], lr: float) -> None:
        self.step_count += 1
        for name in sorted(params):
            p = params[name]
            if p.grad is None:
                continue
            v = self.vel[name]
            v *= self.momentum
            v += p.grad
            p.data -= np.float32(lr) * v

    def state(self) -> dict:
        return {"algo": "sgd", "step": self.step_count, "m": self.vel, "v": {}}

    def load_state(self, state: Mapping) -> None:
        self.step_count = int(state["step"])
        for k in self.vel:
            self.vel[k] = state["m"][k].copy()


def _make_optimizer(cfg: StageConfig, params: Mapping[str, Tensor]):
    if cfg.optimizer == "sgd":
        return SGD(params, momentum=cfg.sgd_momentum)
    return Adam(params)


# ---------------------------------------------------------------------------
# checkpoints


@dataclass
class Checkpoint:
    stage: int
    mode: str
    registry: tuple[int, ...]
    categories: dict[int, str]
    model_config: ModelConfig
    params: dict[str, np.ndarray]
    optimizer: dict
    bank: Mem.MemoryBank
    seed: int
    completed_epochs: int
    total_epochs: int
    stage_config: dict
    log_path: str | None = None
    version: int = CKPT_VERSION


def model_from_checkpoint(ckpt: Checkpoint) -> SegModel:
    params = {k: Tensor(np.ascontiguousarray(v.copy()), requires_grad=True) for k, v in ckpt.params.items()}
    return SegModel(config=ckpt.model_config, params=params, registry=tuple(ckpt.registry))


def _derive_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)).generate_state(1, np.uint64)[0])


def save_checkpoint(ckpt: Checkpoint, path: Path | str) -> None:
    """Write `ckpt` atomically: the bytes go to a temporary file in the
    same directory, which then replaces `path`. An interrupted or failed
    write leaves any earlier file at `path` untouched. The file is not
    fsynced, so a power loss may still lose the newest checkpoint."""
    blocks: list[tuple[str, np.ndarray]] = []
    for name in sorted(ckpt.params):
        blocks.append((f"param/{name}", ckpt.params[name].astype("<f4", copy=False)))
    opt = ckpt.optimizer
    for name in sorted(opt.get("m", {})):
        blocks.append((f"opt/m/{name}", opt["m"][name].astype("<f4", copy=False)))
    for name in sorted(opt.get("v", {})):
        blocks.append((f"opt/v/{name}", opt["v"][name].astype("<f4", copy=False)))
    blocks.append(("bank/prototypes", ckpt.bank.prototypes.astype("<f8", copy=False)))
    # order="C" keeps the rank of 0-d arrays, which ascontiguousarray would not
    blocks = [(name, np.asarray(arr, order="C")) for name, arr in blocks]

    digest = hashlib.sha256()
    table = []
    for name, arr in blocks:
        digest.update(struct.pack("<I", arr.nbytes))
        digest.update(arr)
        table.append({"name": name, "shape": list(arr.shape), "dtype": str(arr.dtype.name)})
    header = {
        "version": ckpt.version,
        "stage": ckpt.stage,
        "mode": ckpt.mode,
        "registry": list(ckpt.registry),
        "categories": {str(k): v for k, v in ckpt.categories.items()},
        "model_config": ckpt.model_config.to_dict(),
        "stage_config": ckpt.stage_config,
        "seed": ckpt.seed,
        "completed_epochs": ckpt.completed_epochs,
        "total_epochs": ckpt.total_epochs,
        "log_path": ckpt.log_path,
        "optimizer": {"algo": opt.get("algo", "adam"), "step": opt.get("step", 0)},
        "bank": {
            "feature_channels": ckpt.bank.feature_channels,
            "category_ids": list(ckpt.bank.category_ids),
            "initialized": [bool(x) for x in ckpt.bank.initialized],
            "frozen": [bool(x) for x in ckpt.bank.frozen],
            "m0": ckpt.bank.m0,
            "p": ckpt.bank.p,
            "k": ckpt.bank.k,
            "total": ckpt.bank.total,
        },
        "blocks": table,
        "checksum": digest.hexdigest(),
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    # one temporary name per process; os.replace is atomic within a directory
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(CKPT_MAGIC + struct.pack("<II", ckpt.version, len(head)) + head)
            for _, arr in blocks:
                fh.write(struct.pack("<I", arr.nbytes))
                fh.write(arr)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# JSON types of every header field, and of the fields of its nested objects
_HEADER_FIELDS = {
    "version": int,
    "stage": int,
    "mode": str,
    "registry": list,
    "categories": dict,
    "model_config": dict,
    "stage_config": dict,
    "seed": int,
    "completed_epochs": int,
    "total_epochs": int,
    "log_path": (str, type(None)),
    "optimizer": dict,
    "bank": dict,
    "blocks": list,
    "checksum": str,
}
_OPTIMIZER_FIELDS = {"algo": str, "step": int}
_BANK_FIELDS = {
    "feature_channels": int,
    "category_ids": list,
    "initialized": list,
    "frozen": list,
    "m0": (int, float),
    "p": (int, float),
    "k": int,
    "total": int,
}
_BLOCK_FIELDS = {"name": str, "shape": list, "dtype": str}
_BLOCK_DTYPES = ("float32", "float64")


def _check_fields(path, where: str, obj, fields: Mapping) -> None:
    if not isinstance(obj, dict):
        raise CheckpointFormatError(f"{path}: {where} is not an object")
    for key, kind in fields.items():
        if key not in obj:
            raise CheckpointFormatError(f"{path}: {where} lacks {key!r}")
        if not isinstance(obj[key], kind):
            raise CheckpointFormatError(f"{path}: {where} field {key!r} has type {type(obj[key]).__name__}")


def _check_header(path, header) -> None:
    _check_fields(path, "header", header, _HEADER_FIELDS)
    _check_fields(path, "header optimizer", header["optimizer"], _OPTIMIZER_FIELDS)
    _check_fields(path, "header bank", header["bank"], _BANK_FIELDS)
    for i, entry in enumerate(header["blocks"]):
        _check_fields(path, f"header block {i}", entry, _BLOCK_FIELDS)
        if entry["dtype"] not in _BLOCK_DTYPES:
            raise CheckpointFormatError(f"{path}: block {entry['name']!r} has unsupported dtype {entry['dtype']!r}")
        if not all(isinstance(n, int) and n >= 0 for n in entry["shape"]):
            raise CheckpointFormatError(f"{path}: block {entry['name']!r} has a malformed shape")
    if "bank/prototypes" not in {entry["name"] for entry in header["blocks"]}:
        raise CheckpointFormatError(f"{path}: no bank/prototypes block")


def load_checkpoint(path: Path | str) -> Checkpoint:
    # one read; the checksum and the blocks work on views of it, and each
    # array is copied out once so that it is writeable and owns its memory
    raw = Path(path).read_bytes()
    if len(raw) < len(CKPT_MAGIC) + 8 or raw[: len(CKPT_MAGIC)] != CKPT_MAGIC:
        raise CheckpointFormatError(f"{path}: bad magic")
    off = len(CKPT_MAGIC)
    version, head_len = struct.unpack_from("<II", raw, off)
    off += 8
    if version != CKPT_VERSION:
        raise CheckpointVersionError(f"{path}: unsupported checkpoint version {version}")
    if len(raw) < off + head_len:
        raise CheckpointFormatError(f"{path}: truncated header")
    try:
        header = json.loads(raw[off : off + head_len].decode("utf-8"))
    except ValueError as e:
        raise CheckpointFormatError(f"{path}: header is not UTF-8 JSON: {e}") from None
    _check_header(path, header)
    off += head_len
    payload = memoryview(raw)[off:]
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header["checksum"]:
        raise CheckpointChecksumError(f"{path}: checksum mismatch")
    arrays: dict[str, np.ndarray] = {}
    pos = 0
    for entry in header["blocks"]:
        if pos + 4 > len(payload):
            raise CheckpointFormatError(f"{path}: truncated block table")
        (nbytes,) = struct.unpack_from("<I", payload, pos)
        pos += 4
        buf = payload[pos : pos + nbytes]
        if len(buf) != nbytes:
            raise CheckpointFormatError(f"{path}: truncated block {entry['name']}")
        pos += nbytes
        dtype = np.dtype(entry["dtype"])
        if nbytes != dtype.itemsize * math.prod(entry["shape"]):
            raise CheckpointFormatError(f"{path}: block {entry['name']} holds {nbytes} bytes, not shape {entry['shape']}")
        arrays[entry["name"]] = np.frombuffer(buf, dtype=dtype).reshape(entry["shape"]).copy()
    params = {k[len("param/") :]: v for k, v in arrays.items() if k.startswith("param/")}
    opt_state = {
        "algo": header["optimizer"]["algo"],
        "step": header["optimizer"]["step"],
        "m": {k[len("opt/m/") :]: v for k, v in arrays.items() if k.startswith("opt/m/")},
        "v": {k[len("opt/v/") :]: v for k, v in arrays.items() if k.startswith("opt/v/")},
    }
    bank_meta = header["bank"]
    try:
        model_config = ModelConfig.from_dict(header["model_config"])
        bank = Mem.MemoryBank(
            feature_channels=bank_meta["feature_channels"],
            category_ids=[int(c) for c in bank_meta["category_ids"]],
            prototypes=arrays["bank/prototypes"].astype(np.float64, copy=False),
            initialized=np.array(bank_meta["initialized"], dtype=bool),
            frozen=np.array(bank_meta["frozen"], dtype=bool),
            m0=bank_meta["m0"],
            p=bank_meta["p"],
            k=bank_meta["k"],
            total=bank_meta["total"],
        )
        registry = tuple(int(c) for c in header["registry"])
        categories = {int(k): v for k, v in header["categories"].items()}
    except (TypeError, ValueError) as e:
        raise CheckpointFormatError(f"{path}: malformed header: {e}") from None
    # the payload checksum does not cover block names, so match them to the model;
    # an optimizer moment may be absent as a whole (SGD writes no opt/v)
    shapes = M._param_shapes(model_config, len(registry))
    for prefix, blocks in (("param", params), ("opt/m", opt_state["m"]), ("opt/v", opt_state["v"])):
        bad = sorted(k for k in blocks.keys() | shapes.keys() if k not in blocks or blocks[k].shape != shapes.get(k))
        if bad and (blocks or prefix == "param"):
            raise CheckpointFormatError(f"{path}: {prefix} blocks do not match the model at {bad}")
    return Checkpoint(
        stage=header["stage"],
        mode=header["mode"],
        registry=registry,
        categories=categories,
        model_config=model_config,
        params=params,
        optimizer=opt_state,
        bank=bank,
        seed=header["seed"],
        completed_epochs=header["completed_epochs"],
        total_epochs=header["total_epochs"],
        stage_config=header["stage_config"],
        log_path=header["log_path"],
        version=version,
    )


# ---------------------------------------------------------------------------
# logging helpers


class _StageLog:
    """JSONL training log; resuming trims records of unfinished epochs."""

    def __init__(self, path: Path | None, start_epoch: int):
        self.path = path
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        if start_epoch > 0 and path.exists():
            kept = [line for line in path.read_text().splitlines() if line and json.loads(line)["epoch"] < start_epoch]
            path.write_text("".join(k + "\n" for k in kept))
        else:
            path.write_text("")

    def record(self, **fields) -> None:
        if self.path is None:
            return
        row = {k: fields[k] for k in LOG_FIELDS}
        with self.path.open("a") as fh:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _float(x) -> float:
    return float(x.data) if isinstance(x, Tensor) else float(x)


# ---------------------------------------------------------------------------
# stage training


def _load_stage_samples(cfg: StageConfig) -> list[D.Sample]:
    doc = D.load_manifest(cfg.manifest)
    samples = D.manifest_samples(doc, "train")
    if not samples:
        raise ValueError(f"{cfg.manifest}: no training samples")
    allowed = set(cfg.new_categories)
    for i, s in enumerate(samples):
        extra = set(s.annotated) - allowed
        if extra:
            raise ValueError(
                f"{cfg.manifest}: train sample {i} annotates categories {sorted(extra)} outside the stage set {sorted(allowed)}"
            )
    return samples


def _category_names(cfg: StageConfig, prev: Checkpoint | None) -> dict[int, str]:
    doc = D.load_manifest(cfg.manifest, check_files=False)
    names = dict(prev.categories) if prev else {}
    for cid, name in doc["categories"].items():
        if cid in names and names[cid] != name:
            raise ValueError(f"category {cid} named {name!r} here but {names[cid]!r} previously")
        names[cid] = name
    return names


def _check_stage_config(cfg: StageConfig, saved: Mapping, where: str) -> None:
    """Raise LineageError unless the `stage_config` of a checkpoint is
    `cfg`'s. The manifest is left out: the header only echoes its path."""
    want, missing = cfg.to_dict(), object()
    keys = [k for k in sorted(want.keys() | saved.keys()) if k != "manifest" and want.get(k, missing) != saved.get(k, missing)]
    if keys:
        raise LineageError(f"{where} was trained with another stage config; it differs in {', '.join(keys)}")


def _resume_state(cfg: StageConfig, model: SegModel, opt, bank: Mem.MemoryBank, resume_from: Checkpoint | None) -> tuple[int, Mem.MemoryBank]:
    if resume_from is None:
        return 0, bank
    if resume_from.stage != cfg.stage or resume_from.mode != cfg.mode:
        raise LineageError(
            f"resume checkpoint is stage {resume_from.stage} mode {resume_from.mode}, expected stage {cfg.stage} mode {cfg.mode}"
        )
    if resume_from.completed_epochs >= cfg.epochs:
        raise LineageError("resume checkpoint already covers every epoch")
    if tuple(resume_from.registry) != model.registry:
        raise LineageError(f"resume registry {resume_from.registry} != {model.registry}")
    _check_stage_config(cfg, resume_from.stage_config, "resume checkpoint")
    for k, p in model.params.items():
        p.data[...] = resume_from.params[k]
    opt.load_state(resume_from.optimizer)
    return resume_from.completed_epochs, resume_from.bank.copy()


def _epoch_ckpt(
    cfg: StageConfig,
    model: SegModel,
    opt,
    bank: Mem.MemoryBank,
    names: dict[int, str],
    epoch_done: int,
    log_path: str | None,
) -> Checkpoint:
    return Checkpoint(
        stage=cfg.stage,
        mode=cfg.mode,
        registry=model.registry,
        categories=names,
        model_config=model.config,
        params={k: p.data.copy() for k, p in model.params.items()},
        optimizer={k: (dict(v) if isinstance(v, dict) else v) for k, v in opt.state().items()},
        bank=bank.copy(),
        seed=cfg.seed,
        completed_epochs=epoch_done,
        total_epochs=cfg.epochs,
        stage_config=cfg.to_dict(),
        log_path=log_path,
    )


def _sample_background(
    labels: np.ndarray, frozen_bg: np.ndarray | None, cap: int, rng: np.random.Generator
) -> np.ndarray:
    """Bool mask of up to `cap` background positions, seeded."""
    mask = labels == 0
    if frozen_bg is not None:
        mask = mask & frozen_bg
    flat = np.flatnonzero(mask.reshape(-1))
    if flat.size > cap:
        flat = flat[np.sort(rng.choice(flat.size, size=cap, replace=False))]
        out = np.zeros(mask.size, dtype=bool)
        out[flat] = True
        return out.reshape(mask.shape)
    return mask


# The teacher's pseudo-labels are cached as uint8 channel indices.
_TEACHER_MAX_CHANNELS = 256


def run_stage(
    prev: Checkpoint | None,
    cfg: StageConfig,
    run_dir: Path | str | None = None,
    resume_from: Checkpoint | None = None,
) -> Checkpoint:
    """Train one incremental stage in mode "full" or "womem".

    Stage 1 builds a fresh model; later stages require `prev` (the
    previous stage's checkpoint), expand its head, and distill against
    its frozen copy. Returns the stage checkpoint; when `run_dir` is
    given, writes a JSONL iteration log and a per-epoch checkpoint that
    `resume_from` can restart.
    """
    cfg.validate()
    if cfg.mode not in ("full", "womem"):
        raise ValueError(f"run_stage handles modes full/womem, got {cfg.mode!r}; use the dedicated baseline entry points")
    return _train(cfg, *_chain_stage(prev, cfg), run_dir, resume_from)


def run_ft_baseline(
    prev: Checkpoint | None,
    cfg: StageConfig,
    run_dir: Path | str | None = None,
    resume_from: Checkpoint | None = None,
) -> Checkpoint:
    """Naive fine-tuning stage: plain supervision over every channel.

    Unlabeled structures count as background, so earlier categories are
    actively forgotten. No distillation, no memory bank; the bank rides
    along untouched.
    """
    cfg.validate()
    if cfg.mode != "ft":
        raise ValueError(f"run_ft_baseline requires mode 'ft', got {cfg.mode!r}")
    return _train(cfg, *_chain_stage(prev, cfg), run_dir, resume_from)


def run_joint(
    manifests: Sequence[Path | str],
    cfg: StageConfig,
    run_dir: Path | str | None = None,
    resume_from: Checkpoint | None = None,
) -> Checkpoint:
    """Upper-bound baseline: one model over every stage dataset at once.

    The head covers the union of all categories; each sample contributes
    a merged-background loss over its own annotated set. Conflicting
    category names across manifests are rejected.
    """
    cfg.validate()
    if cfg.mode != "joint":
        raise ValueError(f"run_joint requires mode 'joint', got {cfg.mode!r}")
    if not manifests:
        raise ValueError("run_joint: no manifests")
    names: dict[int, str] = {}
    samples: list[D.Sample] = []
    for man in manifests:
        doc = D.load_manifest(man)
        for cid, name in doc["categories"].items():
            if names.setdefault(cid, name) != name:
                raise ValueError(f"category {cid} named {name!r} in {man} but {names[cid]!r} elsewhere")
        part = D.manifest_samples(doc, "train")
        if not part:
            raise ValueError(f"{man}: no training samples")
        samples.extend(part)
    registry = tuple(names)
    model = M.build(cfg.model, registry, seed=_derive_seed(cfg.seed, 29, 0))
    bank = Mem.MemoryBank(feature_channels=cfg.model.feature_channels, m0=cfg.momentum_m0, p=cfg.momentum_p)

    def loss(bank, batch, feats, logits, epoch, pos):
        per_sample: Tensor | None = None
        for b, annotated in enumerate(batch[3]):
            lg = T.narrow(logits, 0, b, 1)
            term = L.merged_sample_loss(lg, batch[2][b : b + 1], registry, annotated, cfg.ce_weight, cfg.dice_weight)
            per_sample = term if per_sample is None else per_sample + term
        seg = per_sample * (1.0 / len(batch[3]))
        return seg, seg, 0.0, 0.0, 0.0, 0.0

    return _train(cfg, samples, names, model, bank, loss, run_dir, resume_from)


def _chain_stage(prev: Checkpoint | None, cfg: StageConfig):
    """Lineage checks and starting state of one stage of a full, womem or
    ft chain: (samples, category names, model, bank, loss)."""
    if cfg.stage > 1 and prev is None:
        raise LineageError(f"stage {cfg.stage} requires the stage {cfg.stage - 1} checkpoint")
    if prev is not None:
        if prev.stage != cfg.stage - 1:
            raise LineageError(f"previous checkpoint is stage {prev.stage}, expected {cfg.stage - 1}")
        clash = set(cfg.new_categories) & set(prev.registry)
        if clash:
            raise ValueError(f"categories already learned in earlier stages: {sorted(clash)}")

    samples = _load_stage_samples(cfg)
    names = _category_names(cfg, prev)
    frozen: FrozenModel | None = None
    if prev is None:
        model = M.build(cfg.model, cfg.new_categories, seed=_derive_seed(cfg.seed, 29, cfg.stage))
        bank = Mem.MemoryBank(feature_channels=cfg.model.feature_channels, m0=cfg.momentum_m0, p=cfg.momentum_p)
    else:
        prev_model = model_from_checkpoint(prev)
        if cfg.mode != "ft":
            if prev_model.n_categories + 1 > _TEACHER_MAX_CHANNELS:
                raise ValueError(
                    f"the previous head has {prev_model.n_categories + 1} channels; pseudo-labels hold at most {_TEACHER_MAX_CHANNELS}"
                )
            frozen = M.clone_frozen(prev_model)
        model = M.expand_head(prev_model, cfg.new_categories, seed=_derive_seed(cfg.seed, 29, cfg.stage))
        del prev_model  # `frozen` and `model` hold their own copies
        bank = prev.bank.copy()
    space = L.LabelSpace(old=tuple(prev.registry) if prev else (), new=cfg.new_categories)
    if cfg.mode == "full":
        missing = [c for c in space.old if not bank.has(c)]
        if missing:
            raise LineageError(f"previous checkpoint lacks prototypes for {missing}; full mode needs a full-mode lineage")
        bank.m0, bank.p = cfg.momentum_m0, cfg.momentum_p
        bank.add_categories(cfg.new_categories, total=cfg.epochs * math.ceil(len(samples) / cfg.batch_size))

    if cfg.mode == "ft":

        def loss(bank, batch, feats, logits, epoch, pos):
            seg = L.full_softmax_loss(logits, batch[2], space, cfg.ce_weight, cfg.dice_weight)
            return seg, seg, 0.0, 0.0, 0.0, 0.0

    else:
        loss = _distill_loss(cfg, model, frozen, space)
    return samples, names, model, bank, loss


def _distill_loss(cfg: StageConfig, model: SegModel, frozen: FrozenModel | None, space: L.LabelSpace):
    """The full and womem loss: remapped segmentation, distillation against
    the frozen previous model, and in full mode the memory terms. Without
    augmentation the teacher's output for each sample is computed once."""
    old_channels = {c: space.channel_of(c) for c in space.old}
    cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def loss(bank, batch, feats, logits, epoch, pos):
        _, images, labels, _, idx = batch
        old_probs = old_argmax = None
        if frozen is not None:
            if not cfg.augment and all(i in cache for i in idx):
                old_probs = np.concatenate([cache[i][0] for i in idx], axis=0)
                old_argmax = np.concatenate([cache[i][1] for i in idx], axis=0)
            else:
                _, f_logits = M.forward(frozen, images)
                fl = f_logits.data
                ex = np.exp(fl - fl.max(axis=1, keepdims=True))
                old_probs = ex / ex.sum(axis=1, keepdims=True)
                old_argmax = old_probs.argmax(axis=1).astype(np.uint8)
                if not cfg.augment:
                    for j, i in enumerate(idx):
                        cache[i] = (old_probs[j : j + 1].copy(), old_argmax[j : j + 1].copy())

        seg = L.seg_loss(L.remap_tilde(logits, space), labels, space, cfg.ce_weight, cfg.dice_weight)
        total = seg
        kd = mem_l = same_l = oppo_l = 0.0
        if frozen is not None and cfg.lambda_kd > 0:
            kd = L.kd_loss(L.remap_hat(logits, space), old_probs, cfg.kd_temperature)
            total = total + kd * cfg.lambda_kd
        if cfg.mode == "full":
            if cfg.lambda_mem > 0:
                mem_l = Mem.mem_loss(bank, *model.head())
                total = total + mem_l * cfg.lambda_mem
            if cfg.lambda_same > 0 and space.old:
                old_masks = {c: old_argmax == ch for c, ch in old_channels.items()}
                same_l = Mem.same_loss(bank, feats, old_masks)
                total = total + same_l * cfg.lambda_same
            if cfg.lambda_oppo > 0:
                rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(31, cfg.stage, epoch, pos)))
                bg = _sample_background(labels, old_argmax == 0 if old_argmax is not None else None, cfg.bg_sample_cap, rng)
                new_masks = {c: labels == c for c in space.new}
                oppo_l = Mem.oppo_loss(bank, feats, new_masks, bg, cfg.cosine_margin)
                total = total + oppo_l * cfg.lambda_oppo
        return total, seg, kd, mem_l, same_l, oppo_l

    return loss


def _train(
    cfg: StageConfig,
    samples: list[D.Sample],
    names: dict[int, str],
    model: SegModel,
    bank: Mem.MemoryBank,
    loss,
    run_dir: Path | str | None,
    resume_from: Checkpoint | None,
) -> Checkpoint:
    """The optimization loop of every mode. `loss(bank, batch, feats,
    logits, epoch, pos)` returns (total, seg, kd, mem, same, oppo): the
    total is differentiated, and all six are logged."""
    opt = _make_optimizer(cfg, model.params)
    start_epoch, bank = _resume_state(cfg, model, opt, bank, resume_from)
    run_dir = Path(run_dir) if run_dir is not None else None
    log_path = run_dir / f"stage_{cfg.stage}.log.jsonl" if run_dir else None
    log = _StageLog(log_path, start_epoch)
    log_ref = log_path.name if log_path else None
    # a joint run keys its batches, like its initialization, by stage 0
    data_seed = _derive_seed(cfg.seed, 23, 0 if cfg.mode == "joint" else cfg.stage)
    base_lr = cfg.resolved_lr()

    it = start_epoch * math.ceil(len(samples) / cfg.batch_size)
    for epoch in range(start_epoch, cfg.epochs):
        lr = poly_lr(base_lr, epoch, cfg.epochs, cfg.lr_power)
        batches = D.iterate_batches(samples, cfg.batch_size, data_seed, augment=cfg.augment, n_epochs=1, start_epoch=epoch)
        for pos, batch in enumerate(batches):
            feats, logits = M.forward(model, batch[1])
            terms = loss(bank, batch, feats, logits, epoch, pos)
            for p in model.params.values():
                p.grad = None
            T.backward(terms[0])
            opt.step(model.params, lr)

            m_k = None
            if cfg.mode == "full":
                m_k = Mem.momentum(bank.k, bank.total, bank.m0, bank.p)
                for cat in cfg.new_categories:
                    vec, n = Mem.class_mean(feats.data, batch[2] == cat)
                    if n:
                        Mem.ema_update(bank, cat, vec, m_k)
                bank.k += 1
            log.record(stage=cfg.stage, epoch=epoch, iter=it, lr=lr, m_k=m_k, **dict(zip(LOG_FIELDS[5:], map(_float, terms))))
            it += 1

        if run_dir is not None and epoch + 1 < cfg.epochs:
            save_checkpoint(_epoch_ckpt(cfg, model, opt, bank, names, epoch + 1, log_ref), run_dir / f"stage_{cfg.stage}.epoch.ckpt")

    if cfg.mode == "full":
        Mem.finalize_stage(bank)
    ckpt = _epoch_ckpt(cfg, model, opt, bank, names, cfg.epochs, log_ref)
    if run_dir is not None:
        save_checkpoint(ckpt, run_dir / f"stage_{cfg.stage}.ckpt")
        (run_dir / f"stage_{cfg.stage}.epoch.ckpt").unlink(missing_ok=True)
    return ckpt
