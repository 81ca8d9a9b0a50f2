"""Shared fixtures: a tiny four-stage dataset and stage-run helpers."""

import json
import struct
from pathlib import Path

import pytest

from ilseg import data as D
from ilseg import trainer as TR
from ilseg.model import ModelConfig

TINY_GEN = D.GeneratorConfig(
    image_size=32,
    train_count=4,
    val_count=2,
    test_count=1,
    full_val_count=2,
    full_test_count=1,
)
TINY_SEED = 5


@pytest.fixture(scope="session")
def tiny_dataset(tmp_path_factory):
    """32x32 dataset shared by trainer, metrics, and CLI tests."""
    root = tmp_path_factory.mktemp("tinydata")
    return D.generate(TINY_GEN, TINY_SEED, root)


def tiny_stage_config(stage, manifests, mode="full", **overrides):
    defaults = dict(
        stage=stage,
        new_categories=D.STAGE_CATEGORIES[stage - 1],
        manifest=str(manifests[f"stage_{stage}"]),
        mode=mode,
        epochs=2,
        batch_size=2,
        lr=1e-3,
        seed=3,
        model=ModelConfig(),
    )
    defaults.update(overrides)
    return TR.StageConfig(**defaults)


def run_chain(manifests, run_dir, mode="full", stages=(1, 2), seed=3, **overrides):
    """Train consecutive stages, returning the final checkpoint."""
    runner = TR.run_ft_baseline if mode == "ft" else TR.run_stage
    prev = None
    for t in stages:
        cfg = tiny_stage_config(t, manifests, mode=mode, seed=seed, **overrides)
        prev = runner(prev, cfg, run_dir=Path(run_dir))
    return prev


class SimulatedCrash(RuntimeError):
    pass


def run_until_crash(runner, prev, cfg, run_dir, crash_after):
    """Run a stage but die right after the epoch snapshot for `crash_after`
    completed epochs hits disk, the way an interrupted process would."""
    real_save = TR.save_checkpoint

    def tripwire(ckpt, path):
        real_save(ckpt, path)
        if ckpt.completed_epochs == crash_after and str(path).endswith(".epoch.ckpt"):
            raise SimulatedCrash(f"stopped after epoch {crash_after}")

    TR.save_checkpoint = tripwire
    try:
        with pytest.raises(SimulatedCrash):
            runner(prev, cfg, run_dir=Path(run_dir))
    finally:
        TR.save_checkpoint = real_save


def rewrite_checkpoint_header(src, dst, edit):
    """Copy a checkpoint with its JSON header changed by `edit` (the
    payload checksum does not cover the header)."""
    raw = Path(src).read_bytes()
    _, head_len = struct.unpack_from("<II", raw, 8)
    header = json.loads(raw[16 : 16 + head_len])
    edit(header)
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    Path(dst).write_bytes(raw[:8] + struct.pack("<II", 1, len(head)) + head + raw[16 + head_len :])
    return dst


def rename_block(header, old, new):
    """Header edit: give the block named `old` the name `new`."""
    next(b for b in header["blocks"] if b["name"] == old)["name"] = new
