"""Stage trainer: configs, checkpoint format, logs, lineage, resume."""

import dataclasses
import hashlib
import json
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from conftest import rename_block, rewrite_checkpoint_header, run_chain, run_until_crash, tiny_stage_config
from ilseg import data as D
from ilseg import losses as L
from ilseg import model as M
from ilseg import trainer as TR
from ilseg.config import from_json, to_json


def _read_log(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line]


@pytest.fixture(scope="module")
def full_run(tiny_dataset, tmp_path_factory):
    """Stages 1-2 in full mode; its checkpoints and logs feed many tests."""
    run_dir = tmp_path_factory.mktemp("full_run")
    ckpt2 = run_chain(tiny_dataset, run_dir, mode="full", stages=(1, 2))
    return run_dir, ckpt2


@pytest.fixture(scope="module")
def womem_run(tiny_dataset, tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("womem_run")
    ckpt2 = run_chain(tiny_dataset, run_dir, mode="womem", stages=(1, 2))
    return run_dir, ckpt2


# ---------------------------------------------------------------------------
# learning-rate schedule


def test_poly_lr_endpoints():
    assert TR.poly_lr(0.01, 0, 10) == 0.01
    assert TR.poly_lr(0.01, 10, 10) == 0.0
    assert TR.poly_lr(1.0, 3, 10, power=1.0) == pytest.approx(0.7, abs=1e-12)


def test_poly_lr_strictly_decreasing():
    vals = [TR.poly_lr(1.0, e, 10) for e in range(11)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_poly_lr_epoch_range():
    with pytest.raises(ValueError):
        TR.poly_lr(1.0, -1, 10)
    with pytest.raises(ValueError):
        TR.poly_lr(1.0, 11, 10)


# ---------------------------------------------------------------------------
# stage configuration


@pytest.mark.parametrize(
    "overrides, match",
    [
        ({"mode": "warmup"}, "mode must be one of"),
        ({"stage": 0}, "stage must be"),
        ({"new_categories": ()}, "at least one category"),
        ({"new_categories": (1, 1)}, "duplicate"),
        ({"new_categories": (0,)}, "reserved for background"),
        ({"epochs": 0}, "epochs"),
        ({"batch_size": 0}, "batch_size"),
        ({"lr": -1.0}, "lr must be positive"),
        ({"lambda_kd": -0.1}, "must be >= 0"),
        ({"optimizer": "rmsprop"}, "adam or sgd"),
        ({"bg_sample_cap": 0}, "bg_sample_cap"),
        ({"kd_temperature": 0.0}, "kd_temperature"),
        ({"seed": -1}, "seed must be >= 0"),
    ],
)
def test_stage_config_validation(tiny_dataset, overrides, match):
    stage = overrides.pop("stage", 1)
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(tiny_stage_config(1, tiny_dataset), stage=stage, **overrides)


def test_resolved_lr_defaults():
    base = dict(new_categories=(1,), manifest="m.json")
    assert TR.StageConfig(stage=1, **base).resolved_lr() == pytest.approx(3e-4)
    assert TR.StageConfig(stage=3, **base).resolved_lr() == pytest.approx(1.5e-4)
    assert TR.StageConfig(stage=3, lr=1e-3, **base).resolved_lr() == 1e-3


# the header echo of a stage read from JSON; the resave and resume checks compare these bytes
_ECHO = (
    '{"augment": false, "batch_size": 2, "bg_sample_cap": 1024, "ce_weight": 1.0, "cosine_margin": 0.0, '
    '"dice_weight": 1.0, "epochs": 40, "kd_temperature": 1.0, "lambda_kd": 2, "lambda_mem": 0.1, '
    '"lambda_oppo": 0.1, "lambda_same": 0.1, "lr": null, "lr_power": 0.9, "manifest": "m.json", "mode": "full", '
    '"model": {"base_channels": 16, "depth": 3, "feature_channels": 32, "head_init": "random", '
    '"head_init_std": 0.01, "in_channels": 1}, "momentum_m0": 0.9, "momentum_p": 0.9, "new_categories": [2, 3], '
    '"optimizer": "adam", "seed": 0, "sgd_momentum": 0.9, "stage": 2}'
)


def test_stage_config_dict_round_trip(tiny_dataset):
    cfg = tiny_stage_config(2, tiny_dataset, lambda_kd=2.0, augment=True, optimizer="sgd")
    assert from_json(TR.StageConfig, to_json(cfg), "") == cfg
    read = from_json(TR.StageConfig, {"new_categories": [2, 3], "lambda_kd": 2}, "stages[1]",
                     stage=2, manifest="m.json", mode="full", seed=0, model=M.ModelConfig())
    assert json.dumps(to_json(read), sort_keys=True) == _ECHO
    assert from_json(TR.StageConfig, json.loads(_ECHO), "") == read


# ---------------------------------------------------------------------------
# checkpoint file format


def test_checkpoint_save_load_save_is_byte_identical(full_run, tmp_path):
    run_dir, _ = full_run
    src = run_dir / "stage_1.ckpt"
    ck = TR.load_checkpoint(src)
    dst = tmp_path / "copy.ckpt"
    TR.save_checkpoint(ck, dst)
    assert dst.read_bytes() == src.read_bytes()


def test_checkpoint_payload_corruption_detected(full_run, tmp_path):
    run_dir, _ = full_run
    raw = bytearray((run_dir / "stage_1.ckpt").read_bytes())
    raw[-1] ^= 0xFF
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(raw))
    with pytest.raises(TR.CheckpointChecksumError, match="checksum"):
        TR.load_checkpoint(bad)


def test_checkpoint_unknown_version_rejected(full_run, tmp_path):
    run_dir, _ = full_run
    raw = bytearray((run_dir / "stage_1.ckpt").read_bytes())
    raw[8:12] = struct.pack("<I", 99)
    bad = tmp_path / "future.ckpt"
    bad.write_bytes(bytes(raw))
    with pytest.raises(TR.CheckpointVersionError, match="version 99"):
        TR.load_checkpoint(bad)


def test_checkpoint_bad_magic_and_truncated_header(full_run, tmp_path):
    run_dir, _ = full_run
    raw = bytearray((run_dir / "stage_1.ckpt").read_bytes())
    flipped = tmp_path / "magic.ckpt"
    flipped.write_bytes(bytes([raw[0] ^ 0xFF]) + bytes(raw[1:]))
    with pytest.raises(TR.CheckpointFormatError, match="bad magic"):
        TR.load_checkpoint(flipped)
    stub = tmp_path / "stub.ckpt"
    stub.write_bytes(bytes(raw[:20]))
    with pytest.raises(TR.CheckpointFormatError, match="truncated header"):
        TR.load_checkpoint(stub)


def test_checkpoint_write_failing_midway_keeps_previous_file(full_run, tmp_path, monkeypatch):
    run_dir, _ = full_run
    target = tmp_path / "stage_1.ckpt"
    shutil.copyfile(run_dir / "stage_1.ckpt", target)
    before = target.read_bytes()
    ck = TR.load_checkpoint(target)
    ck.completed_epochs += 1  # a different file would be written

    class FailingFile:
        """Accepts the header, then fails as a full disk would."""

        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.writes += 1
            if self.writes > 3:
                raise OSError(28, "No space left on device")
            return self.fh.write(data)

    monkeypatch.setattr(TR, "open", lambda *a, **kw: FailingFile(open(*a, **kw)), raising=False)
    with pytest.raises(OSError, match="No space"):
        TR.save_checkpoint(ck, target)
    assert target.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["stage_1.ckpt"]


def test_checkpoint_save_replaces_existing_file(full_run, tmp_path):
    run_dir, _ = full_run
    target = tmp_path / "c.ckpt"
    target.write_bytes(b"stale")
    TR.save_checkpoint(TR.load_checkpoint(run_dir / "stage_2.ckpt"), target)
    assert target.read_bytes() == (run_dir / "stage_2.ckpt").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ckpt"]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda h: h.pop("bank"), "lacks 'bank'"),
        (lambda h: h["blocks"][0].pop("dtype"), "block 0 lacks 'dtype'"),
        (lambda h: h["optimizer"].update(step="7"), "'step' has type str"),
        (lambda h: h["bank"].pop("frozen"), "bank lacks 'frozen'"),
        (lambda h: h["blocks"][0].update(dtype="object"), "unsupported dtype"),
        (lambda h: h["blocks"][0].update(shape=[1, 2, 3]), "holds"),
        (lambda h: h["model_config"].update(depth="3"), "malformed header"),
        (lambda h: h["blocks"].pop(), "no bank/prototypes block"),
        (lambda h: rename_block(h, "param/dec1_b", "param/dec1_bias"), "param blocks do not match the model"),
        (lambda h: rename_block(h, "opt/m/dec1_b", "opt/m/dec1_g"), "opt/m blocks do not match the model"),
        (lambda h: h["bank"].update(initialized=[True, True]), r"flags do not match 1 categories"),
        (lambda h: h["bank"].update(frozen=[]), r"frozen \(0,\) flags do not match 1 categories"),
    ],
)
def test_checkpoint_malformed_header_rejected(full_run, tmp_path, edit, message):
    run_dir, _ = full_run
    bad = rewrite_checkpoint_header(run_dir / "stage_1.ckpt", tmp_path / "bad.ckpt", edit)
    with pytest.raises(TR.CheckpointFormatError, match=message):
        TR.load_checkpoint(bad)


def test_checkpoint_trailing_bytes_rejected(full_run, tmp_path):
    run_dir, _ = full_run
    raw = (run_dir / "stage_2.ckpt").read_bytes() + bytes(4000)
    _, head_len = struct.unpack_from("<II", raw, 8)
    padded = tmp_path / "padded.ckpt"
    padded.write_bytes(raw)
    digest = hashlib.sha256(raw[16 + head_len :]).hexdigest()
    bad = rewrite_checkpoint_header(padded, tmp_path / "bad.ckpt", lambda h: h.update(checksum=digest))
    with pytest.raises(TR.CheckpointFormatError, match="4000 bytes after the last block"):
        TR.load_checkpoint(bad)


def test_checkpoint_header_that_is_not_json_rejected(full_run, tmp_path):
    run_dir, _ = full_run
    raw = bytearray((run_dir / "stage_1.ckpt").read_bytes())
    raw[16] = 0xFF
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(raw))
    with pytest.raises(TR.CheckpointFormatError, match="not UTF-8 JSON"):
        TR.load_checkpoint(bad)


def test_checkpoint_error_hierarchy():
    assert issubclass(TR.CheckpointChecksumError, TR.CheckpointFormatError)
    assert issubclass(TR.CheckpointVersionError, TR.CheckpointFormatError)


def test_model_from_checkpoint_forward(full_run, tiny_dataset):
    run_dir, ckpt2 = full_run
    model = TR.model_from_checkpoint(ckpt2)
    assert model.registry == (1, 2)
    samples = D.manifest_samples(D.load_manifest(tiny_dataset["stage_1"]), "val")
    images = np.stack([s.image[None] for s in samples])
    _, logits = M.forward(model, images)
    assert logits.data.shape == (len(samples), 3, 32, 32)
    assert np.isfinite(logits.data).all()


# ---------------------------------------------------------------------------
# full-mode chain behavior


def test_full_chain_checkpoint_fields(full_run):
    run_dir, ckpt2 = full_run
    ckpt1 = TR.load_checkpoint(run_dir / "stage_1.ckpt")
    assert (ckpt1.stage, ckpt1.mode, ckpt1.registry) == (1, "full", (1,))
    assert ckpt1.categories == {1: "lobe"}
    assert ckpt1.completed_epochs == ckpt1.total_epochs == 2
    assert ckpt1.log_path == "stage_1.log.jsonl"
    assert ckpt2.registry == (1, 2)
    assert ckpt2.categories == {1: "lobe", 2: "disc"}
    assert ckpt2.stage == 2


def test_full_chain_bank_state(full_run):
    _, ckpt2 = full_run
    bank = ckpt2.bank
    assert list(bank.category_ids) == [1, 2]
    assert bank.initialized.all() and bank.frozen.all()
    assert bank.prototypes.dtype == np.float64
    assert bank.prototypes.shape == (2, M.ModelConfig().feature_channels)
    assert np.isfinite(bank.prototypes).all()


def test_no_partial_checkpoints_after_completion(full_run):
    run_dir, _ = full_run
    assert not list(run_dir.glob("*.epoch.ckpt"))


def test_log_schema_and_lr_schedule(full_run):
    run_dir, _ = full_run
    for stage in (1, 2):
        recs = _read_log(run_dir / f"stage_{stage}.log.jsonl")
        assert len(recs) == 4  # 2 epochs x 2 batches
        assert [r["iter"] for r in recs] == list(range(4))
        for r in recs:
            assert set(r) == set(TR.LOG_FIELDS)
            assert r["stage"] == stage
            assert r["lr"] == TR.poly_lr(1e-3, r["epoch"], 2, 0.9)
            for key in ("loss_total", "loss_seg", "loss_kd", "loss_mem", "loss_same", "loss_oppo"):
                assert np.isfinite(r[key])
        if stage == 1:
            assert all(r["loss_kd"] == 0.0 for r in recs)


def test_full_mode_momentum_logged_and_decreasing(full_run):
    run_dir, _ = full_run
    for stage in (1, 2):
        ms = [r["m_k"] for r in _read_log(run_dir / f"stage_{stage}.log.jsonl")]
        assert ms[0] == pytest.approx(0.9, abs=1e-12)
        assert all(isinstance(m, float) and 0.0 < m <= 0.9 for m in ms)
        assert all(a > b for a, b in zip(ms, ms[1:]))


def test_stage2_loss_additivity(full_run):
    run_dir, _ = full_run
    for r in _read_log(run_dir / "stage_2.log.jsonl"):
        parts = (
            r["loss_seg"]
            + 1.0 * r["loss_kd"]
            + 0.1 * r["loss_mem"]
            + 0.1 * r["loss_same"]
            + 0.1 * r["loss_oppo"]
        )
        assert abs(r["loss_total"] - parts) < 1e-6


def test_zero_lambdas_make_total_equal_seg(tiny_dataset, tmp_path):
    ckpt1 = TR.run_stage(None, tiny_stage_config(1, tiny_dataset), run_dir=tmp_path)
    zeros = dict(lambda_kd=0.0, lambda_mem=0.0, lambda_same=0.0, lambda_oppo=0.0)
    cfg2 = tiny_stage_config(2, tiny_dataset, **zeros)
    TR.run_stage(ckpt1, cfg2, run_dir=tmp_path)
    recs = _read_log(tmp_path / "stage_2.log.jsonl")
    for r in recs:
        assert r["loss_total"] == r["loss_seg"]
        assert r["loss_kd"] == r["loss_mem"] == r["loss_same"] == r["loss_oppo"] == 0.0

    # rebuild the first logged seg loss from scratch with the documented
    # seed derivations; must match the trainer bit for bit
    model = M.expand_head(TR.model_from_checkpoint(ckpt1), (2,), seed=TR._derive_seed(3, 29, 2))
    samples = D.manifest_samples(D.load_manifest(tiny_dataset["stage_2"]), "train")
    batches = D.iterate_batches(samples, 2, TR._derive_seed(3, 23, 2), augment=False, n_epochs=1)
    _, images, labels, _, _ = next(iter(batches))
    space = L.LabelSpace(old=(1,), new=(2,))
    _, logits = M.forward(model, images)
    seg = L.seg_loss(L.remap_tilde(logits, space), labels, space, 1.0, 1.0)
    assert float(seg.data) == recs[0]["loss_seg"]


# ---------------------------------------------------------------------------
# ablation and baseline modes


def test_womem_chain_skips_memory(womem_run):
    run_dir, ckpt2 = womem_run
    assert ckpt2.mode == "womem"
    assert ckpt2.registry == (1, 2)
    assert ckpt2.bank.size == 0
    recs = _read_log(run_dir / "stage_2.log.jsonl")
    assert all(r["m_k"] is None for r in recs)
    assert all(r["loss_mem"] == r["loss_same"] == r["loss_oppo"] == 0.0 for r in recs)
    assert recs[0]["loss_kd"] > 0.0


def test_ft_baseline_runs_without_auxiliary_losses(tiny_dataset, tmp_path):
    ckpt = run_chain(tiny_dataset, tmp_path, mode="ft", stages=(1, 2))
    assert ckpt.mode == "ft"
    assert ckpt.registry == (1, 2)
    assert ckpt.bank.size == 0
    recs = _read_log(tmp_path / "stage_2.log.jsonl")
    assert all(r["m_k"] is None for r in recs)
    for r in recs:
        assert r["loss_kd"] == r["loss_mem"] == r["loss_same"] == r["loss_oppo"] == 0.0
        assert r["loss_total"] == r["loss_seg"]


def test_ft_entry_point_rejects_other_modes(tiny_dataset):
    cfg = tiny_stage_config(1, tiny_dataset, mode="full")
    with pytest.raises(ValueError, match="requires mode 'ft'"):
        TR.run_ft_baseline(None, cfg)


def test_run_stage_rejects_baseline_modes(tiny_dataset):
    for mode in ("ft", "joint"):
        cfg = tiny_stage_config(1, tiny_dataset, mode=mode)
        with pytest.raises(ValueError, match="dedicated baseline entry points"):
            TR.run_stage(None, cfg)


def test_sgd_optimizer_and_augmented_batches(full_run, tiny_dataset, tmp_path):
    run_dir, _ = full_run
    ckpt1 = TR.load_checkpoint(run_dir / "stage_1.ckpt")
    cfg = tiny_stage_config(2, tiny_dataset, optimizer="sgd", augment=True, epochs=1)
    ck = TR.run_stage(ckpt1, cfg, run_dir=tmp_path)
    assert ck.registry == (1, 2)
    assert ck.optimizer["algo"] == "sgd"
    assert TR.load_checkpoint(tmp_path / "stage_2.ckpt").optimizer["algo"] == "sgd"


def test_run_without_run_dir_keeps_no_files(tiny_dataset, tmp_path):
    cfg = tiny_stage_config(1, tiny_dataset, epochs=1)
    ck = TR.run_stage(None, cfg, run_dir=None)
    assert ck.log_path is None
    assert ck.completed_epochs == 1
    assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# lineage enforcement


def test_stage2_requires_previous_checkpoint(tiny_dataset):
    with pytest.raises(TR.LineageError, match="requires the stage 1 checkpoint"):
        TR.run_stage(None, tiny_stage_config(2, tiny_dataset))


def test_previous_stage_number_must_chain(full_run, tiny_dataset):
    _, ckpt2 = full_run
    with pytest.raises(TR.LineageError, match="previous checkpoint is stage 2, expected 1"):
        TR.run_stage(ckpt2, tiny_stage_config(2, tiny_dataset))


def test_teacher_head_wider_than_uint8_pseudo_labels_rejected(full_run, tiny_dataset):
    run_dir, _ = full_run
    ckpt1 = TR.load_checkpoint(run_dir / "stage_1.ckpt")
    wide = dataclasses.replace(ckpt1, registry=tuple(range(3, 259)))  # 257 head channels
    with pytest.raises(ValueError, match="257 channels"):
        TR.run_stage(wide, tiny_stage_config(2, tiny_dataset, mode="womem"))


def test_category_clash_with_registry(full_run, tiny_dataset):
    run_dir, _ = full_run
    ckpt1 = TR.load_checkpoint(run_dir / "stage_1.ckpt")
    cfg = tiny_stage_config(2, tiny_dataset, new_categories=(1,))
    with pytest.raises(ValueError, match="already learned in earlier stages"):
        TR.run_stage(ckpt1, cfg)


def test_full_mode_needs_full_lineage(womem_run, tiny_dataset):
    run_dir, _ = womem_run
    ckpt1 = TR.load_checkpoint(run_dir / "stage_1.ckpt")
    with pytest.raises(TR.LineageError, match="full-mode lineage"):
        TR.run_stage(ckpt1, tiny_stage_config(2, tiny_dataset, mode="full"))


def test_out_of_stage_annotations_rejected(full_run, tiny_dataset):
    run_dir, _ = full_run
    ckpt1 = TR.load_checkpoint(run_dir / "stage_1.ckpt")
    cfg = tiny_stage_config(2, tiny_dataset, manifest=str(tiny_dataset["stage_1"]))
    with pytest.raises(ValueError, match="outside the stage set"):
        TR.run_stage(ckpt1, cfg)


def test_resume_stage_and_mode_must_match(full_run, tiny_dataset):
    _, ckpt2 = full_run
    cfg = tiny_stage_config(1, tiny_dataset)
    with pytest.raises(TR.LineageError, match="resume checkpoint is stage 2"):
        TR.run_stage(None, cfg, resume_from=ckpt2)


def test_resume_already_complete_rejected(full_run, tiny_dataset):
    run_dir, _ = full_run
    ckpt1 = TR.load_checkpoint(run_dir / "stage_1.ckpt")
    with pytest.raises(TR.LineageError, match="covers every epoch"):
        TR.run_stage(None, tiny_stage_config(1, tiny_dataset), resume_from=ckpt1)


def test_resume_registry_must_match(full_run, tiny_dataset):
    run_dir, _ = full_run
    ckpt1 = TR.load_checkpoint(run_dir / "stage_1.ckpt")
    bad = dataclasses.replace(ckpt1, completed_epochs=1, registry=(1, 5))
    with pytest.raises(TR.LineageError, match="resume registry"):
        TR.run_stage(None, tiny_stage_config(1, tiny_dataset), resume_from=bad)


# ---------------------------------------------------------------------------
# determinism and interruption recovery


def test_repeated_chain_is_byte_identical(full_run, tiny_dataset, tmp_path):
    run_a, _ = full_run
    run_chain(tiny_dataset, tmp_path, mode="full", stages=(1, 2))
    for name in ("stage_1.ckpt", "stage_2.ckpt", "stage_1.log.jsonl", "stage_2.log.jsonl"):
        assert (tmp_path / name).read_bytes() == (run_a / name).read_bytes()


@pytest.mark.parametrize("mode", ["full", "ft", "joint"])
def test_crash_resume_matches_uninterrupted_run(tiny_dataset, tmp_path, mode):
    plain = tmp_path / "plain"
    bumpy = tmp_path / "bumpy"
    if mode == "full":
        runner, first = TR.run_stage, None
        cfg = tiny_stage_config(1, tiny_dataset, epochs=3)
    elif mode == "ft":
        runner = TR.run_ft_baseline
        first = runner(None, tiny_stage_config(1, tiny_dataset, mode="ft", epochs=1))
        cfg = tiny_stage_config(2, tiny_dataset, mode="ft", epochs=3)
    else:
        runner, first = TR.run_joint, [tiny_dataset[f"stage_{t}"] for t in (1, 2, 3, 4)]
        cfg = tiny_stage_config(4, tiny_dataset, mode="joint", new_categories=(1, 2, 3, 4, 5), epochs=3)
    runner(first, cfg, run_dir=plain)

    run_until_crash(runner, first, cfg, bumpy, crash_after=2)
    snap = TR.load_checkpoint(bumpy / f"stage_{cfg.stage}.epoch.ckpt")
    assert snap.completed_epochs == 2
    runner(first, cfg, run_dir=bumpy, resume_from=snap)

    for name in (f"stage_{cfg.stage}.ckpt", f"stage_{cfg.stage}.log.jsonl"):
        assert (bumpy / name).read_bytes() == (plain / name).read_bytes()
    assert not (bumpy / f"stage_{cfg.stage}.epoch.ckpt").exists()


@pytest.mark.parametrize(
    "changes, keys",
    [(dict(seed=99, optimizer="sgd", lr=5e-2), "lr, optimizer, seed"), (dict(epochs=4), "epochs")],
)
def test_resume_rejects_a_snapshot_of_another_config(tiny_dataset, tmp_path, changes, keys):
    cfg = tiny_stage_config(1, tiny_dataset, epochs=3, seed=11, optimizer="adam", lr=1e-3)
    run_until_crash(TR.run_stage, None, cfg, tmp_path, crash_after=2)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    snap = TR.load_checkpoint(tmp_path / "stage_1.epoch.ckpt")
    with pytest.raises(TR.LineageError, match=f"resume checkpoint was trained with another stage config; it differs in {keys}$"):
        TR.run_stage(None, dataclasses.replace(cfg, **changes), run_dir=tmp_path, resume_from=snap)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


# ---------------------------------------------------------------------------
# joint-training baseline


def test_run_joint_guards(tiny_dataset):
    full_cfg = tiny_stage_config(4, tiny_dataset, mode="full", new_categories=(1, 2, 3, 4, 5))
    with pytest.raises(ValueError, match="requires mode 'joint'"):
        TR.run_joint([tiny_dataset["stage_1"]], full_cfg)
    cfg = tiny_stage_config(4, tiny_dataset, mode="joint", new_categories=(1, 2, 3, 4, 5))
    with pytest.raises(ValueError, match="no manifests"):
        TR.run_joint([], cfg)
    with pytest.raises(ValueError, match="no training samples"):
        TR.run_joint([tiny_dataset["full"]], cfg)


def test_run_joint_unions_categories(tiny_dataset, tmp_path):
    cfg = tiny_stage_config(4, tiny_dataset, mode="joint", new_categories=(1, 2, 3, 4, 5), epochs=1)
    mans = [tiny_dataset[f"stage_{t}"] for t in (1, 2, 3, 4)]
    ck = TR.run_joint(mans, cfg, run_dir=tmp_path)
    assert ck.mode == "joint"
    assert ck.stage == 4
    assert ck.registry == (1, 2, 3, 4, 5)
    assert set(ck.categories) == {1, 2, 3, 4, 5}
    assert ck.bank.size == 0
    recs = _read_log(tmp_path / "stage_4.log.jsonl")
    assert len(recs) == 8  # 16 pooled samples / batch of 2
    assert all(r["m_k"] is None and r["loss_kd"] == 0.0 for r in recs)


def test_run_joint_rejects_conflicting_names(tiny_dataset, tmp_path):
    alt = tmp_path / "alt"
    shutil.copytree(Path(tiny_dataset["stage_1"]).parent, alt)
    man = alt / "manifest.json"
    doc = json.loads(man.read_text())
    doc["categories"]["1"] = "blob"
    man.write_text(json.dumps(doc))
    cfg = tiny_stage_config(4, tiny_dataset, mode="joint", new_categories=(1, 2, 3, 4, 5))
    with pytest.raises(ValueError, match="named"):
        TR.run_joint([tiny_dataset["stage_1"], man], cfg)
