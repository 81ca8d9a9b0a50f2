"""Sample container format, synthetic generator, and batching."""

import hashlib
import json
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import render_sample_oracle
from ilseg import data as D

GEN64 = D.GeneratorConfig(image_size=64, train_count=2, val_count=1, test_count=1,
                          full_val_count=1, full_test_count=1)


def _tree_digest(root: Path) -> dict:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


# container format


def test_sample_round_trip_bitwise(tmp_path):
    sample = D.render_sample(GEN64, 3, 1, "train", 0, (1,))
    path = tmp_path / "s.bin"
    D.save_sample(sample, path)
    loaded = D.load_sample(path)
    assert loaded.image.tobytes() == sample.image.tobytes()
    assert loaded.labels.tobytes() == sample.labels.tobytes()
    assert loaded.annotated == sample.annotated

    first = path.read_bytes()
    D.save_sample(loaded, path)
    assert path.read_bytes() == first


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "s.bin"
    path.write_bytes(b"NOTMAGIC" + b"\0" * 64)
    with pytest.raises(D.BadMagicError):
        D.load_sample(path)


def test_load_rejects_truncations(tmp_path):
    sample = D.render_sample(GEN64, 3, 1, "train", 0, (1,))
    path = tmp_path / "s.bin"
    D.save_sample(sample, path)
    raw = path.read_bytes()

    for cut in (len(D.MAGIC) + 4, len(D.MAGIC) + 8 + 100, len(raw) - 1):
        path.write_bytes(raw[:cut])
        with pytest.raises(D.TruncatedPayloadError):
            D.load_sample(path)


def test_load_rejects_trailing_bytes(tmp_path):
    sample = D.render_sample(GEN64, 3, 1, "train", 0, (1,))
    path = tmp_path / "s.bin"
    D.save_sample(sample, path)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(D.SampleFormatError, match="trailing"):
        D.load_sample(path)


def test_load_rejects_zero_extent(tmp_path):
    import struct

    path = tmp_path / "s.bin"
    path.write_bytes(D.MAGIC + struct.pack("<II", 0, 4) + b"\0")
    with pytest.raises(D.SampleFormatError, match="zero extent"):
        D.load_sample(path)


def test_sample_validate_rejects_unannotated_labels():
    labels = np.zeros((4, 4), dtype=np.uint8)
    labels[0, 0] = 3
    sample = D.Sample(image=np.zeros((4, 4), dtype=np.float32), labels=labels, annotated=(1,))
    with pytest.raises(D.SampleFormatError):
        sample.validate()


# rendering and generation


def test_render_sample_deterministic():
    a = D.render_sample(GEN64, 11, 2, "val", 3, (2,))
    b = D.render_sample(GEN64, 11, 2, "val", 3, (2,))
    assert a.image.tobytes() == b.image.tobytes()
    assert a.labels.tobytes() == b.labels.tobytes()
    c = D.render_sample(GEN64, 12, 2, "val", 3, (2,))
    assert a.image.tobytes() != c.image.tobytes()


def test_render_labels_follow_annotated_set():
    sample = D.render_sample(GEN64, 11, 2, "train", 0, (2,))
    assert set(np.unique(sample.labels).tolist()) <= {0, 2}
    full = D.render_sample(GEN64, 11, 0, "val", 0, (1, 2, 3, 4, 5))
    assert set(np.unique(full.labels).tolist()) == {0, 1, 2, 3, 4, 5}


def test_rendered_areas_stay_in_configured_ranges():
    area_img = float(GEN64.image_size ** 2)
    ranges = {c.id: c.area_range for c in D.CATEGORIES}
    n_checked = 0
    for idx in range(20):
        sample = D.render_sample(GEN64, 7, 0, "val", idx, (1, 2, 3, 4, 5))
        for cid, (lo, hi) in ranges.items():
            frac = float((sample.labels == cid).sum()) / area_img
            assert lo <= frac <= hi, f"category {cid} area {frac} outside [{lo}, {hi}]"
            n_checked += 1
    for stage_tag in (1, 2, 3, 4):
        for idx in range(5):
            cats = D.STAGE_CATEGORIES[stage_tag - 1]
            sample = D.render_sample(GEN64, 7, stage_tag, "train", idx, cats)
            for cid in cats:
                lo, hi = ranges[cid]
                frac = float((sample.labels == cid).sum()) / area_img
                assert lo <= frac <= hi
                n_checked += 1
    assert n_checked >= 100


def test_generate_writes_expected_tree(tmp_path):
    manifests = D.generate(GEN64, 3, tmp_path)
    assert sorted(manifests) == ["full", "stage_1", "stage_2", "stage_3", "stage_4"]
    for key, path in manifests.items():
        assert path.exists()
        doc = D.load_manifest(path)
        if key == "full":
            assert sorted(doc["categories"]) == [1, 2, 3, 4, 5]
            assert all(e["split"] in ("val", "test") for e in doc["samples"])
        else:
            stage = int(key.split("_")[1])
            assert tuple(sorted(doc["categories"])) == D.STAGE_CATEGORIES[stage - 1]
    train = D.manifest_samples(D.load_manifest(manifests["stage_2"]), "train")
    assert len(train) == GEN64.train_count
    assert all(set(np.unique(s.labels).tolist()) <= {0, 2} for s in train)


def test_generate_is_byte_identical(tmp_path):
    D.generate(GEN64, 3, tmp_path / "a")
    D.generate(GEN64, 3, tmp_path / "b")
    assert _tree_digest(tmp_path / "a") == _tree_digest(tmp_path / "b")
    D.generate(GEN64, 4, tmp_path / "c")
    assert _tree_digest(tmp_path / "a") != _tree_digest(tmp_path / "c")


@pytest.mark.parametrize("size", [16, 24, 32, 64, 128])
def test_render_sample_matches_reference_renderer(size):
    wide = D.GeneratorConfig(image_size=size, jitter_px=size / 3, shape_jitter_px=size / 6,
                             scale_jitter=0.49, max_attempts=3)
    for config in (D.GeneratorConfig(image_size=size), wide):
        for tag in range(5):
            annotated = tuple(c.id for c in D.CATEGORIES) if tag == 0 else D.STAGE_CATEGORIES[tag - 1]
            for split in ("train", "val", "test"):
                for index in range(2):
                    got = D.render_sample(config, 40 + index, tag, split, index, annotated)
                    image, labels = render_sample_oracle(config, 40 + index, tag, split, index, annotated)
                    assert got.image.tobytes() == image.tobytes(), (config, tag, split, index)
                    assert got.labels.tobytes() == labels.tobytes(), (config, tag, split, index)


def _writer_threads():
    return [t for t in threading.enumerate() if t.name == "ilseg-writer"]


def test_generate_manifests_follow_their_samples(tmp_path, monkeypatch):
    """Each manifest is written only once every sample it lists is on disk."""
    size = GEN64.image_size
    write_manifest = D.write_manifest

    def checked(path, categories, entries, seed):
        for rel, ann, _ in entries:
            assert (Path(path).parent / rel).stat().st_size == len(D.MAGIC) + 8 + 5 * size * size + 1 + len(ann)
        write_manifest(path, categories, entries, seed)

    monkeypatch.setattr(D, "write_manifest", checked)
    manifests = D.generate(GEN64, 3, tmp_path)
    for path in manifests.values():
        doc = D.load_manifest(path, check_files=True)
        for split in ("train", "val", "test"):
            D.manifest_samples(doc, split)
    assert not _writer_threads()


def test_generate_reraises_a_failed_write_and_stops_the_writer(tmp_path):
    # a directory where a sample file should go makes that write fail
    (tmp_path / "stage_2" / "train_0001.bin").mkdir(parents=True)
    caught = []

    def target():
        try:
            D.generate(GEN64, 3, tmp_path)
        except Exception as e:
            caught.append(e)

    caller = threading.Thread(target=target)
    caller.start()
    caller.join(120)
    assert not caller.is_alive()
    assert len(caught) == 1 and isinstance(caught[0], IsADirectoryError)
    assert not _writer_threads()
    assert (tmp_path / "stage_1" / "manifest.json").exists()
    assert not (tmp_path / "stage_2" / "manifest.json").exists()
    assert not (tmp_path / "full").exists()


def test_concurrent_generates_under_fast_thread_switching(tmp_path):
    """Four generate calls at once, each with its own writer thread, with
    the interpreter switching threads every 10 us: every tree matches a
    serial reference, so no write is lost or mixed up."""
    ref_dir = tmp_path / "ref"
    ref_dir.mkdir()
    for i in range(GEN64.train_count):
        D.save_sample(D.render_sample(GEN64, 3, 1, "train", i, (1,)), ref_dir / f"train_{i:04d}.bin")
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        outs = [tmp_path / f"run{k}" for k in range(4)]
        workers = [threading.Thread(target=D.generate, args=(GEN64, 3, out)) for out in outs]
        for w in workers:
            w.start()
        for w in workers:
            w.join(120)
        assert not any(w.is_alive() for w in workers)
    finally:
        sys.setswitchinterval(old)
    digests = [_tree_digest(out) for out in outs]
    assert all(d == digests[0] for d in digests)
    assert {k: v for k, v in digests[0].items() if k.startswith("stage_1/train_")} == {
        f"stage_1/{k}": v for k, v in _tree_digest(ref_dir).items()
    }
    assert not _writer_threads()


def test_cli_import_loads_no_executor_or_queue_modules():
    code = (
        "import json, sys\n"
        "import ilseg.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m == 'queue' or m.startswith('concurrent'))))\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == []


def test_generator_config_validation():
    with pytest.raises(ValueError):
        D.GeneratorConfig(image_size=12)
    with pytest.raises(ValueError):
        D.GeneratorConfig(image_size=20)
    with pytest.raises(ValueError):
        D.GeneratorConfig(train_count=0)
    # numpy rejects a negative jitter, a negative tolerance rejects every layout,
    # and past half the image a jitter redraws for about half a second a sample
    for bad in (dict(jitter_px=-1.0), dict(jitter_px=64.5), dict(shape_jitter_px=-0.5), dict(overlap_tolerance=-0.1)):
        with pytest.raises(ValueError, match=next(iter(bad))):
            D.GeneratorConfig(**bad)


# manifests


def test_manifest_rejects_bad_json(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text('{"version": 1,\n  "seed": }\n')
    with pytest.raises(D.SampleFormatError, match=r"line 2 column"):
        D.load_manifest(path)


def test_manifest_rejects_missing_keys(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"version": 1, "seed": 0, "samples": []}))
    with pytest.raises(D.SampleFormatError, match="categories"):
        D.load_manifest(path)


def test_manifest_rejects_unknown_version(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"version": 99, "seed": 0, "categories": {}, "samples": []}))
    with pytest.raises(D.SampleFormatError, match="version"):
        D.load_manifest(path)


def test_manifest_rejects_missing_sample_file(tmp_path):
    path = tmp_path / "manifest.json"
    D.write_manifest(path, {1: "lobe"}, [("gone.bin", (1,), "train")], seed=0)
    with pytest.raises(D.SampleFormatError, match="gone.bin"):
        D.load_manifest(path)
    doc = D.load_manifest(path, check_files=False)
    assert doc["samples"][0]["path"] == "gone.bin"


def test_manifest_samples_rejects_annotation_mismatch(tmp_path):
    sample = D.render_sample(GEN64, 3, 1, "train", 0, (1,))
    D.save_sample(sample, tmp_path / "s.bin")
    path = tmp_path / "manifest.json"
    D.write_manifest(path, {1: "lobe", 2: "disc"}, [("s.bin", (1, 2), "train")], seed=3)
    with pytest.raises(D.SampleFormatError, match="disagree"):
        D.manifest_samples(D.load_manifest(path), "train")


# batching


def _stage_samples(tmp_path, n=4):
    cfg = D.GeneratorConfig(image_size=32, train_count=n, val_count=1, test_count=1,
                            full_val_count=1, full_test_count=1)
    manifests = D.generate(cfg, 5, tmp_path)
    return D.manifest_samples(D.load_manifest(manifests["stage_1"]), "train")


def _collect(batches):
    return [(e, img.tobytes(), lab.tobytes(), tuple(a), tuple(i)) for e, img, lab, a, i in batches]


def test_iterate_batches_deterministic_and_epoch_orders_differ(tmp_path):
    samples = _stage_samples(tmp_path)
    a = _collect(D.iterate_batches(samples, 2, seed=9, n_epochs=2))
    b = _collect(D.iterate_batches(samples, 2, seed=9, n_epochs=2))
    assert a == b
    order_e0 = [i for e, _, _, _, idx in a if e == 0 for i in idx]
    order_e1 = [i for e, _, _, _, idx in a if e == 1 for i in idx]
    assert sorted(order_e0) == sorted(order_e1) == list(range(len(samples)))
    different = _collect(D.iterate_batches(samples, 2, seed=10, n_epochs=2))
    assert a != different


def test_iterate_batches_resume_reproduces_suffix(tmp_path):
    samples = _stage_samples(tmp_path)
    whole = _collect(D.iterate_batches(samples, 2, seed=9, n_epochs=3))
    tail = _collect(D.iterate_batches(samples, 2, seed=9, n_epochs=2, start_epoch=1))
    n_per_epoch = len(whole) // 3
    assert whole[n_per_epoch:] == tail


def test_iterate_batches_without_augment_keeps_stored_bytes(tmp_path):
    samples = _stage_samples(tmp_path)
    for _, images, labels, _, idx in D.iterate_batches(samples, 2, seed=9):
        for pos, i in enumerate(idx):
            assert images[pos, 0].tobytes() == samples[i].image.tobytes()
            assert labels[pos].tobytes() == samples[i].labels.tobytes()
    assert images.dtype == np.float32


def test_iterate_batches_augment_is_deterministic_and_label_safe(tmp_path):
    samples = _stage_samples(tmp_path)
    a = _collect(D.iterate_batches(samples, 2, seed=9, augment=True, n_epochs=2))
    b = _collect(D.iterate_batches(samples, 2, seed=9, augment=True, n_epochs=2))
    assert a == b
    raw = _collect(D.iterate_batches(samples, 2, seed=9, n_epochs=2))
    assert a != raw
    for _, images, labels, annots, _ in D.iterate_batches(samples, 2, seed=9, augment=True):
        for pos in range(images.shape[0]):
            assert set(np.unique(labels[pos]).tolist()) <= {0} | set(annots[pos])


def test_iterate_batches_rejects_bad_arguments(tmp_path):
    samples = _stage_samples(tmp_path)
    with pytest.raises(ValueError):
        list(D.iterate_batches(samples, 0, seed=9))
    with pytest.raises(ValueError):
        list(D.iterate_batches([], 2, seed=9))


# arbitrary input reaches the caller as SampleFormatError, or loads

_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_entry = _json | st.fixed_dictionaries({
    "path": st.text(max_size=8) | _json,
    "annotated": st.lists(st.integers(0, 9), max_size=3) | _json,
    "split": st.sampled_from(["train", "val", "test"]) | _json,
})
_manifest = _json | st.fixed_dictionaries({
    "version": st.just(1) | _json,
    "seed": _json,
    "categories": st.dictionaries(st.integers(0, 9).map(str) | st.text(max_size=3), st.text(max_size=5) | _json,
                                  max_size=3) | _json,
    "samples": st.lists(_entry, max_size=3) | _json,
})


@settings(deadline=None, max_examples=200)
@given(doc=_manifest | st.binary(max_size=64))
def test_load_manifest_raises_only_sample_format_error(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("man") / "manifest.json"
    path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    for check_files in (False, True):
        try:
            D.load_manifest(path, check_files=check_files)
        except D.SampleFormatError:
            pass


_VALID = D._encode(D.Sample(image=np.linspace(0, 1, 12, dtype=np.float32).reshape(3, 4),
                            labels=np.array([[0, 1, 1, 0]] * 3, dtype=np.uint8), annotated=(1,)))


@settings(deadline=None, max_examples=200)
@given(
    raw=st.binary(max_size=96)
    | st.builds(lambda pos, b: _VALID[:pos] + bytes([b]) + _VALID[pos + 1 :],
                st.integers(0, len(_VALID) - 1), st.integers(0, 255))
    | st.integers(0, len(_VALID) + 2).map(lambda n: (_VALID + b"\0\0")[:n])
)
def test_load_sample_raises_only_sample_format_error(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("smp") / "s.bin"
    path.write_bytes(raw)
    try:
        D.load_sample(path)
    except D.SampleFormatError:
        pass
