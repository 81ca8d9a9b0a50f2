"""Overlap/boundary metrics against brute-force oracles, plus evaluation."""

import math

import numpy as np
import pytest

import _oracles as O
from ilseg import data as D
from ilseg import metrics as ME
from ilseg import model as M

TINY_MODEL = M.ModelConfig(depth=2, base_channels=4, feature_channels=6)


def _disc(size, cy, cx, r):
    ys, xs = np.mgrid[0:size, 0:size]
    return (ys - cy) ** 2 + (xs - cx) ** 2 <= r * r


def _random_mask(rng, size, style):
    if style == "noise":
        return rng.random((size, size)) < 0.45
    mask = np.zeros((size, size), dtype=bool)
    for _ in range(int(rng.integers(1, 4))):
        mask |= _disc(size, rng.integers(0, size), rng.integers(0, size), rng.integers(2, size // 3))
    return mask


# dice


def test_dice_hand_values():
    a = np.zeros((4, 4), dtype=bool)
    a[1:3, 1:3] = True
    assert ME.dice(a, a) == 1.0
    b = np.zeros((4, 4), dtype=bool)
    b[0, 0] = True
    assert ME.dice(a, b) == 0.0
    c = np.zeros((4, 4), dtype=bool)
    c[1:3, 2:4] = True  # shares 2 of 4 pixels with a
    assert ME.dice(a, c) == 0.5
    empty = np.zeros((4, 4), dtype=bool)
    assert ME.dice(empty, empty) == 1.0
    assert ME.dice(a, empty) == 0.0
    assert ME.dice(empty, a) == 0.0


def test_dice_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        ME.dice(np.zeros((4, 4), dtype=bool), np.zeros((4, 5), dtype=bool))


# boundaries


def test_boundary_hand_values():
    single = np.zeros((5, 5), dtype=bool)
    single[2, 2] = True
    assert np.array_equal(ME.boundary_mask(single), single)

    block = np.zeros((5, 5), dtype=bool)
    block[1:4, 1:4] = True
    boundary = ME.boundary_mask(block)
    assert boundary.sum() == 8
    assert not boundary[2, 2]

    full = np.ones((5, 5), dtype=bool)
    boundary = ME.boundary_mask(full)
    assert boundary.sum() == 16  # the border frame; border counts as outside
    assert not boundary[2, 2]


def test_boundary_matches_loop_oracle():
    rng = np.random.default_rng(1)
    for style in ("blob", "noise"):
        mask = _random_mask(rng, 24, style)
        got = ME.boundary_mask(mask)
        want = np.zeros_like(mask)
        for y, x in O.boundary_oracle(mask):
            want[y, x] = True
        assert np.array_equal(got, want)


# hd95


def test_hd95_hand_values():
    a = np.zeros((10, 10), dtype=bool)
    a[2:8, 2:8] = True
    res = ME.hd95(a, a)
    assert res.value == 0.0 and not res.degenerate

    p = np.zeros((10, 10), dtype=bool)
    q = np.zeros((10, 10), dtype=bool)
    p[2, 2] = True
    q[2, 7] = True
    assert ME.hd95(p, q) == (5.0, False)

    b = np.zeros((12, 12), dtype=bool)
    c = np.zeros((12, 12), dtype=bool)
    b[2:8, 2:8] = True
    c[2:8, 3:9] = True
    assert ME.hd95(b, c).value == 1.0


def test_hd95_empty_masks_are_degenerate():
    empty = np.zeros((8, 10), dtype=bool)
    some = np.zeros((8, 10), dtype=bool)
    some[4, 4] = True
    diag = math.sqrt(8 ** 2 + 10 ** 2)
    for pair in ((empty, some), (some, empty), (empty, empty)):
        res = ME.hd95(*pair)
        assert res.degenerate
        assert abs(res.value - diag) < 1e-12


def test_hd95_spacing():
    p = np.zeros((10, 10), dtype=bool)
    q = np.zeros((10, 10), dtype=bool)
    p[2, 2] = True
    q[2, 5] = True
    assert ME.hd95(p, q, spacing=2.0).value == 6.0
    assert ME.hd95(p, q, spacing=(2.0, 0.5)).value == 1.5
    r = np.zeros((10, 10), dtype=bool)
    r[6, 2] = True
    assert ME.hd95(p, r, spacing=(2.0, 0.5)).value == 8.0
    with pytest.raises(ValueError):
        ME.hd95(p, q, spacing=0.0)
    with pytest.raises(ValueError):
        ME.hd95(p, q, spacing=(1.0, -2.0))


def test_metrics_match_bruteforce_oracles():
    rng = np.random.default_rng(2)
    n_pairs = 0
    while n_pairs < 50:
        style = ("blob", "noise")[n_pairs % 2]
        size = 48 if style == "blob" else 16
        pred = _random_mask(rng, size, style)
        gt = _random_mask(rng, size, style)
        spacing = (1.0, (1.3, 0.7))[n_pairs % 2]
        got_d = ME.dice(pred, gt)
        want_d = O.dice_oracle(pred, gt)
        assert abs(got_d - want_d) < 1e-9
        got = ME.hd95(pred, gt, spacing)
        want_v, want_deg = O.hd95_oracle(pred, gt, spacing)
        assert got.degenerate == want_deg
        assert abs(got.value - want_v) < 1e-9
        n_pairs += 1



def _hd95_scipy(pred, gt, spacing, ndimage):
    """hd95 as computed with scipy's exact Euclidean distance transform."""
    sy, sx = (spacing, spacing) if np.isscalar(spacing) else spacing
    bp, bg = ME.boundary_mask(pred), ME.boundary_mask(gt)

    def p95(src, dist):
        d = np.sort(dist[src])
        return float(d[int(np.ceil(0.95 * d.size)) - 1])

    to_gt = ndimage.distance_transform_edt(~bg, sampling=(sy, sx))
    to_pred = ndimage.distance_transform_edt(~bp, sampling=(sy, sx))
    return ME.HD95Result(max(p95(bp, to_gt), p95(bg, to_pred)), False)


def _organ_pairs(size, seed):
    cfg = D.GeneratorConfig(image_size=size)
    a, b = (D.render_sample(cfg, seed, 1, "train", i, (1, 2, 3, 4, 5)).labels for i in (0, 1))
    return [(a == c, b == c) for c in range(1, 6)]


def test_hd95_equals_scipy_distance_transform_bitwise():
    ndimage = pytest.importorskip("scipy.ndimage")
    rng = np.random.default_rng(4)
    pairs = _organ_pairs(64, 11) + _organ_pairs(128, 12)
    for _ in range(6):
        blob = _random_mask(rng, 64, "blob")
        pairs.append((blob, ndimage.binary_dilation(blob, iterations=int(rng.integers(1, 6)))))
    for frac in (0.3, 0.5):
        for size in (48, 64):
            pairs.append((rng.random((size, size)) < frac, rng.random((size, size)) < frac))
    for pred, gt in pairs:
        assert pred.any() and gt.any()
        for spacing in (1.0, 2.0, (1.3, 0.7)):
            assert ME.hd95(pred, gt, spacing) == _hd95_scipy(pred, gt, spacing, ndimage)

def test_hd95_symmetric_and_bounded_by_exact_hausdorff():
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(100):
        pred = _random_mask(rng, 24, "blob")
        gt = _random_mask(rng, 24, "blob")
        assert ME.hd95(pred, gt) == ME.hd95(gt, pred)
        assert ME.dice(pred, gt) == ME.dice(gt, pred)
        if pred.any() and gt.any() and checked < 20:
            assert ME.hd95(pred, gt).value <= O.hausdorff_exact_oracle(pred, gt) + 1e-12
            checked += 1
    assert checked == 20


# label prediction and dataset evaluation


def test_predict_labels_maps_channels_to_registry_ids():
    model = M.build(TINY_MODEL, (4, 9), seed=0)
    model.params["head_w"].data[:] = 0.0
    model.params["head_b"].data[:] = np.array([0.0, 0.0, 10.0], dtype=np.float32)
    images = np.zeros((2, 1, 16, 16), dtype=np.float32)
    pred = ME.predict_labels(model, images)
    assert pred.shape == (2, 16, 16)
    assert set(np.unique(pred).tolist()) == {9}


def _label_queue_stub(samples):
    queue = list(samples)

    def stub(model, images):
        out = []
        for _ in range(images.shape[0]):
            out.append(queue.pop(0).labels.astype(np.int32))
        return np.stack(out)

    return stub


def test_evaluate_perfect_predictions(tiny_dataset, monkeypatch):
    doc = D.load_manifest(tiny_dataset["full"])
    samples = D.manifest_samples(doc, "val")
    model = M.build(TINY_MODEL, (1, 2), seed=0)
    monkeypatch.setattr(ME, "predict_labels", _label_queue_stub(samples))
    report = ME.evaluate(model, doc, "val", stage=3)
    assert report.stage == 3
    for cid in (1, 2):
        row = report.row_for(cid)
        assert not row.absent
        assert row.n == len(samples)
        assert row.dice_mean == 1.0
        assert row.hd95_mean == 0.0
        assert row.degenerate_count == 0
    for cid in (3, 4, 5):  # model never registered these
        row = report.row_for(cid)
        assert row.absent
        assert row.dice_mean is None
    assert report.mean_dice() == 1.0
    assert report.mean_dice(category_ids=(1,)) == 1.0


def test_evaluate_constant_background_predictions(tiny_dataset, monkeypatch):
    doc = D.load_manifest(tiny_dataset["full"])
    samples = D.manifest_samples(doc, "val")
    model = M.build(TINY_MODEL, (1, 2), seed=0)

    def stub(model, images):
        return np.zeros((images.shape[0],) + images.shape[2:], dtype=np.int32)

    monkeypatch.setattr(ME, "predict_labels", stub)
    report = ME.evaluate(model, doc, "val")
    size = samples[0].image.shape[0]
    diag = math.sqrt(2) * size
    for cid in (1, 2):
        row = report.row_for(cid)
        assert row.dice_mean == 0.0
        assert row.degenerate_count == row.n == len(samples)
        assert abs(row.hd95_mean - diag) < 1e-9


def test_evaluate_rejects_empty_split(tiny_dataset):
    model = M.build(TINY_MODEL, (1,), seed=0)
    with pytest.raises(ValueError, match="train"):
        ME.evaluate(model, tiny_dataset["full"], "train")


def test_evaluate_end_to_end_with_real_model(tiny_dataset):
    model = M.build(TINY_MODEL, (1,), seed=0)
    report = ME.evaluate(model, tiny_dataset["stage_1"], "val", stage=1)
    row = report.row_for(1)
    assert not row.absent
    assert 0.0 <= row.dice_mean <= 1.0
    assert row.hd95_mean >= 0.0


def test_evaluate_frozen_and_trainable_models_write_the_same_csv(tiny_dataset):
    cfg = M.ModelConfig(depth=2, base_channels=4, feature_channels=6, head_init_std=2.0)
    model = M.build(cfg, (1, 2, 3), seed=4)
    trainable = ME.evaluate(model, tiny_dataset["full"], "val", stage=3)
    frozen = ME.evaluate(M.clone_frozen(model), tiny_dataset["full"], "val", stage=3)
    assert frozen.to_csv() == trainable.to_csv()
    assert len({row.dice_mean for row in trainable.rows if not row.absent}) > 1


# CSV output


def test_report_csv_layout(tmp_path):
    rows = [
        ME.MetricRow(1, "lobe", 2, 0.8125, 1.5, 0, False),
        ME.MetricRow(2, "disc", 0, None, None, 0, True),
        ME.MetricRow(3, "band", 2, 0.25, 3.0, 1, False),
    ]
    report = ME.MetricsReport(stage=2, rows=rows)
    text = report.to_csv()
    lines = text.splitlines()
    assert lines[0] == "stage,category,DC,HD95,degenerate"
    assert lines[1] == "2,lobe,0.812500,1.500000,0"
    assert lines[2] == "2,disc,,,absent"
    assert lines[3] == "2,band,0.250000,3.000000,1"
    assert lines[4] == "2,mean,0.531250,2.250000,1"
    assert len(lines) == 5

    path = tmp_path / "out.csv"
    report.write_csv(path)
    first = path.read_bytes()
    report.write_csv(path)
    assert path.read_bytes() == first
