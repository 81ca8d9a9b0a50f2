"""Encoder-decoder construction, head expansion, and frozen-copy contracts."""

import math
import tracemalloc

import numpy as np
import pytest

from ilseg import losses as L
from ilseg import model as M
from ilseg import tensor as T

SMALL = M.ModelConfig(depth=2, base_channels=4, feature_channels=6)


def _params_bytes(model):
    return {k: v.data.tobytes() for k, v in model.params.items()}


def test_build_is_deterministic():
    a = M.build(SMALL, (1, 2), seed=7)
    b = M.build(SMALL, (1, 2), seed=7)
    assert _params_bytes(a) == _params_bytes(b)
    c = M.build(SMALL, (1, 2), seed=8)
    assert _params_bytes(a) != _params_bytes(c)


def test_build_head_layout():
    model = M.build(SMALL, (3, 1), seed=0)
    assert model.registry == (3, 1)
    head_w, head_b = model.head()
    assert head_w.data.shape == (3, SMALL.feature_channels, 1, 1)
    assert head_b.data.shape == (3,)
    assert np.array_equal(head_b.data, np.zeros(3, dtype=np.float32))


def test_build_rejects_bad_categories():
    with pytest.raises(ValueError):
        M.build(SMALL, (), seed=0)
    with pytest.raises(ValueError):
        M.build(SMALL, (1, 1), seed=0)
    with pytest.raises(ValueError):
        M.build(SMALL, (0, 1), seed=0)


def test_config_validation():
    with pytest.raises(ValueError):
        M.ModelConfig(depth=0)
    with pytest.raises(ValueError):
        M.ModelConfig(head_init="fancy")
    with pytest.raises(ValueError):
        M.ModelConfig(head_init_std=0.0)


def test_forward_shapes():
    model = M.build(SMALL, (1, 2, 3), seed=1)
    x = T.Tensor(np.zeros((2, 1, 16, 16), dtype=np.float32))
    feat, logits = M.forward(model, x)
    assert feat.data.shape == (2, SMALL.feature_channels, 16, 16)
    assert logits.data.shape == (2, 4, 16, 16)
    assert np.all(np.isfinite(logits.data))


def test_forward_rejects_indivisible_extent():
    model = M.build(SMALL, (1,), seed=1)
    with pytest.raises(T.ShapeError):
        M.forward(model, T.Tensor(np.zeros((1, 1, 9, 9), dtype=np.float32)))


def test_forward_rejects_wrong_channel_count():
    model = M.build(SMALL, (1,), seed=1)
    with pytest.raises(T.ShapeError):
        M.forward(model, T.Tensor(np.zeros((1, 2, 16, 16), dtype=np.float32)))


def test_forward_repeatable_bitwise():
    rng = np.random.default_rng(2)
    model = M.build(SMALL, (1, 2), seed=3)
    x = T.Tensor(rng.standard_normal((1, 1, 16, 16)).astype(np.float32))
    _, first = M.forward(model, x)
    _, second = M.forward(model, x)
    assert first.data.tobytes() == second.data.tobytes()


def test_expand_head_preserves_existing_parameters_and_logits():
    rng = np.random.default_rng(4)
    base = M.build(SMALL, (1,), seed=5)
    x = T.Tensor(rng.standard_normal((1, 1, 16, 16)).astype(np.float32))
    _, logits_before = M.forward(base, x)
    before = _params_bytes(base)

    grown = M.expand_head(base, (2, 3), seed=6)
    assert grown.registry == (1, 2, 3)
    for name, blob in before.items():
        if name == "head_w":
            assert grown.params[name].data[:2].tobytes() == blob
        elif name == "head_b":
            assert grown.params[name].data[:2].tobytes() == blob
        else:
            assert grown.params[name].data.tobytes() == blob

    _, logits_after = M.forward(grown, x)
    assert np.array_equal(logits_after.data[:, :2], logits_before.data)


def test_expand_head_rejects_bad_additions():
    base = M.build(SMALL, (1,), seed=5)
    with pytest.raises(ValueError):
        M.expand_head(base, (), seed=0)
    with pytest.raises(ValueError):
        M.expand_head(base, (2, 2), seed=0)
    with pytest.raises(ValueError):
        M.expand_head(base, (1,), seed=0)
    with pytest.raises(ValueError):
        M.expand_head(base, (0,), seed=0)


def test_expand_head_background_copy_init():
    cfg = M.ModelConfig(depth=2, base_channels=4, feature_channels=6, head_init="background_copy")
    base = M.build(cfg, (1,), seed=5)
    grown = M.expand_head(base, (2, 3), seed=6)
    head_w = grown.params["head_w"].data
    head_b = grown.params["head_b"].data
    bg_row = head_w[0]
    for r in (2, 3):
        assert np.array_equal(head_w[r], bg_row)
    expected_bias = head_b[0] - np.float32(math.log(3.0))
    assert np.allclose(head_b[2:], expected_bias, atol=1e-6)


def test_parameter_count_grows_only_by_head_rows():
    base = M.build(SMALL, (1,), seed=5)
    grown = M.expand_head(base, (2,), seed=6)

    assert grown.parameter_count() - base.parameter_count() == SMALL.feature_channels + 1


def test_clone_frozen_is_immutable_snapshot():
    rng = np.random.default_rng(8)
    model = M.build(SMALL, (1, 2), seed=9)
    frozen = M.clone_frozen(model)
    x = T.Tensor(rng.standard_normal((1, 1, 16, 16)).astype(np.float32))
    _, live = M.forward(model, x)
    _, snap = M.forward(frozen, x)
    assert np.array_equal(live.data, snap.data)
    assert not snap.requires_grad

    for p in model.params.values():
        p.data += 1.0
    _, snap_again = M.forward(frozen, x)
    assert snap_again.data.tobytes() == snap.data.tobytes()
    _, live_again = M.forward(model, x)
    assert not np.array_equal(live_again.data, snap.data)

    with pytest.raises((ValueError, RuntimeError)):
        frozen.params["head_b"][:] = 0.0


# activation memory


def _traced_peak(fn) -> int:
    """Peak bytes that numpy and Python allocate while `fn` runs."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def test_training_step_and_frozen_forward_stay_within_memory_budget():
    """64 px: backward frees the graph as it goes and each conv lowers one
    image at a time, so neither the step nor inference holds a batch of
    patch matrices or a second copy of every activation."""
    rng = np.random.default_rng(6)
    model = M.build(M.ModelConfig(), (1, 2), seed=6)
    space = L.LabelSpace(old=(), new=(1, 2))
    images = rng.standard_normal((2, 1, 64, 64)).astype(np.float32)
    labels = rng.integers(0, 3, (2, 64, 64))

    def step():
        for p in model.params.values():
            p.grad = None
        _, logits = M.forward(model, images)
        T.backward(L.full_softmax_loss(logits, labels, space))

    step()  # the conv workspace reaches its size here
    assert _traced_peak(step) <= 28 * 2**20
    frozen = M.clone_frozen(model)
    batch = rng.standard_normal((4, 1, 64, 64)).astype(np.float32)
    assert _traced_peak(lambda: M.forward(frozen, batch)) <= 12 * 2**20
