"""Encoder-decoder segmentation network with an expandable category head.

The network is a small U-shaped CNN: strided 3x3 convolutions halve the
resolution `depth` times on the way down, nearest upsampling and skip
concatenation restore it on the way up, and every convolution is
followed by instance normalization and relu. The final feature map R
keeps a fixed channel width; a 1x1 head maps it to one logit per known
category plus background (channel 0). Growing the category set appends
head rows and never touches existing parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from . import tensor as T
from .tensor import Tensor

__all__ = ["ModelConfig", "SegModel", "FrozenModel", "build", "forward", "expand_head", "clone_frozen"]


@dataclass(frozen=True)
class ModelConfig:
    depth: int = 3
    base_channels: int = 16
    feature_channels: int = 32
    in_channels: int = 1
    head_init: str = "random"  # "random" | "background_copy"
    head_init_std: float = 0.01

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        if self.base_channels < 1 or self.feature_channels < 1 or self.in_channels < 1:
            raise ValueError("channel counts must be >= 1")
        if self.head_init not in ("random", "background_copy"):
            raise ValueError(f"unknown head_init {self.head_init!r}")
        if self.head_init_std <= 0:
            raise ValueError(f"head_init_std must be positive, got {self.head_init_std}")


@dataclass
class SegModel:
    """Trainable model: parameter dict plus the ordered category registry.

    `registry` lists category ids in head order; head channel i+1 predicts
    registry[i] and channel 0 predicts background.
    """

    config: ModelConfig
    params: dict[str, Tensor]
    registry: tuple[int, ...]

    @property
    def n_categories(self) -> int:
        return len(self.registry)

    def head(self) -> tuple[Tensor, Tensor]:
        return self.params["head_w"], self.params["head_b"]

    def parameter_count(self) -> int:
        return sum(p.data.size for p in self.params.values())


@dataclass(frozen=True)
class FrozenModel:
    """Immutable snapshot of a SegModel; arrays are read-only copies."""

    config: ModelConfig
    params: Mapping[str, np.ndarray] = field(repr=False)
    registry: tuple[int, ...] = ()

    @property
    def n_categories(self) -> int:
        return len(self.registry)


def _widths(cfg: ModelConfig) -> list[int]:
    return [cfg.base_channels * (1 << d) for d in range(cfg.depth + 1)]


def _conv_spec(cfg: ModelConfig) -> list[tuple[str, int, int, int]]:
    """(name, cin, cout, stride) for every 3x3 conv block, in forward order."""
    w = _widths(cfg)
    spec = [
        ("enc0a", cfg.in_channels, w[0], 1),
        ("enc0b", w[0], w[0], 1),
    ]
    for d in range(1, cfg.depth + 1):
        spec.append((f"down{d}", w[d - 1], w[d], 2))
        spec.append((f"enc{d}", w[d], w[d], 1))
    for d in range(cfg.depth, 0, -1):
        spec.append((f"up{d}", w[d], w[d - 1], 1))
        spec.append((f"dec{d}", 2 * w[d - 1], w[d - 1], 1))
    spec.append(("feat", w[0], cfg.feature_channels, 1))
    return spec


def _param_shapes(cfg: ModelConfig, n_categories: int) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter, in initialization order."""
    shapes: dict[str, tuple[int, ...]] = {}
    for name, cin, cout, _stride in _conv_spec(cfg):
        shapes[f"{name}_w"] = (cout, cin, 3, 3)
        for part in ("b", "g", "beta"):
            shapes[f"{name}_{part}"] = (cout,)
    shapes["head_w"] = (1 + n_categories, cfg.feature_channels, 1, 1)
    shapes["head_b"] = (1 + n_categories,)
    return shapes


def build(config: ModelConfig, categories: Sequence[int], seed: int = 0) -> SegModel:
    """Initialize a model whose head covers `categories` (plus background).

    Initialization is fully determined by `seed`: He-normal conv kernels,
    zero biases, unit/zero norm affines, and small-std head rows.
    """
    categories = tuple(int(c) for c in categories)
    if not categories:
        raise ValueError("build: at least one category is required")
    if len(set(categories)) != len(categories):
        raise ValueError(f"build: duplicate category ids in {categories}")
    if 0 in categories:
        raise ValueError("build: category id 0 is reserved for background")
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name, shape in _param_shapes(config, len(categories)).items():
        if name == "head_w":
            params[name] = _leaf(rng.normal(0.0, config.head_init_std, size=shape))
        elif name.endswith("_w"):
            params[name] = _leaf(rng.normal(0.0, float(np.sqrt(2.0 / (shape[1] * 9))), size=shape))
        else:
            params[name] = _leaf(np.ones(shape) if name.endswith("_g") else np.zeros(shape))
    return SegModel(config=config, params=params, registry=categories)


def _leaf(arr: np.ndarray) -> Tensor:
    return Tensor(np.ascontiguousarray(arr.astype(np.float32)), requires_grad=True)


def _block(params: Mapping, name: str, x: Tensor, stride: int) -> Tensor:
    x = T.conv2d(x, params[f"{name}_w"], params[f"{name}_b"], stride=stride, padding=1)
    x = T.instance_norm(x, params[f"{name}_g"], params[f"{name}_beta"])
    return T.relu(x)


def forward(model: SegModel | FrozenModel, images: np.ndarray | Tensor) -> tuple[Tensor, Tensor]:
    """Run the network; returns (feature map R, head logits).

    `images` is (B, in_channels, H, W) with H and W divisible by
    2**depth. Frozen models run the same graph with constant parameters,
    so no backward records are created for them.
    """
    cfg = model.config
    if isinstance(images, Tensor):
        x = images
    else:
        x = Tensor(np.ascontiguousarray(np.asarray(images, dtype=np.float32)))
    if x.data.ndim != 4 or x.data.shape[1] != cfg.in_channels:
        raise T.ShapeError(f"forward: expected (B, {cfg.in_channels}, H, W) images, got {x.data.shape}")
    h, w = x.data.shape[2:]
    div = 1 << cfg.depth
    if h % div or w % div:
        raise T.ShapeError(f"forward: spatial extents {h}x{w} not divisible by {div}")
    params = model.params
    if isinstance(model, FrozenModel):
        params = {k: Tensor(v) for k, v in params.items()}

    skips = []
    x = _block(params, "enc0a", x, 1)
    x = _block(params, "enc0b", x, 1)
    skips.append(x)
    for d in range(1, cfg.depth + 1):
        x = _block(params, f"down{d}", x, 2)
        x = _block(params, f"enc{d}", x, 1)
        if d < cfg.depth:
            skips.append(x)
    for d in range(cfg.depth, 0, -1):
        x = T.upsample_nearest2(x)
        x = _block(params, f"up{d}", x, 1)
        x = T.concat([x, skips[d - 1]], axis=1)
        x = _block(params, f"dec{d}", x, 1)
    feat = _block(params, "feat", x, 1)
    logits = T.conv2d(feat, params["head_w"], params["head_b"], stride=1, padding=0)
    return feat, logits


def expand_head(model: SegModel, new_categories: Sequence[int], seed: int) -> SegModel:
    """Return a copy of `model` whose head also covers `new_categories`.

    Every existing parameter value is copied bitwise; new head rows are
    initialized per config: small seeded random values, or a copy of the
    background row with biases shifted down by log(n_new + 1) so new
    categories start as low-probability background-like outputs.
    """
    new_categories = tuple(int(c) for c in new_categories)
    if not new_categories:
        raise ValueError("expand_head: no categories to add")
    if len(set(new_categories)) != len(new_categories):
        raise ValueError(f"expand_head: duplicate ids in {new_categories}")
    clash = set(new_categories) & set(model.registry)
    if clash:
        raise ValueError(f"expand_head: categories already registered: {sorted(clash)}")
    if 0 in new_categories:
        raise ValueError("expand_head: category id 0 is reserved for background")
    params = {k: Tensor(p.data.copy(), requires_grad=True) for k, p in model.params.items()}
    old_w = model.params["head_w"].data
    old_b = model.params["head_b"].data
    n_new = len(new_categories)
    cfg = model.config
    if cfg.head_init == "background_copy":
        rows = np.repeat(old_w[0:1], n_new, axis=0).copy()
        shift = np.float32(np.log(n_new + 1))
        bias = np.concatenate([old_b, np.repeat(old_b[0:1] - shift, n_new)])
        new_w = np.concatenate([old_w, rows], axis=0)
    else:
        rng = np.random.default_rng(seed)
        rows = rng.normal(0.0, cfg.head_init_std, size=(n_new,) + old_w.shape[1:]).astype(np.float32)
        new_w = np.concatenate([old_w, rows], axis=0)
        bias = np.concatenate([old_b, np.zeros(n_new, dtype=np.float32)])
    params["head_w"] = Tensor(np.ascontiguousarray(new_w), requires_grad=True)
    params["head_b"] = Tensor(np.ascontiguousarray(bias.astype(np.float32)), requires_grad=True)
    return SegModel(config=replace(cfg), params=params, registry=model.registry + new_categories)


def clone_frozen(model: SegModel) -> FrozenModel:
    """Immutable copy of the current parameters for pseudo-labeling."""
    arrays: dict[str, np.ndarray] = {}
    for k, p in model.params.items():
        a = p.data.copy()
        a.flags.writeable = False
        arrays[k] = a
    return FrozenModel(config=replace(model.config), params=arrays, registry=model.registry)
