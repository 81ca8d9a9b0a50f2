"""End-to-end exactness: training and evaluation give the same bytes when
the hot primitives are swapped for their reference forms in _oracles.py.

The model calls `T.conv2d`, `T.instance_norm`, `T.relu` and
`T.upsample_nearest2` through the module, so replacing those attributes
reroutes every block of the U-Net. Both runs use the same BLAS, so the
comparison does not depend on the machine.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ilseg import cli as CLI
from ilseg import data as D
from ilseg import model as M
from ilseg import tensor as T
from ilseg import trainer as TR

import _oracles as O
from conftest import TINY_GEN, TINY_SEED, run_chain, tiny_stage_config


def _as_primitive(op, oracle):
    """A tensor primitive from a numpy (out, vjp) pair; parameters that
    are not tensors (the absent bias, stride, padding) pass through."""

    def primitive(*args, **kwargs):
        parents = tuple(a for a in args if isinstance(a, T.Tensor))
        out, vjp = oracle(*(a.data if isinstance(a, T.Tensor) else a for a in args), **kwargs)
        return T._wrap(out, op, parents, vjp)

    return primitive


REFERENCE = {
    "conv2d": _as_primitive("conv2d", O.conv2d_oracle),
    "instance_norm": _as_primitive("instance_norm", O.instance_norm_oracle),
    "relu": _as_primitive("relu", O.relu_oracle),
    "upsample_nearest2": _as_primitive("upsample_nearest2", O.upsample_nearest2_oracle),
}


def _experiment(manifests, root: Path) -> dict[str, bytes]:
    """Two full-mode stages, one ft stage and an eval of the last full
    stage; returns every file written, keyed by its relative path."""
    run_chain(manifests, root / "full", mode="full", stages=(1, 2))
    TR.run_ft_baseline(None, tiny_stage_config(1, manifests, mode="ft"), run_dir=root / "ft")
    argv = [
        "--quiet", "eval",
        "--checkpoint", str(root / "full" / "stage_2.ckpt"),
        "--manifest", str(manifests["full"]),
        "--out", str(root / "eval.csv"),
    ]
    assert CLI.main(argv) == 0
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


# 24 px gives planes of 24², 12², 6² and 3² pixels. Dividing by a power of
# two is exact, so only such sizes show the rounding of instance norm's
# divisions by H*W.
@pytest.mark.parametrize("size", [32, 24])
def test_training_and_eval_match_reference_primitives_byte_for_byte(size, tiny_dataset, tmp_path, monkeypatch):
    manifests = tiny_dataset
    if size != TINY_GEN.image_size:
        manifests = D.generate(replace(TINY_GEN, image_size=size), TINY_SEED, tmp_path / "data")
    shipped = _experiment(manifests, tmp_path / "shipped")
    for name, fn in REFERENCE.items():
        monkeypatch.setattr(T, name, fn)
    reference = _experiment(manifests, tmp_path / "reference")
    expected = {"eval.csv", "ft/stage_1.ckpt", "ft/stage_1.log.jsonl"}
    expected |= {f"full/stage_{t}.{ext}" for t in (1, 2) for ext in ("ckpt", "log.jsonl")}
    assert set(shipped) == expected
    assert set(reference) == expected
    for name in sorted(expected):
        assert shipped[name] == reference[name], name


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_reference_primitives_are_patched_where_the_model_calls_them(name, monkeypatch):
    """Guards the test above: a broken reference must change the result."""
    model = M.build(M.ModelConfig(depth=2, base_channels=4, feature_channels=6), (1,), seed=2)
    images = np.random.default_rng(0).standard_normal((1, 1, 8, 8)).astype(np.float32)
    clean = M.forward(model, images)[1].data.tobytes()

    def off(*args, **kwargs):
        out = REFERENCE[name](*args, **kwargs)
        out.data = out.data * out.data.dtype.type(1.01)
        return out

    monkeypatch.setattr(T, name, off)
    assert M.forward(model, images)[1].data.tobytes() != clean
