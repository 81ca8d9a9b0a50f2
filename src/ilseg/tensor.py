"""Dense tensors with reverse-mode automatic differentiation.

numpy-backed engine sized for the segmentation stack in this package.
Primitives execute eagerly; whenever an input requires a gradient, the
result keeps a closure that pushes adjoints back to its parents.
``backward`` replays the reachable records in reverse creation order,
which is always a valid topological order because inputs exist before
the primitive that consumes them. Replays are bitwise reproducible for
identical inputs: accumulation order is fixed by the recorded order.

Runtime code uses float32 arrays; the finite-difference harness runs the
same primitives in float64. Binary primitives require both operands to
share a dtype (Python scalars are promoted to the tensor's dtype).
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "NondeterministicError",
    "tensor",
    "constant",
    "trace",
    "backward",
    "finite_difference_check",
    "PRIMITIVES",
    "add",
    "sub",
    "mul",
    "scalar_mul",
    "div",
    "neg",
    "matmul",
    "conv2d",
    "upsample_nearest2",
    "relu",
    "exp",
    "log",
    "sqrt",
    "tsum",
    "tmean",
    "concat",
    "masked_gather",
    "masked_mean",
    "dot",
    "norm",
    "log_softmax",
    "softmax",
    "channel_mix",
    "clamp_min",
    "instance_norm",
    "reshape",
    "transpose2d",
    "narrow",
]

_SEQ = itertools.count()


class ShapeError(ValueError):
    """Operand extents incompatible with a primitive's shape rule."""


class NondeterministicError(RuntimeError):
    """A function under verification produced differing repeat evaluations."""


class Tensor:
    """n-d array plus an adjoint slot and an optional backward record.

    ``data`` is the value, ``grad`` accumulates adjoints across backward
    calls (reset by assigning None). Tensors produced by primitives carry
    the parent references and a closure mapping the output adjoint to
    per-parent adjoint contributions; leaves carry neither.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_vjp", "_seq")

    def __init__(
        self,
        data: np.ndarray,
        requires_grad: bool = False,
        op: str = "leaf",
        parents: tuple = (),
        vjp: Callable | None = None,
    ):
        if not isinstance(data, np.ndarray):
            data = np.asarray(data)
        self.data = data
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.op = op
        self._parents = parents
        self._vjp = vjp
        self._seq = next(_SEQ)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(op={self.op!r}, shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, _coerce(other, self))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _coerce(other, self))

    def __rsub__(self, other):
        return sub(_coerce(other, self), self)

    def __mul__(self, other):
        return mul(self, _coerce(other, self))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _coerce(other, self))

    def __rtruediv__(self, other):
        return div(_coerce(other, self), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _coerce(other, self))


def tensor(values, requires_grad: bool = False, dtype=None) -> Tensor:
    """Build a leaf tensor. Defaults to float32 unless values carry a float dtype."""
    arr = np.asarray(values)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    elif arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float32)
    # ascontiguousarray would promote 0-d to 1-d; order="C" keeps the rank
    return Tensor(np.asarray(arr, order="C"), requires_grad=requires_grad)


def constant(values, dtype=np.float32) -> Tensor:
    return tensor(values, requires_grad=False, dtype=dtype)


def _coerce(value, like: Tensor) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=like.data.dtype))


def _check_dtype(op: str, a: Tensor, b: Tensor) -> None:
    if a.data.dtype != b.data.dtype:
        raise TypeError(f"{op}: dtype mismatch {a.data.dtype} vs {b.data.dtype}")


def _wrap(data: np.ndarray, op: str, parents: tuple, vjp: Callable) -> Tensor:
    if any(p.requires_grad for p in parents):
        return Tensor(data, True, op, parents, vjp)
    return Tensor(data, False, op)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum an adjoint down to `shape`, undoing numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _broadcast_guard(op: str, a: Tensor, b: Tensor) -> None:
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise ShapeError(f"{op}: cannot broadcast {a.data.shape} with {b.data.shape}") from None


# ---------------------------------------------------------------------------
# elementwise and reduction primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_dtype("add", a, b)
    _broadcast_guard("add", a, b)
    out = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _wrap(out, "add", (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_dtype("sub", a, b)
    _broadcast_guard("sub", a, b)
    out = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _wrap(out, "sub", (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_dtype("mul", a, b)
    _broadcast_guard("mul", a, b)
    out = a.data * b.data
    ad, bd = a.data, b.data

    def vjp(g):
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return _wrap(out, "mul", (a, b), vjp)


def scalar_mul(a: Tensor, s: float) -> Tensor:
    return mul(a, _coerce(float(s), a))


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_dtype("div", a, b)
    _broadcast_guard("div", a, b)
    out = a.data / b.data
    ad, bd = a.data, b.data

    def vjp(g):
        ga = _unbroadcast(g / bd, ad.shape)
        gb = _unbroadcast(-g * ad / (bd * bd), bd.shape)
        return ga, gb

    return _wrap(out, "div", (a, b), vjp)


def neg(a: Tensor) -> Tensor:

    def vjp(g):
        return (-g,)

    return _wrap(-a.data, "neg", (a,), vjp)


def relu(a: Tensor) -> Tensor:
    """max(x, 0); the subgradient at exactly 0 is taken as 0."""
    # fmax drops NaN in favour of 0; adding +0 turns -0.0 into +0.0
    out = np.fmax(a.data, 0)
    out += 0

    def vjp(g):
        return (g * (out > 0),)

    return _wrap(out, "relu", (a,), vjp)


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)

    def vjp(g):
        return (g * out,)

    return _wrap(out, "exp", (a,), vjp)


def log(a: Tensor) -> Tensor:
    out = np.log(a.data)
    ad = a.data

    def vjp(g):
        return (g / ad,)

    return _wrap(out, "log", (a,), vjp)


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)

    def vjp(g):
        return (g / (2.0 * out),)

    return _wrap(out, "sqrt", (a,), vjp)


def clamp_min(a: Tensor, lo: float) -> Tensor:
    """max(x, lo); clamped coordinates receive zero gradient."""
    lo = a.data.dtype.type(lo)
    mask = a.data > lo
    out = np.where(mask, a.data, lo)

    def vjp(g):
        return (g * mask,)

    return _wrap(out, "clamp_min", (a,), vjp)


def _normalize_axis(axis, ndim):
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axis = _normalize_axis(axis, a.data.ndim)
    out = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.data.shape

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).astype(a.data.dtype, copy=False),)

    return _wrap(np.asarray(out), "sum", (a,), vjp)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axis = _normalize_axis(axis, a.data.ndim)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    shape = a.data.shape
    if axis is None:
        n = a.data.size
    else:
        n = 1
        for ax in axis:
            n *= shape[ax]
    inv = a.data.dtype.type(1.0 / n)

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g * inv, shape).astype(a.data.dtype, copy=False),)

    return _wrap(np.asarray(out), "mean", (a,), vjp)


# ---------------------------------------------------------------------------
# shape and gather primitives


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    if int(np.prod(shape, dtype=np.int64)) != a.data.size and -1 not in shape:
        raise ShapeError(f"reshape: cannot view {a.data.shape} as {shape}")
    out = a.data.reshape(shape)
    orig = a.data.shape

    def vjp(g):
        return (g.reshape(orig),)

    return _wrap(out, "reshape", (a,), vjp)


def transpose2d(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose2d: expected 2-d input, got {a.data.shape}")
    out = np.ascontiguousarray(a.data.T)

    def vjp(g):
        return (np.ascontiguousarray(g.T),)

    return _wrap(out, "transpose2d", (a,), vjp)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along one axis."""
    axis = axis % a.data.ndim
    n = a.data.shape[axis]
    if start < 0 or length < 1 or start + length > n:
        raise ShapeError(f"narrow: [{start}, {start + length}) outside extent {n} on axis {axis}")
    index = [slice(None)] * a.data.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    out = a.data[index]
    shape = a.data.shape

    def vjp(g):
        full = np.zeros(shape, dtype=g.dtype)
        full[index] = g
        return (full,)

    return _wrap(out, "narrow", (a,), vjp)


def concat(parts: Sequence[Tensor], axis: int = 1) -> Tensor:
    if not parts:
        raise ShapeError("concat: empty input list")
    axis = axis % parts[0].data.ndim
    for p in parts[1:]:
        _check_dtype("concat", parts[0], p)
        if p.data.ndim != parts[0].data.ndim:
            raise ShapeError(f"concat: rank mismatch {parts[0].data.shape} vs {p.data.shape}")
        for ax in range(p.data.ndim):
            if ax != axis and p.data.shape[ax] != parts[0].data.shape[ax]:
                raise ShapeError(f"concat: shape mismatch {parts[0].data.shape} vs {p.data.shape} on axis {ax}")
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]

    def vjp(g):
        grads = []
        offset = 0
        for size in sizes:
            index = [slice(None)] * g.ndim
            index[axis] = slice(offset, offset + size)
            grads.append(g[tuple(index)])
            offset += size
        return tuple(grads)

    return _wrap(out, "concat", tuple(parts), vjp)


def masked_gather(a: Tensor, mask: np.ndarray) -> Tensor:
    """Collect feature vectors at masked spatial positions.

    `a` is (B, C, H, W), `mask` a bool (B, H, W); output is (n, C) where n
    is the number of selected positions. The mask is a constant.
    """
    if a.data.ndim != 4:
        raise ShapeError(f"masked_gather: expected (B, C, H, W), got {a.data.shape}")
    mask = np.asarray(mask, dtype=bool)
    b, c, h, w = a.data.shape
    if mask.shape != (b, h, w):
        raise ShapeError(f"masked_gather: mask {mask.shape} does not match spatial extents {(b, h, w)}")
    if not mask.any():
        raise ShapeError("masked_gather: mask selects zero positions")
    out = np.ascontiguousarray(np.moveaxis(a.data, 1, -1)[mask])
    shape = a.data.shape

    def vjp(g):
        full = np.zeros(shape, dtype=g.dtype)
        np.moveaxis(full, 1, -1)[mask] = g
        return (full,)

    return _wrap(out, "masked_gather", (a,), vjp)


def masked_mean(a: Tensor, mask: np.ndarray) -> Tensor:
    """Mean feature vector over masked positions: (B, C, H, W) -> (C,)."""
    gathered = masked_gather(a, mask)
    return tmean(gathered, axis=0)


# ---------------------------------------------------------------------------
# linear algebra primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check_dtype("matmul", a, b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul: expected 2-d operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: inner extents differ, {a.data.shape} @ {b.data.shape}")
    out = a.data @ b.data
    ad, bd = a.data, b.data

    def vjp(g):
        return g @ bd.T, ad.T @ g

    return _wrap(out, "matmul", (a, b), vjp)


def dot(a: Tensor, b: Tensor) -> Tensor:
    _check_dtype("dot", a, b)
    if a.data.ndim != 1 or b.data.ndim != 1 or a.data.shape != b.data.shape:
        raise ShapeError(f"dot: expected matching vectors, got {a.data.shape} and {b.data.shape}")
    out = np.asarray(a.data @ b.data)
    ad, bd = a.data, b.data

    def vjp(g):
        return g * bd, g * ad

    return _wrap(out, "dot", (a, b), vjp)


def norm(a: Tensor) -> Tensor:
    """L2 norm of a vector. Gradient at the origin is defined as 0."""
    if a.data.ndim != 1:
        raise ShapeError(f"norm: expected a vector, got {a.data.shape}")
    out = np.asarray(np.sqrt(np.sum(a.data * a.data)))
    ad = a.data
    denom = max(float(out), 1e-300)

    def vjp(g):
        return (g * ad / ad.dtype.type(denom),)

    return _wrap(out, "norm", (a,), vjp)


def channel_mix(a: Tensor, matrix: np.ndarray) -> Tensor:
    """Linear recombination of channels with a constant matrix.

    `a` is (B, C, H, W) and `matrix` (O, C); output is (B, O, H, W) with
    out[:, o] = sum_c matrix[o, c] * a[:, c]. Used for probability
    remapping and label-space merging.
    """
    if a.data.ndim != 4:
        raise ShapeError(f"channel_mix: expected (B, C, H, W), got {a.data.shape}")
    matrix = np.asarray(matrix, dtype=a.data.dtype)
    if matrix.ndim != 2 or matrix.shape[1] != a.data.shape[1]:
        raise ShapeError(f"channel_mix: matrix {matrix.shape} does not act on {a.data.shape[1]} channels")
    out = np.einsum("oc,bchw->bohw", matrix, a.data)

    def vjp(g):
        return (np.einsum("oc,bohw->bchw", matrix, g),)

    return _wrap(out, "channel_mix", (a,), vjp)


def log_softmax(a: Tensor, axis: int = 1) -> Tensor:
    """Numerically stable log softmax along one axis (max subtraction)."""
    axis = axis % a.data.ndim
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse
    p = np.exp(out)

    def vjp(g):
        return (g - p * g.sum(axis=axis, keepdims=True),)

    return _wrap(out, "log_softmax", (a,), vjp)


def softmax(a: Tensor, axis: int = 1) -> Tensor:
    return exp(log_softmax(a, axis=axis))


# ---------------------------------------------------------------------------
# spatial primitives


# Grow-only scratch bytes for conv2d's per-image patch matrix and padded
# image. The engine is single-threaded and no conv2d call or vjp runs
# inside another, so each call may overwrite what the last one left here.
_WORKSPACE = np.empty(0, dtype=np.uint8)


def _patches(x: np.ndarray, k: int, stride: int, padding: int, ho: int, wo: int):
    """Yield the patch matrix (Cin*k*k, ho*wo) of each image of `x` in turn.

    Every matrix is built in the same workspace, so it is valid until the
    next one is requested; a caller may overwrite it meanwhile. Zero
    padding goes through one padded-image buffer whose border is zeroed
    once per call.
    """
    global _WORKSPACE
    b, c, h, w = x.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    ncols, npad = c * k * k * ho * wo, c * hp * wp if padding else 0
    if _WORKSPACE.nbytes < (ncols + npad) * x.itemsize:
        _WORKSPACE = np.empty((ncols + npad) * x.itemsize, dtype=np.uint8)
    buf = _WORKSPACE[: (ncols + npad) * x.itemsize].view(x.dtype)
    cols = buf[:ncols].reshape(c, k, k, ho, wo)
    if padding:
        xp = buf[ncols:].reshape(c, hp, wp)
        xp.fill(0)
    for i in range(b):
        if padding:
            xp[:, padding : padding + h, padding : padding + w] = x[i]
        src = xp if padding else x[i]
        s = src.strides
        view = np.lib.stride_tricks.as_strided(
            src,
            shape=(c, k, k, ho, wo),
            strides=(s[0], s[1], s[2], s[1] * stride, s[2] * stride),
            writeable=False,
        )
        np.copyto(cols, view)
        yield cols.reshape(c * k * k, ho * wo)


def _col2im_pitched(gcols: np.ndarray, k: int, padding: int, w: int, ho: int, wo: int, gxp: np.ndarray) -> None:
    """Add one image's input adjoint of a stride-1 convolution with wo >= w
    (2 * padding >= k - 1) into its pitched buffer `gxp`.

    Sums the patch adjoints `gcols` (Cin*k*k, ho*wo) into the padded
    input in the same tap order as k*k strided adds, but over a pitched
    layout: each padded plane of `gxp` (Cin, (h + 2p) * wo + k - 1) is
    stored flat with row pitch wo instead of w + 2p, plus k - 1 trailing
    slots. Padded pixel (y, x) then sits at y * wo + x, so tap (i, j) of
    output position q = oy * wo + ox lands on q + i * wo + j and every
    tap is one contiguous add. Padded columns x >= wo wrap onto the next
    row, so the patch entries of pad columns are zeroed first; adding
    +0.0 leaves every sum bit for bit unchanged.
    """
    n = ho * wo
    taps = gcols.reshape(-1, k, k, ho, wo)
    for j in range(k):
        taps[:, :, j, :, : max(padding - j, 0)] = 0
        taps[:, :, j, :, max(padding + w - j, 0) :] = 0
    taps = gcols.reshape(-1, k * k, n)
    for t in range(k * k):
        off = (t // k) * wo + t % k
        gxp[:, off : off + n] += taps[:, t]


def conv2d(x: Tensor, w: Tensor, bias: Tensor | None = None, stride: int = 1, padding: int = 0) -> Tensor:
    """2-d convolution (cross-correlation), zero padded.

    `x` is (B, Cin, H, W), `w` (Cout, Cin, k, k), optional `bias` (Cout,).
    Each image's patches are lowered in turn to one matrix product, which
    computes the exact direct convolution; the backward pass lowers them
    again instead of keeping them. The input adjoint is only formed when
    `x` requires a gradient.
    """
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError(f"conv2d: expected 4-d input and kernel, got {x.data.shape} and {w.data.shape}")
    b, cin, h, wdt = x.data.shape
    cout, cin_w, k, k2 = w.data.shape
    if k != k2:
        raise ShapeError(f"conv2d: kernel must be square, got {w.data.shape}")
    if cin != cin_w:
        raise ShapeError(f"conv2d: input has {cin} channels but kernel expects {cin_w}")
    if stride not in (1, 2):
        raise ShapeError(f"conv2d: unsupported stride {stride}")
    if padding < 0 or h + 2 * padding < k or wdt + 2 * padding < k:
        raise ShapeError(f"conv2d: kernel {k} exceeds padded extents of {x.data.shape} with padding {padding}")
    _check_dtype("conv2d", x, w)
    if bias is not None:
        _check_dtype("conv2d", x, bias)
        if bias.data.shape != (cout,):
            raise ShapeError(f"conv2d: bias {bias.data.shape} does not match {cout} output channels")

    ho = (h + 2 * padding - k) // stride + 1
    wo = (wdt + 2 * padding - k) // stride + 1
    xd = x.data
    w2 = w.data.reshape(cout, cin * k * k)
    out = np.empty((b, cout, ho, wo), dtype=xd.dtype)
    for i, cols in enumerate(_patches(xd, k, stride, padding, ho, wo)):
        np.matmul(w2, cols, out=out[i].reshape(cout, ho * wo))
    if bias is not None:
        out += bias.data[:, None, None]
    need_gx = x.requires_grad

    def vjp(g):
        g2 = g.reshape(b, cout, ho * wo)
        gw = np.empty((b, cout, cin * k * k), dtype=g.dtype)
        pitched = stride == 1 and wo >= wdt
        if need_gx and pitched:
            gxp = np.zeros((b, cin, (h + 2 * padding) * wo + k - 1), dtype=g.dtype)
        elif need_gx:
            gxp = np.zeros((b, cin, h + 2 * padding, wdt + 2 * padding), dtype=g.dtype)
        for i, cols in enumerate(_patches(xd, k, stride, padding, ho, wo)):
            np.matmul(g2[i], cols.T, out=gw[i])
            if not need_gx:
                continue
            # the patch adjoint has the patches' shape; their copy is free now
            gcols = np.matmul(w2.T, g2[i], out=cols)
            if pitched:
                _col2im_pitched(gcols, k, padding, wdt, ho, wo, gxp[i])
                continue
            gcols = gcols.reshape(cin, k, k, ho, wo)
            for a in range(k):
                for c in range(k):
                    gxp[i, :, a : a + stride * ho : stride, c : c + stride * wo : stride] += gcols[:, a, c]
        gw = gw.sum(axis=0).reshape(cout, cin, k, k)
        gx = None
        if need_gx and pitched:
            start = padding * wo + padding
            gx = gxp[:, :, start : start + h * wo].reshape(b, cin, h, wo)[..., :wdt]
        elif need_gx:
            gx = gxp[:, :, padding : padding + h, padding : padding + wdt]
        if bias is not None:
            return gx, gw, g.sum(axis=(0, 2, 3))
        return gx, gw

    parents = (x, w) if bias is None else (x, w, bias)
    return _wrap(out, "conv2d", parents, vjp)


def upsample_nearest2(x: Tensor) -> Tensor:
    """Nearest-neighbour 2x spatial upsampling of (B, C, H, W)."""
    if x.data.ndim != 4:
        raise ShapeError(f"upsample_nearest2: expected (B, C, H, W), got {x.data.shape}")
    b, c, h, w = x.data.shape
    out = np.repeat(np.repeat(x.data, 2, axis=2), 2, axis=3)

    def vjp(g):
        if w == 1 or g.strides[3] != g.itemsize:
            return (g.reshape(b, c, h, 2, w, 2).sum(axis=(3, 5)),)
        # with unit-stride rows of more than one block, that sum adds each
        # block's row pairs and then the two pair sums: the same additions
        # in the same order, without the strided reduction
        s = g[..., 0::2] + g[..., 1::2]
        return (s[:, :, 0::2] + s[:, :, 1::2],)

    return _wrap(out, "upsample_nearest2", (x,), vjp)


def instance_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-sample, per-channel normalization over the spatial extent."""
    if x.data.ndim != 4:
        raise ShapeError(f"instance_norm: expected (B, C, H, W), got {x.data.shape}")
    b, c, h, w = x.data.shape
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ShapeError(f"instance_norm: affine shapes {gamma.data.shape}/{beta.data.shape} do not match {c} channels")
    _check_dtype("instance_norm", x, gamma)
    _check_dtype("instance_norm", x, beta)
    n = h * w
    xd, gd = x.data, gamma.data
    mu = xd.mean(axis=(2, 3), keepdims=True)
    # the centred values and variance come from np.var's own sequence of
    # operations, so the statistics match np.var bit for bit
    xhat = xd - mu
    out = np.square(xhat)
    var = np.add.reduce(out, axis=(2, 3), keepdims=True)
    np.true_divide(var, np.intp(n), out=var, casting="unsafe")
    inv_std = 1.0 / np.sqrt(var + xd.dtype.type(eps))
    xhat *= inv_std
    np.multiply(xhat, gd[None, :, None, None], out=out)
    out += beta.data[None, :, None, None]

    def vjp(g):
        # xhat is not kept: the forward's own two operations rebuild it
        xhat = xd - mu
        xhat *= inv_std
        # standard normalization backward; the mean-of-xhat term vanishes
        # analytically but is kept for numerical agreement with FD
        gx = g * gd[None, :, None, None]
        s1 = gx.sum(axis=(2, 3), keepdims=True)
        tmp = gx * xhat
        s2 = tmp.sum(axis=(2, 3), keepdims=True)
        ggamma = np.multiply(g, xhat, out=tmp).sum(axis=(0, 2, 3))
        gbeta = g.sum(axis=(0, 2, 3))
        # (gxhat - s1 / n - xhat * s2 / n) * inv_std, in that order
        np.multiply(xhat, s2, out=tmp)
        tmp /= n
        gx -= s1 / n
        gx -= tmp
        gx *= inv_std
        return gx, ggamma, gbeta

    return _wrap(out, "instance_norm", (x, gamma, beta), vjp)


# ---------------------------------------------------------------------------
# backward


def trace(output: Tensor) -> list[Tensor]:
    """The gradient-requiring tensors reachable from `output`, in creation order."""
    seen: set[int] = set()
    found: list[Tensor] = []
    stack = [output]
    while stack:
        t = stack.pop()
        if id(t) in seen or not t.requires_grad:
            continue
        seen.add(id(t))
        found.append(t)
        stack.extend(t._parents)
    found.sort(key=lambda t: t._seq)
    return found


def backward(output: Tensor) -> None:
    """Accumulate adjoints of `output` into the grads of reachable leaves.

    Repeated calls keep adding into ``.grad``; reset a leaf by assigning
    ``None``. The output must be a scalar on the tape. The graph is
    consumed as it is walked: once a record's vjp has run, the record
    drops its closure and parents and stops requiring a gradient, so each
    activation is freed as soon as nothing below it needs it. Values
    stay; a second call through the same output raises ValueError.
    """
    if output.data.size != 1:
        raise ShapeError(f"backward: output must be scalar, got shape {output.data.shape}")
    if not output.requires_grad:
        raise ValueError("backward: output is not connected to any gradient-requiring leaf")
    tape = trace(output)
    adjoints: dict[int, np.ndarray] = {id(output): np.ones_like(output.data)}
    while tape:
        t = tape.pop()
        g = adjoints.pop(id(t), None)
        if t._vjp is None:
            if g is not None:
                t.grad = g.copy() if t.grad is None else t.grad + g
            continue
        if g is not None:
            for parent, pg in zip(t._parents, t._vjp(g)):
                if pg is None or not parent.requires_grad:
                    continue
                held = adjoints.get(id(parent))
                adjoints[id(parent)] = pg if held is None else held + pg
        t._vjp, t._parents, t.requires_grad = None, (), False


# ---------------------------------------------------------------------------
# verification harness


def finite_difference_check(f: Callable[..., Tensor], inputs: Sequence[Tensor], eps: float = 1e-5) -> float:
    """Compare analytic gradients of scalar-valued `f` to central differences.

    Returns max over coordinates of |analytic - numeric| / max(1, |analytic|)
    across every gradient-requiring input. `f` is evaluated twice up front;
    a bitwise mismatch between the two runs raises NondeterministicError.
    Use float64 inputs for meaningful tolerances.
    """
    inputs = list(inputs)
    first = f(*inputs)
    second = f(*inputs)
    if first.data.size != 1:
        raise ShapeError(f"finite_difference_check: f must return a scalar, got {first.data.shape}")
    if first.data.tobytes() != second.data.tobytes():
        raise NondeterministicError("finite_difference_check: repeated evaluations differ")
    for t in inputs:
        t.grad = None
    backward(first)
    worst = 0.0
    for t in inputs:
        if not t.requires_grad:
            continue
        grad = t.grad if t.grad is not None else np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = float(f(*inputs).data)
            flat[i] = orig - eps
            fm = float(f(*inputs).data)
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * eps)
            rel = abs(numeric - float(gflat[i])) / max(1.0, abs(float(gflat[i])))
            if rel > worst:
                worst = rel
    return worst


# ---------------------------------------------------------------------------
# primitive registry: the finite-difference tests cover exactly these

PRIMITIVES: dict[str, Callable] = {
    "add": add,
    "sub": sub,
    "mul": mul,
    "scalar_mul": scalar_mul,
    "div": div,
    "neg": neg,
    "relu": relu,
    "exp": exp,
    "log": log,
    "sqrt": sqrt,
    "clamp_min": clamp_min,
    "sum": tsum,
    "mean": tmean,
    "reshape": reshape,
    "transpose2d": transpose2d,
    "narrow": narrow,
    "concat": concat,
    "masked_gather": masked_gather,
    "matmul": matmul,
    "dot": dot,
    "norm": norm,
    "channel_mix": channel_mix,
    "log_softmax": log_softmax,
    "conv2d": conv2d,
    "upsample_nearest2": upsample_nearest2,
    "instance_norm": instance_norm,
}
