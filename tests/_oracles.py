"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the slow, obvious way (explicit
neighbor scans, pairwise distances, straight-loop reductions) and stays
separate from the production code paths it verifies.
"""

import math

import numpy as np


def softmax_oracle(logits: np.ndarray, axis: int = 1) -> np.ndarray:
    shifted = logits - logits.max(axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=axis, keepdims=True)


def dice_oracle(pred: np.ndarray, gt: np.ndarray) -> float:
    pred = pred.astype(bool)
    gt = gt.astype(bool)
    ps = int(pred.sum())
    gs = int(gt.sum())
    if ps == 0 and gs == 0:
        return 1.0
    if ps == 0 or gs == 0:
        return 0.0
    inter = 0
    for y in range(pred.shape[0]):
        for x in range(pred.shape[1]):
            if pred[y, x] and gt[y, x]:
                inter += 1
    return 2.0 * inter / (ps + gs)


def boundary_oracle(mask: np.ndarray) -> list:
    """Mask pixels with a 4-neighbor outside the mask; border counts as outside."""
    h, w = mask.shape
    out = []
    for y in range(h):
        for x in range(w):
            if not mask[y, x]:
                continue
            for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ny, nx = y + dy, x + dx
                if ny < 0 or nx < 0 or ny >= h or nx >= w or not mask[ny, nx]:
                    out.append((y, x))
                    break
    return out


def _directed_p95_oracle(src: list, dst: list, sy: float, sx: float) -> float:
    dst_arr = np.array(dst, dtype=np.float64)
    dists = []
    for y, x in src:
        dy = (dst_arr[:, 0] - y) * sy
        dx = (dst_arr[:, 1] - x) * sx
        dists.append(math.sqrt(float(np.min(dy * dy + dx * dx))))
    dists.sort()
    idx = math.ceil(0.95 * len(dists)) - 1
    return dists[idx]


def hd95_oracle(pred: np.ndarray, gt: np.ndarray, spacing=1.0) -> tuple:
    """Pairwise-distance HD95 reference; returns (value, degenerate)."""
    pred = pred.astype(bool)
    gt = gt.astype(bool)
    if np.isscalar(spacing):
        sy = sx = float(spacing)
    else:
        sy, sx = (float(s) for s in spacing)
    h, w = pred.shape
    if not pred.any() or not gt.any():
        return math.sqrt((h * sy) ** 2 + (w * sx) ** 2), True
    bp = boundary_oracle(pred)
    bg = boundary_oracle(gt)
    return max(_directed_p95_oracle(bp, bg, sy, sx), _directed_p95_oracle(bg, bp, sy, sx)), False


def hausdorff_exact_oracle(pred: np.ndarray, gt: np.ndarray) -> float:
    """100th-percentile symmetric boundary distance (spacing 1)."""
    bp = boundary_oracle(pred.astype(bool))
    bg = boundary_oracle(gt.astype(bool))
    bp_arr = np.array(bp, dtype=np.float64)
    bg_arr = np.array(bg, dtype=np.float64)

    def directed(src, dst):
        worst = 0.0
        for y, x in src:
            d2 = (dst[:, 0] - y) ** 2 + (dst[:, 1] - x) ** 2
            worst = max(worst, math.sqrt(float(np.min(d2))))
        return worst

    return max(directed(bp, bg_arr), directed(bg, bp_arr))


def ce_dice_oracle(probs: np.ndarray, target: np.ndarray, eps: float, clamp: float,
                   ce_weight: float = 1.0, dice_weight: float = 1.0) -> float:
    """Voxel-mean CE plus category-mean soft Dice, all explicit loops."""
    b, c, h, w = probs.shape
    ce = 0.0
    for bi in range(b):
        for y in range(h):
            for x in range(w):
                ce -= math.log(max(float(probs[bi, target[bi, y, x], y, x]), clamp))
    ce /= b * h * w
    dice_sum = 0.0
    for ch in range(c):
        inter = psum = gsum = 0.0
        for bi in range(b):
            for y in range(h):
                for x in range(w):
                    p = float(probs[bi, ch, y, x])
                    g = 1.0 if target[bi, y, x] == ch else 0.0
                    inter += p * g
                    psum += p
                    gsum += g
        dice_sum += (2.0 * inter + eps) / (psum + gsum + eps)
    return ce_weight * ce + dice_weight * (1.0 - dice_sum / c)


def ema_closed_form(updates: list) -> np.ndarray:
    """Closed-form prototype from a logged (r_mean, m) sequence.

    The first entry initializes the row; every later entry blends with
    its own momentum.
    """
    r0, _ = updates[0]
    proto = np.asarray(r0, dtype=np.float64)
    weight = np.ones_like(proto)
    for r, m in updates[1:]:
        weight = weight * (1.0 - m)
    total = proto * weight
    for i, (r, m) in enumerate(updates[1:], start=1):
        w = m
        for _, mj in updates[i + 1:]:
            w *= 1.0 - mj
        total = total + np.asarray(r, dtype=np.float64) * w
    return total


def mem_loss_oracle(prototypes: np.ndarray, rows: np.ndarray, head_w: np.ndarray, head_b: np.ndarray) -> float:
    """Mean CE of the 1x1 head classifying each initialized prototype."""
    width = head_w.shape[0]
    w2 = head_w.reshape(width, -1)
    total = 0.0
    for row in rows:
        logits = w2 @ prototypes[row] + head_b
        shifted = logits - logits.max()
        logp = shifted - math.log(float(np.exp(shifted).sum()))
        total -= float(logp[row + 1])  # channel 0 is background
    return total / len(rows)


# ---------------------------------------------------------------------------
# Reference forward/vjp pairs for the conv block primitives and the
# decoder's upsampling, kept exactly as the straightforward lowering wrote
# them: np.pad, a fresh batch-wide im2col in each pass, k*k strided
# scatter-adds for the input adjoint, np.where for relu, the textbook
# instance-norm expressions and a reshaped block sum for the upsampling
# adjoint. The production primitives must reproduce every output and
# adjoint bit for bit. Each returns
# (out, vjp) with vjp(g) -> tuple of parent adjoints.


def _im2col_oracle(xp, k, stride, ho, wo):
    b, c = xp.shape[:2]
    s = xp.strides
    view = np.lib.stride_tricks.as_strided(
        xp,
        shape=(b, c, k, k, ho, wo),
        strides=(s[0], s[1], s[2], s[3], s[2] * stride, s[3] * stride),
        writeable=False,
    )
    return view.reshape(b, c * k * k, ho * wo)


def conv2d_oracle(x, w, bias=None, stride=1, padding=0):
    b, cin, h, wdt = x.shape
    cout, _, k, _ = w.shape
    if padding:
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    else:
        xp = x
    ho = (h + 2 * padding - k) // stride + 1
    wo = (wdt + 2 * padding - k) // stride + 1
    cols = _im2col_oracle(xp, k, stride, ho, wo)
    w2 = w.reshape(cout, cin * k * k)
    out = np.matmul(w2[None], cols).reshape(b, cout, ho, wo)
    if bias is not None:
        out = out + bias[None, :, None, None]

    def vjp(g):
        g2 = g.reshape(b, cout, ho * wo)
        cols_b = _im2col_oracle(xp, k, stride, ho, wo)
        gw = np.matmul(g2, cols_b.transpose(0, 2, 1)).sum(axis=0).reshape(cout, cin, k, k)
        gcols = np.matmul(w2.T[None], g2).reshape(b, cin, k, k, ho, wo)
        gxp = np.zeros_like(xp)
        for i in range(k):
            for j in range(k):
                gxp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += gcols[:, :, i, j]
        gx = gxp[:, :, padding : padding + h, padding : padding + wdt] if padding else gxp
        if bias is not None:
            return gx, gw, g.sum(axis=(0, 2, 3))
        return gx, gw

    return out, vjp


def instance_norm_oracle(x, gamma, beta, eps=1e-5):
    b, c, h, w = x.shape
    n = h * w
    mu = x.mean(axis=(2, 3), keepdims=True)
    var = x.var(axis=(2, 3), keepdims=True)
    inv_std = 1.0 / np.sqrt(var + x.dtype.type(eps))
    xhat = (x - mu) * inv_std
    out = gamma[None, :, None, None] * xhat + beta[None, :, None, None]

    def vjp(g):
        gxhat = g * gamma[None, :, None, None]
        s1 = gxhat.sum(axis=(2, 3), keepdims=True)
        s2 = (gxhat * xhat).sum(axis=(2, 3), keepdims=True)
        gx = (gxhat - s1 / n - xhat * s2 / n) * inv_std
        return gx, (g * xhat).sum(axis=(0, 2, 3)), g.sum(axis=(0, 2, 3))

    return out, vjp


def relu_oracle(x):
    mask = x > 0
    out = np.where(mask, x, x.dtype.type(0))

    def vjp(g):
        return (g * mask,)

    return out, vjp


def upsample_nearest2_oracle(x):
    b, c, h, w = x.shape
    out = np.repeat(np.repeat(x, 2, axis=2), 2, axis=3)

    def vjp(g):
        return (g.reshape(b, c, h, 2, w, 2).sum(axis=(3, 5)),)

    return out, vjp


def render_sample_oracle(config, seed, stage_tag, split, index, annotated):
    """The generator as first written: every ellipse, overlap test and the
    texture evaluated over all H*W pixels. Returns (image, labels)."""
    from ilseg.data import CATEGORIES

    def ellipse_mask(size, cat, cx, cy, scale, grid):
        ys, xs = grid
        dx = xs - cx * size
        dy = ys - cy * size
        cos_a, sin_a = np.cos(cat.angle), np.sin(cat.angle)
        u = (dx * cos_a + dy * sin_a) / (cat.radii[0] * scale * size)
        v = (-dx * sin_a + dy * cos_a) / (cat.radii[1] * scale * size)
        return u * u + v * v <= 1.0

    size = config.image_size
    split_tag = {"train": 0, "val": 1, "test": 2}[split]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stage_tag, split_tag, index)))
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64) + 0.5
    grid = (ys, xs)
    area_img = float(size * size)

    while True:
        masks = None
        for _ in range(config.max_attempts):
            gdx = rng.uniform(-config.jitter_px, config.jitter_px)
            gdy = rng.uniform(-config.jitter_px, config.jitter_px)
            gscale = rng.uniform(1.0 - config.scale_jitter, 1.0 + config.scale_jitter)
            trial = []
            ok = True
            for cat in CATEGORIES:
                sdx = rng.uniform(-config.shape_jitter_px, config.shape_jitter_px)
                sdy = rng.uniform(-config.shape_jitter_px, config.shape_jitter_px)
                cx = cat.center[0] + (gdx + sdx) / size
                cy = cat.center[1] + (gdy + sdy) / size
                mask = ellipse_mask(size, cat, cx, cy, gscale, grid)
                area = mask.sum() / area_img
                if not (cat.area_range[0] <= area <= cat.area_range[1]):
                    ok = False
                    break
                trial.append(mask)
            if not ok:
                continue
            for i in range(len(trial)):
                for j in range(i + 1, len(trial)):
                    inter = np.logical_and(trial[i], trial[j]).sum()
                    limit = config.overlap_tolerance * min(trial[i].sum(), trial[j].sum())
                    if inter > limit:
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
    texture = np.sin(2 * np.pi * fx * xs / size + px) * np.sin(2 * np.pi * fy * ys / size + py)
    image = config.background_level + config.texture_amplitude * texture
    shift = config.stage_intensity_shift[stage_tag - 1] if stage_tag >= 1 else 0.0
    labels = np.zeros((size, size), dtype=np.uint8)
    for cat, mask in zip(CATEGORIES, masks):
        image[mask] = cat.intensity
        if cat.id in annotated:
            labels[mask] = cat.id
    image = image + shift + rng.normal(0.0, config.noise_sigma, size=(size, size))
    return np.clip(image, 0.0, 1.0).astype(np.float32), labels
