"""Span tracing around the program's public functions, and the per-layer
figures computed from the spans.

`Tracer.install` replaces module attributes (`ilseg.tensor.conv2d`,
`ilseg.model.forward`, ...) with wrappers that record one span per call:
name, start, end and parent. The program looks these functions up on
their modules at call time, so its own calls go through the wrappers;
nothing under `src/` changes. Spans stay in memory until `dump`.

A training step is the interval from the trainer asking
`data.iterate_batches` for a batch until it asks for the next one, so
batching, forward, teacher, losses, backward, optimizer and logging of
one iteration all fall inside one `trainer.step` span.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from ilseg import data as D
from ilseg import losses as L
from ilseg import memory as Mem
from ilseg import metrics as ME
from ilseg import model as M
from ilseg import tensor as T
from ilseg import trainer as TR

_now = time.perf_counter

# (module, attribute, span name) of every wrapped function.
TARGETS = [
    (T, "conv2d", "tensor.conv2d"),
    (T, "instance_norm", "tensor.instance_norm"),
    (T, "relu", "tensor.relu"),
    (T, "upsample_nearest2", "tensor.upsample_nearest2"),
    (T, "concat", "tensor.concat"),
    (T, "softmax", "tensor.softmax"),
    (T, "channel_mix", "tensor.channel_mix"),
    (T, "backward", "tensor.backward"),
    (M, "forward", "model.forward"),
    (L, "remap_tilde", "losses.remap_tilde"),
    (L, "remap_hat", "losses.remap_hat"),
    (L, "seg_loss", "losses.seg_loss"),
    (L, "kd_loss", "losses.kd_loss"),
    (L, "full_softmax_loss", "losses.full_softmax_loss"),
    (L, "merged_sample_loss", "losses.merged_sample_loss"),
    (Mem, "mem_loss", "memory.mem_loss"),
    (Mem, "same_loss", "memory.same_loss"),
    (Mem, "oppo_loss", "memory.oppo_loss"),
    (Mem, "ema_update", "memory.ema"),
    (TR, "run_stage", "trainer.run_stage"),
    (TR, "run_ft_baseline", "trainer.run_ft_baseline"),
    (TR, "run_joint", "trainer.run_joint"),
    (TR, "save_checkpoint", "trainer.save_checkpoint"),
    (TR, "load_checkpoint", "trainer.load_checkpoint"),
    (TR.Adam, "step", "trainer.optimizer"),
    (D, "generate", "data.generate"),
    (D, "render_sample", "data.render_sample"),
    (D, "save_sample", "data.save_sample"),
    (D, "load_sample", "data.load_sample"),
    (ME, "evaluate", "metrics.evaluate"),
    (ME, "predict_labels", "metrics.predict_labels"),
    (ME, "hd95", "metrics.hd95"),
    (ME, "dice", "metrics.dice"),
]
RUNNERS = ("trainer.run_stage", "trainer.run_ft_baseline", "trainer.run_joint")
MODES = ("full", "ft", "joint")
TENSOR_OPS = ("conv2d", "instance_norm", "relu", "upsample_nearest2", "concat", "softmax", "channel_mix")
LOSSES = ("remap_tilde", "remap_hat", "seg_loss", "kd_loss", "full_softmax_loss", "merged_sample_loss")
MEMORY = ("mem_loss", "same_loss", "oppo_loss", "ema")
# The U-Net's conv blocks in forward order at depth 3, then the 1x1 head.
BLOCKS = (
    "enc0a", "enc0b", "down1", "enc1", "down2", "enc2", "down3", "enc3",
    "up3", "dec3", "up2", "dec2", "up1", "dec1", "feat", "head",
)


class Tracer:
    """Spans in parallel lists, indexed by span id; parent -1 is a root."""

    def __init__(self) -> None:
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.attrs: list[dict | None] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str, attrs: dict | None = None) -> int:
        i = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.attrs.append(attrs)
        self.end.append(0.0)
        self.start.append(_now())
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.end[i] = _now()
        if self._stack and self._stack[-1] == i:
            self._stack.pop()
        elif i in self._stack:  # a step abandoned by an exception
            self._stack.remove(i)

    def call(self, name: str, fn, *args, **kwargs):
        """Run `fn` inside a span; the benchmark wraps `cli.main` with it."""
        i = self.open(name, _attrs(name, args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            self.close(i)
        if name == "trainer.save_checkpoint":
            self.attrs[i] = {"bytes": Path(args[1]).stat().st_size}
        return result

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def _wrap_batches(self, fn):
        tracer = self

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                step = tracer.open("trainer.step")
                batch = tracer.open("data.batch")
                try:
                    item = next(inner)
                except StopIteration:
                    tracer.close(batch)
                    tracer.close(step)
                    tracer.name[step] = tracer.name[batch] = "data.batches_end"
                    return
                tracer.close(batch)
                try:
                    yield item
                finally:
                    tracer.close(step)

        return traced

    def install(self) -> None:
        for module, attr, name in TARGETS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))
        self._saved.append((D, "iterate_batches", D.iterate_batches))
        D.iterate_batches = self._wrap_batches(D.iterate_batches)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, name in enumerate(self.name):
                row = {"id": i, "name": name, "start": self.start[i], "end": self.end[i], "parent": self.parent[i]}
                if self.attrs[i]:
                    row.update(self.attrs[i])
                fh.write(json.dumps(row) + "\n")


def _attrs(name: str, args, kwargs) -> dict | None:
    if name == "tensor.conv2d":
        x, w = args[0], args[1]
        return {"x": x.data.shape, "w": w.data.shape, "stride": kwargs.get("stride", 1), "padding": kwargs.get("padding", 0)}
    if name == "model.forward":
        return {"teacher": isinstance(args[0], M.FrozenModel)}
    if name in RUNNERS:
        return {"mode": args[1].mode}
    if name == "metrics.predict_labels":
        return {"images": len(args[1])}
    return None


# ---------------------------------------------------------------------------
# per-layer figures


def _ms(seconds: float) -> float:
    return seconds * 1e3


def tail(values: list[float]) -> float:
    """Highest percentile with at least ten samples beyond it; 0 below
    forty samples, where it would be no tail."""
    if len(values) < 40:
        return 0.0
    return sorted(values)[len(values) - 11]


def summarize(tr: Tracer) -> tuple[dict[str, float], list[dict]]:
    """Per-layer metrics of one traced round, and the conv shapes of one
    student training forward for the replay."""
    n = len(tr.name)
    dur = [tr.end[i] - tr.start[i] for i in range(n)]
    children: dict[int, list[int]] = defaultdict(list)
    for i in range(n):
        if tr.parent[i] >= 0:
            children[tr.parent[i]].append(i)

    # Which step and which runner each span falls under.
    step_of = [-1] * n
    mode_of: dict[int, str] = {}
    for i in range(n):
        p = tr.parent[i]
        if tr.name[i] == "trainer.step":
            step_of[i] = i
            q = p
            while q >= 0 and tr.name[q] not in RUNNERS:
                q = tr.parent[q]
            mode_of[i] = tr.attrs[q]["mode"] if q >= 0 else "?"
        elif p >= 0:
            step_of[i] = step_of[p]
    by_name: dict[str, list[int]] = defaultdict(list)
    for i in range(n):
        by_name[tr.name[i]].append(i)
    steps = by_name["trainer.step"]
    n_steps = max(1, len(steps))

    def in_steps(name: str) -> list[int]:
        return [i for i in by_name[name] if step_of[i] >= 0]

    def per_step(name: str) -> float:
        return _ms(sum(dur[i] for i in in_steps(name))) / n_steps

    def per_call(name: str) -> float:
        calls = by_name[name]
        return _ms(sum(dur[i] for i in calls) / len(calls)) if calls else 0.0

    out: dict[str, float] = {"tensor.backward_ms": per_step("tensor.backward")}
    for op in TENSOR_OPS:
        out[f"tensor.{op}.fwd_ms"] = per_step(f"tensor.{op}")
    convs = in_steps("tensor.conv2d")
    flops = sum(_conv_flops(tr.attrs[i]) for i in convs)
    conv_s = sum(dur[i] for i in convs)
    out["tensor.conv2d.fwd_gflops"] = flops / conv_s / 1e9 if conv_s else 0.0

    # Blocks: each conv2d in a forward opens a block that also takes the
    # instance_norm and relu calls after it.
    forwards = in_steps("model.forward")
    block_s = defaultdict(float)
    for f in forwards:
        k = -1
        for c in children[f]:
            if tr.name[c] == "tensor.conv2d":
                k += 1
                if k < len(BLOCKS):
                    block_s[BLOCKS[k]] += dur[c]
            elif tr.name[c] in ("tensor.instance_norm", "tensor.relu") and 0 <= k < len(BLOCKS):
                block_s[BLOCKS[k]] += dur[c]
        if k + 1 != len(BLOCKS):
            raise RuntimeError(f"a forward ran {k + 1} convolutions, expected {len(BLOCKS)}")
    for b in BLOCKS:
        out[f"model.{b}.fwd_ms"] = _ms(block_s[b] / len(forwards)) if forwards else 0.0
    student = [f for f in forwards if not tr.attrs[f]["teacher"]]
    teacher = [f for f in forwards if tr.attrs[f]["teacher"]]
    convs_of_first = [c for c in children[student[0]] if tr.name[c] == "tensor.conv2d"] if student else []
    shapes = [dict(tr.attrs[c], block=b) for b, c in zip(BLOCKS, convs_of_first)]
    out["model.forward_ms"] = _ms(sum(dur[f] for f in student) / len(student)) if student else 0.0
    out["model.teacher_forward_ms"] = _ms(sum(dur[f] for f in teacher) / len(teacher)) if teacher else 0.0
    out["model.teacher_forwards_per_step"] = len(teacher) / n_steps

    for name in LOSSES:
        out[f"losses.{name}_ms"] = per_step(f"losses.{name}")
    for name in MEMORY:
        out[f"memory.{name}_ms"] = per_step(f"memory.{name}")

    for mode in MODES:
        times = [_ms(dur[s]) for s in steps if mode_of[s] == mode]
        out[f"trainer.step_ms.{mode}.p50"] = float(np.median(times)) if times else 0.0
        out[f"trainer.step_ms.{mode}.tail"] = tail(times)
    out["trainer.optimizer_ms"] = per_step("trainer.optimizer")
    saves = by_name["trainer.save_checkpoint"]
    out["trainer.save_checkpoint_ms"] = per_call("trainer.save_checkpoint")
    out["trainer.save_checkpoint_calls"] = float(len(saves))
    out["trainer.checkpoint_bytes"] = float(np.mean([tr.attrs[i]["bytes"] for i in saves])) if saves else 0.0
    out["trainer.load_checkpoint_ms"] = per_call("trainer.load_checkpoint")

    out["data.render_sample_ms"] = per_call("data.render_sample")
    out["data.save_sample_ms"] = per_call("data.save_sample")
    out["data.load_sample_ms"] = per_call("data.load_sample")
    out["data.batch_ms"] = per_call("data.batch")

    predicts = by_name["metrics.predict_labels"]
    images = sum(tr.attrs[i]["images"] for i in predicts)
    out["metrics.predict_ms_per_image"] = _ms(sum(dur[i] for i in predicts)) / images if images else 0.0
    out["metrics.hd95_ms"] = per_call("metrics.hd95")
    out["metrics.dice_ms"] = per_call("metrics.dice")

    work = ("data.generate", "metrics.evaluate") + RUNNERS
    mains = by_name["cli.main"]
    overhead = [dur[i] - sum(dur[c] for c in children[i] if tr.name[c] in work) for i in mains]
    out["cli.overhead_ms"] = _ms(float(np.mean(overhead))) if overhead else 0.0
    return out, shapes


def _conv_flops(a: dict) -> float:
    """Multiply-adds of one conv2d call, times two."""
    b, cin, h, w = a["x"]
    cout, _, k, _ = a["w"]
    ho = (h + 2 * a["padding"] - k) // a["stride"] + 1
    wo = (w + 2 * a["padding"] - k) // a["stride"] + 1
    return 2.0 * b * cout * cin * k * k * ho * wo


# ---------------------------------------------------------------------------
# block replay


def replay_blocks(shapes: list[dict], rng: np.random.Generator, reps: int) -> dict[str, float]:
    """Time each block's conv2d -> instance_norm -> relu (the head: conv2d
    alone) forward and backward through the public primitives, at the
    shapes a training forward used. GFLOP/s counts the conv's forward
    and its two backward products."""
    out = {}
    for s in shapes:
        x = T.Tensor(rng.standard_normal(s["x"]).astype(np.float32), requires_grad=s["block"] != "enc0a")
        w = T.Tensor((0.1 * rng.standard_normal(s["w"])).astype(np.float32), requires_grad=True)
        cout = s["w"][0]
        bias = T.Tensor(np.zeros(cout, np.float32), requires_grad=True)
        gamma = T.Tensor(np.ones(cout, np.float32), requires_grad=True)
        beta = T.Tensor(np.zeros(cout, np.float32), requires_grad=True)
        fwd, bwd = [], []
        for _ in range(reps):
            t0 = _now()
            y = T.conv2d(x, w, bias, stride=s["stride"], padding=s["padding"])
            if s["block"] != "head":
                y = T.relu(T.instance_norm(y, gamma, beta))
            t1 = _now()
            g = T.constant(np.ones(y.data.shape, np.float32))
            loss = T.tsum(T.mul(y, g))
            t2 = _now()
            T.backward(loss)
            t3 = _now()
            fwd.append(t1 - t0)
            bwd.append(t3 - t2)
            for t in (x, w, bias, gamma, beta):
                t.grad = None
        f, b = float(np.median(fwd)), float(np.median(bwd))
        out[f"model.{s['block']}.bwd_ms"] = _ms(b)
        out[f"model.{s['block']}.gflops"] = 3.0 * _conv_flops(s) / (f + b) / 1e9
    return out
