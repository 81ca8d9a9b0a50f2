"""Self-test of the benchmark: run every workload at a tiny size, then
show that each correctness check rejects a deliberately corrupted output.

    python3 perfbench/selftest.py

Exits 0 when every clean output passes, every corruption is rejected and
a traced run reports exactly the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import json
import math
import shutil
import struct
import sys
from pathlib import Path

import bench  # sets up the import path of the checkout's program
import checks
from bench import ROOT, WORK
from workloads import UNSCORED_SPLIT, WORKLOADS, tiny

import numpy as np

from ilseg import data as D
from ilseg import tensor as T
from ilseg import trainer as TR

FAILURES: list[str] = []


def expect(what: str, rejected: bool) -> None:
    print(f"{'ok  ' if rejected else 'FAIL'} {what}")
    if not rejected:
        FAILURES.append(what)


def rejects(check) -> bool:
    """A check rejects an output by reporting a problem or by raising."""
    try:
        return bool(check())
    except Exception:
        return True


def _edit_log(path: Path, edit) -> Path:
    records = [json.loads(line) for line in path.read_text().splitlines()]
    edit(records)
    out = path.with_name("edited.log.jsonl")
    out.write_text("".join(json.dumps(r) + "\n" for r in records))
    return out


def _label_offset(path: Path) -> tuple[bytearray, int, int]:
    raw = bytearray(path.read_bytes())
    h, w = struct.unpack_from("<II", raw, len(D.MAGIC))
    return raw, len(D.MAGIC) + 8 + 4 * h * w, h * w


def corrupt_dataset(w, exp: Path) -> None:
    data = exp / "data"
    counts = {"train": w.train_count, "val": UNSCORED_SPLIT, "test": UNSCORED_SPLIT}
    run = lambda: checks.check_dataset(data, w.image_size, counts, w.full_val_count)  # noqa: E731
    expect(f"{w.name}: clean dataset passes", not run())

    sample = data / "stage_2" / "train_0000.bin"
    original = sample.read_bytes()
    raw, off, _ = _label_offset(sample)
    raw[off] = 1  # category 1 is not annotated in stage 2
    sample.write_bytes(bytes(raw))
    expect(f"{w.name}: label outside the annotated set rejected", rejects(run))
    sample.write_bytes(original)

    sample = data / "full" / "val_0000.bin"
    original = sample.read_bytes()
    raw, off, n = _label_offset(sample)
    labels = np.frombuffer(bytes(raw[off : off + n]), np.uint8).copy()
    labels[labels == 3] = 0  # the band vanishes: area below its range
    raw[off : off + n] = labels.tobytes()
    sample.write_bytes(bytes(raw))
    expect(f"{w.name}: category area outside area_range rejected", rejects(run))
    sample.write_bytes(original)


def corrupt_training(w, exp: Path, mode: str) -> None:
    run_dir = exp / "runs" / mode
    stage = w.stage_numbers(mode)[-1]
    ckpt_path = run_dir / f"stage_{stage}.ckpt"
    log = run_dir / f"stage_{stage}.log.jsonl"
    ckpt = TR.load_checkpoint(ckpt_path)
    n = w.train_samples(mode)
    run = lambda path: checks.check_log(path, mode, ckpt.stage_config, n)  # noqa: E731
    expect(f"{w.name}: clean {mode} log passes", not run(log))

    def tamper_total(rs):
        rs[1]["loss_total"] *= 1.001

    def nan_part(rs):
        rs[0]["loss_seg"] = math.nan

    def flat(rs):
        for r in rs:
            r.update(loss_total=1.0, loss_seg=1.0, loss_kd=0.0, loss_mem=0.0, loss_same=0.0, loss_oppo=0.0)

    edits = {"tampered loss_total": tamper_total, "non-finite loss": nan_part, "loss that does not fall": flat}
    if mode == "full":
        edits["tampered m_k"] = lambda rs: rs[2].update(m_k=rs[2]["m_k"] + 1e-6)
    else:
        edits["nonzero kd loss in a baseline"] = lambda rs: rs[0].update(loss_kd=0.5, loss_total=rs[0]["loss_total"] + 0.5 * ckpt.stage_config["lambda_kd"])
    for what, edit in edits.items():
        expect(f"{w.name}: {mode} log with {what} rejected", rejects(lambda: run(_edit_log(log, edit))))

    registry = ckpt.registry
    scratch = exp / "resave.ckpt"
    check = lambda path, reg=registry: checks.check_checkpoint(path, mode, stage, reg, scratch)  # noqa: E731
    expect(f"{w.name}: clean {mode} checkpoint passes", not check(ckpt_path))
    expect(f"{w.name}: {mode} checkpoint with the wrong registry rejected", rejects(lambda: check(ckpt_path, registry[::-1])))
    bad = exp / "bad.ckpt"
    raw = bytearray(ckpt_path.read_bytes())
    raw[-1] ^= 0xFF
    bad.write_bytes(bytes(raw))
    expect(f"{w.name}: {mode} checkpoint with a flipped payload byte rejected", rejects(lambda: check(bad)))
    if mode == "full":
        ckpt.bank.frozen[:] = False
        TR.save_checkpoint(ckpt, bad)
        expect(f"{w.name}: full checkpoint with an open prototype rejected", rejects(lambda: check(bad)))


def corrupt_eval(w, root: Path, exp: Path) -> None:
    mode, stage = w.evals[-1]
    ckpt = exp / "runs" / mode / f"stage_{stage}.ckpt"
    samples = checks.load_split(exp / "data" / "full" / "manifest.json")
    images = np.stack([s.image[None] for s in samples]).astype(np.float32)
    preds = checks.predict(ckpt, images)
    registry = TR.load_checkpoint(ckpt).registry
    csv_text = (root / "evals" / mode / f"stage_{stage}.csv").read_text()
    run = lambda text, p: checks.check_eval(text, stage, registry, samples, p)[0]  # noqa: E731
    expect(f"{w.name}: clean eval passes", not run(csv_text, preds))

    flipped = preds.copy()
    y, x = np.argwhere(samples[0].labels == 1)[0]
    flipped[0, y, x] = 0 if flipped[0, y, x] == 1 else 1
    expect(f"{w.name}: flipped predicted pixel rejected", rejects(lambda: run(csv_text, flipped)))

    rows = csv_text.splitlines()
    cells = rows[1].split(",")
    cells[3] = f"{float(cells[3]) + 0.01:.6f}"
    tampered = "\n".join([rows[0], ",".join(cells), *rows[2:]]) + "\n"
    expect(f"{w.name}: tampered HD95 in the CSV rejected", rejects(lambda: run(tampered, preds)))


def corrupt_conv() -> None:
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
    wt = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
    b = rng.standard_normal(4).astype(np.float32)
    expect("conv replay: clean conv2d passes", not checks.check_conv(x, wt, b, 2, 1, rng))
    real = T.conv2d

    def off_output(*args, **kwargs):
        out = real(*args, **kwargs)
        out.data *= 1.01
        return out

    def off_gradient(*args, **kwargs):
        out = real(*args, **kwargs)
        vjp = out._vjp
        out._vjp = lambda g: tuple(p * 1.01 if i == 1 else p for i, p in enumerate(vjp(g)))
        return out

    for what, fake in (("output", off_output), ("weight gradient", off_gradient)):
        T.conv2d = fake
        try:
            expect(f"conv replay: wrong {what} rejected", rejects(lambda: checks.check_conv(x, wt, b, 1, 1, rng)))
        finally:
            T.conv2d = real


def bounds() -> None:
    expect("lobe floor: low Dice rejected", rejects(lambda: checks.check_lobe({1: 0.3}, (0.5, 1.0))))
    expect("lobe ceiling: kept Dice rejected", rejects(lambda: checks.check_lobe({1: 0.9}, (0.0, 0.2))))
    expect("lobe bounds: Dice inside passes", not checks.check_lobe({1: 0.9}, (0.5, 1.0)))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    work = WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for name in WORKLOADS:
            w = tiny(WORKLOADS[name])
            root = work / name
            r = bench.run_round(w, root, seed=3)
            expect(f"{name}: tiny round passes every check ({len(r.ok)} operations)", all(r.ok) and not r.problems)
            for p in r.problems:
                print(f"     {p}")
            exp = root / "exp"
            corrupt_dataset(w, exp)
            for mode in w.modes:
                corrupt_training(w, exp, mode)
            corrupt_eval(w, root, exp)
            traced = bench.run(w, seed=3, seconds=1, trace=True, work=work / f"{name}-traced")
            names = set(traced["metrics"]) | {"gemm.sgemm_1024_gflops", "gemm.conv_gemm_gflops"}
            expect(f"{name}: traced run reports exactly the per-layer metrics", names == per_layer)
            if names != per_layer:
                print(f"     missing {sorted(per_layer - names)}, extra {sorted(names - per_layer)}")
            expect(f"{name}: traced run passes its checks", not traced["problems"])
        corrupt_conv()
        bounds()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
