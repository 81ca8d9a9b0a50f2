"""Run one workload in this process and print its result as one JSON line.

Started by `run.py`, once per workload run and a few times more with
`--probe` to time set-up alone. The program is imported from the
checkout's own `src/`, never from an installed copy.

A run repeats rounds (see `workloads.py`) as long as one more round, as
long as the average so far, still ends within `--seconds`. With
`--trace 1` it runs the same round three times, the second under the
span tracer, then replays the conv blocks; it reports the per-layer
figures and the tracing overhead against the third round.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import ilseg  # noqa: E402
from ilseg import cli  # noqa: E402
from ilseg import model as M  # noqa: E402
from ilseg import tensor as T  # noqa: E402
from ilseg import trainer as TR  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import UNSCORED_SPLIT, WORKLOADS, Workload  # noqa: E402

_now = time.perf_counter
WORK = ROOT / ".perfbench"


def warm_up() -> None:
    """One small forward and backward, so BLAS threads and lazy imports
    are up before the first timed operation."""
    model = M.build(M.ModelConfig(), (1,), seed=0)
    _, logits = M.forward(model, np.zeros((1, 1, 16, 16), np.float32))
    T.backward(T.tsum(logits))


# ---------------------------------------------------------------------------
# machine


def _openblas() -> tuple[str | None, int | None]:
    """Configuration string and thread count of numpy's OpenBLAS."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                if hasattr(lib, f"{prefix}_get_num_threads{suffix}"):
                    threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                    config = getattr(lib, f"{prefix}_get_config{suffix}")
                    threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                    return config().decode(), threads()
    return None, None


def gemm_gflops(m: int, k: int, n: int, reps: int) -> float:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((m, k)).astype(np.float32)
    b = rng.standard_normal((k, n)).astype(np.float32)
    a @ b
    times = []
    for _ in range(reps):
        t0 = _now()
        a @ b
        times.append(_now() - t0)
    return 2.0 * m * k * n / statistics.median(times) / 1e9


def machine_info() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas, threads = _openblas()
    return {
        "cpu": cpu,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas or "unknown",
        "blas_threads": threads,
        "sgemm_1024_gflops": gemm_gflops(1024, 1024, 1024, 7),
        "conv_gemm_gflops": gemm_gflops(16, 288, 8192, 21),
    }


# ---------------------------------------------------------------------------
# one round


@dataclass
class Round:
    seed: int
    gen_s: list[float] = field(default_factory=list)  # per gen-data operation
    train_s: float = 0.0
    eval_s: list[float] = field(default_factory=list)  # per eval operation
    total_s: float = 0.0
    check_s: float = 0.0
    ok: list[bool] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    dice: dict[str, dict[int, float]] = field(default_factory=dict)


def _main(argv: list[str], tracer: tracing.Tracer | None) -> int:
    """`ilseg` with these arguments; a traceback counts as a failure."""
    try:
        if tracer is None:
            return cli.main(argv)
        return tracer.call("cli.main", cli.main, argv)
    except Exception:
        traceback.print_exc()
        return -1


def _timed(argv: list[str], tracer: tracing.Tracer | None) -> tuple[int, float]:
    t0 = _now()
    rc = _main(argv, tracer)
    return rc, _now() - t0


def run_round(w: Workload, root: Path, seed: int, tracer: tracing.Tracer | None = None) -> Round:
    """gen-data, train every mode, eval every checkpoint: this chain is
    `total_s`. The same dataset is generated once more into another
    directory before the chain and once after it, so gen-data, which is
    short, is timed three times per round at moments apart; finally every
    output is checked."""
    if root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True)
    exp = root / "exp"
    config = root / "config.json"
    config.write_text(json.dumps(w.experiment_config(seed, str(exp))))
    base = ["--config", str(config), "--quiet"]
    full = exp / "data" / "full" / "manifest.json"
    regens = [root / f"regen{i}" for i in (1, 2)]
    r = Round(seed)

    if tracer is not None:
        tracer.install()
    try:
        t_regen = _now()
        regen_rc = [_main(base + ["gen-data", "--out", str(regens[0])], tracer)]
        t0 = _now()
        gen_rc = _main(base + ["gen-data"], tracer)
        t1 = _now()
        for mode in w.modes:
            _main(base + ["train", "--mode", mode], tracer)
        r.train_s = _now() - t1
        eval_rc = []
        for mode, stage in w.evals:
            ckpt = exp / "runs" / mode / f"stage_{stage}.ckpt"
            out = root / "evals" / mode / f"stage_{stage}.csv"
            rc, secs = _timed(["--quiet", "eval", "--checkpoint", str(ckpt), "--manifest", str(full), "--out", str(out)], tracer)
            eval_rc.append(rc)
            r.eval_s.append(secs)
        r.total_s = _now() - t0
        t4 = _now()
        regen_rc.append(_main(base + ["gen-data", "--out", str(regens[1])], tracer))
        r.gen_s = [t0 - t_regen, t1 - t0, _now() - t4]
    finally:
        if tracer is not None:
            tracer.uninstall()
    t_check = _now()

    def record(what: str, rc: int, check) -> None:
        try:
            problems = [f"exit code {rc}"] if rc != 0 else check()
        except Exception as e:  # a broken output is a failed operation
            problems = [f"{type(e).__name__}: {e}"]
        r.ok.append(not problems)
        r.problems += [f"{w.name} seed {seed} {what}: {p}" for p in problems]

    counts = {"train": w.train_count, "val": UNSCORED_SPLIT, "test": UNSCORED_SPLIT}
    record("gen-data", gen_rc, lambda: checks.check_dataset(exp / "data", w.image_size, counts, w.full_val_count))
    for out, rc in zip(regens, regen_rc):
        record(f"gen-data into {out.name}", rc, lambda: checks.check_same_files(exp / "data", out / "data"))
    scratch = root / "resave.ckpt"
    for mode in w.modes:
        registry: tuple[int, ...] = ()
        for stage, cats in zip(w.stage_numbers(mode), w.stage_categories(mode)):
            registry += cats
            record(f"train {mode} stage {stage}", 0, lambda: _check_stage(w, exp / "runs" / mode, mode, stage, registry, scratch))
    samples = checks.load_split(full) if full.exists() else []
    images = np.stack([s.image[None] for s in samples]).astype(np.float32) if samples else None
    for (mode, stage), rc in zip(w.evals, eval_rc):
        record(f"eval {mode} stage {stage}", rc, lambda: _check_eval(w, r, exp, root, mode, stage, samples, images))
    r.check_s = _now() - t_check
    return r


def _check_stage(w: Workload, run_dir: Path, mode: str, stage: int, registry: tuple[int, ...], scratch: Path) -> list[str]:
    path = run_dir / f"stage_{stage}.ckpt"
    problems = checks.check_checkpoint(path, mode, stage, registry, scratch)
    cfg = TR.load_checkpoint(path).stage_config
    if (cfg["epochs"], cfg["lr"]) != (w.stage_epochs(mode, stage), w.lr):
        problems.append(f"{path.name}: trained under {cfg}, not the workload's config")
    n_samples = w.train_samples(mode)
    return problems + checks.check_log(run_dir / f"stage_{stage}.log.jsonl", mode, cfg, n_samples)


def _check_eval(w, r: Round, exp: Path, root: Path, mode: str, stage: int, samples, images) -> list[str]:
    ckpt = exp / "runs" / mode / f"stage_{stage}.ckpt"
    registry = TR.load_checkpoint(ckpt).registry
    preds = checks.predict(ckpt, images)
    csv_text = (root / "evals" / mode / f"stage_{stage}.csv").read_text()
    problems, dices = checks.check_eval(csv_text, stage, registry, samples, preds)
    r.dice[f"{mode}/stage_{stage}"] = dices
    return problems + checks.check_lobe(dices, w.lobe_bounds.get((mode, stage)))


# ---------------------------------------------------------------------------
# a run


def round_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def replay(shapes: list[dict], seed: int) -> tuple[dict[str, float], list[str]]:
    """Per-block backward times and GFLOP/s, and the checks of the
    replayed convolutions."""
    rng = np.random.default_rng(seed)
    layers = tracing.replay_blocks(shapes, rng, reps=5)
    problems = []
    for s in shapes:
        x = rng.standard_normal(s["x"]).astype(np.float32)
        wt = (0.1 * rng.standard_normal(s["w"])).astype(np.float32)
        b = rng.standard_normal(s["w"][0]).astype(np.float32)
        problems += [f"replay {s['block']}: {p}" for p in checks.check_conv(x, wt, b, s["stride"], s["padding"], rng)]
    return layers, problems


def run(w: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    rounds: list[Round] = []
    problems: list[str] = []
    if trace:
        tracer = tracing.Tracer()
        for t in (None, tracer, None):
            rounds.append(run_round(w, work / "round", round_seed(seed, 0), t))
        tracer.dump(WORK / "traces" / f"{w.name}-seed{seed}.jsonl")
        metrics, shapes = tracing.summarize(tracer)
        block_metrics, problems = replay(shapes, seed)
        metrics.update(block_metrics)
        # The first round of a process runs slower (by about 15 % on the
        # reference machine), so it only warms up; the overhead compares
        # the two rounds after it.
        metrics["trace.overhead_pct"] = 100.0 * (rounds[1].total_s / rounds[2].total_s - 1.0)
    else:
        start = _now()
        while True:
            rounds.append(run_round(w, work / "round", round_seed(seed, len(rounds))))
            elapsed = _now() - start
            if elapsed + elapsed / len(rounds) > seconds:
                break
        rendered, trained = w.samples_per_round()
        med = lambda xs: float(statistics.median(xs))  # noqa: E731
        metrics = {
            "gen_samples_per_s": med([rendered / s for r in rounds for s in r.gen_s]),
            "train_samples_per_s": med([trained / r.train_s for r in rounds]),
            "eval_images_per_s": med([w.full_val_count / s for r in rounds for s in r.eval_s]),
            "total_s": med([r.total_s for r in rounds]),
        }
    return {
        "metrics": metrics,
        "attempted": sum(len(r.ok) for r in rounds),
        "failed": sum(not ok for r in rounds for ok in r.ok),
        "problems": [p for r in rounds for p in r.problems] + problems,
        "rounds": [
            {k: getattr(r, k) for k in ("seed", "gen_s", "train_s", "eval_s", "total_s", "check_s", "dice")} for r in rounds
        ],
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help="set up, report when ready, exit")
    ap.add_argument("--spawned-at", type=float, required=True, help="parent's time.monotonic() at spawn")
    args = ap.parse_args(argv)

    if Path(ilseg.__file__).resolve().parent != (ROOT / "src" / "ilseg").resolve():
        print(f"error: imported ilseg from {ilseg.__file__}, not this checkout", file=sys.stderr)
        return 2
    warm_up()
    setup_s = time.monotonic() - args.spawned_at
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    w = WORKLOADS[args.workload]
    info = machine_info()
    work = WORK / "work" / f"{w.name}-{os.getpid()}"
    try:
        result = run(w, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        result["metrics"]["gemm.sgemm_1024_gflops"] = info["sgemm_1024_gflops"]
        result["metrics"]["gemm.conv_gemm_gflops"] = info["conv_gemm_gflops"]
    for p in result["problems"]:
        print(f"check failed: {p}", file=sys.stderr)
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result.update(setup_s=setup_s, peak_rss_kib=peak_rss_kib, machine=info, correct=not result["problems"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
