"""Benchmark of the ilseg engine: staged training, teacher inference,
evaluation and checkpoints, end to end and per layer.

    python3 perfbench/run.py --workload curriculum-64 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in a process of its own (`bench.py`). Set-up time is
the median over that process and a few probe processes that only import
and warm up. Peak RSS is the workload process's own, read when it is
done. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the line before it holds
the machine (CPU, BLAS and its threads, GEMM ceiling) and the run's
details. The same record goes to `.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

PROBES = 4
TIMEOUT_S = 170.0
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer") for m in SPEC[kind]}


def _spawn(args: list[str], deadline: float) -> dict:
    """Run bench.py to its end and return its last JSON line; kill it at
    the deadline."""
    cmd = [sys.executable, str(HERE / "bench.py"), *args, "--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{' '.join(args)} did not finish in time") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited with code {proc.returncode}")
    lines = [line for line in out.splitlines() if line.startswith("{")]
    if not lines:
        raise RuntimeError(f"{' '.join(args)} printed no result")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    setups = [_spawn(["--probe"], deadline)["setup_s"] for _ in range(PROBES)]
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    result = _spawn(args, deadline)
    setups.append(result["setup_s"])
    metrics = result["metrics"]
    if not trace:
        metrics = {
            "setup_s": statistics.median(setups),
            **metrics,
            "peak_rss_mib": result["peak_rss_kib"] / 1024.0,
        }
    declared = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    if sorted(metrics) != sorted(declared):
        raise RuntimeError(f"reported metrics {sorted(metrics)} are not those of BENCHMARK.json")
    result["setup_runs_s"] = setups
    result["metrics"] = {k: {"value": metrics[k], "unit": UNITS[k]} for k in declared}
    return result


def _emit(result: dict) -> None:
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ilseg" / "__init__.py").is_file():
        print(f"error: no ilseg source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + TIMEOUT_S * len(names)
    results = {}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        except RuntimeError as e:
            print(f"error: {name}: {e}", file=sys.stderr)
            return 1
        results[name] = result
        out = ROOT / ".perfbench" / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result, indent=1) + "\n")
        for metric, m in result["metrics"].items():
            print(f"{name} {metric} {m['value']:.6g} {m['unit']}", file=sys.stderr)

    if len(names) == 1:
        result = results[names[0]]
        print(json.dumps({k: v for k, v in result.items() if k not in ("correct", "attempted", "failed", "metrics")}))
        _emit(result)
    else:
        print(json.dumps({name: r["machine"] for name, r in results.items()}))
        _emit(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
            }
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
