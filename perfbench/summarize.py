"""Reference tables from the results of many benchmark runs.

    python3 perfbench/summarize.py [results dir]

Reads `.perfbench/results/<workload>-seed<n>-trace<t>.json` (written by
`run.py`) and prints markdown: the machine, then one table of end-to-end
and one of per-layer metrics with a column per workload holding the
median and quartiles over the runs found, the spread (q3 - q1) / median
of the end-to-end metrics, and the range of Dice values the eval checks
saw.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def table(runs: dict[str, list[dict]], spread: bool) -> None:
    names = list(runs)
    first = runs[names[0]][0]["metrics"]
    head = "| metric | unit | " + " | ".join(f"{n}: median (q1 to q3)" + (" spread" if spread else "") for n in names)
    print(head + " |")
    print("|---|---|" + "---|" * len(names))
    for metric, m in first.items():
        cells = []
        for n in names:
            q1, med, q3 = quartiles([r["metrics"][metric]["value"] for r in runs[n]])
            cell = f"{med:.4g} ({q1:.4g} to {q3:.4g})"
            if spread:
                cell += f" {(q3 - q1) / med:.3f}" if med else " -"
            cells.append(cell)
        print(f"| `{metric}` | {m['unit']} | " + " | ".join(cells) + " |")


def main(argv: list[str]) -> int:
    results = Path(argv[0]) if argv else ROOT / ".perfbench" / "results"
    runs: dict[int, dict[str, list[dict]]] = {0: defaultdict(list), 1: defaultdict(list)}
    for path in sorted(results.glob("*-seed*-trace*.json")):
        workload, rest = path.stem.rsplit("-seed", 1)
        runs[int(rest.rsplit("-trace", 1)[1])][workload].append(json.loads(path.read_text()))
    if not runs[0] and not runs[1]:
        print(f"no results under {results}", file=sys.stderr)
        return 1

    machine = next(iter((runs[0] or runs[1]).values()))[0]["machine"]
    print("| machine | |\n|---|---|")
    for k, v in machine.items():
        if "gflops" not in k:  # measured per run: see the gemm.* rows
            print(f"| {k} | {v} |")
    for trace, group in runs.items():
        if not group:
            continue
        counts = ", ".join(
            f"{n}: {len(g)} runs, {sum(r['failed'] for r in g)} of {sum(r['attempted'] for r in g)} operations failed"
            for n, g in group.items()
        )
        print(f"\n{'Per-layer (traced runs)' if trace else 'End to end'}. {counts}.\n")
        table(group, spread=not trace)

    print("\nDice the eval checks recomputed, per category: min / median / max over every round.\n")
    print("| workload | checkpoint | category | min | median | max |\n|---|---|---|---|---|---|")
    for workload, group in runs[0].items():
        dice: dict[tuple[str, int], list[float]] = defaultdict(list)
        for r in group:
            for rnd in r["rounds"]:
                for ckpt, per_cat in rnd["dice"].items():
                    for cid, value in per_cat.items():
                        dice[(ckpt, int(cid))].append(value)
        for (ckpt, cid), values in sorted(dice.items()):
            print(f"| {workload} | {ckpt} | {cid} | {min(values):.3f} | {statistics.median(values):.3f} | {max(values):.3f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
