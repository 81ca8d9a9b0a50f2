"""Cross-run comparison artifacts: combined CSV and forgetting curve SVG.

Consumes the per-stage evaluation CSVs written by the eval command,
arranged as <eval_root>/<mode>/stage_<t>.csv, and emits

  combined.csv    mode,stage,category,DC,HD95,degenerate over every
                  scored category row of every mode and stage
  forgetting.svg  DC of the first-stage category versus stage, one
                  polyline per mode

Both outputs are deterministic: identical inputs give identical bytes.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from pathlib import Path

from .metrics import CSV_COLUMNS

__all__ = ["EmptyInputError", "EvalRow", "collect_rows", "write_combined_csv", "write_forgetting_svg", "build_report"]

_STAGE_CSV = re.compile(r"^stage_(\d+)\.csv$")

# fixed palette so the chart is stable across runs
_MODE_COLORS = {
    "full": "#2c6fbb",
    "womem": "#e08f2d",
    "ft": "#c23b3b",
    "joint": "#3f9b55",
}
_FALLBACK_COLOR = "#777777"


class EmptyInputError(ValueError):
    """No evaluation results found to report on."""


@dataclass(frozen=True)
class EvalRow:
    mode: str
    stage: int
    category: str
    dice: float
    hd95: float
    degenerate: int

    def __post_init__(self):
        if not 0.0 <= self.dice <= 1.0:
            raise ValueError(f"DC {self.dice} is outside [0, 1]")
        if not 0.0 <= self.hd95 < math.inf:
            raise ValueError(f"HD95 {self.hd95} is not a finite number >= 0")
        if self.degenerate < 0:
            raise ValueError(f"degenerate count {self.degenerate} is negative")


def _parse_eval_csv(path: Path, mode: str, stage: int) -> list[EvalRow]:
    """Scored category rows of one eval CSV. A malformed file raises
    ValueError naming the line."""
    try:
        with path.open(newline="") as fh:
            records = list(csv.reader(fh))
    except (csv.Error, UnicodeDecodeError) as e:
        raise ValueError(f"{path}: {e}") from None
    if not records or tuple(records[0]) != CSV_COLUMNS:
        raise ValueError(f"{path}: header must be {','.join(CSV_COLUMNS)}")
    rows = []
    for line, rec in enumerate(records[1:], start=2):
        if len(rec) != len(CSV_COLUMNS):
            raise ValueError(f"{path}:{line}: expected {len(CSV_COLUMNS)} fields, got {len(rec)}")
        _, cat, dc, hd95, degenerate = rec
        if degenerate == "absent" and dc == hd95 == "":  # a category this model never saw
            continue
        try:
            row = EvalRow(mode, stage, cat, float(dc), float(hd95), int(degenerate))
        except ValueError as e:
            raise ValueError(f"{path}:{line}: {e}") from None
        if cat != "mean":
            rows.append(row)
    return rows


def collect_rows(eval_root: Path | str) -> list[EvalRow]:
    """Gather every scored category row under <eval_root>/<mode>/stage_<t>.csv."""
    eval_root = Path(eval_root)
    rows: list[EvalRow] = []
    if eval_root.is_dir():
        for mode_dir in sorted(p for p in eval_root.iterdir() if p.is_dir()):
            for f in sorted(mode_dir.iterdir()):
                m = _STAGE_CSV.match(f.name)
                if m:
                    rows.extend(_parse_eval_csv(f, mode_dir.name, int(m.group(1))))
    if not rows:
        raise EmptyInputError(f"no evaluation CSVs under {eval_root}")
    return rows


def write_combined_csv(rows: list[EvalRow], path: Path | str) -> None:
    rows = sorted(rows, key=lambda r: (r.mode, r.stage, r.category))
    lines = ["mode,stage,category,DC,HD95,degenerate"]
    for r in rows:
        lines.append(f"{r.mode},{r.stage},{r.category},{r.dice:.6f},{r.hd95:.6f},{r.degenerate}")
    Path(path).write_text("\n".join(lines) + "\n")


def _first_stage_category(rows: list[EvalRow]) -> str:
    """The tracked category: first row of the earliest stage on record."""
    lowest = min(r.stage for r in rows)
    cands = sorted(r.category for r in rows if r.stage == lowest)
    return cands[0]


def write_forgetting_svg(rows: list[EvalRow], path: Path | str) -> None:
    """Line chart of the tracked category's DC against stage, per mode."""
    target = _first_stage_category(rows)
    stages = sorted({r.stage for r in rows})
    modes = sorted({r.mode for r in rows})
    w, h = 480, 320
    ml, mr, mt, mb = 56, 16, 36, 44
    px = lambda s: ml + (w - ml - mr) * (stages.index(s) / max(1, len(stages) - 1))
    py = lambda d: mt + (h - mt - mb) * (1.0 - d)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{ml}" y="20" font-family="sans-serif" font-size="13" fill="#222">'
        f"Validation DC of category '{target}' by stage</text>",
    ]
    # axes and gridlines
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = py(frac)
        parts.append(f'<line x1="{ml}" y1="{y:.1f}" x2="{w - mr}" y2="{y:.1f}" stroke="#ddd" stroke-width="1"/>')
        parts.append(
            f'<text x="{ml - 8}" y="{y + 4:.1f}" font-family="sans-serif" font-size="11" '
            f'fill="#555" text-anchor="end">{frac:.2f}</text>'
        )
    for s in stages:
        x = px(s)
        parts.append(
            f'<text x="{x:.1f}" y="{h - mb + 18}" font-family="sans-serif" font-size="11" '
            f'fill="#555" text-anchor="middle">{s}</text>'
        )
    parts.append(f'<line x1="{ml}" y1="{py(0.0):.1f}" x2="{w - mr}" y2="{py(0.0):.1f}" stroke="#444" stroke-width="1"/>')
    parts.append(f'<line x1="{ml}" y1="{py(1.0):.1f}" x2="{ml}" y2="{py(0.0):.1f}" stroke="#444" stroke-width="1"/>')
    parts.append(
        f'<text x="{(ml + w - mr) / 2:.1f}" y="{h - 8}" font-family="sans-serif" font-size="12" '
        f'fill="#333" text-anchor="middle">stage</text>'
    )

    legend_y = mt + 6
    for mode in modes:
        series = sorted((r.stage, r.dice) for r in rows if r.mode == mode and r.category == target)
        if not series:
            continue
        color = _MODE_COLORS.get(mode, _FALLBACK_COLOR)
        pts = " ".join(f"{px(s):.1f},{py(d):.1f}" for s, d in series)
        if len(series) == 1:
            parts.append(f'<circle cx="{px(series[0][0]):.1f}" cy="{py(series[0][1]):.1f}" r="4" fill="{color}"/>')
        else:
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>')
        for s, d in series:
            parts.append(f'<circle cx="{px(s):.1f}" cy="{py(d):.1f}" r="2.5" fill="{color}"/>')
        parts.append(
            f'<rect x="{w - mr - 104}" y="{legend_y - 9}" width="12" height="12" fill="{color}"/>'
            f'<text x="{w - mr - 88}" y="{legend_y + 2}" font-family="sans-serif" font-size="12" fill="#333">{mode}</text>'
        )
        legend_y += 18
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def build_report(eval_root: Path | str, out_dir: Path | str) -> tuple[Path, Path]:
    """Write combined.csv and forgetting.svg; returns their paths."""
    rows = collect_rows(eval_root)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "combined.csv"
    svg_path = out_dir / "forgetting.svg"
    write_combined_csv(rows, csv_path)
    write_forgetting_svg(rows, svg_path)
    return csv_path, svg_path
