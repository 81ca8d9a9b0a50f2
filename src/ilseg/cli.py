"""Command-line interface: gen-data, train, eval, report.

One experiment lives under a single output directory:

    <out>/data/stage_<t>/manifest.json   gen-data
    <out>/data/full/manifest.json
    <out>/runs/<mode>/stage_<t>.ckpt     train (+ .log.jsonl)
    <eval dir>/<mode>/stage_<t>.csv      eval (caller's layout)
    <report dir>/combined.csv, forgetting.svg

Exit codes are a stable scripting contract: 0 success, 2 config or IO
problem, 3 broken checkpoint lineage, 4 category mismatch, 5 empty
input. Identical inputs produce identical output bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import data as D
from . import metrics as ME
from . import model as M
from . import report as R
from . import trainer as TR
from .config import ConfigError, from_json
from .model import ModelConfig

__all__ = ["main", "console_entry", "ConfigError", "CategoryMismatchError", "load_experiment_config"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_LINEAGE = 3
EXIT_CATEGORY = 4
EXIT_EMPTY = 5


class CategoryMismatchError(ValueError):
    pass


def _normalize_mode(name: str) -> str:
    mode = str(name).lower()
    if mode not in TR.MODES:
        raise ConfigError(f"unknown mode {name!r}; expected one of full, woMem, ft, joint")
    return mode


@dataclass(frozen=True)
class _Experiment:
    """The experiment JSON. A stage entry holds the StageConfig keys that
    the CLI does not set itself; every entry is checked on load, so a bad
    value exits before anything is written."""

    seed: int
    stages: tuple[dict, ...]
    modes: tuple[str, ...]
    out: str | None = None
    data: D.GeneratorConfig = field(default_factory=D.GeneratorConfig)
    model: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self):
        if not self.stages:
            raise ValueError("stages must be a non-empty list")
        object.__setattr__(self, "modes", tuple(_normalize_mode(m) for m in self.modes))
        for i in range(len(self.stages)):
            self.stage_config(i, "full", Path(), self.seed)

    def stage_config(self, index: int, mode: str, root: Path, seed: int) -> TR.StageConfig:
        """Stage `index + 1` of a `mode` chain under the experiment root."""
        manifest = root / "data" / f"stage_{index + 1}" / "manifest.json"
        return from_json(TR.StageConfig, self.stages[index], f"stages[{index}]",
                         stage=index + 1, manifest=str(manifest), mode=mode, seed=seed, model=self.model)


def load_experiment_config(path: Path | str) -> _Experiment:
    """Parse and check the experiment JSON: unknown keys, JSON types and
    ranges are errors."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as e:
        raise ConfigError(f"{path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from None
    try:
        return from_json(_Experiment, doc, "")
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from None


def _experiment(args) -> tuple[_Experiment, int, Path]:
    """The config, its seed unless `--seed` overrides it, and the experiment root."""
    exp = load_experiment_config(args.config)
    root = args.out or exp.out
    if not root:
        raise ConfigError("no output directory: pass --out or set \"out\" in the config")
    return exp, args.seed if args.seed is not None else exp.seed, Path(root)


def _say(args, msg: str) -> None:
    if not args.quiet:
        print(msg)


# ---------------------------------------------------------------------------
# commands


def cmd_gen_data(args) -> int:
    exp, seed, root = _experiment(args)
    manifests = D.generate(exp.data, seed, root / "data")
    for name in sorted(manifests):
        _say(args, f"wrote {manifests[name]}")
    return EXIT_OK


def _train_mode(exp: _Experiment, mode: str, root: Path, seed: int, resume: bool, args) -> None:
    run_dir = root / "runs" / mode
    run_dir.mkdir(parents=True, exist_ok=True)
    n = len(exp.stages)

    if mode == "joint":
        # the first stage's keys over the categories of every stage
        union = tuple(c for entry in exp.stages for c in entry["new_categories"])
        try:
            jcfg = replace(exp.stage_config(0, mode, root, seed), stage=n, new_categories=union)
        except ValueError as e:
            raise ConfigError(f"joint config: {e}") from None
        final = run_dir / f"stage_{n}.ckpt"
        if final.exists():
            _load_complete(final, jcfg)
            _say(args, f"{final} already complete")
            return
        manifests = [root / "data" / f"stage_{t}" / "manifest.json" for t in range(1, n + 1)]
        resume_ckpt = _maybe_resume(run_dir / f"stage_{n}.epoch.ckpt", resume)
        TR.run_joint(manifests, jcfg, run_dir=run_dir, resume_from=resume_ckpt)
        _say(args, f"wrote {final}")
        return

    runner = TR.run_ft_baseline if mode == "ft" else TR.run_stage
    prev: TR.Checkpoint | None = None
    for i in range(n):
        cfg = exp.stage_config(i, mode, root, seed)
        final = run_dir / f"stage_{cfg.stage}.ckpt"
        if final.exists():
            loaded = _load_complete(final, cfg)
            expect = (prev.registry if prev else ()) + cfg.new_categories
            if loaded.registry != expect:
                raise TR.LineageError(f"{final} covers categories {loaded.registry}, expected {expect}")
            prev = _carry(loaded)
            _say(args, f"{final} already complete")
            continue
        if i > 0 and prev is None:
            raise TR.LineageError(f"stage {cfg.stage} needs {run_dir / f'stage_{cfg.stage - 1}.ckpt'}")
        resume_ckpt = _maybe_resume(run_dir / f"stage_{cfg.stage}.epoch.ckpt", resume)
        prev = _carry(runner(prev, cfg, run_dir=run_dir, resume_from=resume_ckpt))
        _say(args, f"wrote {final}")


def _load_complete(final: Path, cfg: TR.StageConfig) -> TR.Checkpoint:
    """A finished stage that is skipped must have been trained as `cfg` says."""
    loaded = TR.load_checkpoint(final)
    if loaded.stage != cfg.stage or loaded.mode != cfg.mode:
        raise TR.LineageError(f"{final} holds stage {loaded.stage} mode {loaded.mode}")
    TR._check_stage_config(cfg, loaded.stage_config, str(final))
    return loaded


def _carry(ckpt: TR.Checkpoint) -> TR.Checkpoint:
    """What the next stage reads of a finished one: its params, registry,
    categories and bank. The Adam moments are already on disk; dropping
    them here frees that memory for the next stage."""
    return replace(ckpt, optimizer={})


def _maybe_resume(epoch_ckpt: Path, resume: bool) -> TR.Checkpoint | None:
    if resume and epoch_ckpt.exists():
        return TR.load_checkpoint(epoch_ckpt)
    return None


def cmd_train(args) -> int:
    exp, seed, root = _experiment(args)
    modes = [_normalize_mode(args.mode)] if args.mode else exp.modes
    for t in range(1, len(exp.stages) + 1):
        manifest = root / "data" / f"stage_{t}" / "manifest.json"
        if not manifest.exists():
            raise ConfigError(f"missing dataset manifest {manifest}; run gen-data first")
    for mode in modes:
        _train_mode(exp, mode, root, seed, args.resume, args)
    return EXIT_OK


def cmd_eval(args) -> int:
    ckpt = TR.load_checkpoint(args.checkpoint)
    manifest_doc = D.load_manifest(args.manifest)
    for cid, name in manifest_doc["categories"].items():
        if cid in ckpt.categories and ckpt.categories[cid] != name:
            raise CategoryMismatchError(
                f"category {cid} is {name!r} in {args.manifest} but {ckpt.categories[cid]!r} in the checkpoint"
            )
    # a frozen copy runs the same forward without recording backward closures
    model = M.clone_frozen(TR.model_from_checkpoint(ckpt))
    rep = ME.evaluate(model, manifest_doc, split=args.split, stage=ckpt.stage)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    rep.write_csv(out)
    _say(args, f"wrote {out}")
    return EXIT_OK


def cmd_report(args) -> int:
    csv_path, svg_path = R.build_report(args.runs, args.out)
    _say(args, f"wrote {csv_path}")
    _say(args, f"wrote {svg_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ilseg", description="Staged incremental segmentation experiments.")
    ap.add_argument("--config", help="experiment JSON", default=None)
    ap.add_argument("--seed", type=int, default=None, help="override the config seed")
    ap.add_argument("--quiet", action="store_true")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="write the synthetic stage datasets")
    g.add_argument("--out", default=None, help="experiment root (default: config \"out\")")
    g.set_defaults(fn=cmd_gen_data, needs_config=True)

    t = sub.add_parser("train", help="train the configured modes stage by stage")
    t.add_argument("--mode", default=None, help="single mode to run (default: config \"modes\")")
    t.add_argument("--resume", action="store_true", help="pick up an interrupted stage from its epoch checkpoint")
    t.add_argument("--out", default=None)
    t.set_defaults(fn=cmd_train, needs_config=True)

    e = sub.add_parser("eval", help="score one checkpoint against one manifest")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--manifest", required=True)
    e.add_argument("--out", required=True, help="CSV output path")
    e.add_argument("--split", default="val", choices=("train", "val", "test"))
    e.set_defaults(fn=cmd_eval, needs_config=False)

    r = sub.add_parser("report", help="combine evaluation CSVs into comparison artifacts")
    r.add_argument("--runs", required=True, help="directory holding <mode>/stage_<t>.csv evaluations")
    r.add_argument("--out", required=True, help="report output directory")
    r.set_defaults(fn=cmd_report, needs_config=False)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    if args.needs_config and not args.config:
        print("error: --config is required for this command", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.fn(args)
    except TR.LineageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_LINEAGE
    except CategoryMismatchError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CATEGORY
    except R.EmptyInputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_EMPTY
    except (ValueError, OSError) as e:  # config, sample, checkpoint and other input errors
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
