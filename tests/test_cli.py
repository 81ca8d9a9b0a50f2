"""CLI contract: exit codes, artifact layout, idempotence, reporting."""

import hashlib
import json
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rename_block, rewrite_checkpoint_header, run_until_crash
from ilseg import cli as CLI

BASE_DATA = {
    "image_size": 32,
    "train_count": 4,
    "val_count": 2,
    "test_count": 1,
    "full_val_count": 2,
    "full_test_count": 1,
}


def _config_doc(**overrides):
    doc = {
        "seed": 3,
        "data": dict(BASE_DATA),
        "model": {},
        "modes": ["full"],
        "stages": [
            {"new_categories": [1], "epochs": 1, "lr": 0.001},
            {"new_categories": [2], "epochs": 1, "lr": 0.001},
        ],
    }
    doc.update(overrides)
    return doc


def _write_config(path, **overrides):
    path.write_text(json.dumps(_config_doc(**overrides)))
    return path


def _tree_digest(root):
    out = {}
    for f in sorted(Path(root).rglob("*")):
        if f.is_file():
            out[str(f.relative_to(root))] = hashlib.sha256(f.read_bytes()).hexdigest()
    return out


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    """One generated dataset with full and womem runs, shared read-only."""
    root = tmp_path_factory.mktemp("cli_exp")
    cfg = _write_config(root / "config.json", modes=["full", "woMem"])
    assert CLI.main(["--quiet", "--config", str(cfg), "gen-data", "--out", str(root)]) == 0
    assert CLI.main(["--quiet", "--config", str(cfg), "train", "--out", str(root)]) == 0
    return root, cfg


# ---------------------------------------------------------------------------
# config parsing


def test_missing_config_flag(capsys):
    assert CLI.main(["gen-data"]) == 2
    assert "--config is required" in capsys.readouterr().err


def test_nonexistent_config(tmp_path):
    missing = tmp_path / "nope.json"
    assert CLI.main(["--config", str(missing), "gen-data", "--out", str(tmp_path)]) == 2


def test_invalid_json_reports_position(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{\n "seed": ,\n}')
    assert CLI.main(["--config", str(cfg), "gen-data", "--out", str(tmp_path)]) == 2
    assert "line 2 column" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides",
    [
        {"bonus": 1},
        {"modes": ["full", "fancy"]},
        {"modes": ["full"], "stages": []},
        {"stages": [{"new_categories": [1], "warmup": 3}]},
        {"stages": [{"epochs": 1}]},
        {"stages": [5]},
        {"seed": "three"},
        {"data": {"image_size": 20}},
    ],
)
def test_config_schema_rejections(tmp_path, overrides):
    cfg = _write_config(tmp_path / "c.json", **overrides)
    assert CLI.main(["--config", str(cfg), "gen-data", "--out", str(tmp_path / "o")]) == 2


def test_config_missing_required_key(tmp_path):
    doc = _config_doc()
    del doc["seed"]
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    assert CLI.main(["--config", str(cfg), "gen-data", "--out", str(tmp_path / "o")]) == 2


def test_config_top_level_must_be_object(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text("[]")
    assert CLI.main(["--config", str(cfg), "gen-data", "--out", str(tmp_path / "o")]) == 2


def _first_stage(**entry):
    stages = _config_doc()["stages"]
    stages[0].update(entry)
    return {"stages": stages}


@pytest.mark.parametrize(
    "overrides, message",
    [
        (_first_stage(epochs="3"), 'stages[0].epochs must be an integer, got "3"'),
        (_first_stage(epochs=1.5), "stages[0].epochs must be an integer, got 1.5"),
        (_first_stage(epochs=True), "stages[0].epochs must be an integer, got true"),
        (_first_stage(batch_size=1.0), "stages[0].batch_size must be an integer, got 1.0"),
        (_first_stage(lr="x"), 'stages[0].lr must be a finite number or null, got "x"'),
        (_first_stage(lambda_kd=None), "stages[0].lambda_kd must be a finite number, got null"),
        (_first_stage(kd_temperature="x"), 'stages[0].kd_temperature must be a finite number, got "x"'),
        (_first_stage(new_categories=1), "stages[0].new_categories must be a list of integers, got 1"),
        (_first_stage(new_categories=[1.5]), "stages[0].new_categories[0] must be an integer, got 1.5"),
        (_first_stage(bg_sample_cap=2.5), "stages[0].bg_sample_cap must be an integer, got 2.5"),
        (_first_stage(augment="false"), 'stages[0].augment must be true or false, got "false"'),
        ({"model": {"feature_channels": True}}, "model.feature_channels must be an integer, got true"),
        ({"model": {"depth": 1.0}}, "model.depth must be an integer, got 1.0"),
        ({"data": dict(BASE_DATA, image_size=16.0)}, "data.image_size must be an integer, got 16.0"),
        ({"data": dict(BASE_DATA, train_count=2.5)}, "data.train_count must be an integer, got 2.5"),
        ({"data": dict(BASE_DATA, jitter_px=-100)}, "data: jitter_px must be in [0, image_size / 2], got -100"),
        ({"data": [["image_size", 32]]}, 'data must be an object, got [["image_size", 32]]'),
        ({"out": 5}, "out must be a string or null, got 5"),
        ({"seed": True}, "seed must be an integer, got true"),
    ],
)
def test_mistyped_config_value_exits_2_before_writing(tmp_path, capsys, overrides, message):
    cfg = _write_config(tmp_path / "c.json", **overrides)
    out = tmp_path / "o"
    for command in ("gen-data", "train"):
        assert CLI.main(["--config", str(cfg), command, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {cfg}: {message}\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# gen-data


def test_gen_data_deterministic_across_roots_and_reruns(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json")
    a, b = tmp_path / "a", tmp_path / "b"
    assert CLI.main(["--config", str(cfg), "gen-data", "--out", str(a)]) == 0
    assert "wrote" in capsys.readouterr().out
    assert CLI.main(["--quiet", "--config", str(cfg), "gen-data", "--out", str(b)]) == 0
    assert capsys.readouterr().out == ""
    first = _tree_digest(a / "data")
    assert first == _tree_digest(b / "data")
    assert CLI.main(["--quiet", "--config", str(cfg), "gen-data", "--out", str(a)]) == 0
    assert _tree_digest(a / "data") == first

    c = tmp_path / "c"
    assert CLI.main(["--quiet", "--config", str(cfg), "--seed", "9", "gen-data", "--out", str(c)]) == 0
    assert _tree_digest(c / "data") != first


# ---------------------------------------------------------------------------
# train


def test_train_requires_data(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json")
    assert CLI.main(["--config", str(cfg), "train", "--out", str(tmp_path / "o")]) == 2
    assert "run gen-data first" in capsys.readouterr().err


def test_train_artifacts_and_skip_path(experiment, capsys):
    root, cfg = experiment
    for mode in ("full", "womem"):
        for t in (1, 2):
            assert (root / "runs" / mode / f"stage_{t}.ckpt").exists()
            assert (root / "runs" / mode / f"stage_{t}.log.jsonl").exists()
        assert not list((root / "runs" / mode).glob("*.epoch.ckpt"))

    before = (root / "runs" / "full" / "stage_2.ckpt").read_bytes()
    assert CLI.main(["--config", str(cfg), "train", "--mode", "full", "--out", str(root)]) == 0
    assert "already complete" in capsys.readouterr().out
    assert (root / "runs" / "full" / "stage_2.ckpt").read_bytes() == before


@pytest.mark.parametrize("mode, final", [("full", "stage_1.ckpt"), ("joint", "stage_2.ckpt")])
def test_train_rerun_with_another_seed_is_refused(experiment, tmp_path, capsys, mode, final):
    root, cfg = experiment
    spot = tmp_path / "spot"
    shutil.copytree(root / "data", spot / "data")
    if mode == "full":
        shutil.copytree(root / "runs" / "full", spot / "runs" / "full")
    else:
        assert CLI.main(["--quiet", "--config", str(cfg), "train", "--mode", mode, "--out", str(spot)]) == 0
    before = _tree_digest(spot)
    capsys.readouterr()
    assert CLI.main(["--config", str(cfg), "train", "--mode", mode, "--out", str(spot)]) == 0
    assert "already complete" in capsys.readouterr().out
    assert CLI.main(["--config", str(cfg), "--seed", "9", "train", "--mode", mode, "--out", str(spot)]) == 3
    out, err = capsys.readouterr()
    assert "already complete" not in out
    assert err == f"error: {spot / 'runs' / mode / final} was trained with another stage config; it differs in seed\n"
    assert _tree_digest(spot) == before


def test_train_resume_after_a_config_edit_is_refused(experiment, tmp_path, capsys):
    root, _ = experiment
    spot = tmp_path / "spot"
    shutil.copytree(root / "data", spot / "data")
    stages = [{"new_categories": [1], "epochs": 2, "lr": 0.001}, {"new_categories": [2], "epochs": 1, "lr": 0.001}]
    cfg = _write_config(tmp_path / "c.json", stages=stages)
    train = ["--quiet", "--config", str(cfg), "train", "--out", str(spot)]
    run_until_crash(lambda prev, c, run_dir: CLI.main(train), None, None, spot, crash_after=1)
    before = _tree_digest(spot)
    assert (spot / "runs" / "full" / "stage_1.epoch.ckpt").exists()
    stages[0]["lr"] = 0.002
    _write_config(cfg, stages=stages)
    assert CLI.main(train + ["--resume"]) == 3
    assert "resume checkpoint was trained with another stage config; it differs in lr" in capsys.readouterr().err
    assert _tree_digest(spot) == before


def test_train_unknown_mode_flag(experiment):
    root, cfg = experiment
    assert CLI.main(["--config", str(cfg), "train", "--mode", "fancy", "--out", str(root)]) == 2


def _checkpoint_payload(path):
    """Parameter, optimizer, and bank bytes; the header echoes local paths."""
    raw = path.read_bytes()
    _, head_len = struct.unpack_from("<II", raw, 8)
    return raw[16 + head_len:]


def test_train_cross_directory_determinism(experiment, tmp_path):
    root, _ = experiment
    other = tmp_path / "other"
    cfg = _write_config(tmp_path / "c.json", modes=["full", "woMem"])
    assert CLI.main(["--quiet", "--config", str(cfg), "gen-data", "--out", str(other)]) == 0
    assert CLI.main(["--quiet", "--config", str(cfg), "train", "--mode", "full", "--out", str(other)]) == 0
    for name in ("stage_1.log.jsonl", "stage_2.log.jsonl"):
        assert (other / "runs" / "full" / name).read_bytes() == (root / "runs" / "full" / name).read_bytes()
    for name in ("stage_1.ckpt", "stage_2.ckpt"):
        assert _checkpoint_payload(other / "runs" / "full" / name) == _checkpoint_payload(root / "runs" / "full" / name)


def test_train_stage_validation_surfaces(experiment, tmp_path):
    root, _ = experiment
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    shutil.copytree(root / "data", fresh / "data")
    cfg = _write_config(
        tmp_path / "c.json",
        stages=[{"new_categories": [1], "epochs": 0}, {"new_categories": [2], "epochs": 1}],
    )
    assert CLI.main(["--config", str(cfg), "train", "--out", str(fresh)]) == 2


def test_train_lineage_tamper_detected(experiment, tmp_path, capsys):
    root, _ = experiment
    crooked = tmp_path / "crooked"
    crooked.mkdir()
    shutil.copytree(root / "data", crooked / "data")
    shutil.copytree(root / "runs" / "full", crooked / "runs" / "full")
    run_dir = crooked / "runs" / "full"
    shutil.copyfile(run_dir / "stage_2.ckpt", run_dir / "stage_1.ckpt")
    cfg = _write_config(tmp_path / "c.json")
    assert CLI.main(["--config", str(cfg), "train", "--mode", "full", "--out", str(crooked)]) == 3
    assert "stage" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval


def test_eval_writes_stable_csv(experiment, tmp_path):
    root, _ = experiment
    out = tmp_path / "eval.csv"
    argv = [
        "--quiet", "eval",
        "--checkpoint", str(root / "runs" / "full" / "stage_2.ckpt"),
        "--manifest", str(root / "data" / "full" / "manifest.json"),
        "--out", str(out),
    ]
    assert CLI.main(argv) == 0
    text = out.read_text()
    assert text.splitlines()[0] == "stage,category,DC,HD95,degenerate"
    first = out.read_bytes()
    assert CLI.main(argv) == 0
    assert out.read_bytes() == first



def test_eval_process_imports_no_scipy(experiment, tmp_path):
    root, _ = experiment
    code = (
        "import json, sys\n"
        "import ilseg.cli\n"
        "rc = ilseg.cli.main(sys.argv[1:])\n"
        "print(json.dumps([rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    res = subprocess.run(
        [
            sys.executable, "-c", code, "--quiet", "eval",
            "--checkpoint", str(root / "runs" / "full" / "stage_2.ckpt"),
            "--manifest", str(root / "data" / "full" / "manifest.json"),
            "--out", str(tmp_path / "eval.csv"),
        ],
        capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == [0, []]
    assert (tmp_path / "eval.csv").exists()

def test_eval_missing_checkpoint(experiment, tmp_path):
    root, _ = experiment
    assert CLI.main([
        "eval",
        "--checkpoint", str(tmp_path / "ghost.ckpt"),
        "--manifest", str(root / "data" / "full" / "manifest.json"),
        "--out", str(tmp_path / "e.csv"),
    ]) == 2


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda h: h.pop("bank"), "lacks 'bank'"),
        (lambda h: h["blocks"][0].pop("dtype"), "lacks 'dtype'"),
        (lambda h: rename_block(h, "param/dec1_b", "param/dec1_bias"), "param blocks do not match the model at ['dec1_b', 'dec1_bias']"),
        (lambda h: rename_block(h, "opt/m/dec1_b", "opt/m/dec1_bias"), "opt/m blocks do not match the model at ['dec1_b', 'dec1_bias']"),
        (lambda h: h["bank"].update(initialized=[True, True]), "initialized (2,) and frozen (1,) flags do not match 1 categories"),
    ],
)
def test_eval_malformed_checkpoint_header_exits_2(experiment, tmp_path, capsys, edit, message):
    root, _ = experiment
    bad = rewrite_checkpoint_header(root / "runs" / "full" / "stage_1.ckpt", tmp_path / "bad.ckpt", edit)
    assert CLI.main([
        "eval",
        "--checkpoint", str(bad),
        "--manifest", str(root / "data" / "full" / "manifest.json"),
        "--out", str(tmp_path / "e.csv"),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "e.csv").exists()


def test_eval_category_name_mismatch(experiment, tmp_path, capsys):
    root, _ = experiment
    alt = tmp_path / "alt"
    shutil.copytree(root / "data" / "stage_1", alt)
    man = alt / "manifest.json"
    doc = json.loads(man.read_text())
    doc["categories"]["1"] = "blob"
    man.write_text(json.dumps(doc))
    assert CLI.main([
        "eval",
        "--checkpoint", str(root / "runs" / "full" / "stage_1.ckpt"),
        "--manifest", str(man),
        "--out", str(tmp_path / "e.csv"),
    ]) == 4
    assert "blob" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# report


def test_report_combines_modes(experiment, tmp_path):
    root, cfg = experiment
    assert CLI.main(["--quiet", "--config", str(cfg), "train", "--mode", "ft", "--out", str(root)]) == 0

    evals = tmp_path / "evals"
    for mode in ("full", "ft"):
        for t in (1, 2):
            assert CLI.main([
                "--quiet", "eval",
                "--checkpoint", str(root / "runs" / mode / f"stage_{t}.ckpt"),
                "--manifest", str(root / "data" / "full" / "manifest.json"),
                "--out", str(evals / mode / f"stage_{t}.csv"),
            ]) == 0

    report = tmp_path / "report"
    argv = ["--quiet", "report", "--runs", str(evals), "--out", str(report)]
    assert CLI.main(argv) == 0
    lines = (report / "combined.csv").read_text().splitlines()
    assert lines[0] == "mode,stage,category,DC,HD95,degenerate"
    assert len(lines) == 7  # stage 1 scores one category, stage 2 two, per mode

    svg = (report / "forgetting.svg").read_text()
    assert svg.count("<polyline") == 2
    assert svg.count("<circle") == 4
    assert "lobe" in svg

    first = {p.name: p.read_bytes() for p in report.iterdir()}
    assert CLI.main(argv) == 0
    assert {p.name: p.read_bytes() for p in report.iterdir()} == first


def test_report_empty_tree(tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    assert CLI.main(["report", "--runs", str(empty), "--out", str(tmp_path / "r")]) == 5


def test_joint_mode_via_cli(experiment, tmp_path):
    root, _ = experiment
    spot = tmp_path / "joint"
    spot.mkdir()
    shutil.copytree(root / "data", spot / "data")
    cfg = _write_config(tmp_path / "c.json", modes=["joint"])
    assert CLI.main(["--quiet", "--config", str(cfg), "train", "--out", str(spot)]) == 0
    assert (spot / "runs" / "joint" / "stage_2.ckpt").exists()


def test_module_invocation_help():
    res = subprocess.run(
        [sys.executable, "-m", "ilseg.cli", "--help"],
        capture_output=True, text=True,
    )
    assert res.returncode == 0
    assert "gen-data" in res.stdout


# malformed JSON documents end in exit 2, never a traceback


@pytest.mark.parametrize(
    "doc, message",
    [
        (5, "top level must be an object"),
        ({"version": 1, "seed": 0, "categories": [], "samples": []}, "categories"),
        ({"version": 1, "seed": 0, "categories": {"1": "lobe"}, "samples": [1]}, "sample entry"),
    ],
)
def test_eval_malformed_manifest_exits_2(experiment, tmp_path, capsys, doc, message):
    root, _ = experiment
    man = tmp_path / "manifest.json"
    man.write_text(json.dumps(doc))
    assert CLI.main([
        "eval",
        "--checkpoint", str(root / "runs" / "full" / "stage_1.ckpt"),
        "--manifest", str(man),
        "--out", str(tmp_path / "e.csv"),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_gen_data_non_list_modes_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json", modes=5)
    assert CLI.main(["--config", str(cfg), "gen-data", "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "modes must be a list of strings" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


_EVAL_CSVS = {
    "full/stage_1.csv": "stage,category,DC,HD95,degenerate\n1,lobe,0.912345,1.414214,0\n1,disc,,,absent\n"
                        "1,mean,0.912345,1.414214,0\n",
    "full/stage_2.csv": "stage,category,DC,HD95,degenerate\n2,lobe,0.800000,2.000000,1\n2,disc,0.500000,3.000000,0\n"
                        "2,mean,0.650000,2.500000,1\n",
    "ft/stage_2.csv": "stage,category,DC,HD95,degenerate\n2,lobe,0.000000,45.254834,2\n2,disc,0.700000,1.000000,0\n"
                      "2,mean,0.350000,23.127417,2\n",
}


def _write_evals(root, texts):
    for rel, text in texts.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_bytes(text if isinstance(text, bytes) else text.encode())
    return root


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda t: t.replace("DC,HD95", "HD95"), "header must be stage,category,DC,HD95,degenerate"),
        (lambda t: t.replace("1,lobe,0.912345,1.414214,0", "1,lobe,0.912345"), "stage_1.csv:2: expected 5 fields, got 3"),
        (lambda t: t.replace("0.912345,1.414214,0\n1,disc", "7.5,1.414214,0\n1,disc"), "stage_1.csv:2: DC 7.5 is outside [0, 1]"),
        (lambda t: t.replace(",1.414214,0\n1,disc", ",-1,0\n1,disc"), "stage_1.csv:2: HD95 -1.0 is not a finite number >= 0"),
        (lambda t: t.replace(",1.414214,0\n1,disc", ",nan,0\n1,disc"), "stage_1.csv:2: HD95 nan is not a finite number >= 0"),
        (lambda t: t.replace("1.414214,0\n1,disc", "1.414214,-1\n1,disc"), "stage_1.csv:2: degenerate count -1 is negative"),
        (lambda t: t.replace("1.414214,0\n1,disc", "1.414214,x\n1,disc"), "stage_1.csv:2: invalid literal for int() with base 10: 'x'"),
        (lambda t: t.replace("1,disc,,,absent", "1,disc,,,3"), "stage_1.csv:3: could not convert string to float: ''"),
        (lambda t: t.replace("1,disc,,,absent", "1,disc,x,1,absent"), "stage_1.csv:3: could not convert string to float: 'x'"),
    ],
)
def test_report_malformed_eval_csv_exits_2(tmp_path, capsys, edit, message):
    evals = _write_evals(tmp_path / "evals", {"full/stage_1.csv": edit(_EVAL_CSVS["full/stage_1.csv"])})
    assert CLI.main(["report", "--runs", str(evals), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "r").exists()


# fuzzing: any document or eval tree ends in a documented exit code, never an exception

_FUZZ_DOC = {
    "seed": 1,
    "data": {"image_size": 16, "train_count": 1, "val_count": 1, "test_count": 1, "full_val_count": 1, "full_test_count": 1},
    "model": {"depth": 1, "base_channels": 2, "feature_channels": 2},
    "modes": ["full", "woMem", "ft", "joint"],
    "stages": [{"new_categories": [1], "epochs": 1, "lr": 0.001}, {"new_categories": [2], "epochs": 1, "lambda_kd": 2}],
}
# Type swaps and extremes. Positive integers stay small: a valid large
# count or size asks for that much work, which is not an error.
_MUTANTS = st.sampled_from([
    None, True, False, "", "x", "3", "false", "full", 0, 1, 2, -1, -(2**63), 0.5, 1.0, 2.5, 16.0,
    1e308, -1e308, float("nan"), float("inf"), [], [1], [1.5], [1, 1], ["full"], {}, {"x": 1},
])
_EXIT_CODES = (0, 2, 3, 4, 5)


def _slots(node):
    """(container, key) of every value inside a JSON document."""
    out = []
    for key, value in list(node.items() if isinstance(node, dict) else enumerate(node)):
        out.append((node, key))
        if isinstance(value, (dict, list)):
            out.extend(_slots(value))
    return out


def _mutate(data, doc):
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        slots = _slots(doc)
        if not slots:
            break
        node, key = data.draw(st.sampled_from(slots), label="slot")
        if data.draw(st.booleans(), label="delete"):
            del node[key]
        else:
            node[key] = data.draw(_MUTANTS, label="value")
    return doc


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_config_fuzz_exits_with_a_documented_code(tmp_path_factory, data):
    root = tmp_path_factory.mktemp("fuzzcfg")
    doc = _mutate(data, json.loads(json.dumps(_FUZZ_DOC)))
    cfg = root / "c.json"
    cfg.write_text(json.dumps(doc))
    out = root / "o"
    argv = ["--quiet", "--config", str(cfg)]
    try:
        CLI.load_experiment_config(cfg)
    except CLI.ConfigError:
        assert CLI.main(argv + ["gen-data", "--out", str(out)]) == 2
        assert not out.exists()
        return
    if not (isinstance(doc.get("data"), dict) and doc["data"].keys() >= _FUZZ_DOC["data"].keys()):
        return  # a deleted size or count falls back to the full-size default: valid, only slow
    for command in ("gen-data", "train"):
        rc = CLI.main(argv + [command, "--out", str(out)])
        assert rc in _EXIT_CODES
        if rc:
            break


_CELLS = st.sampled_from(["", "x", "nan", "inf", "-1", "7.5", "0.5", "1e400", "absent", "mean", "3", "-0", " 1", "\0"])


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_report_fuzz_exits_with_a_documented_code(tmp_path_factory, data):
    texts = dict(_EVAL_CSVS)
    for _ in range(data.draw(st.integers(0, 3), label="edits")):
        rel = data.draw(st.sampled_from(sorted(texts)), label="file")
        rows = [line.split(",") for line in texts[rel].splitlines()]
        if not rows:
            continue
        i = data.draw(st.integers(0, len(rows) - 1), label="row")
        op = data.draw(st.sampled_from(["cell", "drop row", "drop column", "extra cell"]), label="op")
        if op == "drop row":
            del rows[i]
        elif op == "extra cell":
            rows[i].append(data.draw(_CELLS, label="cell"))
        elif rows[i]:
            j = data.draw(st.integers(0, len(rows[i]) - 1), label="column")
            if op == "cell":
                rows[i][j] = data.draw(_CELLS, label="cell")
            else:
                for row in rows:
                    del row[j : j + 1]
        texts[rel] = "".join(",".join(row) + "\n" for row in rows)
    raw = data.draw(st.none() | st.binary(max_size=24), label="raw file")
    if raw is not None:
        texts["full/stage_1.csv"] = raw
    root = tmp_path_factory.mktemp("fuzzeval")
    evals = _write_evals(root / "evals", texts)
    assert CLI.main(["--quiet", "report", "--runs", str(evals), "--out", str(root / "r")]) in _EXIT_CODES
