"""End-to-end tests for the command-line interface."""

import argparse
import contextlib
import csv
import fractions
import io
import itertools
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qsmote
from qsmote import cli, data, demo, pipeline
from qsmote.errors import DataError


RAW_CSV = (
    "age,plan,label\n"
    "31,basic,no\n45,premium,yes\n22,basic,no\n58,basic,no\n"
    "40,premium,no\n29,basic,no\n35,basic,yes\n50,premium,no\n"
)
CONFIG_YAML = (
    "version: 1\n"
    "columns:\n"
    "  - {name: age, kind: numeric-binned, bins: 'equal-width:3'}\n"
    "  - {name: plan, kind: categorical}\n"
    "  - {name: label, kind: target}\n"
)


@pytest.fixture
def raw(tmp_path):
    raw_path = tmp_path / "raw.csv"
    raw_path.write_text(RAW_CSV)
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(CONFIG_YAML)
    return raw_path, cfg_path


@pytest.fixture
def encoded(tmp_path):
    """A 10%-minority encoded dataset ready for smote/evaluate."""
    X, y = demo.make_imbalanced_dataset(n_rows=200, seed=7)
    path = tmp_path / "encoded.csv"
    demo.write_dataset_csv(X, y, path)
    return path


def test_preprocess_writes_output_and_manifest(raw, tmp_path):
    raw_path, cfg_path = raw
    out = tmp_path / "out.csv"
    code = cli.main(["preprocess", str(raw_path), str(out), "--config", str(cfg_path)])
    assert code == 0
    assert out.exists()
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    assert manifest["params"]["command"] == "preprocess"
    assert str(out) in manifest["outputs"]


def test_preprocess_level_order_does_not_depend_on_the_hash_seed(tmp_path):
    # a nan level and the float-equal levels 0 and -0 used to be ordered by
    # set iteration, which follows the per-process string hash seed
    raw_path = tmp_path / "raw.csv"
    raw_path.write_text("a,b,label\n1,0,x\nnan,-0,y\n0,-0,x\n2,0,y\n3,0,x\n-1,-0,y\n")
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(
        "version: 1\ncolumns:\n"
        "  - {name: a, kind: categorical}\n"
        "  - {name: b, kind: categorical}\n"
        "  - {name: label, kind: target}\n"
    )
    outputs = set()
    for hash_seed in range(1, 7):
        out = tmp_path / f"out{hash_seed}.csv"
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
                   PYTHONPATH=str(Path(qsmote.__file__).parents[1]))
        subprocess.run(
            [sys.executable, "-m", "qsmote.cli", "preprocess", str(raw_path), str(out),
             "--config", str(cfg_path)],
            env=env, check=True, capture_output=True,
        )
        outputs.add(out.read_bytes())
    assert len(outputs) == 1
    # numeric order with nan last; equal values by their text ("-0" < "0")
    assert outputs.pop() == b"a,b,label\r\n2,1,0\r\n5,0,1\r\n1,0,0\r\n3,1,1\r\n4,1,0\r\n0,0,1\r\n"


def test_preprocess_missing_column_exits_2_and_names_it(raw, tmp_path, capsys):
    raw_path, _ = raw
    bad_cfg = tmp_path / "bad.yaml"
    bad_cfg.write_text(
        "version: 1\ncolumns:\n"
        "  - {name: age, kind: numeric-raw}\n"
        "  - {name: missing_col, kind: numeric-raw}\n"
        "  - {name: label, kind: target}\n"
    )
    out = tmp_path / "out.csv"
    code = cli.main(["preprocess", str(raw_path), str(out), "--config", str(bad_cfg)])
    assert code == 2
    assert "missing_col" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "columns, message",
    [
        ("columns: [\n", "is not valid YAML"),
        ("columns:\n  - {kind: numeric-raw}\n", "column entry 1 must be a mapping with a name"),
        ("columns:\n  - age\n", "column entry 1 must be a mapping with a name, got 'age'"),
        (
            "columns:\n  - {name: age, kind: numeric-binned, bins: 5}\n",
            "bins 5 are not 'equal-width:k' or a list of edges (column 'age')",
        ),
        (
            "columns:\n  - {name: age, kind: numeric-binned, bins: [a, b]}\n",
            "bins ['a', 'b'] are not",
        ),
        ("columns:\n  - {name: age, kind: numeric-binned}\n", "bins None are not"),
        ("columns:\n  - {name: age}\n", "unknown column kind None (column 'age')"),
        (
            "columns:\n  - {name: age, kind: numeric-raw, missing: 5}\n"
            "  - {name: plan, kind: categorical}\n  - {name: label, kind: target}\n",
            "unknown missing policy 5 (column 'age')",
        ),
        ("columns: 5\n", "a list of columns"),
        (
            "columns:\n  - {name: age, kind: id}\n  - {name: plan, kind: id}\n  - {name: label, kind: target}\n",
            "config must declare at most one id column (column 'plan')",
        ),
    ],
    ids=["yaml", "no-name", "string-entry", "bins-int", "bins-text", "no-bins", "no-kind",
         "missing-int", "columns-int", "two-ids"],
)
def test_preprocess_bad_config_exits_2_without_traceback(raw, tmp_path, capsys, columns, message):
    raw_path, _ = raw
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("version: 1\n" + columns)
    out = tmp_path / "out.csv"
    assert cli.main(["preprocess", str(raw_path), str(out), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_smote_negative_shots_exits_2_before_reading_input(tmp_path, capsys):
    out = tmp_path / "aug.csv"
    argv = ["smote", str(tmp_path / "ghost.csv"), str(out), "--target-percent", "30"]
    assert cli.main(argv + ["--shots", "-1"]) == 2
    assert "shots must be >= 0, got -1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    # a non-finite or nonpositive split factor, or a non-finite or negative
    # multiplier, would write NaN or wrong records: nothing below this gate
    # checks them again. Shots past int64 overflow the binomial draw
    for flag, value, message in [
        ("--sf", "nan", "split factor must be positive, got nan"),
        ("--sf", "0", "split factor must be positive, got 0.0"),
        ("--sf", "-2", "split factor must be positive, got -2.0"),
        ("--boost-multiplier", "-1", "boost multiplier must be finite and >= 0, got -1.0"),
        ("--boost-multiplier", "nan", "boost multiplier must be finite and >= 0, got nan"),
        ("--boost-multiplier", "inf", "boost multiplier must be finite and >= 0, got inf"),
        ("--shots", str(2**63), f"shots must be < 2**63, got {2**63}"),
    ]:
        assert cli.main(argv + [flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bins", ["100000000000", "10001", "0"])
def test_smote_bins_out_of_range_exits_2_before_reading_input(encoded, tmp_path, capsys, bins):
    # 1e11 bins used to end in a MemoryError from the histogram edges
    out = tmp_path / "aug.csv"
    argv = ["smote", str(encoded), str(out), "--target-percent", "40", "--aol", "--bins", bins]
    before = sorted(tmp_path.iterdir())
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"bins must be between 1 and 10000, got {bins}" in err
    assert sorted(tmp_path.iterdir()) == before
    # the count is checked before the input is read
    ghost = tmp_path / "ghost.csv"
    assert cli.main(["smote", str(ghost)] + argv[2:]) == 2
    assert f"got {bins}" in capsys.readouterr().err
    # the ceiling itself is a valid bin count
    assert cli.main(argv[:-1] + ["10000"]) == 0


@pytest.mark.parametrize(
    "command", [["smote", "--target-percent", "99.9999999"], ["evaluate", "--grid", "99.9999999"]],
    ids=["smote", "evaluate"],
)
def test_target_past_the_pass_limit_exits_2(encoded, tmp_path, capsys, command):
    # the budget needs about 9e9 passes over the minority rows; their keys
    # used to be allocated (terabytes) before `keyed` could reject them
    out = tmp_path / "out.csv"
    assert cli.main([command[0], str(encoded), str(out), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: target 99.9999999% needs ")
    assert err.endswith(" passes; a pass number must fit 32 bits\n")
    assert [p.name for p in tmp_path.iterdir()] == ["encoded.csv"]


@pytest.mark.parametrize(
    "command, module, name",
    [
        (["smote", "--target-percent", "30"], pipeline, "augment_grid"),
        (["evaluate", "--grid", "30"], pipeline, "augment_grid"),
        (["smote", "--target-percent", "30"], data, "write_augmented"),
    ],
    ids=["smote", "evaluate", "smote-staged"],
)
def test_out_of_memory_exits_1_and_leaves_no_files(encoded, tmp_path, capsys, monkeypatch, command, module, name):
    def fail(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(module, name, fail)
    out = tmp_path / "out.csv"
    assert cli.main([command[0], str(encoded), str(out), *command[1:]]) == 1
    assert capsys.readouterr().err == "error: out of memory\n"
    assert [p.name for p in tmp_path.iterdir()] == ["encoded.csv"]


@pytest.mark.parametrize("command", [["smote", "--target-percent", "40"], ["evaluate"]], ids=["smote", "evaluate"])
def test_negative_seed_exits_2_before_reading_input(tmp_path, capsys, command):
    argv = command + [str(tmp_path / "ghost.csv"), str(tmp_path / "out.csv"), "--seed", "-1"]
    assert cli.main(argv) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_seeds_of_several_words_run_through_every_keyed_path(encoded, tmp_path):
    seed = str(2**64 + 3)
    aug = tmp_path / "aug.csv"
    argv = ["smote", str(encoded), str(aug), "--target-percent", "40", "--aol", "--shots", "1000"]
    assert cli.main(argv + ["--seed", seed]) == 0
    assert json.loads((tmp_path / "aug.manifest.json").read_text())["params"]["seed"] == 2**64 + 3
    report = tmp_path / "report.csv"
    assert cli.main(["evaluate", str(encoded), str(report), "--grid", "30,40", "--aol-mode", "on", "--seed", seed]) == 0
    assert len(report.read_text().splitlines()) == 4


def test_preprocess_is_idempotent(raw, tmp_path):
    raw_path, cfg_path = raw
    once = tmp_path / "once.csv"
    twice = tmp_path / "twice.csv"
    assert cli.main(["preprocess", str(raw_path), str(once), "--config", str(cfg_path)]) == 0
    assert cli.main(["preprocess", str(once), str(twice), "--config", str(cfg_path)]) == 0
    assert once.read_bytes() == twice.read_bytes()


def test_smote_outputs_and_achieved_percent(encoded, tmp_path):
    out = tmp_path / "aug.csv"
    code = cli.main(
        ["smote", str(encoded), str(out), "--target-percent", "30", "--seed", "1"]
    )
    assert code == 0
    assert out.exists()
    assert (tmp_path / "aug.angles.svg").exists()
    assert (tmp_path / "aug.angles.csv").exists()
    manifest = json.loads((tmp_path / "aug.manifest.json").read_text())
    assert 29.8 <= manifest["achieved_minority_percent"] <= 30.2
    with open(out) as fh:
        header = next(csv.reader(fh))
    assert header[-5:] == ["angular_distance", "rotation_angle", "synthetic", "boosted", "source_row_id"]


def test_smote_repeat_runs_are_byte_identical(encoded, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.csv"
        code = cli.main(
            ["smote", str(encoded), str(out), "--target-percent", "34", "--seed", "5"]
        )
        assert code == 0
        outs.append(out)
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert (tmp_path / "a.angles.svg").read_bytes() == (tmp_path / "b.angles.svg").read_bytes()
    assert (tmp_path / "a.angles.csv").read_bytes() == (tmp_path / "b.angles.csv").read_bytes()


def test_smote_aol_without_outliers_matches_plain_run(tmp_path):
    # identical minority rows share one angular distance, so the IQR is
    # zero, no outliers exist, and the boost is vacuous
    rng = np.random.default_rng(0)
    X = rng.uniform(1.0, 1.2, size=(100, 4))
    X[:10] = 2.0
    y = np.r_[np.ones(10, dtype=int), np.zeros(90, dtype=int)]
    src = tmp_path / "flat.csv"
    demo.write_dataset_csv(X, y, src)
    plain = tmp_path / "plain.csv"
    boosted = tmp_path / "boosted.csv"
    assert cli.main(["smote", str(src), str(plain), "--target-percent", "30"]) == 0
    assert cli.main(["smote", str(src), str(boosted), "--target-percent", "30", "--aol"]) == 0
    assert plain.read_bytes() == boosted.read_bytes()


def test_smote_invalid_target_exits_2_and_cleans_up(encoded, tmp_path, capsys):
    out = tmp_path / "aug.csv"
    code = cli.main(["smote", str(encoded), str(out), "--target-percent", "5"])
    assert code == 2
    assert capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "aug.manifest.json").exists()


def _existing_outputs(paths):
    for i, p in enumerate(paths):
        p.write_text(f"earlier run {i}\n")
    return {p: p.read_bytes() for p in paths}


def test_failed_smote_keeps_existing_outputs(encoded, tmp_path):
    out = tmp_path / "aug.csv"
    names = ["aug.angles.svg", "aug.angles.csv", "aug.manifest.json"]
    before = _existing_outputs([out] + [tmp_path / name for name in names])
    assert cli.main(["smote", str(encoded), str(out), "--target-percent", "5"]) == 2
    assert {p: p.read_bytes() for p in before} == before


def test_smote_failing_after_the_csv_keeps_existing_outputs(encoded, tmp_path, monkeypatch):
    # the augmented CSV is written before the histogram fails
    def fail(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(data, "emit_histogram", fail)
    out = tmp_path / "aug.csv"
    names = ["aug.angles.svg", "aug.angles.csv", "aug.manifest.json"]
    before = _existing_outputs([out] + [tmp_path / name for name in names])
    assert cli.main(["smote", str(encoded), str(out), "--target-percent", "30"]) == 1
    assert {p: p.read_bytes() for p in before} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["encoded.csv", "aug.csv", *names])


def _edit_row(path, row, edit):
    lines = path.read_text().splitlines()
    lines[row] = ",".join(edit(lines[row].split(",")))
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda cells: ["nan"] + cells[1:], "non-finite cell 'nan' (row 3, column 'f0')"),
        (lambda cells: cells[:1] + ["inf"] + cells[2:], "non-finite cell 'inf' (row 3, column 'f1')"),
        (lambda cells: cells[:1] + ["x"] + cells[2:], "unparsable numeric cell 'x' (row 3, column 'f1')"),
        (lambda cells: cells[:-1] + ["0.7"], "non-integer label '0.7' (row 3, column 'label')"),
        (lambda cells: cells[:-1] + ["1e19"], "label '1e19' is outside the int64 range (row 3, column 'label')"),
        (lambda cells: cells[:-1] + ["-1e19"], "label '-1e19' is outside the int64 range (row 3, column 'label')"),
        (lambda cells: cells[:-1] + ["9007199254740993"],
         "label '9007199254740993' has no exact float64 value (row 3, column 'label')"),
        (lambda cells: cells[:-1], "8 cells where the header has 9 (row 3)"),
        (lambda cells: ["1" * 200_000] + cells[1:], "field larger than field limit (131072) (row 3)"),
    ],
    ids=["nan", "inf", "non-numeric", "fractional-label", "huge-label", "huge-negative-label", "inexact-label",
         "ragged", "long-cell"],
)
def test_smote_rejects_bad_cells_at_load(encoded, tmp_path, capsys, edit, message):
    _edit_row(encoded, 3, edit)
    out = tmp_path / "aug.csv"
    assert cli.main(["smote", str(encoded), str(out), "--target-percent", "30"]) == 2
    assert message in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["encoded.csv"]


def test_preprocess_cell_past_the_csv_field_limit_exits_2(raw, tmp_path, capsys):
    raw_path, cfg_path = raw
    _edit_row(raw_path, 2, lambda cells: cells[:1] + ["p" * 200_000] + cells[2:])
    out = tmp_path / "out.csv"
    assert cli.main(["preprocess", str(raw_path), str(out), "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == "error: field larger than field limit (131072) (row 2)\n"
    assert not out.exists()


def test_smote_reads_labels_to_2_53_and_past_it_only_exact_ones(tmp_path, capsys):
    # 2**53 + 1 has no float64: it used to load, and be written back, as 2**53
    text = "f0,label\n1,{}\n2,0\n3,0\n4,0\n5,0\n6,0\n"
    for label, quote in itertools.product([2**53, 2**60, -(2**62)], ["", '"']):
        path = tmp_path / "exact.csv"
        path.write_text(text.format(f"{quote}{label}{quote}"))
        assert data.load_encoded(path, "label").y.tolist() == [label, 0, 0, 0, 0, 0]
    path = tmp_path / "inexact.csv"
    path.write_text(text.format(2**53 + 1))
    out = tmp_path / "aug.csv"
    assert cli.main(["smote", str(path), str(out), "--target-percent", "40"]) == 2
    assert capsys.readouterr().err == (
        "error: label '9007199254740993' has no exact float64 value (row 1, column 'label')\n"
    )
    assert not out.exists()


def test_preprocess_short_row_exits_2(raw, tmp_path, capsys):
    raw_path, cfg_path = raw
    _edit_row(raw_path, 2, lambda cells: cells[:-1])
    out = tmp_path / "out.csv"
    assert cli.main(["preprocess", str(raw_path), str(out), "--config", str(cfg_path)]) == 2
    assert "2 cells where the header has 3 (row 2)" in capsys.readouterr().err
    assert not out.exists()


_A_LABEL_CONFIG = "version: 1\ncolumns:\n  - {name: a, kind: numeric-raw}\n  - {name: label, kind: target}\n"


@pytest.mark.parametrize(
    "text, config, column",
    [
        ("a,a,label\n1,10,0\n2,20,1\n3,30,0\n", _A_LABEL_CONFIG, "a"),
        ("a,label\n1,0\n2,1\n3,0\n", _A_LABEL_CONFIG + "  - {name: a, kind: categorical}\n", "a"),
        ("label,f,label\n0,1,0\n1,2,1\n0,3,0\n", None, "label"),
    ],
    ids=["raw-header", "config", "encoded-header"],
)
def test_duplicate_column_names_exit_2_and_name_the_column(tmp_path, capsys, text, config, column):
    src = tmp_path / "in.csv"
    src.write_text(text)
    out = tmp_path / "out.csv"
    if config is None:
        argv = ["smote", str(src), str(out), "--target-percent", "40"]
    else:
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(config)
        argv = ["preprocess", str(src), str(out), "--config", str(cfg)]
    assert cli.main(argv) == 2
    assert f"duplicate column name (column {column!r})" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["smote", "--target-percent", "40"], ["evaluate"]], ids=["smote", "evaluate"])
@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty file"),
        (None, "no such file"),
        ("label\n0\n1\n0\n0\n", "no feature columns"),
        # every label used to become -2**63: one class, so "need 0 < minority < total"
        ("a,label\n1,2e19\n2,1e19\n3,1e19\n", "label '2e19' is outside the int64 range (row 1, column 'label')"),
    ],
    ids=["empty", "missing", "target-only", "huge-labels"],
)
def test_unusable_encoded_input_exits_2(tmp_path, capsys, command, text, message):
    src = tmp_path / "in.csv"
    if text is not None:
        src.write_text(text)
    out = tmp_path / "out.csv"
    assert cli.main(command + [str(src), str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_zero_minority_row_exits_2_and_names_its_file_row(tmp_path, capsys):
    src = tmp_path / "in.csv"
    src.write_text("a,b,label\n1,2,0\n3,4,0\n5,6,0\n0,0,1\n7,8,1\n2,9,0\n")
    out = tmp_path / "out.csv"
    assert cli.main(["smote", str(src), str(out), "--target-percent", "45"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "all-zero minority row" in err and "(row 4)" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, row",
    [
        ("a,b,label\n1e308,1e308,1\n1e308,1e308,0\n1e308,1e308,0\n1e308,1e308,0\n", 1),
        ("a,b,label\n1,2,0\n1e154,1e154,1\n3,4,0\n5,6,0\n2,2,1\n7,8,0\n", 2),
        ("a,b,label\n1,2,0\n3,4,0\n1e-320,0,1\n5,6,0\n2,2,1\n7,8,0\n", 3),
    ],
    ids=["1e308-table", "1e154-row", "1e-320-row"],
)
@pytest.mark.parametrize("shots", ["0", "100"])
def test_minority_norm_out_of_range_exits_2_and_names_its_file_row(tmp_path, capsys, text, row, shots):
    # a squared norm that overflows, alone or with the centroid's, or
    # underflows to 0 has no amplitude encoding
    src = tmp_path / "in.csv"
    src.write_text(text)
    out = tmp_path / "out.csv"
    assert cli.main(["smote", str(src), str(out), "--target-percent", "45", "--shots", shots]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"(row {row})" in err
    assert not out.exists()
    assert not out.with_suffix(".manifest.json").exists()


@pytest.mark.parametrize(
    "text, target",
    [
        ("a,b,label\n1,1,1\n-1,-1,0\n2,-2,0\n-2,2,0\n3,3,0\n-3,-3,0\n", "30"),
        ("a,b,label\n1,2,1\n1e308,1e308,0\n3,4,0\n5,6,0\n2,2,1\n7,8,0\n", "45"),
    ],
    ids=["zero-centroid", "1e308-majority-row"],
)
def test_centroid_out_of_range_exits_2_and_names_the_centroid(tmp_path, capsys, text, target):
    # every column mean is exactly 0, or a majority row's magnitude makes
    # the centroid's squared norm overflow: no minority row is at fault
    src = tmp_path / "in.csv"
    src.write_text(text)
    out = tmp_path / "out.csv"
    assert cli.main(["smote", str(src), str(out), "--target-percent", target]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "centroid" in err and "(row" not in err
    assert not out.exists()
    assert not out.with_suffix(".manifest.json").exists()


@pytest.mark.parametrize(
    "bins, message, column",
    [
        (None, "target column missing", "nope"),
        ("'equal-width:0'", "bad bin scheme 'equal-width:0'", "age"),
        ("[0, 2, 1]", "bin edges must be strictly increasing", "age"),
    ],
    ids=["smote-target-column", "preprocess-bin-scheme", "preprocess-bin-edges"],
)
def test_bad_column_input_exits_2_and_names_the_column(raw, encoded, tmp_path, capsys, bins, message, column):
    out = tmp_path / "out.csv"
    if bins is None:
        argv = ["smote", str(encoded), str(out), "--target-percent", "30", "--target-column", "nope"]
    else:
        raw_path, cfg_path = raw
        cfg_path.write_text(CONFIG_YAML.replace("'equal-width:3'", bins))
        argv = ["preprocess", str(raw_path), str(out), "--config", str(cfg_path)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{message} (column {column!r})" in err
    assert not out.exists()
    assert not out.with_suffix(".manifest.json").exists()


def test_failed_evaluate_keeps_existing_outputs(encoded, tmp_path):
    report = tmp_path / "report.csv"
    before = _existing_outputs([report, tmp_path / "report.manifest.json"])
    assert cli.main(["evaluate", str(encoded), str(report), "--k", "1000"]) == 2
    assert {p: p.read_bytes() for p in before} == before


def test_failed_evaluate_removes_only_the_outputs_it_created(encoded, tmp_path, monkeypatch):
    # the run fails after writing a new report: the report goes, the
    # manifest of an earlier run stays
    def fail(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "_write_manifest", fail)
    report = tmp_path / "report.csv"
    before = _existing_outputs([tmp_path / "report.manifest.json"])
    assert cli.main(["evaluate", str(encoded), str(report)]) == 1
    assert not report.exists()
    assert {p: p.read_bytes() for p in before} == before


def test_threads_flag_is_gone(capsys):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["--threads=2", "evaluate", "in.csv", "out.csv"])
    assert "unrecognized arguments: --threads=2" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--estimator", "standard"], ["--no-rescale"]], ids=["estimator", "no-rescale"])
def test_legacy_smote_flags_are_gone(encoded, tmp_path, capsys, flag):
    out = tmp_path / "aug.csv"
    assert cli.main(["smote", str(encoded), str(out), "--target-percent", "30", *flag]) == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()


def test_boost_multiplier_changes_the_config_hash(tmp_path):
    # seven planted near-axis minority rows give a thin low-side bin, so
    # the multiplier moves the boosted records
    X, y = demo.make_imbalanced_dataset(n_rows=300)
    for i, m in zip(np.nonzero(y == 1)[0], [1, 1, 1, 1, 1, 1, 2]):
        X[i] = 0.05
        X[i, :m] = 5.0
    src = tmp_path / "planted.csv"
    demo.write_dataset_csv(X, y, src)
    runs = []
    for multiplier in ("1.5", "3.0"):
        out = tmp_path / f"aug-{multiplier}.csv"
        argv = ["smote", str(src), str(out), "--target-percent", "20", "--seed", "3", "--aol", "--bins", "3"]
        assert cli.main(argv + ["--boost-multiplier", multiplier]) == 0
        runs.append((out.read_bytes(), json.loads(out.with_suffix(".manifest.json").read_text())))
    assert runs[0][0] != runs[1][0]
    assert runs[0][1]["config_hash"] != runs[1][1]["config_hash"]
    assert [m["params"]["boost_multiplier"] for _, m in runs] == [1.5, 3.0]
    # a nan multiplier would boost these bins into non-finite records
    out = tmp_path / "aug-nan.csv"
    argv = ["smote", str(src), str(out), "--target-percent", "20", "--seed", "3", "--aol", "--bins", "3"]
    assert cli.main(argv + ["--boost-multiplier", "nan"]) == 2
    assert not list(tmp_path.glob("aug-nan*"))


def test_a_minority_label_other_than_1_augments_as_the_0_1_coding(tmp_path):
    # the planted demo data of the boost multiplier test, its labels recoded
    # 1 -> 0 (the minority) and 0 -> 7
    X, y = demo.make_imbalanced_dataset(n_rows=300)
    for i, m in zip(np.nonzero(y == 1)[0], [1, 1, 1, 1, 1, 1, 2]):
        X[i] = 0.05
        X[i, :m] = 5.0
    tables = []
    for name, labels in (("01", y), ("70", np.where(y == 1, 0, 7))):
        src, out = tmp_path / f"planted-{name}.csv", tmp_path / f"aug-{name}.csv"
        demo.write_dataset_csv(X, labels, src)
        argv = ["smote", str(src), str(out), "--target-percent", "20", "--seed", "3", "--aol", "--bins", "3"]
        assert cli.main(argv) == 0
        with open(out, newline="", encoding="utf-8") as fh:
            tables.append(list(csv.reader(fh)))
    t = X.shape[1]
    plain, recoded = ([row[:t] + row[t + 1:] for row in table] for table in tables)
    assert plain == recoded
    assert any(row[-2] == "1" for row in plain[1:])  # some records were boosted
    labels = [row[t] for row in tables[1][1:]]
    assert labels == [str(v) for v in np.where(y == 1, 0, 7)] + ["0"] * (len(labels) - len(y))


@pytest.mark.parametrize("command", [["smote", "--target-percent", "30"], ["evaluate"]], ids=["smote", "evaluate"])
def test_target_column_changes_the_config_hash(encoded, tmp_path, command):
    renamed = tmp_path / "renamed.csv"
    header, rest = encoded.read_text().split("\n", 1)
    renamed.write_text(header.replace("label", "churn") + "\n" + rest)
    hashes = []
    for src, target in ((encoded, "label"), (renamed, "churn")):
        out = tmp_path / f"out-{target}.csv"
        assert cli.main([command[0], str(src), str(out), "--target-column", target, *command[1:]]) == 0
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        assert manifest["params"]["target_column"] == target
        hashes.append(manifest["config_hash"])
    assert hashes[0] != hashes[1]


def _subparsers():
    action = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_manifest_params_are_the_parsed_options(raw, encoded, tmp_path):
    # every option but the paths and --assert-trend is a run parameter
    raw_path, cfg_path = raw
    argvs = {
        "preprocess": [str(raw_path), "--config", str(cfg_path)],
        "smote": [str(encoded), "--target-percent", "30"],
        "evaluate": [str(encoded), "--grid", "30"],
    }
    subparsers = _subparsers()
    assert sorted(subparsers) == sorted(argvs)
    for command, parser in subparsers.items():
        out = tmp_path / f"{command}.csv"
        argv = argvs[command]
        assert cli.main([command, argv[0], str(out), *argv[1:]]) == 0
        params = json.loads(out.with_suffix(".manifest.json").read_text())["params"]
        dests = {a.dest for a in parser._actions if a.dest != "help"}
        want = dests - set(cli._NOT_PARAMS) | {"command"} | ({"seed"} if command == "preprocess" else set())
        assert set(params) == want, command
        assert params["command"] == command


def test_evaluate_baseline_only(encoded, tmp_path):
    report = tmp_path / "report.csv"
    code = cli.main(["evaluate", str(encoded), str(report), "--seed", "0"])
    assert code == 0
    with open(report) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "target_percent"
    assert len(rows) == 2       # header + baseline
    assert rows[1][0] == ""     # baseline row has no target percent


def test_evaluate_grid_row_count(encoded, tmp_path):
    report = tmp_path / "grid.csv"
    code = cli.main(
        ["evaluate", str(encoded), str(report), "--grid", "30,36,42", "--seed", "0"]
    )
    assert code == 0
    with open(report) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 1 + 3 * 2   # header + baseline + grid x {aol off, on}


@pytest.mark.parametrize(
    "grid, entry",
    [("abc", "'abc'"), ("30,,40", "''"), ("30, 4o", "' 4o'")],
)
def test_evaluate_bad_grid_exits_2_and_names_the_entry(encoded, tmp_path, capsys, grid, entry):
    report = tmp_path / "grid.csv"
    assert cli.main(["evaluate", str(encoded), str(report), "--grid", grid]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"grid entry {entry}" in err
    assert not report.exists()


def test_evaluate_assert_trend_fails_on_baseline_only_run(encoded, tmp_path):
    report = tmp_path / "trend.csv"
    code = cli.main(
        ["evaluate", str(encoded), str(report), "--assert-trend", "--seed", "0"]
    )
    assert code == 1


def _scaled_table(path, factor):
    """40 normal rows of 3 columns (seed 1) times ``factor``, every fourth row labelled 1."""
    X = np.random.default_rng(1).normal(size=(40, 3)) * factor
    rows = [[*map(repr, row.tolist()), str(int(i % 4 == 0))] for i, row in enumerate(X)]
    path.write_text("\n".join(map(",".join, [["a", "b", "c", "label"], *rows])) + "\n")
    return path


def _evaluate_without_warnings(src, out):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return cli.main(["evaluate", str(src), str(out), "--k", "3"])


def test_evaluate_report_does_not_change_under_a_power_of_two_scale(tmp_path):
    # at 2**500 every squared distance still fits a float
    reports = []
    for name, factor in [("plain", 1.0), ("scaled", 2.0**500)]:
        out = tmp_path / f"{name}-report.csv"
        assert _evaluate_without_warnings(_scaled_table(tmp_path / f"{name}.csv", factor), out) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_evaluate_overflowing_neighbour_distance_exits_2(tmp_path, capsys):
    # at 2**520 the squared distance between any two distinct rows
    # overflows, so no neighbour list can be ranked; the run used to exit 0
    # with roc_auc 0.5 where the unscaled table gives 0.666667
    out = tmp_path / "report.csv"
    assert _evaluate_without_warnings(_scaled_table(tmp_path / "in.csv", 2.0**520), out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "overflows (row " in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv"]


def test_unknown_flag_is_an_error():
    assert cli.main(["evaluate", "in.csv", "out.csv", "--bogus"]) == 2


def test_help_exits_cleanly(capsys):
    assert cli.main(["--help"]) == 0
    assert "preprocess" in capsys.readouterr().out


def test_missing_input_file_is_a_runtime_error(tmp_path, capsys):
    code = cli.main(
        ["smote", str(tmp_path / "ghost.csv"), str(tmp_path / "o.csv"), "--target-percent", "30"]
    )
    assert code in (1, 2)
    assert capsys.readouterr().err


def _load_encoded_reference(path, target):
    """The whole-table loader the column-wise `data.load_encoded` must equal.

    It parses every cell in one pass, then searches the rows for the first
    non-numeric cell, then for the first non-finite one, then for the first
    label that is fractional, outside the int64 range, or from 2**53 up in
    magnitude and not its cell's exact value.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    if target not in header:
        raise DataError("target column missing", column=target)
    if len(rows) == 0:
        raise DataError(f"no data rows in {path}")
    for i, r in enumerate(rows, start=1):
        if len(r) != len(header):
            raise DataError(f"{len(r)} cells where the header has {len(header)}", row=i)
    try:
        cells = map(float, itertools.chain.from_iterable(rows))
        table = np.fromiter(cells, dtype=float, count=len(rows) * len(header))
    except ValueError:
        for i, r in enumerate(rows, start=1):
            for name, cell in zip(header, r):
                try:
                    float(cell)
                except ValueError:
                    raise DataError(f"non-numeric cell {cell!r}", row=i, column=name) from None
    table = table.reshape(len(rows), len(header))
    t = header.index(target)
    labels = table[:, t]
    bad = np.argwhere(~np.isfinite(table))
    if len(bad):
        i, j = bad[0]
        raise DataError(f"non-finite cell {rows[i][j]!r}", row=i + 1, column=header[j])
    for i, v in enumerate(labels.tolist(), start=1):
        if v % 1:
            raise DataError(f"non-integer label {rows[i - 1][t]!r}", row=i, column=target)
        if not -(2**63) <= int(v) < 2**63:
            raise DataError(f"label {rows[i - 1][t]!r} is outside the int64 range", row=i, column=target)
        if abs(v) >= 2**53 and fractions.Fraction(rows[i - 1][t]) != v:
            raise DataError(f"label {rows[i - 1][t]!r} has no exact float64 value", row=i, column=target)
    return data.Dataset(
        feature_names=[h for i, h in enumerate(header) if i != t],
        X=np.delete(table, t, axis=1),
        y=labels.astype(int),
        target_name=target,
    )


_FEATURE_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-50, 50).map(str),
    st.sampled_from([" 2 ", "+1e3", "-0", ".5", "1_0", "1e308", "2.0"]),
)
# the int64 range's ends as floats: -2**63, and the float below 2**63;
# 2**53 and 2**60, which float64 holds exactly, the latter also in
# exponent form
_LABEL_CELLS = st.one_of(
    st.integers(-3, 3).map(str),
    st.sampled_from(["1.0", " 0 ", "-0", "+2", "1e0", "-9223372036854775808", "9223372036854774784",
                     "9007199254740992", "1152921504606846976", "1.152921504606846976e18"]),
)
# the last seven are good features but labels that int64 cannot hold or
# float64 rounds
_BAD_CELLS = st.sampled_from(
    ["x", "", " ", "nan", "inf", "-Infinity", "1__0", "0.5", "1e19", "-1e19", "9223372036854775808", "-9.3e18",
     "9007199254740993", "-9223372036854775809", "9007199254740992.5"]
)


@st.composite
def _encoded_tables(draw):
    """An encoded CSV's text, the target anywhere in the header, with at most one bad cell.

    Some tables quote a cell, hold a blank line between rows or end their
    lines in CRLF or a bare CR; a table of no rows is header-only.
    """
    width = draw(st.integers(1, 4))
    header = [f"f{j}" for j in range(width)]
    t = draw(st.integers(0, width))
    header.insert(t, "label")
    n = draw(st.integers(0, 8))
    rows = [[draw(_LABEL_CELLS if j == t else _FEATURE_CELLS) for j in range(width + 1)] for _ in range(n)]
    if rows and draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, width))] = draw(_BAD_CELLS)
    if rows and draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, width))
        rows[i][j] = f'"{rows[i][j]}"'
    lines = list(map(",".join, [header] + rows))
    if rows and draw(st.booleans()):
        lines.insert(draw(st.integers(1, n)), "")
    end = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    return end.join(lines) + end


def _encoded_outcome(loader, path):
    try:
        return loader(path, "label")
    except DataError as exc:
        return exc


@settings(max_examples=300, deadline=None)
@given(text=_encoded_tables())
@example(text="f0,label\n")
@example(text='f0,label\r\n1,"0"\r\n\r\n2,1\r\n')
@example(text="f0,label\r1,0\r2,1\r")
@example(text="f0,label\n1,0\n2,1e19\n")
@example(text="f0,label\n1,-9223372036854775808\n2,9223372036854775808\n")
@example(text="f0,label\n1,9007199254740993\n2,1152921504606846976\n")
@example(text="f0,label\n1,1152921504606846976\n2,-9223372036854775809\n")
def test_load_encoded_equals_the_whole_table_reference(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("encoded") / "encoded.csv"
    path.write_bytes(text.encode())
    got = _encoded_outcome(data.load_encoded, path)
    want = _encoded_outcome(_load_encoded_reference, path)
    if isinstance(want, DataError):
        assert isinstance(got, DataError), got
        assert (got.row, got.column) == (want.row, want.column)
        assert str(got) == str(want).replace("non-numeric cell", "unparsable numeric cell")
        return
    assert not isinstance(got, DataError), got
    assert (got.feature_names, got.target_name) == (want.feature_names, want.target_name)
    assert (got.X.shape, got.X.dtype, got.X.tobytes()) == (want.X.shape, want.X.dtype, want.X.tobytes())
    assert (got.y.dtype, got.y.tolist()) == (want.y.dtype, want.y.tolist())


def test_header_only_encoded_file_is_no_data_rows_without_a_warning(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text("f0,label\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="no data rows"):
            data.load_encoded(path, "label")


def test_both_commands_load_through_the_seam_the_benchmark_patches():
    # the benchmark's id probe substitutes a loader through cli._load_encoded
    assert cli._load_encoded is data.load_encoded


@pytest.mark.parametrize(
    "text",
    [
        "f0,label\n1,0\n2,1\n\n",
        "f0,label\n1,0\n\n2,1\n",
        'f0,label\n"1\n",0\n2,1\n',
        "f0,label\n\x1c1,0\n2,1\n",
        "f0,label\n1_0,0\n2,1\n",
        "f0,label\n1,0,5\n2,1,6\n",
        '"f0",label\n1,0\n2,1\n',
        "f0,label\n1,0\n2,1\nnan,0\n",
        "f0,label\n\u0661,0\n2,1\n",
        "f0,label\n1e,0\n2,1\n",
        "f0,label\n1e999,0\n2,1\n",
        "f0,label\n1,0\n" + "1" * (csv.field_size_limit() + 1) + ",1\n",
        "f0,label\n1,0\n2," + "0" * csv.field_size_limit(),
    ],
    ids=["blank-last-line", "blank-inner-line", "quoted-newline", "c-only-space", "underscore", "wide-rows",
         "quoted-header", "nan-last-row", "non-ascii-digit", "loadtxt-rejects", "overflow", "long-line",
         "long-last-line"],
)
def test_read_float_table_hands_back_what_the_cell_route_may_read_differently(tmp_path, text):
    path = tmp_path / "encoded.csv"
    path.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert data.read_float_table(path) is None


@pytest.mark.parametrize("cell", ["nan", "x", "1_0", "\u0661", '"1"', " 1"])
def test_read_float_table_hands_back_a_foreign_character_before_the_parse(tmp_path, monkeypatch, cell):
    path = tmp_path / "encoded.csv"
    path.write_text("f0,label\n" + "1,0\n" * 3 + f"{cell},1\n", encoding="utf-8")
    monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: pytest.fail("np.loadtxt ran"))
    assert data.read_float_table(path) is None


def test_read_float_table_parses_an_encoded_table_with_crlf_lines(tmp_path):
    path = tmp_path / "encoded.csv"
    path.write_bytes(b"f0,label\r\n1.5,0\r\n-2,1\r\n")
    header, table = data.read_float_table(path)
    assert header == ["f0", "label"]
    assert (table.dtype, table.tolist()) == (np.float64, [[1.5, 0.0], [-2.0, 1.0]])


def test_evaluate_names_the_training_split_that_lacks_the_minority(tmp_path, capsys):
    # the one minority row always lands in the test split, so the training
    # split has none to augment; a baseline-only run still succeeds
    src = tmp_path / "one-minority.csv"
    src.write_text("a,b,label\n5,1,1\n" + "".join(f"{i},{i * 2 % 7},0\n" for i in range(7)))
    out = tmp_path / "report.csv"
    assert cli.main(["evaluate", str(src), str(out), "--grid", "30", "--k", "1"]) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: the training split holds 0 of the 1 minority rows among its 6 rows; "
        "augmenting it needs rows of both classes\n"
    )
    assert not out.exists()
    assert cli.main(["evaluate", str(src), str(out), "--grid", "", "--k", "1"]) == 0


_EXTREMES = st.sampled_from([0.0, 1e-320, -1e-320, 1e308, -1.7e308])


def _table_text(X, labels):
    """An encoded CSV's text: columns f0, f1, ... and a last label column."""
    header = [f"f{j}" for j in range(X.shape[1])] + ["label"]
    rows = [[*map(repr, row.tolist()), str(label)] for row, label in zip(X, labels)]
    return "\n".join(map(",".join, [header] + rows)) + "\n"


@st.composite
def _edge_tables(draw):
    """An encoded CSV's text of cells from 1e-320 to 1.7e308, maybe a zero row and a constant column, 1-3 labels.

    Each table draws one scale for its cells, so most tables are usable at
    that scale; one cell in eight is an extreme on its own. Half the tables
    are built to pass the augmentation gate instead (`_gate_passing_tables`).
    """
    if draw(st.booleans()):
        return draw(_gate_passing_tables())
    width, n = draw(st.integers(1, 3)), draw(st.integers(2, 12))
    n_labels = draw(st.sampled_from([1, 2, 2, 3]))
    scale = draw(st.one_of(st.just(1.0), st.floats(1e-320, 1.7e307)))

    def cell():
        return draw(st.floats(-10, 10)) * scale if draw(st.integers(0, 7)) else draw(_EXTREMES)

    X = np.array([[cell() for _ in range(width)] for _ in range(n)])
    if draw(st.booleans()):
        X[draw(st.integers(0, n - 1))] = 0.0
    if draw(st.booleans()):
        X[:, draw(st.integers(0, width - 1))] = cell()
    labels = draw(st.lists(st.integers(0, n_labels - 1), min_size=n, max_size=n))
    return _table_text(X, labels)


@st.composite
def _gate_passing_tables(draw):
    """An encoded CSV's text that `pipeline.augment_grid` takes, and adds
    records to, at any target of 20% or more.

    Two labels, the minority (0 or 1) at most (n - 3) / 5 of n = 8-16 rows,
    so a 20% target's budget rounds to at least one record, and every cell
    0.5-10 times one scale from 1e-100 to 1e100, the first column positive:
    no zero row, and neither a row's squared norm nor the centroid's
    underflows or overflows.
    """
    width, n = draw(st.integers(1, 3)), draw(st.integers(8, 16))
    scale = draw(st.floats(1e-100, 1e100))
    X = np.array([[draw(st.floats(0.5, 10)) * scale for _ in range(width)] for _ in range(n)])
    X[:, 1:] *= np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=width - 1, max_size=width - 1)))
    minority = draw(st.integers(0, 1))
    labels = np.full(n, 1 - minority)
    labels[draw(st.permutations(range(n)))[:draw(st.integers(1, (n - 3) // 5))]] = minority
    return _table_text(X, labels)


_SEED = st.integers(0, 2**64).map(str)


@st.composite
def _smote_flags(draw):
    # the rarest label's share is at most 50%, so most targets are above it
    flags = ["--target-percent", repr(draw(st.floats(20, 99))), "--seed", draw(_SEED)]
    flags += ["--sf", repr(draw(st.floats(0.5, 20))), "--shots", str(draw(st.sampled_from([0, 1, 100])))]
    if draw(st.booleans()):
        flags += ["--aol", "--bins", str(draw(st.integers(1, 10)))]
        flags += ["--boost-multiplier", repr(draw(st.floats(0, 3)))]
    return flags


@st.composite
def _evaluate_flags(draw):
    grid = ",".join(draw(st.lists(st.floats(1, 99).map(repr), max_size=3)))
    flags = ["--grid", grid, "--aol-mode", draw(st.sampled_from(["both", "on", "off"])), "--seed", draw(_SEED)]
    return flags + ["--k", str(draw(st.integers(1, 5))), "--split", repr(draw(st.floats(0.1, 0.9)))]


def _run_in(directory, argv):
    """Exit code and stderr of one in-process run; asserts a failed run left no new file."""
    before = sorted(os.listdir(directory))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        assert sorted(os.listdir(directory)) == before, argv
    return code, err.getvalue()


_PROBES = {
    "1e308": "a,b,label\n1e308,1e308,1\n1e308,1e308,0\n1e308,1e308,0\n1e308,1e308,0\n",
    "1e-320": "a,b,label\n1,2,0\n3,4,0\n1e-320,0,1\n5,6,0\n2,2,1\n7,8,0\n",
    "zero-row": "a,b,label\n1,2,0\n3,4,0\n5,6,0\n0,0,1\n7,8,1\n2,9,0\n",
}
_PROBE_SMOTE = ["--target-percent", "45", "--aol", "--shots", "100"]
_PROBE_EVALUATE = ["--grid", "30,45", "--seed", "0"]


@settings(max_examples=100, deadline=None)
@given(text=_edge_tables(), smote_flags=_smote_flags(), evaluate_flags=_evaluate_flags())
@example(text=_PROBES["1e308"], smote_flags=_PROBE_SMOTE, evaluate_flags=_PROBE_EVALUATE)
@example(text=_PROBES["1e-320"], smote_flags=_PROBE_SMOTE, evaluate_flags=_PROBE_EVALUATE)
@example(text=_PROBES["zero-row"], smote_flags=_PROBE_SMOTE, evaluate_flags=_PROBE_EVALUATE)
def test_edge_tables_exit_0_or_2_and_write_only_finite_cells(tmp_path_factory, text, smote_flags, evaluate_flags):
    directory = tmp_path_factory.mktemp("edge")
    src = directory / "in.csv"
    src.write_text(text)
    out = directory / "aug.csv"
    code, err = _run_in(directory, ["smote", str(src), str(out), *smote_flags])
    assert code in (0, 2) and "Traceback" not in err, err
    if code == 0:
        for path in (out, out.with_suffix(".angles.csv")):
            with open(path, newline="", encoding="utf-8") as fh:
                cells = [c for row in list(csv.reader(fh))[1:] for c in row if c != ""]
            assert np.isfinite(np.array(cells, dtype=float)).all(), path
    code, err = _run_in(directory, ["evaluate", str(src), str(directory / "report.csv"), *evaluate_flags])
    assert code in (0, 2) and "Traceback" not in err, err
