"""End-to-end tests for the command-line interface."""

import csv
import json

import numpy as np
import pytest

from qsmote import cli, data, demo


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
    ],
    ids=["yaml", "no-name", "string-entry", "bins-int", "bins-text", "no-bins", "no-kind",
         "missing-int", "columns-int"],
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
        (lambda cells: cells[:-1] + ["0.7"], "non-integer label '0.7' (row 3, column 'label')"),
        (lambda cells: cells[:-1], "8 cells where the header has 9 (row 3)"),
    ],
    ids=["nan", "inf", "fractional-label", "ragged"],
)
def test_smote_rejects_bad_cells_at_load(encoded, tmp_path, capsys, edit, message):
    _edit_row(encoded, 3, edit)
    out = tmp_path / "aug.csv"
    assert cli.main(["smote", str(encoded), str(out), "--target-percent", "30"]) == 2
    assert message in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["encoded.csv"]


def test_preprocess_short_row_exits_2(raw, tmp_path, capsys):
    raw_path, cfg_path = raw
    _edit_row(raw_path, 2, lambda cells: cells[:-1])
    out = tmp_path / "out.csv"
    assert cli.main(["preprocess", str(raw_path), str(out), "--config", str(cfg_path)]) == 2
    assert "2 cells where the header has 3 (row 2)" in capsys.readouterr().err
    assert not out.exists()


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


def test_evaluate_assert_trend_fails_on_baseline_only_run(encoded, tmp_path):
    report = tmp_path / "trend.csv"
    code = cli.main(
        ["evaluate", str(encoded), str(report), "--assert-trend", "--seed", "0"]
    )
    assert code == 1


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
