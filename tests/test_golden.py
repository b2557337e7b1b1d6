"""Golden pins: `preprocess`, `smote` and `evaluate` outputs frozen.

The `smote` and `evaluate` cases run the CLI on
`demo.make_imbalanced_dataset(n_rows=300)`, two of them with planted
minority rows, and compare against `tests/golden/`. The `preprocess` case
encodes a small raw CSV that covers every column kind and missing
policy of `configs/cell2cell.yaml`, and must match byte for byte.
Discrete and metadata cells, the histogram CSV, the report CSV and the
manifest (bar its timestamp) must match exactly; synthetic feature cells
may move by 1e-12 absolute, so a closed-form kernel can change the last
bit. Original rows repeat the input file (as numbers), so a golden
augmented CSV keeps only their metadata cells.

`PYTHONPATH=src python tests/test_golden.py` records each case whose
golden output CSV is missing, with its manifest and histogram, and
leaves the other cases alone, so their synthetic cells keep their
recorded bits. Re-recording a case after a deliberate output change
means deleting its files first; say why in CHANGES.md.
"""

import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest

from qsmote import cli, demo, data

GOLDEN = Path(__file__).parent / "golden"
FEATURE_ATOL = 1e-12

SMOTE_CASES = {
    "plain": ("demo", []),
    "aol": ("demo", ["--aol"]),
    "aol-shots": ("demo", ["--aol", "--shots", "1000"]),
    # the demo data has no angular outliers; seven planted near-axis
    # minority rows give a low-side table whose thin bin gets boosted
    "aol-boost": ("planted", ["--aol", "--bins", "3"]),
    # every distance above is past pi/2; four minority rows planted at a
    # small norm sit near 1.15 rad, so their angles take the keyed draw
    "keyed-draw": ("small-norm", ["--aol"]),
}


PREPROCESS_CONFIG = """\
version: 1
columns:
  - {name: cid, kind: id}
  - {name: usage, kind: numeric-binned, bins: 'equal-width:4'}
  - {name: flat, kind: numeric-binned, bins: 'equal-width:3'}
  - {name: edged, kind: numeric-binned, bins: [0, 10, 20]}
  - {name: subs, kind: numeric-raw}
  - {name: code, kind: categorical}
  - {name: plan, kind: categorical}
  - {name: age, kind: numeric-binned, bins: 'equal-width:2', missing: 'fill-value:0'}
  - {name: status, kind: categorical, missing: fill-mode}
  - {name: calls, kind: numeric-raw}
  - {name: churn, kind: target}
"""

# `flat` is constant; `edged` runs past both ends of its edges; `subs`
# holds cells float() takes as written; `age` and `status` fill their
# blank and whitespace-only cells; `status` ties 4-4 between x and y when
# the rows dropped later are counted (the earlier level wins), where the
# kept rows alone favour y; a blank `calls`, `cid` or `churn` cell drops
# the row.
PREPROCESS_RAW = """\
cid,usage,flat,edged,subs,code,plan,age,status,calls,churn
c1,0.5,5,-3, 2 ,2,basic,40,x,1,no
c2,3,5,0,1_0,10,premium,,y,2,yes
c3,1.25,5,10,+1e3,0,basic, ,x,3,no
"7,001",2,5,20,-0,2,Basic,18,,4,no
c5,4,5,25,1.5,-1.5,premium,65,y,  ,yes
c6,1e0,5,19.999,.5,10,premium,33,y,6,no
c7,-2,5,9.5,7,0,basic,50,,7,yes
c8,2.5,5,1e1,3,2,basic,29,y,8,no
,1,5,1,1,2,basic,30,x,9,yes
c10,1,5,1,1,2,basic,30,x,10,
c11,9,5,99,0.25,0,premium,71, ,11,yes
"""


def _run_preprocess(directory):
    (directory / "raw.csv").write_text(PREPROCESS_RAW)
    (directory / "raw.yaml").write_text(PREPROCESS_CONFIG)
    # relative paths keep the config path, and so the config hash, in the
    # manifest the same wherever the test runs
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        assert cli.main(["preprocess", "raw.csv", "preprocess.csv", "--config", "raw.yaml"]) == 0
    finally:
        os.chdir(cwd)
    return directory / "preprocess.csv"


def _dataset(name):
    X, y = demo.make_imbalanced_dataset(n_rows=300)
    if name == "planted":
        for i, m in zip(np.nonzero(y == 1)[0], [1, 1, 1, 1, 1, 1, 2]):
            X[i] = 0.05
            X[i, :m] = 5.0
    if name == "small-norm":
        for i, m in zip(np.nonzero(y == 1)[0], [1, 2, 3, 4]):
            X[i] = 0.05
            X[i, -m:] = 0.5
    return X, y


def _write_source(directory, name):
    path = directory / f"{name}.csv"
    demo.write_dataset_csv(*_dataset(name), path)
    return path


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _manifest(path, root):
    manifest = json.loads(Path(path).read_text())
    manifest.pop("timestamp")
    for key in ("inputs", "outputs"):
        manifest[key] = [
            Path(p).relative_to(root).as_posix() if Path(p).is_absolute() else p for p in manifest[key]
        ]
    return manifest


def _smote(directory, case):
    source, extra = SMOTE_CASES[case]
    src = _write_source(directory, source)
    out = directory / f"{case}.csv"
    argv = ["smote", str(src), str(out), "--target-percent", "20", "--seed", "3", *extra]
    assert cli.main(argv) == 0
    return src, out


def _run_evaluate(directory):
    src = _write_source(directory, "demo")
    out = directory / "report.csv"
    assert cli.main(["evaluate", str(src), str(out), "--grid", "30,40", "--seed", "3"]) == 0
    return out


def _golden_augmented(src, out):
    """The augmented CSV with the original rows cut to their metadata cells."""
    n_original = len(_rows(src)) - 1
    rows = _rows(out)
    meta = len(data.META_COLUMNS)
    return rows[:1] + [r[-meta:] for r in rows[1 : n_original + 1]] + rows[n_original + 1 :]


def _outputs(directory, out):
    """Every pinned artifact of one run, by golden file name."""
    artifacts = {
        f"{out.stem}.manifest.json": _manifest(out.with_suffix(".manifest.json"), directory),
    }
    histogram = out.with_suffix(".angles.csv")
    if histogram.exists():
        artifacts[histogram.name] = _rows(histogram)
    return artifacts


@pytest.mark.parametrize("case", list(SMOTE_CASES))
def test_smote_matches_golden(tmp_path, case):
    src, out = _smote(tmp_path, case)
    got = _rows(out)
    want = _rows(GOLDEN / f"{case}.csv")
    source = _rows(src)
    n_original = len(source) - 1
    meta = len(data.META_COLUMNS)
    assert got[0] == want[0]
    assert len(got) == len(want)
    for i in range(1, n_original + 1):
        assert [float(v) for v in got[i][:-meta]] == [float(v) for v in source[i]], i
        assert got[i][-meta:] == want[i], f"original row {i} metadata"
    n_features = len(got[0]) - meta - 1
    for i in range(n_original + 1, len(got)):
        assert got[i][n_features:] == want[i][n_features:], f"synthetic row {i} metadata"
        feats = np.array(got[i][:n_features], dtype=float)
        ref = np.array(want[i][:n_features], dtype=float)
        assert np.max(np.abs(feats - ref)) <= FEATURE_ATOL, f"synthetic row {i} features"
    for name, value in _outputs(tmp_path, out).items():
        expected = GOLDEN / name
        if name.endswith(".json"):
            assert value == json.loads(expected.read_text()), name
        else:
            assert value == _rows(expected), name


def test_evaluate_matches_golden(tmp_path):
    out = _run_evaluate(tmp_path)
    assert _rows(out) == _rows(GOLDEN / "report.csv")
    assert _manifest(out.with_suffix(".manifest.json"), tmp_path) == json.loads(
        (GOLDEN / "report.manifest.json").read_text()
    )


def test_preprocess_matches_golden(tmp_path):
    out = _run_preprocess(tmp_path)
    assert out.read_bytes() == (GOLDEN / "preprocess.csv").read_bytes()
    assert _manifest(out.with_suffix(".manifest.json"), tmp_path) == json.loads(
        (GOLDEN / "preprocess.manifest.json").read_text()
    )


def _record(directory):
    GOLDEN.mkdir(exist_ok=True)
    runs = [(None, _run_evaluate(directory)), (None, _run_preprocess(directory))]
    runs += [_smote(directory, case) for case in SMOTE_CASES]
    for src, out in runs:
        if (GOLDEN / out.name).exists():
            continue
        if src is None:
            (GOLDEN / out.name).write_bytes(out.read_bytes())
        else:
            with open(GOLDEN / out.name, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows(_golden_augmented(src, out))
        for name, value in _outputs(directory, out).items():
            with open(GOLDEN / name, "w", newline="", encoding="utf-8") as fh:
                if name.endswith(".json"):
                    json.dump(value, fh, indent=2, sort_keys=True)
                    fh.write("\n")
                else:
                    csv.writer(fh).writerows(value)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _record(Path(tmp))
