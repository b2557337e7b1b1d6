"""Unit tests for CSV ingestion, serialization, and histogram output."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsmote import data, pipeline, aol, synth
from qsmote.data import ColumnSpec, DataConfig
from qsmote.errors import DataError


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def _config(*specs):
    return DataConfig(columns=list(specs))


def test_load_config_round_trip(tmp_path):
    path = _write(
        tmp_path,
        "cfg.yaml",
        "version: 1\n"
        "columns:\n"
        "  - {name: id, kind: id}\n"
        "  - {name: age, kind: numeric-binned, bins: 'equal-width:4'}\n"
        "  - {name: plan, kind: categorical, missing: fill-mode}\n"
        "  - {name: churn, kind: target}\n",
    )
    cfg = data.load_config(path)
    assert [c.name for c in cfg.columns] == ["id", "age", "plan", "churn"]
    assert cfg.target.name == "churn"
    assert cfg.spec("age").bin_edges == "equal-width:4"
    assert cfg.spec("plan").missing_policy == "fill-mode"


def test_load_config_requires_version_and_single_target(tmp_path):
    with pytest.raises(DataError):
        data.load_config(_write(tmp_path, "v.yaml", "columns: []\n"))
    two_targets = (
        "version: 1\ncolumns:\n"
        "  - {name: a, kind: target}\n  - {name: b, kind: target}\n"
    )
    with pytest.raises(DataError):
        data.load_config(_write(tmp_path, "t.yaml", two_targets))


def test_load_config_rejects_unknown_kind(tmp_path):
    bad = "version: 1\ncolumns:\n  - {name: a, kind: mystery}\n  - {name: t, kind: target}\n"
    with pytest.raises(DataError):
        data.load_config(_write(tmp_path, "k.yaml", bad))


def test_equal_width_binning(tmp_path):
    rows = "\n".join(f"{v},x" for v in range(11))
    path = _write(tmp_path, "b.csv", "v,label\n" + rows + "\n")
    cfg = _config(
        ColumnSpec("v", "numeric-binned", bin_edges="equal-width:2"),
        ColumnSpec("label", "target"),
    )
    ds = data.load_csv(path, cfg)
    # edges {0, 5, 10}: below 5 -> bin 0, at or above 5 -> bin 1
    assert ds.X[:, 0].tolist() == [0] * 5 + [1] * 6


def test_explicit_bin_edges_clamp_out_of_range(tmp_path):
    path = _write(tmp_path, "e.csv", "v,label\n-5,x\n1,x\n3,x\n99,x\n")
    cfg = _config(
        ColumnSpec("v", "numeric-binned", bin_edges=[0.0, 2.0, 4.0]),
        ColumnSpec("label", "target"),
    )
    ds = data.load_csv(path, cfg)
    assert ds.X[:, 0].tolist() == [0, 0, 1, 1]


def test_categorical_levels_encode_lexicographically(tmp_path):
    path = _write(tmp_path, "c.csv", "plan,label\nyes,a\nno,b\nyes,a\n")
    cfg = _config(ColumnSpec("plan", "categorical"), ColumnSpec("label", "target"))
    ds = data.load_csv(path, cfg)
    assert ds.X[:, 0].tolist() == [1.0, 0.0, 1.0]
    assert ds.y.tolist() == [0, 1, 0]


def test_numeric_level_sets_encode_numerically(tmp_path):
    # "10" sorts after "2" so an already-encoded column re-encodes to itself
    path = _write(tmp_path, "n.csv", "code,label\n2,a\n10,a\n0,b\n")
    cfg = _config(ColumnSpec("code", "categorical"), ColumnSpec("label", "target"))
    ds = data.load_csv(path, cfg)
    assert ds.X[:, 0].tolist() == [1.0, 2.0, 0.0]


def test_missing_policies(tmp_path):
    path = _write(
        tmp_path,
        "m.csv",
        "a,b,c,label\n1,,x,0\n2,7,,0\n3,8,y,1\n",
    )
    cfg = _config(
        ColumnSpec("a", "numeric-raw"),
        ColumnSpec("b", "numeric-raw", missing_policy="fill-value:0"),
        ColumnSpec("c", "categorical", missing_policy="fill-mode"),
        ColumnSpec("label", "target"),
    )
    ds = data.load_csv(path, cfg)
    assert ds.X.shape == (3, 3)
    assert ds.X[0, 1] == 0.0            # fill-value
    assert ds.X[1, 2] == ds.X[0, 2]     # fill-mode picked "x"


def test_drop_row_policy_removes_rows(tmp_path):
    path = _write(tmp_path, "d.csv", "a,label\n1,0\n,1\n3,0\n")
    cfg = _config(ColumnSpec("a", "numeric-raw"), ColumnSpec("label", "target"))
    ds = data.load_csv(path, cfg)
    assert ds.X[:, 0].tolist() == [1.0, 3.0]


def test_header_and_config_must_match_both_ways(tmp_path):
    path = _write(tmp_path, "h.csv", "a,extra,label\n1,2,0\n")
    cfg = _config(ColumnSpec("a", "numeric-raw"), ColumnSpec("label", "target"))
    with pytest.raises(DataError) as exc:
        data.load_csv(path, cfg)
    assert "extra" in str(exc.value)
    cfg2 = _config(
        ColumnSpec("a", "numeric-raw"),
        ColumnSpec("ghost", "numeric-raw"),
        ColumnSpec("label", "target"),
    )
    path2 = _write(tmp_path, "h2.csv", "a,label\n1,0\n")
    with pytest.raises(DataError) as exc:
        data.load_csv(path2, cfg2)
    assert "ghost" in str(exc.value)


def test_unparsable_cell_reports_coordinates(tmp_path):
    path = _write(tmp_path, "u.csv", "a,label\n1,0\nbogus,1\n")
    cfg = _config(ColumnSpec("a", "numeric-raw"), ColumnSpec("label", "target"))
    with pytest.raises(DataError) as exc:
        data.load_csv(path, cfg)
    assert "bogus" in str(exc.value)
    assert "a" in str(exc.value)


def test_empty_file_and_missing_file_error(tmp_path):
    cfg = _config(ColumnSpec("a", "numeric-raw"), ColumnSpec("label", "target"))
    with pytest.raises(DataError):
        data.load_csv(_write(tmp_path, "empty.csv", ""), cfg)
    with pytest.raises(DataError):
        data.load_csv(tmp_path / "nope.csv", cfg)


@pytest.mark.parametrize("row", ["1", "1,0,7"])
def test_rows_must_be_as_wide_as_the_header(tmp_path, row):
    path = _write(tmp_path, "w.csv", f"a,label\n1,0\n2,1\n{row}\n3,0\n")
    cfg = _config(ColumnSpec("a", "numeric-raw"), ColumnSpec("label", "target"))
    with pytest.raises(DataError, match="row 3") as exc:
        data.load_csv(path, cfg)
    assert exc.value.row == 3


def test_preprocessing_is_idempotent(tmp_path):
    raw = _write(
        tmp_path,
        "raw.csv",
        "age,plan,label\n31,basic,no\n45,premium,yes\n22,basic,no\n58,basic,yes\n",
    )
    cfg = _config(
        ColumnSpec("age", "numeric-binned", bin_edges="equal-width:2"),
        ColumnSpec("plan", "categorical"),
        ColumnSpec("label", "target"),
    )
    once = tmp_path / "once.csv"
    data.write_dataset(data.load_csv(raw, cfg), once)
    twice = tmp_path / "twice.csv"
    data.write_dataset(data.load_csv(once, cfg), twice)
    assert once.read_bytes() == twice.read_bytes()


def test_write_augmented_format_and_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.uniform(1, 3, size=(20, 3))
    y = np.r_[np.ones(4, dtype=int), np.zeros(16, dtype=int)]
    ds = data.Dataset(
        feature_names=["f0", "f1", "f2"],
        X=X, y=y, row_ids=np.arange(20), target_name="label",
    )
    result = pipeline.run_smote(X, y, pipeline.SmoteConfig(target_minority_percent=30.0))
    path = tmp_path / "aug.csv"
    data.write_augmented(ds, result.synthetic, path)
    header = path.read_text().splitlines()[0].split(",")
    assert header[-5:] == data.META_COLUMNS
    names, target, X2, y2, meta = data.read_augmented(path)
    assert names == ["f0", "f1", "f2"]
    assert target == "label"
    assert np.allclose(X2[:20], X)
    assert (np.array(meta["synthetic"][:20]) == "0").all()
    assert (np.array(meta["synthetic"][20:]) == "1").all()
    assert len(X2) == 20 + len(result.synthetic)
    for rec, row in zip(result.synthetic, X2[20:]):
        assert np.allclose(row, rec.features)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _augmented_cases(draw):
    width = draw(st.integers(1, 4))
    n = draw(st.integers(1, 8))
    row = st.lists(_FINITE, min_size=width, max_size=width)
    ds = data.Dataset(
        feature_names=[f"f{j}" for j in range(width)],
        X=np.array(draw(st.lists(row, min_size=n, max_size=n))),
        y=np.array(draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))),
        row_ids=np.arange(n),
        target_name="label",
    )
    distances = draw(st.dictionaries(st.integers(0, n - 1), _FINITE))
    record = st.builds(
        synth.SyntheticRecord,
        features=row.map(np.array),
        source_row_id=st.integers(-1, 10**6),
        rotation_angle=_FINITE,
        angular_distance=_FINITE,
        boosted=st.booleans(),
    )
    return ds, draw(st.lists(record, max_size=6)), distances


@settings(max_examples=100, deadline=None)
@given(case=_augmented_cases())
def test_write_augmented_read_augmented_round_trip(tmp_path_factory, case):
    ds, records, distances = case
    path = tmp_path_factory.mktemp("augmented") / "aug.csv"
    data.write_augmented(ds, records, path, original_distances=distances)
    names, target, X, y, meta = data.read_augmented(path, feature_names=ds.feature_names)
    assert (names, target) == (ds.feature_names, "label")
    assert np.array_equal(X, np.vstack([ds.X] + [r.features for r in records]))
    minority = data.minority_label(ds.y)
    assert np.array_equal(y, np.r_[ds.y, [minority] * len(records)])

    def number(cell):
        return None if cell == "" else float(cell)

    n = len(ds.y)
    assert [number(c) for c in meta["angular_distance"]] == [
        distances.get(i) for i in range(n)
    ] + [r.angular_distance for r in records]
    assert [number(c) for c in meta["rotation_angle"]] == [None] * n + [
        r.rotation_angle for r in records
    ]
    assert meta["synthetic"] == ["0"] * n + ["1"] * len(records)
    assert meta["boosted"] == ["0"] * n + [str(int(r.boosted)) for r in records]
    assert meta["source_row_id"] == [""] * n + [str(r.source_row_id) for r in records]


def test_write_augmented_with_no_synthetic_rows(tmp_path):
    ds = data.Dataset(
        feature_names=["f0"],
        X=np.array([[1.0], [2.0]]),
        y=np.array([0, 1]),
        row_ids=np.arange(2),
        target_name="label",
    )
    path = tmp_path / "plain.csv"
    data.write_augmented(ds, [], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3  # header + 2 originals


def test_emit_histogram_counts_conserved(tmp_path):
    values = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 100]
    bounds, _, _ = aol.detect_outliers(values, 2)
    svg = tmp_path / "h.svg"
    data.emit_histogram(values, 4, bounds, svg)
    rows = (tmp_path / "h.csv").read_text().splitlines()[1:]
    assert sum(int(r.split(",")[2]) for r in rows) == 12
    assert svg.read_text().startswith("<svg")


def test_emit_histogram_constant_vector(tmp_path):
    bounds, _, _ = aol.detect_outliers(np.full(10, 2.0), 3)
    svg = tmp_path / "c.svg"
    data.emit_histogram(np.full(10, 2.0), 3, bounds, svg)
    counts = [int(r.split(",")[2]) for r in (tmp_path / "c.csv").read_text().splitlines()[1:]]
    assert sorted(counts) == [0, 0, 10] or counts == [10]


def test_emit_histogram_clamps_out_of_range_thresholds(tmp_path):
    values = np.linspace(1.0, 2.0, 30)
    bounds = aol.OutlierBounds(q1=1.2, q3=1.8, iqr=0.6, lower_bound=-5.0, upper_bound=9.0)
    svg = tmp_path / "clamp.svg"
    data.emit_histogram(values, 5, bounds, svg, width=640, height=400)
    text = svg.read_text()
    xs = [float(m) for m in re.findall(r'<line x1="([0-9.]+)" y1="40"', text)]
    assert len(xs) == 2
    margin, width = 40, 640
    for x in xs:
        assert margin <= x <= width - margin
    assert min(xs) == pytest.approx(margin)
    assert max(xs) == pytest.approx(width - margin)
