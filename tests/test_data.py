"""Unit tests for CSV ingestion, serialization, and histogram output."""

import csv
import io
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from qsmote import cli, data, pipeline, aol, synth
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


_ABL_CONFIG = (
    "version: 1\ncolumns:\n  - {name: a, kind: numeric-raw}\n"
    "  - {name: b, kind: numeric-raw}\n  - {name: label, kind: target}\n"
)


@pytest.mark.parametrize(
    "header, message",
    [
        ("a,b,extra,more,label", "column not in config (column 'extra')"),
        ("a,label", "configured column missing from header (column 'b')"),
        ("a,extra,label", "configured column missing from header (column 'b')"),
        ("extra,label", "configured column missing from header (column 'a')"),
    ],
    ids=["unknown", "missing", "both-unknown-first-in-header", "both"],
)
def test_config_column_rules_name_the_column_and_exit_2(tmp_path, capsys, header, message):
    # a configured column missing from the header is named before any header
    # column the config lacks, wherever the two sit in the header
    path = _write(tmp_path, "raw.csv", header + "\n" + ",".join(["1"] * len(header.split(","))) + "\n")
    cfg = _write(tmp_path, "cfg.yaml", _ABL_CONFIG)
    with pytest.raises(DataError) as exc:
        data.load_csv(path, data.load_config(cfg))
    assert str(exc.value) == message
    out = tmp_path / "out.csv"
    assert cli.main(["preprocess", str(path), str(out), "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml", "raw.csv"]


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


def _load_csv_reference(path, config):
    """The per-cell loader the column-wise `load_csv` must equal.

    It reports a bad cell's file row, counted from 1 below the header.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    col_idx = {name: i for i, name in enumerate(header)}
    specs = [config.spec(name) for name in header]
    for i, r in enumerate(rows, start=1):
        if len(r) != len(header):  # a one-column row of a blank cell written unquoted is a blank line
            raise DataError(f"{len(r)} cells where the header has {len(header)}", row=i)

    def missing(cell):
        return cell.strip() == ""

    fill = {}
    for spec in specs:
        j = col_idx[spec.name]
        policy, _, arg = str(spec.missing_policy).partition(":")
        if policy == "fill-value":
            fill[spec.name] = arg
        elif policy == "fill-mode":
            present = [r[j] for r in rows if not missing(r[j])]
            if not present:
                raise DataError("all values missing under fill-mode", column=spec.name)
            fill[spec.name] = max(sorted(set(present)), key=present.count)
        elif policy != "drop-row":
            raise DataError(f"unknown missing policy {spec.missing_policy!r}", column=spec.name)
    kept, file_rows = [], []
    for i, r in enumerate(rows, start=1):
        drop = False
        for spec in specs:
            j = col_idx[spec.name]
            if missing(r[j]):
                if spec.name in fill:
                    r[j] = fill[spec.name]
                else:
                    drop = True
                    break
        if not drop:
            kept.append(r)
            file_rows.append(i)
    if not kept:
        raise DataError(f"no rows left after preprocessing {path}")

    def bin_value(v, edges):
        if v < edges[0]:
            return 0
        for i in range(len(edges) - 1):
            if edges[i] <= v < edges[i + 1]:
                return i
        return len(edges) - 2

    def resolve_edges(spec, values):
        if isinstance(spec.bin_edges, str):
            k = int(spec.bin_edges.partition(":")[2])
            lo, hi = min(values), max(values)
            if hi == lo:
                hi = lo + 1.0
            edges = [lo + (hi - lo) * i / k for i in range(k + 1)]
            if not all(map(math.isfinite, edges)):
                raise DataError(f"equal-width range [{lo!r}, {hi!r}] overflows a float", column=spec.name)
            return edges
        return [float(e) for e in spec.bin_edges]

    columns = {}
    for spec in specs:
        j = col_idx[spec.name]
        raw = [r[j] for r in kept]
        if spec.kind == "id":
            columns[spec.name] = raw
        elif spec.kind in ("categorical", "target"):
            code = {lv: float(i) for i, lv in enumerate(data._sorted_levels(raw))}
            columns[spec.name] = [code[v] for v in raw]
        else:
            nums = [data._parse_number(v, row, spec.name) for v, row in zip(raw, file_rows)]
            if spec.kind == "numeric-binned":
                edges = resolve_edges(spec, nums)
                nums = [float(bin_value(v, edges)) for v in nums]
            columns[spec.name] = nums

    feature_names = [s.name for s in specs if s.kind in ("categorical", "numeric-binned", "numeric-raw")]
    id_name = next((s.name for s in specs if s.kind == "id"), None)
    return data.Dataset(
        feature_names=feature_names,
        X=np.column_stack([columns[n] for n in feature_names]) if feature_names else np.empty((len(kept), 0)),
        y=np.asarray(columns[config.target.name], dtype=float).astype(int),
        target_name=config.target.name,
        id_values=columns[id_name] if id_name else [],
        id_name=id_name,
    )


# numeric cells float() takes as written, cells it rejects or reads as
# non-finite, and values whose equal-width range overflows a float
_NUMBERS = st.one_of(
    st.floats(-1e6, 1e6).map(repr),
    st.integers(-50, 50).map(str),
    st.sampled_from([" 2 ", "1_0", "+1e3", "-0", "0", ".5", "1e308", "-1e308", "2.0"]),
)
_BAD_NUMBERS = st.sampled_from(["bogus", "nan", "inf", "-Infinity", "1__0"])
_LEVELS = st.sampled_from(["a", "b", "B", " a", "2", "10", "0", "-1.5", "x y"])
_BLANKS = st.sampled_from(["", " ", " \t "])
_MISSING = st.sampled_from(["drop-row", "fill-value:0", "fill-value:7.5", "fill-value:bogus",
                            "fill-value:", "fill-mode"])
_BINS = st.one_of(
    st.integers(1, 5).map("equal-width:{}".format),
    st.sampled_from([[0, 10, 20], [-1.5, 0.0, 2.0, 1e3], [5, 6]]),
)


@st.composite
def _raw_tables(draw):
    """A raw CSV's text and its config: every column kind and missing policy."""
    kinds = draw(st.lists(st.sampled_from(["categorical", "numeric-binned", "numeric-raw"]), max_size=4))
    specs = [ColumnSpec(f"c{j}", kind) for j, kind in enumerate(kinds)]
    for spec in specs:
        spec.missing_policy = draw(_MISSING)
        if spec.kind == "numeric-binned":
            spec.bin_edges = draw(_BINS)
    if draw(st.booleans()):
        specs.insert(draw(st.integers(0, len(specs))), ColumnSpec("id", "id"))
    specs.insert(draw(st.integers(0, len(specs))), ColumnSpec("label", "target", missing_policy=draw(_MISSING)))
    bad = draw(st.floats(0, 0.1))
    blank = draw(st.floats(0, 0.3))

    def cell(spec):
        r = draw(st.floats(0, 1))
        if r < blank:
            return draw(_BLANKS)
        if spec.kind in ("numeric-binned", "numeric-raw"):
            return draw(_BAD_NUMBERS) if r > 1 - bad else draw(_NUMBERS)
        if spec.kind == "id":
            return f"id{draw(st.integers(0, 99))}"
        return draw(_LEVELS)

    n = draw(st.integers(0, 12))
    rows = [[cell(spec) for spec in specs] for _ in range(n)]
    # an unquoted table can take load_csv's C route; a quoted one never does
    quote = '"{}"'.format if draw(st.booleans()) else data._quote
    lines = [",".join(s.name for s in specs)] + [",".join(map(quote, r)) for r in rows]
    return "\n".join(lines) + "\n", DataConfig(columns=specs)


def _outcome(loader, path, config):
    try:
        return loader(path, config)
    except DataError as exc:
        return str(exc)


def _same_dataset(got, want):
    assert isinstance(got, data.Dataset) and isinstance(want, data.Dataset), (got, want)
    assert (got.feature_names, got.target_name) == (want.feature_names, want.target_name)
    assert (got.X.shape, got.X.dtype, got.X.tobytes()) == (want.X.shape, want.X.dtype, want.X.tobytes())
    assert (got.y.dtype, got.y.tolist()) == (want.y.dtype, want.y.tolist())
    assert (got.id_name, got.id_values) == (want.id_name, want.id_values)


_OVERFLOWING_RANGE = (
    "v,label\n1e308,0\n-1e308,1\n0,0\n",
    _config(ColumnSpec("v", "numeric-binned", bin_edges="equal-width:3"), ColumnSpec("label", "target")),
)


@settings(max_examples=300, deadline=None)
@given(case=_raw_tables())
@example(case=_OVERFLOWING_RANGE)
def test_load_csv_equals_the_per_cell_reference(tmp_path_factory, case):
    text, config = case
    path = tmp_path_factory.mktemp("raw") / "raw.csv"
    path.write_text(text)
    got = _outcome(data.load_csv, path, config)
    want = _outcome(_load_csv_reference, path, config)
    if case is _OVERFLOWING_RANGE:
        assert want == "equal-width range [-1e+308, 1e+308] overflows a float (column 'v')"
    if isinstance(want, str):
        assert got == want
        return
    _same_dataset(got, want)


def _per_cell_outcome(path, config, monkeypatch):
    """`load_csv`'s outcome with the C route handing every file back."""
    with monkeypatch.context() as m:
        m.setattr(data, "_read_raw", lambda path, config: None)
        try:
            return data.load_csv(path, config)
        except Exception as exc:
            return type(exc), str(exc)


_LONG = "x" * (csv.field_size_limit() + 1)
_HALF = "x" * (csv.field_size_limit() // 2 + 1)


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "no such file"),
        ("directory", "Is a directory"),
        (b"a,c,label\n1,\xff,0\n2,y,1\n", "can't decode byte 0xff"),
        ('"a",c,label\n1,x,0\n2,y,1\n', None),
        ("a,a,label\n1,x,0\n2,y,1\n", "duplicate column name (column 'a')"),
        ("a,c,extra,label\n1,x,5,0\n2,y,6,1\n", "column not in config (column 'extra')"),
        ("a,label\n1,0\n2,1\n", "configured column missing from header (column 'c')"),
        ("\na,c,label\n1,x,0\n", "3 cells where the header has 0 (row 1)"),
        ("a,c,label\n", "no rows left after preprocessing"),
        ("a,c,label\n1,x,0\n\n2,y,1\n", "0 cells where the header has 3 (row 2)"),
        ("a,c,label\n1,x,0\n2,y,1\n\n", "0 cells where the header has 3 (row 3)"),
        ('a,c,label\n1,x,0\n2,"y,z",1\n', None),
        ('a,c,label\n1,x,0\n2,y"z,1\n', None),
        ("a,c,label\n1,x\x00,0\n2,y,1\n", None),
        ("a,c,label\n1,x,0\n\x1c2,y,1\n", "unparsable numeric cell '\\x1c2' (row 2, column 'a')"),
        ("a,c,label\n1,x\x1f,0\n2,y,1\n", None),
        (f"a,c,label\n1,{_LONG},0\n2,y,1\n", "field larger than field limit"),
        (f"a,c,label\n1,{_HALF},0\n2,{_HALF}{_HALF},1\n", "field larger than field limit"),
        (f"a,c,label\n1,{_HALF},{_HALF}\n2,y,1\n", None),
        (f"a,c,{_LONG}\n1,x,0\n", "field larger than field limit (131072) in the header"),
        ("a,c,label\n1,x,0\n2,y\n", "2 cells where the header has 3 (row 2)"),
        ("a,c,label\n1,x,0\n,y,1\n3,x,1\n", None),
        ("a,c,label\n1,x,0\n \t,y,1\n3,x,1\n", None),
        ("a,c,label\n1_0,x,0\n2,y,1\n", None),
        ("a,c,label\n\u0661,x,0\n2,y,1\n", None),
        ("a,c,label\n1,x,0\nnan,y,1\n", "non-finite cell 'nan' (row 2, column 'a')"),
        ("a,c,label\n1,x,0\n1e999,y,1\n", "non-finite cell '1e999' (row 2, column 'a')"),
    ],
    ids=["missing-file", "unreadable", "not-utf8", "quoted-header", "repeated-name", "name-not-in-config",
         "config-name-not-in-header", "blank-header", "no-data-rows", "blank-inner-line", "blank-last-line",
         "quoted-cell", "inner-quote", "nul", "c-only-space", "c-only-space-in-text", "long-cell",
         "long-cell-last-row", "long-line-short-cells", "long-header", "ragged-row", "blank-float",
         "whitespace-float", "underscore", "non-ascii-digit", "nan", "overflow"],
)
def test_load_csv_hands_back_what_its_c_parse_may_read_differently(tmp_path, monkeypatch, text, message):
    # each file goes to the per-cell route, so load_csv gives that route's
    # Dataset or error; np.loadtxt never warns on the way
    path = tmp_path / "raw.csv"
    if text == "directory":
        path.mkdir()
    elif text is not None:
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
    config = _config(ColumnSpec("a", "numeric-raw"), ColumnSpec("c", "categorical"), ColumnSpec("label", "target"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert data._read_raw(path, config) is None
        try:
            got = data.load_csv(path, config)
        except Exception as exc:
            got = type(exc), str(exc)
    want = _per_cell_outcome(path, config, monkeypatch)
    if message is None:
        _same_dataset(got, want)
    else:
        assert got == want and message in want[1], want


def test_load_csv_c_route_equals_the_per_cell_route_on_every_column_kind(tmp_path, monkeypatch):
    # blanks only under fill-value and fill-mode, so no drop-row float cell is blank
    path = _write(
        tmp_path, "raw.csv",
        "id,age,n,plan,fill,label\n"
        "c 1,31.5,2, basic ,,no\n"
        "c2,45,-0,premium,7,yes\n"
        "c3,1e3,+4,,8,no\n"
        "c4,22,1e-3,basic, ,yes\n",
    )
    config = _config(
        ColumnSpec("id", "id"),
        ColumnSpec("age", "numeric-binned", bin_edges="equal-width:3"),
        ColumnSpec("n", "numeric-raw"),
        ColumnSpec("plan", "categorical", missing_policy="fill-mode"),
        ColumnSpec("fill", "numeric-raw", missing_policy="fill-value:0.5"),
        ColumnSpec("label", "target"),
    )
    monkeypatch.setattr(data, "read_table", lambda path: pytest.fail("read_table ran"))
    got = data.load_csv(path, config)
    # plan's blank takes the mode ' basic ' (three levels tie, the first sorted wins)
    assert got.X.tolist() == [[0.0, 2.0, 0.0, 0.5], [0.0, -0.0, 2.0, 7.0], [2.0, 4.0, 0.0, 8.0],
                              [0.0, 0.001, 1.0, 0.5]]
    assert got.id_values == ["c 1", "c2", "c3", "c4"] and got.y.tolist() == [0, 1, 0, 1]
    monkeypatch.undo()
    _same_dataset(got, _per_cell_outcome(path, config, monkeypatch))
    _same_dataset(got, _load_csv_reference(path, config))


@pytest.mark.parametrize(
    "cells, message",
    [
        # hi - lo overflows, so every edge would be nan or inf
        (["1e308", "-1e308", "0"], "equal-width range [-1e+308, 1e+308] overflows a float (column 'v')"),
        # hi - lo fits, but (hi - lo) * 2 for the third edge does not
        (["0", "1e308"], "equal-width range [0.0, 1e+308] overflows a float (column 'v')"),
    ],
    ids=["range", "third-edge"],
)
def test_load_csv_rejects_an_equal_width_range_that_overflows(tmp_path, cells, message):
    path = _write(tmp_path, "wide.csv", "v,label\n" + "".join(f"{c},{i % 2}\n" for i, c in enumerate(cells)))
    cfg = _config(ColumnSpec("v", "numeric-binned", bin_edges="equal-width:3"), ColumnSpec("label", "target"))
    with pytest.raises(DataError) as exc:
        data.load_csv(path, cfg)
    assert str(exc.value) == message
    assert exc.value.column == "v"


@pytest.mark.parametrize(
    "missing, text, message",
    [
        # the dropped data row 2 above the bad cell does not shift its row
        ("drop-row", "a,label\n1,0\n,0\nbogus,1\n", "unparsable numeric cell 'bogus' (row 3, column 'a')"),
        ("drop-row", "a,label\n1,0\nnan,1\n", "non-finite cell 'nan' (row 2, column 'a')"),
        ("drop-row", "a,label\n1,0\n2,1\n-inf,1\n", "non-finite cell '-inf' (row 3, column 'a')"),
        ("fill-value:none", "a,label\n1,0\n,1\n", "unparsable numeric cell 'none' (row 2, column 'a')"),
        ("drop-row", "a,label\n1,\n2, \n", "no rows left after preprocessing"),
    ],
    ids=["bogus", "nan", "inf", "fill-value", "all-dropped"],
)
def test_load_csv_bad_cells_match_the_reference(tmp_path, missing, text, message):
    path = _write(tmp_path, "bad.csv", text)
    cfg = _config(
        ColumnSpec("a", "numeric-binned", bin_edges="equal-width:2", missing_policy=missing),
        ColumnSpec("label", "target"),
    )
    with pytest.raises(DataError) as got:
        data.load_csv(path, cfg)
    with pytest.raises(DataError) as want:
        _load_csv_reference(path, cfg)
    assert str(got.value) == str(want.value)
    assert message in str(got.value)


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
        X=X, y=y, target_name="label",
    )
    result = next(pipeline.augment_grid(X, y, pipeline.SmoteConfig(), [30.0], False))
    path = tmp_path / "aug.csv"
    data.write_augmented(ds, result.records, path, result.angular_distances)
    header = path.read_text().splitlines()[0].split(",")
    assert header[-5:] == data.META_COLUMNS
    names, target, X2, y2, meta = oracles.read_augmented(path)
    assert names == ["f0", "f1", "f2"]
    assert target == "label"
    assert np.allclose(X2[:20], X)
    assert (np.array(meta["synthetic"][:20]) == "0").all()
    assert (np.array(meta["synthetic"][20:]) == "1").all()
    assert len(X2) == 20 + len(result.records)
    for features, row in zip(result.records.features, X2[20:]):
        assert np.allclose(row, features)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty file"),
        ("f0,label\n1,0\n", "lacks a target column followed by"),
        (",".join(data.META_COLUMNS) + "\n,,0,0,\n", "lacks a target column followed by"),
    ],
    ids=["empty", "no-metadata", "no-target"],
)
def test_read_augmented_rejects_a_file_it_did_not_write(tmp_path, text, message):
    with pytest.raises(DataError, match=message):
        oracles.read_augmented(_write(tmp_path, "aug.csv", text))


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
        target_name="label",
    )
    m = int((ds.y == data.minority_label(ds.y)).sum())
    distances = draw(st.lists(_FINITE, min_size=m, max_size=m))
    record = st.tuples(row, st.integers(-1, 10**6), _FINITE, _FINITE, st.booleans())
    columns = list(zip(*draw(st.lists(record, max_size=6)))) or [[]] * 5
    records = synth.Records(
        features=np.array(columns[0], dtype=float).reshape(-1, width),
        source_row_id=np.array(columns[1], dtype=int),
        rotation_angle=np.array(columns[2], dtype=float),
        angular_distance=np.array(columns[3], dtype=float),
        boosted=np.array(columns[4], dtype=bool),
    )
    return ds, records, distances


def _per_row(y, minority_distances):
    """Each original row's distance: the next minority distance on a minority row, else None."""
    it = iter(minority_distances)
    minority = data.minority_label(y)
    return [next(it) if label == minority else None for label in y.tolist()]


@settings(max_examples=100, deadline=None)
@given(case=_augmented_cases())
def test_write_augmented_read_augmented_round_trip(tmp_path_factory, case):
    ds, records, distances = case
    path = tmp_path_factory.mktemp("augmented") / "aug.csv"
    data.write_augmented(ds, records, path, distances)
    names, target, X, y, meta = oracles.read_augmented(path)
    assert (names, target) == (ds.feature_names, "label")
    assert np.array_equal(X, np.vstack([ds.X, records.features]))
    minority = data.minority_label(ds.y)
    assert np.array_equal(y, np.r_[ds.y, [minority] * len(records)])

    def number(cell):
        return None if cell == "" else float(cell)

    n = len(ds.y)
    assert [number(c) for c in meta["angular_distance"]] == (
        _per_row(ds.y, distances) + records.angular_distance.tolist()
    )
    assert [number(c) for c in meta["rotation_angle"]] == [None] * n + records.rotation_angle.tolist()
    assert meta["synthetic"] == ["0"] * n + ["1"] * len(records)
    assert meta["boosted"] == ["0"] * n + [str(int(b)) for b in records.boosted]
    assert meta["source_row_id"] == [""] * n + [str(i) for i in records.source_row_id.tolist()]


_EDGE_FLOATS = [
    -0.0, 0.5, -1.5, 1e300, -1e300, 5e-324, 2.2e-308, np.inf, -np.inf, np.nan,
    2.0**53 - 1, 2.0**53, 2.0**53 + 2, -(2.0**53),
    2.0**63 - 1024, 2.0**63, -(2.0**63) + 1024, -(2.0**63), 2.0**64,
    1023.0, 1023.5, 1024.0, -1.0,
]
_CELLS = st.one_of(
    st.floats(),
    st.sampled_from(_EDGE_FLOATS),
    st.integers(-(2**62), 2**62).map(float),
    st.floats(-(2.0**64), 2.0**64).map(np.trunc),
)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 6).flatmap(
        lambda w: st.lists(st.lists(_CELLS, min_size=w, max_size=w), min_size=1, max_size=6)
    ),
    ints=st.lists(
        st.one_of(st.integers(-(2**63), 2**63 - 1), st.sampled_from([-1, 0, 1023, 1024])), max_size=6
    ),
)
def test_fmt_table_equals_fmt_cell_for_cell(rows, ints):
    values = np.array(rows)
    assert data._fmt_table(values).tolist() == [[data._fmt(v) for v in row] for row in values]
    ints = np.array(ints, dtype=np.int64)
    assert data._fmt_table(ints).tolist() == [data._fmt(v) for v in ints]


def _reference_write_dataset(dataset, path):
    """The per-cell writer the blocked one must match byte for byte."""
    header = ([dataset.id_name] if dataset.id_name else []) + dataset.feature_names + [dataset.target_name]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i in range(dataset.X.shape[0]):
            ids = [dataset.id_values[i]] if dataset.id_name else []
            w.writerow(ids + [data._fmt(v) for v in dataset.X[i]] + [data._fmt(dataset.y[i])])


def _reference_write_augmented(dataset, synthetic, path, minority_distances):
    label = data._fmt(data.minority_label(dataset.y))
    distances = _per_row(dataset.y, minority_distances)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(dataset.feature_names + [dataset.target_name] + data.META_COLUMNS)
        for i, dist in enumerate(distances):
            w.writerow(
                [data._fmt(v) for v in dataset.X[i]]
                + [data._fmt(dataset.y[i]), "" if dist is None else data._fmt(dist), "", "0", "0", ""]
            )
        for j in range(len(synthetic)):
            w.writerow(
                [data._fmt(v) for v in synthetic.features[j]]
                + [label, data._fmt(synthetic.angular_distance[j]), data._fmt(synthetic.rotation_angle[j]),
                   "1", "1" if synthetic.boosted[j] else "0", data._fmt(synthetic.source_row_id[j])]
            )


def test_blocked_writers_match_the_per_cell_writers(tmp_path):
    rng = np.random.default_rng(3)
    n = 2 * data.BLOCK_ROWS + 37
    X = rng.normal(scale=1e3, size=(n, 4))
    X[:, 0] = np.round(X[:, 0])
    X.flat[rng.choice(X.size, size=len(_EDGE_FLOATS), replace=False)] = _EDGE_FLOATS
    y = (rng.random(n) < 0.2).astype(int)
    ids = [f"c{i}" for i in range(n)]
    ids[5], ids[n - 1] = "7,001", 'say "hi"'
    ds = data.Dataset(
        feature_names=["a", "b", "c", "d"], X=X, y=y,
        target_name="label", id_values=ids, id_name="id",
    )
    data.write_dataset(ds, tmp_path / "got.csv")
    _reference_write_dataset(ds, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert b'"7,001"' in (tmp_path / "got.csv").read_bytes()

    i = np.arange(data.BLOCK_ROWS + 5)
    records = synth.Records(
        features=np.column_stack([i.astype(float), X[i % n, 1:]]), source_row_id=i % n,
        rotation_angle=np.array([0.0, 0.01745, 3.0])[i % 3], angular_distance=X[i % n, 1],
        boosted=i % 7 == 0,
    )
    dists = rng.uniform(0, np.pi, size=int((y == data.minority_label(y)).sum()))
    dists[4] = 2.0
    data.write_augmented(ds, records, tmp_path / "got-aug.csv", dists)
    _reference_write_augmented(ds, records, tmp_path / "want-aug.csv", dists.tolist())
    assert (tmp_path / "got-aug.csv").read_bytes() == (tmp_path / "want-aug.csv").read_bytes()


def test_write_augmented_with_no_synthetic_rows(tmp_path):
    ds = data.Dataset(
        feature_names=["f0"],
        X=np.array([[1.0], [2.0]]),
        y=np.array([0, 1]),
        target_name="label",
    )
    path = tmp_path / "plain.csv"
    empty = synth.Records(np.empty((0, 1)), np.empty(0, int), np.empty(0), np.empty(0), np.empty(0, bool))
    data.write_augmented(ds, empty, path, [0.5])
    lines = path.read_text().splitlines()
    assert len(lines) == 3  # header + 2 originals


_ID_TEXT = st.one_of(
    st.text(),
    st.text(alphabet=st.sampled_from(',"\r\n a\u00e9\u6771')),
    st.sampled_from(["", " lead", "trail ", "7,001", 'say "hi"', "\r", "\n", "\r\n", 'a\r\n"b",c', "Z\u00fcrich"]),
)


@settings(max_examples=300, deadline=None)
@given(cell=_ID_TEXT)
def test_quote_matches_csv_writer(cell):
    buf = io.StringIO()
    csv.writer(buf).writerow([cell, "0"])
    assert data._quote(cell) + ",0\r\n" == buf.getvalue()


@settings(max_examples=100, deadline=None)
@given(ids=st.lists(_ID_TEXT, min_size=1, max_size=8))
def test_write_dataset_with_text_ids_matches_the_per_cell_writer(tmp_path_factory, ids):
    n = len(ids)
    ds = data.Dataset(
        feature_names=["a", "b"], X=np.random.default_rng(n).normal(size=(n, 2)), y=np.arange(n) % 2,
        target_name="label", id_values=ids, id_name="id",
    )
    path = tmp_path_factory.mktemp("ids")
    data.write_dataset(ds, path / "got.csv")
    _reference_write_dataset(ds, path / "want.csv")
    assert (path / "got.csv").read_bytes() == (path / "want.csv").read_bytes()
    header, columns = data.read_table(path / "got.csv")
    assert header == ["id", "a", "b", "label"] and list(columns[0]) == ids


def _traced_peak(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_augmented_holds_no_block_or_file_string(tmp_path):
    # integral cells from 2**63 up format as 100-300 digit strings, so a
    # block's text outweighs the formatting temporaries: the writer peaks
    # about 1.2x the formatting of one block's features whatever the row
    # count, a string or list of lines holding a block about 2.7x, and a
    # whole-file string grows with the rows
    rng = np.random.default_rng(11)
    ds = data.Dataset(feature_names=["f0", "f1"], X=10.0 ** rng.uniform(100, 300, size=(10, 2)),
                      y=np.arange(10) % 2, target_name="label")

    def records(n):
        return synth.Records(
            features=10.0 ** rng.uniform(100, 300, size=(n, 2)), source_row_id=np.arange(n) % 10,
            rotation_angle=rng.uniform(0, 1, n), angular_distance=rng.uniform(0, 3, n),
            boosted=np.arange(n) % 7 == 0,
        )

    one, three = records(data.BLOCK_ROWS), records(3 * data.BLOCK_ROWS)
    formatting = _traced_peak(lambda: data._fmt_table(one.features.T))
    path = tmp_path / "aug.csv"
    peaks = [_traced_peak(lambda: data.write_augmented(ds, r, path, [0.5] * 5)) for r in (one, three)]
    assert peaks[1] < 1.5 * peaks[0]
    assert peaks[1] < 1.5 * formatting


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
    bounds = aol.OutlierBounds(q1=1.2, q3=1.8, lower_bound=-5.0, upper_bound=9.0)
    svg = tmp_path / "clamp.svg"
    data.emit_histogram(values, 5, bounds, svg)
    text = svg.read_text()
    xs = [float(m) for m in re.findall(r'<line x1="([0-9.]+)" y1="40"', text)]
    assert len(xs) == 2
    margin, width = 40, 640
    for x in xs:
        assert margin <= x <= width - margin
    assert min(xs) == pytest.approx(margin)
    assert max(xs) == pytest.approx(width - margin)
