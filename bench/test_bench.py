"""Self-tests of the benchmark: ``python3 -m pytest bench -q``."""

import csv
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest
import yaml

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import c2cgen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from qsmote import cli, data, evaluate  # noqa: E402


# --- generator -------------------------------------------------------------


def test_generator_is_deterministic(tmp_path):
    paths = [tmp_path / f"{n}.csv" for n in ("a", "b", "c")]
    c2cgen.generate(paths[0], 500, 4)
    c2cgen.generate(paths[1], 500, 4)
    c2cgen.generate(paths[2], 500, 5)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()


def test_generator_matches_the_cell2cell_config(tmp_path):
    config = yaml.safe_load(workloads.CONFIG.read_text())
    assert c2cgen.COLUMNS == [c["name"] for c in config["columns"]]
    path = tmp_path / "raw.csv"
    rows = 20000
    c2cgen.generate(path, rows, 1)
    with open(path, newline="") as fh:
        body = list(csv.DictReader(fh))
    blank = {name: sum(r[name] == "" for r in body) / rows for name in c2cgen.COLUMNS}
    assert blank["AgeHH1"] == pytest.approx(0.02, abs=0.005)
    assert blank["MaritalStatus"] == pytest.approx(0.01, abs=0.004)
    assert all(v == 0 for k, v in blank.items() if k not in ("AgeHH1", "MaritalStatus"))
    assert sum(r["Churn"] == "Yes" for r in body) / rows == pytest.approx(0.29, abs=0.01)
    ds = data.load_csv(path, data.load_config(workloads.CONFIG))
    assert ds.X.shape == (rows, 21)  # filled, mode-filled: no row dropped
    for spec in config["columns"]:
        if spec["kind"] == "numeric-binned":  # every bin scheme sees a spread of values
            assert len({r[spec["name"]] for r in body}) > 5


# --- output checks ---------------------------------------------------------


@pytest.fixture(scope="module")
def flow(tmp_path_factory):
    """A small README flow: raw, encoded and augmented CSVs."""
    d = tmp_path_factory.mktemp("flow")
    raw, enc, aug = d / "raw.csv", d / "enc.csv", d / "aug.csv"
    c2cgen.generate(raw, 1500, 2)
    assert cli.main(["preprocess", str(raw), str(enc), "--config", str(workloads.CONFIG)]) == 0
    assert cli.main(["smote", str(enc), str(aug), "--target-column", "Churn",
                     "--target-percent", "40", "--aol"]) == 0
    return enc, aug


def _rewrite(src, dst, edit):
    with open(src, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(dst, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    manifest = src.with_suffix(".manifest.json")
    if manifest.exists():
        dst.with_suffix(".manifest.json").write_text(manifest.read_text())
    return dst


def test_smote_check_accepts_the_program_output(flow):
    enc, aug = flow
    digest = workloads.smote_digest(enc, aug, 40.0)
    workloads.compare_smote(digest, digest, "smote")
    assert digest["synthetic"] > 0


def _set(row, col, value):
    def edit(rows):
        rows[row][col] = value
    return edit


@pytest.mark.parametrize(
    "name, edit",
    [
        ("synthetic feature", lambda rows: _set(-1, 3, repr(float(rows[-1][3]) * (1 + 1e-6)))(rows)),
        ("original feature", _set(1, 2, "99")),
        ("dropped synthetic row", lambda rows: rows.pop()),
        ("synthetic row relabelled", _set(-1, 22, "0")),
        ("boosted flag", lambda rows: _set(-1, 26, "01"[rows[-1][26] == "0"])(rows)),
    ],
)
def test_smote_check_rejects_corrupted_output(flow, tmp_path, name, edit):
    enc, aug = flow
    bad = _rewrite(aug, tmp_path / "bad.csv", edit)
    reference = workloads.smote_digest(enc, aug, 40.0)
    with pytest.raises(workloads.CheckFailed):
        workloads.compare_smote(workloads.smote_digest(enc, bad, 40.0), reference, "smote")


def test_smote_check_rejects_missed_target(flow, tmp_path):
    enc, aug = flow
    bad = _rewrite(aug, tmp_path / "bad.csv", lambda rows: None)
    manifest = bad.with_suffix(".manifest.json")
    m = json.loads(manifest.read_text())
    m["achieved_minority_percent"] = 40.3
    manifest.write_text(json.dumps(m))
    with pytest.raises(workloads.CheckFailed, match="achieved"):
        workloads.smote_digest(enc, bad, 40.0)


def test_smote_compare_rejects_drifted_sums(flow):
    enc, aug = flow
    ref = workloads.smote_digest(enc, aug, 40.0)
    got = dict(ref, feature_sums=list(ref["feature_sums"]))
    got["feature_sums"][1] += 1e-6 * ref["feature_abs_sums"][1]
    with pytest.raises(workloads.CheckFailed, match="feature_sums"):
        workloads.compare_smote(got, ref, "smote")
    with pytest.raises(workloads.CheckFailed, match="boosted"):
        workloads.compare_smote(dict(ref, boosted=ref["boosted"] + 1), ref, "smote")


def test_preprocess_check_rejects_dropped_row(flow, tmp_path):
    enc, _ = flow
    assert workloads.preprocess_digest(enc, 1500)["sha256"]
    bad = _rewrite(enc, tmp_path / "bad.csv", lambda rows: rows.pop())
    with pytest.raises(workloads.CheckFailed, match="encoded rows"):
        workloads.preprocess_digest(bad, 1500)


def test_grid_checks_reject_corrupted_rows():
    workloads.work_around_numpy_trapz()
    rng = np.random.default_rng(3)
    X = rng.normal(size=(300, 4)) + np.r_[np.zeros(270), np.full(30, 2.0)][:, None]
    y = np.r_[np.zeros(270, dtype=int), np.ones(30, dtype=int)]
    rows = evaluate.run_experiment(X, y, [30], aol_flags=(False,), seed=1)
    workloads.check_grid_invariants(rows, [30], (False,))
    wl = workloads.GridWorkload("fixture", "", [30], (False,))
    ref = {"grid": workloads.grid_digest(rows)}
    wl.compare(ref, ref)
    with pytest.raises(workloads.CheckFailed, match="report rows"):
        workloads.check_grid_invariants(rows[:-1], [30], (False,))
    rows[1].f1 += 1e-6
    with pytest.raises(workloads.CheckFailed, match="reference"):
        wl.compare({"grid": workloads.grid_digest(rows)}, ref)


def test_rx_rotate_matches_the_simulator():
    from qsmote import synth

    rng = np.random.default_rng(0)
    for width in (1, 3, 8, 22):
        feats = rng.uniform(0.1, 5.0, size=(6, width))
        theta = rng.uniform(0.0, 3.0, size=6)
        expected = [synth.rotate_point(f, t) for f, t in zip(feats, theta)]
        assert np.allclose(workloads.rx_rotate(feats, theta), expected, rtol=0, atol=1e-12)


# --- tracer ----------------------------------------------------------------


def _fixture_modules(clock):
    outer, inner = types.ModuleType("outer"), types.ModuleType("inner")

    def f():
        clock[0] += 1.0
        inner.g()
        clock[0] += 2.0

    def g():
        clock[0] += 3.0
        inner.h()
        clock[0] += 1.0

    def h():
        clock[0] += 5.0

    def boom():
        clock[0] += 0.5
        raise ValueError("boom")

    outer.f, outer.boom, inner.g, inner.h = f, boom, g, h
    return {"outer": outer, "inner": inner}


def test_self_time_on_nested_calls():
    clock = [0.0]
    modules = _fixture_modules(clock)
    t = tracer.Tracer({"outer": ["f", "boom"], "inner": ["g", "h"]},
                      resolve=modules.get, clock=lambda: clock[0])
    with t.installed():
        modules["outer"].f()
        modules["outer"].f()
        with pytest.raises(ValueError):
            modules["outer"].boom()
    m = t.metrics(ops=2)
    assert m["outer.f.calls"] == 1 and m["outer.f.s"] == 12.0
    assert m["inner.g.s"] == 9.0 and m["inner.h.s"] == 5.0
    assert m["outer.self_s"] == 3.25  # (2 * (12 - 9) + 0.5) / 2
    assert m["inner.self_s"] == 9.0   # (9 - 5) + 5: same-layer nesting is not subtracted
    assert m["outer.boom.failed"] == 0.5 and m["outer.boom.s"] == 0.25
    assert modules["outer"].f.__name__ == "f"  # wrappers removed on exit


def test_absent_functions_are_reported_not_fatal():
    clock = [0.0]
    modules = _fixture_modules(clock)
    t = tracer.Tracer({"outer": ["f", "gone"], "vanished": ["x"], "inner": ["g", "h"]},
                      resolve=modules.get, clock=lambda: clock[0])
    with t.installed():
        modules["outer"].f()
    m = t.metrics()
    assert t.absent == ["outer.gone", "vanished.x"]
    assert m["trace.absent"] == 2 and m["outer.gone.calls"] == 0 and m["vanished.x.s"] == 0
    assert m["outer.f.s"] == 12.0


def test_tracer_restores_the_qsmote_functions():
    import importlib

    modules = {layer: importlib.import_module(f"qsmote.{layer}") for layer in tracer.LAYERS}
    before = {(l, n): getattr(modules[l], n, None) for l, names in tracer.LAYERS.items() for n in names}
    t = tracer.Tracer()
    with t.installed():
        wrapped = [k for k, fn in before.items() if getattr(modules[k[0]], k[1], None) is not fn]
    assert sorted(f"{l}.{n}" for l, n in wrapped) == sorted(
        f"{l}.{n}" for (l, n), fn in before.items() if fn is not None)
    assert t.absent == [f"{l}.{n}" for (l, n), fn in before.items() if fn is None]
    assert all(getattr(modules[l], n, None) is fn for (l, n), fn in before.items())


# --- defect probes ---------------------------------------------------------


def test_numpy_trapz_probe(monkeypatch):
    monkeypatch.delattr(np, "trapz", raising=False)
    if not hasattr(np, "trapezoid"):
        pytest.skip("numpy without trapezoid cannot show the defect")
    assert workloads.numpy_trapz_defect() == 1
    assert workloads.work_around_numpy_trapz() == 1
    assert np.trapz is np.trapezoid
    assert workloads.numpy_trapz_defect() == 0
    assert workloads.work_around_numpy_trapz() == 0


def test_id_as_feature_probe(tmp_path, monkeypatch):
    (tmp_path / "seed").mkdir()
    with_id = workloads.id_as_feature_defect(tmp_path / "seed")
    load = cli._load_encoded
    enc = tmp_path / "seed" / "probe-enc.csv"
    assert with_id == int("CustomerID" in load(enc, "Churn").feature_names)

    def load_without_id(path, target):
        ds = load(path, target)
        keep = [i for i, n in enumerate(ds.feature_names) if n != "CustomerID"]
        ds.feature_names = [ds.feature_names[i] for i in keep]
        ds.X = ds.X[:, keep]
        return ds

    monkeypatch.setattr(cli, "_load_encoded", load_without_id)
    assert workloads.id_as_feature_defect(tmp_path) == 0


# --- BENCHMARK.json --------------------------------------------------------


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == run.per_layer_units()
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
