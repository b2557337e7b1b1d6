"""Acceptance gate: ten end-to-end criteria with frozen tolerances.

Each test prints exactly one pass/fail line so the gate can be read off
a verbose pytest run at a glance.
"""

import json
import time

import numpy as np
import pytest

import oracles
from oracles import RX
from qsmote import aol, cli, demo, evaluate, pipeline, qdist, synth

GRID = (30, 32, 34, 36, 38, 40, 42, 45, 48, 50)


def _report(number, name, ok):
    print(f"acceptance {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_01_swap_test_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(500):
        dim = int(rng.choice([2, 4, 8, 16, 32, 64]))
        a = rng.normal(size=dim)
        b = rng.normal(size=dim)
        if np.linalg.norm(a) == 0 or np.linalg.norm(b) == 0:
            continue
        states = qdist.prep_swap_test(a, b)
        circuit = oracles.swap_test(states, shots=0).overlap_probability
        oracle = oracles.overlap_probability_exact(states)
        worst = max(worst, abs(circuit - oracle))
    elapsed = time.time() - start
    _report(1, "swap-test circuit matches density-matrix oracle", worst <= 1e-9 and elapsed < 30)


def test_criterion_02_sampled_convergence():
    rng = np.random.default_rng(202)
    shots = 10000
    hits = 0
    for trial in range(200):
        dim = int(rng.choice([2, 4, 8]))
        a = rng.normal(size=dim)
        b = rng.normal(size=dim)
        states = qdist.prep_swap_test(a, b)
        exact_p0 = 0.5 * (1.0 + oracles.overlap_probability_exact(states))
        sampled = oracles.swap_test(
            states, shots=shots, rng=np.random.default_rng([202, trial])
        )
        sigma = np.sqrt(max(exact_p0 * (1 - exact_p0), 1e-12) / shots)
        if abs(sampled.outcome.p0 - exact_p0) <= 4 * sigma:
            hits += 1
    _report(2, "sampled probabilities converge within 4 sigma", hits >= 190)


def test_criterion_03_angular_distance_closed_form():
    f = qdist.angular_distance_from_probability
    ok = (
        f(0.0) == pytest.approx(np.pi, abs=1e-12)
        and f(0.25) == pytest.approx(2 * np.pi / 3, abs=1e-12)
        and f(0.5) == pytest.approx(np.pi / 2, abs=1e-12)
        and f(1.0) == pytest.approx(0.0, abs=1e-12)
    )
    _report(3, "angular distance closed form at the four anchor probabilities", ok)


def _rx_matrix(theta):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def test_criterion_04_rotation_correctness():
    rng = np.random.default_rng(404)
    ok = True
    # closed form: rotating every qubit equals the tensor-power matrix
    for _ in range(100):
        n = int(rng.integers(1, 5))
        theta = rng.uniform(0, 2 * np.pi)
        vec = rng.normal(size=2**n)
        if np.linalg.norm(vec) == 0:
            continue
        raw = synth.rotate_point(vec, theta, rescale=False)
        u = np.eye(1)
        for _ in range(n):
            u = np.kron(u, _rx_matrix(theta))
        expected = np.real(u @ (vec / np.linalg.norm(vec)))
        ok = ok and np.allclose(raw, expected, atol=1e-9)
    # the rotated complex statevector keeps unit norm before the real part
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        vec = rng.normal(size=2**n)
        if np.linalg.norm(vec) == 0:
            continue
        state = oracles.initialize(vec, n)
        theta = rng.uniform(0, 2 * np.pi)
        for q in range(n):
            state = oracles.apply_gate(state, RX(q, theta))
        ok = ok and abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-9
    _report(4, "rotations match the tensor-product closed form", ok)


def test_criterion_05_ratio_targeting():
    start = time.time()
    X, y = demo.make_imbalanced_dataset(n_rows=2000, minority_fraction=0.10)
    ok = True
    for target in GRID:
        result = next(pipeline.augment_grid(X, y, pipeline.SmoteConfig(seed=0), [target], False))
        ok = ok and abs(result.achieved_percent - target) <= 0.2
    elapsed = time.time() - start
    _report(5, "achieved minority percent within 0.2 points across the grid", ok and elapsed < 120)


def test_criterion_06_outlier_oracle():
    rng = np.random.default_rng(606)
    ok = True
    for _ in range(1000):
        d = rng.normal(size=int(rng.integers(4, 50)))
        bounds, low, high = aol.detect_outliers(d, num_bins=3)
        srt = np.sort(d)
        n = len(srt)
        def quantile(q):
            pos = q * (n - 1)
            lo = int(np.floor(pos))
            hi = min(lo + 1, n - 1)
            return srt[lo] + (pos - lo) * (srt[hi] - srt[lo])
        q1, q3 = quantile(0.25), quantile(0.75)
        iqr = q3 - q1
        expect_low = d[d < q1 - 1.5 * iqr]
        expect_high = d[d > q3 + 1.5 * iqr]
        ok = ok and low.total() == len(expect_low) and high.total() == len(expect_high)
        ok = ok and set(np.round(d[d < bounds.lower_bound], 12)) == set(np.round(expect_low, 12))
        ok = ok and set(np.round(d[d > bounds.upper_bound], 12)) == set(np.round(expect_high, 12))
    values = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 100]
    bounds, low, high = aol.detect_outliers(values, 2)
    ok = ok and bounds.q1 == 2.75 and bounds.q3 == 8.25 and bounds.upper_bound == 16.5
    ok = ok and high.total() == 1 and low.total() == 0
    _report(6, "outlier membership identical to the sorted-quantile oracle", ok)


def test_criterion_07_boost_arithmetic():
    rng = np.random.default_rng(707)
    counts_per_bin = [1, 6, 7, 5, 1]        # total 20 -> threshold 4, half 2
    starts = np.arange(5, dtype=float)
    ends = starts + 1.0
    distances = []
    for i, c in enumerate(counts_per_bin):
        distances += list(np.linspace(starts[i] + 0.1, starts[i] + 0.9, c))
    distances = np.array(distances)
    features = rng.uniform(1.0, 4.0, size=(len(distances), 4))
    table = aol.OutlierBinTable(
        bin_starts=starts, bin_ends=ends,
        counts=np.array(counts_per_bin), num_bins=5,
    )
    config = pipeline.SmoteConfig(seed=7)
    boosted = aol.boost_outliers(table, features, distances, np.arange(len(distances)), config)
    ok = True
    for i, c in enumerate(counts_per_bin):
        extra = sum(
            1 for d in boosted.angular_distance
            if aol.bin_members(table, i, [d]).any()
        )
        if 0 < c < 2:
            ok = ok and c + extra == c * (1 + 4 // c)
        else:
            ok = ok and extra == 0
    vectors = [tuple(np.round(f, 12)) for f in boosted.features]
    ok = ok and len(vectors) == len(set(vectors)) and len(boosted) > 0
    sources = {tuple(np.round(f, 12)) for f in features}
    ok = ok and not (set(vectors) & sources)
    _report(7, "boost arithmetic and uniqueness of boosted records", ok)


def test_criterion_08_metrics_oracle():
    rng = np.random.default_rng(808)
    ok = True
    for _ in range(100):
        n = int(rng.integers(6, 60))
        scores = np.round(rng.uniform(size=n), 1)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            continue
        trap = evaluate.roc_auc_trapezoidal(scores, labels)
        pair = oracles.roc_auc_pairwise(scores, labels)
        ok = ok and abs(trap - pair) <= 1e-9
    scores = np.r_[np.ones(50), np.zeros(20), np.ones(10), np.zeros(120)]
    labels = np.r_[np.ones(70, dtype=int), np.zeros(130, dtype=int)]
    report = evaluate.compute_metrics(scores, labels)
    ok = ok and report.accuracy == pytest.approx(0.85)
    ok = ok and report.f1 == pytest.approx(0.7692, abs=1e-4)
    _report(8, "trapezoidal ROC-AUC equals pairwise AUC; confusion example exact", ok)


def test_criterion_09_trend_reproduction():
    start = time.time()
    X, y = demo.make_imbalanced_dataset()
    rows = evaluate.run_experiment(X, y, grid=GRID, seed=0)
    baseline = next(r for r in rows if r.target_percent is None)
    plain = {r.target_percent: r for r in rows if r.target_percent is not None and not r.aol}
    aol_rows = {r.target_percent: r for r in rows if r.target_percent is not None and r.aol}

    gain = plain[50].f1 - baseline.f1
    pr = [baseline.pr_auc] + [plain[g].pr_auc for g in GRID]
    roc = [baseline.roc_auc] + [plain[g].roc_auc for g in GRID]
    pr_up = sum(b >= a - 1e-12 for a, b in zip(pr, pr[1:]))
    roc_up = sum(b >= a - 1e-12 for a, b in zip(roc, roc[1:]))
    moderate = sum(aol_rows[g].f1 >= plain[g].f1 for g in (30, 32, 34, 36))
    elapsed = time.time() - start

    ok = gain >= 0.10 and pr_up >= 8 and roc_up >= 8 and moderate >= 3 and elapsed < 300
    _report(9, "F1/PR/ROC improvement trend on the shipped dataset", ok)


def test_criterion_10_determinism(tmp_path):
    X, y = demo.make_imbalanced_dataset(n_rows=300)
    src = tmp_path / "src.csv"
    demo.write_dataset_csv(X, y, src)
    out = tmp_path / "aug.csv"
    report = tmp_path / "report.csv"
    artifacts = []
    manifests = []
    for _ in range(2):
        assert cli.main(
            ["smote", str(src), str(out), "--target-percent", "34", "--seed", "3", "--aol"]
        ) == 0
        assert cli.main(
            ["evaluate", str(src), str(report), "--grid", "30,36", "--seed", "3"]
        ) == 0
        artifacts.append(
            tuple(
                p.read_bytes()
                for p in (
                    out,
                    out.with_suffix(".angles.svg"),
                    out.with_suffix(".angles.csv"),
                    report,
                )
            )
        )
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        manifest.pop("timestamp")  # the only wall-clock field
        manifests.append(manifest)
    ok = artifacts[0] == artifacts[1] and manifests[0] == manifests[1]
    _report(10, "repeat runs with one seed are byte-identical", ok)
