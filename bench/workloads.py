"""The three benchmark workloads: inputs, steps and output checks.

Each workload builds its inputs from the seed alone (``setup``, the part
``setup_s`` times), then runs one operation at a time. An operation is a
list of steps; each step is one call into the program followed by an
output check outside the timed region.

Checks come in two kinds:

* invariants that hold on any seed (row counts, the synthetic budget of
  ``pipeline.target_counts``, achieved percent within 0.2 points,
  every synthetic row equal to its source row rotated by its recorded
  angle, computed in closed form without the simulator, original rows
  passing through unchanged, every repeat of an operation in a run
  agreeing);
* a golden comparison with ``reference.json``, recorded from the v0
  code by ``record.py`` for a fixed range of seeds. Float features are
  compared at 1e-9 relative so closed-form kernels may move the last bits;
  everything discrete is compared exactly.
"""

import contextlib
import csv
import hashlib
import io
import json
from pathlib import Path

import numpy as np

import c2cgen

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "cell2cell.yaml"
DEMO_CONFIG = ROOT / "configs" / "synthetic.yaml"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

K = 5
TEST_FRACTION = 0.2
FLOAT_RTOL = 1e-9
PERCENT_TOL = 0.2


class CheckFailed(Exception):
    """A step's output differs from what the program must produce."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _close(value, ref, scale):
    return abs(value - ref) <= FLOAT_RTOL * max(abs(scale), 1e-300)


# --- defect probes ---------------------------------------------------------


def numpy_trapz_defect():
    """1 if ``evaluate.roc_auc_trapezoidal`` dies for want of ``np.trapz``."""
    from qsmote import evaluate

    try:
        evaluate.roc_auc_trapezoidal([0.2, 0.8], [0, 1])
    except AttributeError as exc:
        if "trapz" not in str(exc):
            raise
        return 1
    return 0


def work_around_numpy_trapz():
    """Probe the defect; only if present, alias the removed name.

    ``np.trapz`` and ``np.trapezoid`` are the same computation, so the
    alias lets the grids be timed without changing any result. Once the
    program is fixed the probe passes and nothing is installed.
    """
    defect = numpy_trapz_defect()
    if defect:
        np.trapz = np.trapezoid
    return defect


def id_as_feature_defect(workdir):
    """1 if ``smote`` treats the id column ``preprocess`` wrote as a feature."""
    from qsmote import cli

    raw, enc, aug = (workdir / f"probe-{n}.csv" for n in ("raw", "enc", "aug"))
    c2cgen.generate(raw, 200, 0)
    with contextlib.redirect_stdout(io.StringIO()):
        _require(cli.main(["preprocess", str(raw), str(enc), "--config", str(CONFIG)]) == 0,
                 "id probe: preprocess failed")
        _require(cli.main(["smote", str(enc), str(aug), "--target-column", "Churn",
                           "--target-percent", "40"]) == 0,
                 "id probe: smote failed")
    with open(aug, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh))
    return int("CustomerID" in header[: header.index("Churn")])


def knn_tie_share(X, y, seed):
    """Share of test queries whose k-th and (k+1)-th neighbours tie.

    Measured on the baseline training split of ``run_experiment``: on
    these queries the lower-row-id tie break decides the neighbour set.
    """
    from qsmote import evaluate

    train_idx, test_idx = evaluate.stratified_split(y, TEST_FRACTION, seed)
    train = X[train_idx]
    ties = 0
    for x in X[test_idx]:
        d = np.partition(np.linalg.norm(train - x, axis=1), [K - 1, K])
        ties += bool(d[K - 1] == d[K])
    return ties / len(test_idx)


def rx_rotate(features, theta):
    """``synth.rotate_point`` on each row, without the statevector simulator.

    Pads to a power of two, applies RX(theta) to every qubit of the
    amplitude-encoded row, rescales the real part to the row's norm and
    strips the padding. Because the rescale precedes the strip, a row of
    non-power-of-two width does not keep its norm exactly.
    """
    feats = np.atleast_2d(np.asarray(features, dtype=float))
    rows, width = feats.shape
    size = max(2, 1 << (width - 1).bit_length())
    norms = np.linalg.norm(feats, axis=1)[:, None]
    amp = np.zeros((rows, size), dtype=complex)
    amp[:, :width] = feats / norms
    c = np.cos(np.asarray(theta) / 2)[:, None, None]
    s = np.sin(np.asarray(theta) / 2)[:, None, None]
    for q in range(size.bit_length() - 1):
        v = amp.reshape(rows, 2**q, 2, -1)
        x0, x1 = v[:, :, 0, :], v[:, :, 1, :]
        amp = np.stack([c * x0 - 1j * s * x1, c * x1 - 1j * s * x0], axis=2).reshape(rows, size)
    real = amp.real
    return (real / np.linalg.norm(real, axis=1)[:, None] * norms)[:, :width]


# --- grid workloads --------------------------------------------------------


def _fmt6(v):
    return "" if v is None else f"{v:.6f}"


def grid_digest(rows):
    """Report rows as the 6-decimal strings the evaluate CSV holds."""
    return [
        [_fmt6(r.target_percent), int(r.aol)]
        + [_fmt6(getattr(r, f)) for f in ("accuracy_train", "accuracy_test", "f1", "pr_auc", "roc_auc")]
        for r in rows
    ]


def check_grid_invariants(rows, grid, aol_flags):
    expected = [(None, False)] + [(float(g), a) for g in grid for a in aol_flags]
    _require(len(rows) == len(expected), f"{len(rows)} report rows, expected {len(expected)}")
    got = [(r.target_percent, r.aol) for r in rows]
    _require(got == expected, f"report rows out of order: {got}")
    for r in rows:
        for f in ("accuracy_train", "accuracy_test", "f1", "pr_auc", "roc_auc"):
            v = getattr(r, f)
            # None marks an undefined metric, such as F1 with no predicted positive
            _require(v is None or 0.0 <= v <= 1.0, f"{f}={v} outside [0, 1]")


class GridWorkload:
    """``evaluate.run_experiment`` on one dataset; one step per operation."""

    def __init__(self, name, why, grid, aol_flags):
        self.name = name
        self.why = why
        self.grid = grid
        self.aol_flags = aol_flags

    def step_names(self):
        return ["grid"]

    def tie_share(self, inputs, seed):
        return knn_tie_share(*inputs, seed)

    def steps(self, inputs, seed, workdir):
        from qsmote import evaluate

        X, y = inputs

        def run():
            return evaluate.run_experiment(X, y, self.grid, aol_flags=self.aol_flags, seed=seed)

        def check(rows):
            check_grid_invariants(rows, self.grid, self.aol_flags)
            return grid_digest(rows)

        return [("grid", run, check)]

    def compare(self, digests, ref):
        _require(digests["grid"] == ref["grid"], "report rows differ from reference.json")


class GridDemo(GridWorkload):
    def __init__(self):
        super().__init__(
            "grid-demo",
            "criterion-09 grid on the 2000x8 demo data: KNN does most of the work and has no "
            "distance ties; synthesis is light",
            [30, 32, 34, 36, 38, 40, 42, 45, 48, 50],
            (False, True),
        )

    def setup(self, seed, workdir):
        from qsmote import data, demo

        # the README walkthrough: write the demo CSV, load it with its config
        path = workdir / "demo.csv"
        demo.write_dataset_csv(*demo.make_imbalanced_dataset(seed=seed), path)
        ds = data.load_csv(path, data.load_config(DEMO_CONFIG))
        return ds.X, ds.y


class GridC2C(GridWorkload):
    ROWS = 3000

    def __init__(self):
        super().__init__(
            "grid-c2c",
            "3-point AOL grid on 3000 integer-coded cell2cell-shaped rows: the same KNN with "
            "many k-th-neighbour distance ties, so the lower-id tie path is hot",
            [34, 40, 45],
            (True,),
        )

    def setup(self, seed, workdir):
        from qsmote import data

        raw = workdir / "raw.csv"
        c2cgen.generate(raw, self.ROWS, seed)
        ds = data.load_csv(raw, data.load_config(CONFIG))
        return ds.X, ds.y


# --- the README command flow -----------------------------------------------


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        return next(reader), list(reader)


def preprocess_digest(enc, rows):
    header, body = _read_csv(enc)
    _require(header[0] == "CustomerID" and header[-1] == "Churn" and len(header) == 23,
             f"encoded header {header}")
    _require(len(body) == rows, f"{len(body)} encoded rows, expected {rows} (none dropped)")
    _require(all(v.lstrip("-").isdigit() for r in body for v in r[1:]), "non-integer encoded cell")
    return {"sha256": _sha256(enc)}


def smote_digest(enc, aug, target_percent):
    """Invariant checks on one ``smote`` output plus its comparable summary."""
    from qsmote import pipeline

    enc_header, enc_rows = _read_csv(enc)
    header, rows = _read_csv(aug)
    n_meta = 5
    t = header.index("Churn")
    _require(t == len(header) - n_meta - 1, f"augmented header {header}")
    n = len(enc_rows)
    _require(len(rows) > n, "no synthetic rows written")
    original, synthetic = rows[:n], rows[n:]

    # original rows pass through unchanged (the encoded CSV's target is last)
    enc_order = [enc_header.index(h) for h in header[: t + 1]]
    for i, (r, e) in enumerate(zip(original, enc_rows)):
        _require(r[: t + 1] == [e[j] for j in enc_order] and r[t + 2 :] == ["", "0", "0", ""],
                 f"original row {i} changed")

    labels = [r[t] for r in enc_rows]
    minority = min(set(labels), key=labels.count)
    _, budget, _, _ = pipeline.target_counts(n, labels.count(minority), target_percent)
    flags = [(r[t + 3], r[t + 4]) for r in synthetic]
    n_plain = flags.count(("1", "0"))
    n_boost = len(flags) - n_plain
    # generation order: the run_smote records, then the boosted ones
    _require(flags == [("1", "0")] * n_plain + [("1", "1")] * n_boost,
             "synthetic rows with bad or out-of-order flags")
    _require(n_plain == budget, f"{n_plain} synthetic rows, target_counts says {budget}")
    _require(all(r[t] == minority for r in synthetic), "synthetic row with majority label")

    manifest = json.loads(Path(aug).with_suffix(".manifest.json").read_text())
    achieved = manifest["achieved_minority_percent"]
    _require(abs(achieved - target_percent) <= PERCENT_TOL,
             f"achieved {achieved}% vs target {target_percent}%")

    orig_X = np.array([[float(v) for v in r[:t]] for r in original])
    syn_X = np.array([[float(v) for v in r[:t]] for r in synthetic])
    src = np.array([int(r[-1]) for r in synthetic])
    theta = np.array([float(r[t + 2]) for r in synthetic])
    plain_X, boost_X = syn_X[:n_plain], syn_X[n_plain:]
    scale = np.linalg.norm(orig_X[src], axis=1)
    err = np.linalg.norm(plain_X - rx_rotate(orig_X[src[:n_plain]], theta[:n_plain]), axis=1)
    bad = int((err > FLOAT_RTOL * scale[:n_plain]).sum())
    _require(bad == 0, f"{bad} synthetic rows are not their source rotated by rotation_angle")
    # a boosted row's source is the original row or a synthetic row of that id
    for j, row in enumerate(boost_X):
        i = n_plain + j
        cands = np.vstack([orig_X[src[i]], plain_X[src[:n_plain] == src[i]]])
        err = np.linalg.norm(rx_rotate(cands, np.full(len(cands), theta[i])) - row, axis=1)
        _require(err.min() <= FLOAT_RTOL * scale[i],
                 f"boosted row {j} is no rotation of a record from source {src[i]}")

    meta = [[float(v) if v else 0.0 for v in r[t + 1 : t + 3]] for r in rows]
    exact = hashlib.sha256()
    for r in original:
        exact.update(",".join(r[: t + 1] + [str(bool(r[t + 1]))] + r[t + 3 :]).encode() + b"\n")
    for r in synthetic:
        exact.update(",".join([r[t]] + r[t + 3 :]).encode() + b"\n")
    return {
        "synthetic": n_plain,
        "boosted": n_boost,
        "feature_sums": syn_X.sum(axis=0).tolist(),
        "feature_abs_sums": np.abs(syn_X).sum(axis=0).tolist(),
        "meta_sums": np.sum(meta, axis=0).tolist(),
        "exact_sha256": exact.hexdigest(),
    }


def compare_smote(got, ref, step):
    for key in ("synthetic", "boosted", "exact_sha256"):
        _require(got[key] == ref[key], f"{step}: {key} {got[key]} != reference {ref[key]}")
    for key, scales in (("feature_sums", ref["feature_abs_sums"]), ("meta_sums", ref["meta_sums"])):
        _require(len(got[key]) == len(ref[key]), f"{step}: {key} length changed")
        for j, (a, b, s) in enumerate(zip(got[key], ref[key], scales)):
            _require(_close(a, b, s), f"{step}: {key}[{j}] {a!r} != reference {b!r}")


class C2CCli:
    """The README flow on a 51k-row raw CSV, in-process through ``cli.main``."""

    name = "c2c-cli"
    why = ("README flow preprocess, smote --aol, smote --aol --shots 1000 on a 51k-row "
           "cell2cell-shaped CSV: ingest, distances, synthesis and CSV writes; no KNN")
    ROWS = 51000
    TARGET = 40.0

    def step_names(self):
        return ["preprocess", "smote", "smote_shots"]

    def setup(self, seed, workdir):
        raw = workdir / "raw.csv"
        c2cgen.generate(raw, self.ROWS, seed)
        return raw

    def tie_share(self, inputs, seed):
        return 0.0  # this workload runs no KNN

    def steps(self, raw, seed, workdir):
        from qsmote import cli

        enc = workdir / "encoded.csv"
        def smote(out, *extra):
            return ["smote", str(enc), str(workdir / out), "--target-column", "Churn",
                    "--target-percent", f"{self.TARGET:g}", "--aol", *extra]

        argvs = {
            "preprocess": ["preprocess", str(raw), str(enc), "--config", str(CONFIG)],
            "smote": smote("augmented.csv"),
            "smote_shots": smote("augmented-shots.csv", "--shots", "1000"),
        }

        def runner(argv):
            def run():
                with contextlib.redirect_stdout(io.StringIO()):
                    return cli.main(argv)
            return run

        verified = {}  # step -> (output fingerprint, digest) of the first full check

        def checker(step):
            out = Path(argvs[step][2])

            def check(code):
                _require(code == 0, f"{step} exited {code}")
                # byte-identical output to an already verified one needs no re-parse
                fingerprint = [_sha256(out)]
                if step != "preprocess":
                    manifest = json.loads(out.with_suffix(".manifest.json").read_text())
                    fingerprint += [_sha256(enc), manifest["achieved_minority_percent"]]
                if step in verified and verified[step][0] == fingerprint:
                    return verified[step][1]
                if step == "preprocess":
                    digest = preprocess_digest(enc, self.ROWS)
                else:
                    digest = smote_digest(enc, out, self.TARGET)
                verified.setdefault(step, (fingerprint, digest))
                return digest
            return check

        return [(step, runner(argvs[step]), checker(step)) for step in self.step_names()]

    def compare(self, digests, ref):
        _require(digests["preprocess"] == ref["preprocess"], "encoded CSV differs from reference.json")
        for step in ("smote", "smote_shots"):
            compare_smote(digests[step], ref[step], step)


WORKLOADS = {w.name: w for w in (GridDemo(), GridC2C(), C2CCli())}


def load_reference():
    if not REFERENCE.exists():
        return {}
    return json.loads(REFERENCE.read_text())
