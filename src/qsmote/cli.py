"""Command-line entry point.

Subcommands: preprocess (CSV + column config -> encoded CSV), smote
(encoded CSV -> augmented CSV + histogram), evaluate (encoded CSV ->
metrics grid CSV). Every mutating command writes a JSON run manifest;
all randomness flows from --seed.
"""

import argparse
import contextlib
import csv
import datetime
import hashlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__, data, evaluate, pipeline
from .errors import DataError, ParameterError, QsmoteError

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _config_hash(payload):
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def _manifest_path(out_path):
    return Path(out_path).with_suffix(".manifest.json")


def _write_manifest(out_path, inputs, outputs, params, achieved_percent=None):
    manifest = {
        "tool_version": __version__,
        "config_hash": _config_hash(params),
        "seed": params.get("seed"),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "params": params,
    }
    if achieved_percent is not None:
        manifest["achieved_minority_percent"] = achieved_percent
    with open(_manifest_path(out_path), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


@contextlib.contextmanager
def _staged(outputs):
    """Yield scratch paths for the outputs; move them and the manifest in on success.

    The scratch directory sits beside the first output and each file in
    it has its final name, so a sibling that a writer derives (the
    histogram CSV, the manifest) lands right. A failed run removes the
    directory and leaves every existing file as it was.
    """
    outputs = [Path(p) for p in outputs]
    stage = Path(tempfile.mkdtemp(prefix=".qsmote-", dir=outputs[0].parent))
    try:
        yield [stage / p.name for p in outputs]
        for p in [*outputs, _manifest_path(outputs[0])]:
            os.replace(stage / p.name, p)
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def cmd_preprocess(args):
    config = data.load_config(args.config)
    dataset = data.load_csv(args.input, config)
    with _staged([args.output]) as (output,):
        data.write_dataset(dataset, output)
        _write_manifest(
            output,
            [args.input, args.config],
            [args.output],
            {"command": "preprocess", "seed": None, "config": str(args.config)},
        )
    return EXIT_OK


def _load_encoded(path, target):
    """Read a preprocessed CSV (numeric features + target column).

    Every row must be as wide as the header, every cell a finite number
    and every label an integer; otherwise a DataError names the row.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    if target not in header:
        raise DataError("target column missing", column=target)
    if len(rows) == 0:
        raise DataError(f"no data rows in {path}")
    data.check_row_widths(header, rows)
    try:
        table = np.array([[float(v) for v in r] for r in rows])
    except ValueError as exc:
        raise DataError(f"non-numeric cell in {path}: {exc}") from None
    t = header.index(target)
    labels = table[:, t]
    bad = np.argwhere(~np.isfinite(table))
    if len(bad):
        i, j = bad[0]
        raise DataError(f"non-finite cell {rows[i][j]!r}", row=i + 1, column=header[j])
    bad = np.flatnonzero(labels % 1)
    if len(bad):
        raise DataError(f"non-integer label {rows[bad[0]][t]!r}", row=bad[0] + 1, column=target)
    return data.Dataset(
        feature_names=[h for i, h in enumerate(header) if i != t],
        X=np.delete(table, t, axis=1),
        y=labels.astype(int),
        row_ids=np.arange(len(rows)),
        target_name=target,
    )


def cmd_smote(args):
    out = Path(args.output)
    svg = out.with_suffix(".angles.svg")
    outputs = [out, svg, svg.with_suffix(".csv")]
    config = pipeline.SmoteConfig(
        target_minority_percent=args.target_percent,
        split_factor=args.sf,
        shots=args.shots,
        seed=args.seed,
        rescale=not args.no_rescale,
        estimator=args.estimator,
        num_bins=args.bins,
        boost_angle_multiplier=args.boost_multiplier,
    )
    dataset = _load_encoded(args.input, args.target_column)
    minority = data.minority_label(dataset.y)
    result, records, dists, bounds = pipeline.augment(
        dataset.X, dataset.y, config, args.aol, minority_label=minority
    )
    distances_by_row = dict(zip((int(r) for r in result.minority_row_ids), result.angular_distances))
    with _staged(outputs) as (staged_out, staged_svg, _):
        data.write_augmented(dataset, records, staged_out, original_distances=distances_by_row)
        data.emit_histogram(dists, config.num_bins * 4, bounds, staged_svg)
        _write_manifest(
            staged_out,
            [args.input],
            outputs,
            {
                "command": "smote",
                "seed": args.seed,
                "target_percent": args.target_percent,
                "sf": args.sf,
                "shots": args.shots,
                "aol": args.aol,
                "bins": args.bins,
                "estimator": args.estimator,
                "rescale": not args.no_rescale,
            },
            achieved_percent=result.report.achieved_percent,
        )
    print(
        f"generated {result.report.synthetic_generated} synthetic records "
        f"({len(records) - result.report.synthetic_generated} boosted), "
        f"achieved {result.report.achieved_percent:.2f}% minority"
    )
    return EXIT_OK


def _fmt_metric(v):
    return "" if v is None else f"{v:.6f}"


def cmd_evaluate(args):
    dataset = _load_encoded(args.input, args.target_column)
    minority = data.minority_label(dataset.y)
    grid = [float(g) for g in args.grid.split(",")] if args.grid else []
    aol_flags = {"both": (False, True), "on": (True,), "off": (False,)}[args.aol_mode]
    rows = evaluate.run_experiment(
        dataset.X,
        (dataset.y == minority).astype(int),
        grid,
        aol_flags=aol_flags,
        test_fraction=args.split,
        seed=args.seed,
        k=args.k,
    )
    with _staged([args.output]) as (output,):
        with open(output, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(
                ["target_percent", "aol", "accuracy_train", "accuracy_test", "f1", "pr_auc", "roc_auc"]
            )
            for r in rows:
                w.writerow(
                    [
                        "" if r.target_percent is None else r.target_percent,
                        int(r.aol),
                        _fmt_metric(r.accuracy_train),
                        _fmt_metric(r.accuracy_test),
                        _fmt_metric(r.f1),
                        _fmt_metric(r.pr_auc),
                        _fmt_metric(r.roc_auc),
                    ]
                )
        _write_manifest(
            output,
            [args.input],
            [args.output],
            {
                "command": "evaluate",
                "seed": args.seed,
                "grid": grid,
                "k": args.k,
                "split": args.split,
                "aol": args.aol_mode,
            },
        )
    if args.assert_trend:
        baseline = rows[0].f1
        best = max((r.f1 for r in rows[1:]), default=None)
        if best is None or baseline is None or best <= baseline:
            print("trend assertion failed: augmented F1 does not exceed baseline", file=sys.stderr)
            return EXIT_RUNTIME
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qsmote",
        description="Swap-test driven minority oversampling with angular outlier boosting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="encode a raw CSV using a column config")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--config", required=True, help="YAML column config (version: 1)")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("smote", help="augment the minority class of an encoded CSV")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--target-percent", type=float, required=True)
    p.add_argument("--target-column", default="label")
    p.add_argument("--sf", type=float, default=10.0, help="split factor")
    p.add_argument("--shots", type=int, default=0, help="0 = exact probabilities")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--aol", action="store_true", help="boost underpopulated outlier bins")
    p.add_argument("--bins", type=int, default=5)
    p.add_argument("--boost-multiplier", type=float, default=1.5)
    p.add_argument("--estimator", choices=["standard", "paper-literal"], default="standard")
    p.add_argument("--no-rescale", action="store_true", help="keep raw rotated amplitudes")
    p.set_defaults(func=cmd_smote)

    p = sub.add_parser("evaluate", help="run the metrics grid on an encoded CSV")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--target-column", default="label")
    p.add_argument("--grid", default="", help="comma-separated minority percents")
    p.add_argument("--aol-mode", choices=["both", "on", "off"], default="both")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--split", type=float, default=0.2, help="test fraction")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--assert-trend", action="store_true")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (DataError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except QsmoteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
