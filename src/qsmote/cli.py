"""Command-line entry point.

Subcommands: preprocess (CSV + column config -> encoded CSV), smote
(encoded CSV -> augmented CSV + histogram), evaluate (encoded CSV ->
metrics grid CSV). Every command writes a JSON run manifest through
`_staged`, its params taken from the parsed command line; all
randomness flows from --seed.
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

from . import __version__, data, evaluate, keyed, pipeline
from .errors import DataError, ParameterError, QsmoteError

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _config_hash(payload):
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def _manifest_path(out_path):
    return Path(out_path).with_suffix(".manifest.json")


def _write_manifest(out_path, inputs, outputs, params, **extra):
    manifest = {
        "tool_version": __version__,
        "config_hash": _config_hash(params),
        "seed": params["seed"],
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "params": params,
        **extra,
    }
    with open(_manifest_path(out_path), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# parsed arguments that are not run parameters: the paths have their own
# manifest fields, and --assert-trend only checks the result
_NOT_PARAMS = ("input", "output", "func", "assert_trend")


@contextlib.contextmanager
def _staged(args, outputs, inputs, **extra):
    """Yield scratch paths for the outputs; on success write the manifest and move them all in.

    The manifest's params are every parsed argument but `_NOT_PARAMS`;
    `extra` holds its other fields. The scratch directory sits beside
    the first output and each file in it has its final name, so a
    sibling that a writer derives (the histogram CSV, the manifest)
    lands right. A failed run removes the directory and leaves every
    existing file as it was.
    """
    paths = [Path(p) for p in outputs]
    stage = Path(tempfile.mkdtemp(prefix=".qsmote-", dir=paths[0].parent))
    try:
        staged = [stage / p.name for p in paths]
        yield staged
        params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMS}
        _write_manifest(staged[0], inputs, outputs, params, **extra)
        for p in [*paths, _manifest_path(paths[0])]:
            os.replace(stage / p.name, p)
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def cmd_preprocess(args):
    config = data.load_config(args.config)
    dataset = data.load_csv(args.input, config)
    with _staged(args, [args.output], [args.input, args.config]) as (output,):
        data.write_dataset(dataset, output)
    return EXIT_OK


_load_encoded = data.load_encoded  # both commands look it up at call time, so a test can substitute a fake


def cmd_smote(args):
    out = Path(args.output)
    svg = out.with_suffix(".angles.svg")
    outputs = [out, svg, svg.with_suffix(".csv")]
    config = pipeline.SmoteConfig(
        split_factor=args.sf,
        shots=args.shots,
        seed=args.seed,
        num_bins=args.bins,
        boost_angle_multiplier=args.boost_multiplier,
    )
    dataset = _load_encoded(args.input, args.target_column)
    labels = (dataset.y == data.minority_label(dataset.y)).astype(int)
    result = next(pipeline.augment_grid(dataset.X, labels, config, [args.target_percent], args.aol))
    achieved = result.achieved_percent
    staged = _staged(args, outputs, [args.input], achieved_minority_percent=achieved)
    with staged as (staged_out, staged_svg, _):
        data.write_augmented(dataset, result.records, staged_out, result.angular_distances)
        data.emit_histogram(result.pooled, config.num_bins * 4, result.bounds, staged_svg)
    boosted = len(result.records) - result.generated
    print(f"generated {result.generated} synthetic records ({boosted} boosted), achieved {achieved:.2f}% minority")
    return EXIT_OK


def _fmt_metric(v):
    return "" if v is None else f"{v:.6f}"


def _parse_grid(text):
    """Comma-separated minority percents; an entry that is not a number is a ParameterError."""
    grid = []
    for entry in text.split(",") if text else []:
        try:
            grid.append(float(entry))
        except ValueError:
            raise ParameterError(f"grid entry {entry!r} is not a number") from None
    return grid


def cmd_evaluate(args):
    args.grid = _parse_grid(args.grid)
    keyed.check_seed(args.seed)
    dataset = _load_encoded(args.input, args.target_column)
    minority = data.minority_label(dataset.y)
    aol_flags = {"both": (False, True), "on": (True,), "off": (False,)}[args.aol]
    rows = evaluate.run_experiment(
        dataset.X,
        (dataset.y == minority).astype(int),
        args.grid,
        aol_flags=aol_flags,
        test_fraction=args.split,
        seed=args.seed,
        k=args.k,
    )
    with _staged(args, [args.output], [args.input]) as (output,):
        with open(output, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(
                ["target_percent", "aol", "accuracy_train", "accuracy_test", "f1", "pr_auc", "roc_auc"]
            )
            for r in rows:
                metrics = (r.accuracy_train, r.accuracy_test, r.f1, r.pr_auc, r.roc_auc)
                target = "" if r.target_percent is None else r.target_percent
                w.writerow([target, int(r.aol), *map(_fmt_metric, metrics)])
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
    p.set_defaults(func=cmd_preprocess, seed=None)

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
    p.set_defaults(func=cmd_smote)

    p = sub.add_parser("evaluate", help="run the metrics grid on an encoded CSV")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--target-column", default="label")
    p.add_argument("--grid", default="", help="comma-separated minority percents")
    p.add_argument("--aol-mode", dest="aol", choices=["both", "on", "off"], default="both")
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
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
