"""CSV ingestion, preprocessing, and artifact emission.

The column config drives missing-value policy, label encoding, and
binning; the same module serializes augmented datasets (with provenance
metadata columns) and emits angular-distribution histograms as SVG plus
a sibling CSV.
"""

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .errors import DataError, ParameterError

import numpy as np

META_COLUMNS = ["angular_distance", "rotation_angle", "synthetic", "boosted", "source_row_id"]


@dataclass
class ColumnSpec:
    name: str
    kind: str                       # id | categorical | numeric-binned | numeric-raw | target
    bin_edges: object = None        # ordered list of floats, or "equal-width:k"
    missing_policy: str = "drop-row"  # drop-row | fill-value:<v> | fill-mode


@dataclass
class DataConfig:
    columns: list
    version: int = 1

    @property
    def target(self):
        return next(c for c in self.columns if c.kind == "target")

    def spec(self, name):
        for c in self.columns:
            if c.name == name:
                return c
        raise DataError("column not in config", column=name)


@dataclass
class Dataset:
    feature_names: list
    X: np.ndarray
    y: np.ndarray
    row_ids: np.ndarray
    target_name: str
    id_values: list = field(default_factory=list)
    id_name: str = None


def load_config(path):
    """Parse a YAML column config; a malformed entry is a DataError naming it."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise DataError(f"config {path} is not valid YAML: {exc}") from None
    if not isinstance(raw, dict) or raw.get("version") != 1 or not isinstance(raw.get("columns", []), list):
        raise DataError(f"config {path} must declare version: 1 and a list of columns")
    columns = []
    for i, c in enumerate(raw.get("columns", []), start=1):
        if not isinstance(c, dict) or not isinstance(c.get("name"), str):
            raise DataError(f"column entry {i} must be a mapping with a name, got {c!r}")
        spec = ColumnSpec(c["name"], c.get("kind"), c.get("bins"), c.get("missing", "drop-row"))
        if spec.kind not in ("id", "categorical", "numeric-binned", "numeric-raw", "target"):
            raise DataError(f"unknown column kind {spec.kind!r}", column=spec.name)
        bins = spec.bin_edges
        edges = isinstance(bins, list) and len(bins) > 1 and all(isinstance(e, (int, float)) for e in bins)
        if spec.kind == "numeric-binned" and not (isinstance(bins, str) or edges):
            raise DataError(f"bins {bins!r} are not 'equal-width:k' or a list of edges", column=spec.name)
        columns.append(spec)
    if sum(1 for c in columns if c.kind == "target") != 1:
        raise DataError("config must declare exactly one target column")
    return DataConfig(columns=columns)


def _read_rows(path, config):
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"empty file: {path}") from None
        rows = list(reader)
    check_row_widths(header, rows)
    for spec in config.columns:
        if spec.name not in header:
            raise DataError("configured column missing from header", column=spec.name)
    configured = {c.name for c in config.columns}
    for name in header:
        if name not in configured:
            raise DataError("column not in config", column=name)
    return header, rows


def check_row_widths(header, rows):
    """DataError for the first row (counted from 1 below the header) whose width differs."""
    for i, r in enumerate(rows, start=1):
        if len(r) != len(header):
            raise DataError(f"{len(r)} cells where the header has {len(header)}", row=i)


def _is_missing(cell):
    return cell.strip() == ""


def _parse_number(cell, row, column):
    try:
        v = float(cell)
    except ValueError:
        raise DataError(f"unparsable numeric cell {cell!r}", row=row, column=column) from None
    if not math.isfinite(v):
        raise DataError(f"non-finite cell {cell!r}", row=row, column=column)
    return v


def _sorted_levels(values):
    # lexicographic, except purely numeric level sets sort numerically so
    # that re-encoding an already-encoded column is the identity
    try:
        keyed = sorted(set(values), key=float)
        return keyed
    except ValueError:
        return sorted(set(values))


def _resolve_edges(spec, values, column):
    if isinstance(spec.bin_edges, str):
        scheme, _, arg = spec.bin_edges.partition(":")
        if scheme != "equal-width" or not arg.isdigit() or int(arg) < 1:
            raise DataError(f"bad bin scheme {spec.bin_edges!r}", column=column)
        k = int(arg)
        lo, hi = min(values), max(values)
        if hi == lo:
            hi = lo + 1.0
        return [lo + (hi - lo) * i / k for i in range(k + 1)]
    edges = [float(e) for e in spec.bin_edges]
    if any(b <= a for a, b in zip(edges, edges[1:])):
        raise DataError("bin edges must be strictly increasing", column=column)
    return edges


def _bin_value(v, edges):
    # edges[i] <= v < edges[i+1]; clamp below/above range
    if v < edges[0]:
        return 0
    for i in range(len(edges) - 1):
        if edges[i] <= v < edges[i + 1]:
            return i
    return len(edges) - 2


def load_csv(path, config):
    """Parse and preprocess a CSV into a numeric Dataset."""
    header, rows = _read_rows(path, config)
    col_idx = {name: i for i, name in enumerate(header)}
    specs = [config.spec(name) for name in header if any(c.name == name for c in config.columns)]

    # missing-value pass, column by column
    kept = []
    fill = {}
    for spec in specs:
        j = col_idx[spec.name]
        policy, _, arg = str(spec.missing_policy).partition(":")
        if policy == "fill-value":
            fill[spec.name] = arg
        elif policy == "fill-mode":
            present = [r[j] for r in rows if not _is_missing(r[j])]
            if not present:
                raise DataError("all values missing under fill-mode", column=spec.name)
            fill[spec.name] = max(sorted(set(present)), key=present.count)
        elif policy != "drop-row":
            raise DataError(f"unknown missing policy {spec.missing_policy!r}", column=spec.name)
    for r in rows:
        drop = False
        for spec in specs:
            j = col_idx[spec.name]
            if _is_missing(r[j]):
                if spec.name in fill:
                    r[j] = fill[spec.name]
                else:
                    drop = True
                    break
        if not drop:
            kept.append(r)
    if not kept:
        raise DataError(f"no rows left after preprocessing {path}")

    feature_names = [s.name for s in specs if s.kind in ("categorical", "numeric-binned", "numeric-raw")]
    target_spec = config.target
    id_specs = [s for s in specs if s.kind == "id"]

    columns = {}
    for spec in specs:
        j = col_idx[spec.name]
        raw = [r[j] for r in kept]
        if spec.kind == "id":
            columns[spec.name] = raw
        elif spec.kind in ("categorical", "target"):
            levels = _sorted_levels(raw)
            code = {lv: float(i) for i, lv in enumerate(levels)}
            columns[spec.name] = [code[v] for v in raw]
        elif spec.kind == "numeric-raw":
            columns[spec.name] = [
                _parse_number(v, i, spec.name) for i, v in enumerate(raw)
            ]
        elif spec.kind == "numeric-binned":
            nums = [_parse_number(v, i, spec.name) for i, v in enumerate(raw)]
            edges = _resolve_edges(spec, nums, spec.name)
            columns[spec.name] = [float(_bin_value(v, edges)) for v in nums]

    X = np.column_stack([columns[n] for n in feature_names]) if feature_names else np.empty((len(kept), 0))
    y = np.asarray(columns[target_spec.name], dtype=float).astype(int)
    id_name = id_specs[0].name if id_specs else None
    return Dataset(
        feature_names=feature_names,
        X=X,
        y=y,
        row_ids=np.arange(len(kept)),
        target_name=target_spec.name,
        id_values=columns[id_name] if id_name else [],
        id_name=id_name,
    )


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    f = float(v)
    return str(int(f)) if f.is_integer() else repr(f)


def write_dataset(dataset, path):
    """Emit a processed dataset as CSV (id column first if present)."""
    header = ([dataset.id_name] if dataset.id_name else []) + dataset.feature_names + [dataset.target_name]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i in range(dataset.X.shape[0]):
            row = []
            if dataset.id_name:
                row.append(dataset.id_values[i])
            row += [_fmt(v) for v in dataset.X[i]]
            row.append(_fmt(dataset.y[i]))
            w.writerow(row)


def write_augmented(dataset, synthetic, path, original_distances=None):
    """Original rows then synthetic rows, with five metadata columns.

    `original_distances` maps row_id -> angular distance for minority
    originals whose distance was computed during the run.
    """
    original_distances = original_distances or {}
    header = dataset.feature_names + [dataset.target_name] + META_COLUMNS
    label = minority_label(dataset.y)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i in range(dataset.X.shape[0]):
            rid = int(dataset.row_ids[i])
            dist = original_distances.get(rid)
            row = [_fmt(v) for v in dataset.X[i]]
            row += [_fmt(dataset.y[i]), _fmt(dist) if dist is not None else "", "", "0", "0", ""]
            w.writerow(row)
        for rec in synthetic:
            row = [_fmt(v) for v in rec.features]
            row += [
                _fmt(label),
                _fmt(rec.angular_distance),
                _fmt(rec.rotation_angle),
                "1",
                "1" if rec.boosted else "0",
                _fmt(rec.source_row_id),
            ]
            w.writerow(row)


def read_augmented(path, feature_names=None):
    """Round-trip loader for files produced by write_augmented."""
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    if header[-5:] != META_COLUMNS:
        raise DataError(f"{path} lacks the augmented metadata columns")
    names = header[: -5 - 1]
    target_name = header[-6]
    if feature_names is not None and names != list(feature_names):
        raise DataError(f"{path} feature columns differ from expectation")
    X = np.array([[float(v) for v in r[: len(names)]] for r in rows]) if rows else np.empty((0, len(names)))
    y = np.array([int(float(r[len(names)])) for r in rows], dtype=int)
    meta = {
        name: [r[len(names) + 1 + k] for r in rows]
        for k, name in enumerate(META_COLUMNS)
    }
    return names, target_name, X, y, meta


def minority_label(y):
    values, counts = np.unique(y, return_counts=True)
    return int(values[np.argmin(counts)])


def emit_histogram(values, bins, bounds, path, width=640, height=400):
    """Standalone SVG histogram with dashed outlier-threshold lines.

    Also writes a sibling CSV of (bin_start, bin_end, count) next to the
    SVG.
    """
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        raise ParameterError("histogram needs a nonempty value vector")
    counts, edges = np.histogram(values, bins=bins)
    path = Path(path)

    csv_path = path.with_suffix(".csv")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["bin_start", "bin_end", "count"])
        for s, e, c in zip(edges[:-1], edges[1:], counts):
            w.writerow([repr(float(s)), repr(float(e)), int(c)])

    margin = 40
    plot_w, plot_h = width - 2 * margin, height - 2 * margin
    lo, hi = edges[0], edges[-1]
    span = hi - lo or 1.0
    peak = max(int(counts.max()), 1)

    def sx(v):
        # clamp to plot edges so out-of-range thresholds stay visible
        return margin + min(max((v - lo) / span, 0.0), 1.0) * plot_w

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
    ]
    for s, e, c in zip(edges[:-1], edges[1:], counts):
        bar_h = plot_h * c / peak
        x0 = sx(s)
        parts.append(
            f'<rect x="{x0:.2f}" y="{height - margin - bar_h:.2f}" '
            f'width="{sx(e) - x0:.2f}" height="{bar_h:.2f}" '
            f'fill="steelblue" stroke="white"/>'
        )
    for bound, color in ((bounds.lower_bound, "red"), (bounds.upper_bound, "green")):
        x = sx(bound)
        parts.append(
            f'<line x1="{x:.2f}" y1="{margin}" x2="{x:.2f}" y2="{height - margin}" '
            f'stroke="{color}" stroke-dasharray="6 4"/>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
    return csv_path
