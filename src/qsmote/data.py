"""CSV ingestion, preprocessing, and artifact emission.

The column config drives missing-value policy, label encoding, and
binning; the same module serializes augmented datasets (with provenance
metadata columns, the originals' angular distances aligned with the
minority rows by position) and emits angular-distribution histograms as
SVG plus a sibling CSV. Rows are written as comma-joined text lines;
only the header and id cells can hold a character that needs quoting.

A table is read by one C parse (`_parse_table`: `read_float_table` for
an encoded table, `_read_raw` for a raw one) or, where that parse might
read the file differently, cell by cell through `read_table` and
`parse_floats`, the only route that names a bad cell. Both read UTF-8
and skip a leading byte-order mark.
"""

import codecs
import csv
import functools
import itertools
import math
import operator
import re
from collections import Counter
from decimal import Decimal
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
    target_name: str
    id_values: list = field(default_factory=list)
    id_name: str = None


# libyaml's parser where PyYAML has it: the same safe constructors, parsed in C
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(path):
    """Parse a YAML column config; a malformed entry is a DataError naming it."""
    try:
        with open(path, "rb") as fh:  # bytes: the YAML reader decodes them and names a bad one
            raw = yaml.load(fh, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        # on one line: the reader's message spans several
        raise DataError(f"config {path} is not valid YAML: {' '.join(str(exc).split())}") from None
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
    _check_unique(c.name for c in columns)
    if sum(1 for c in columns if c.kind == "target") != 1:
        raise DataError("config must declare exactly one target column")
    ids = [c.name for c in columns if c.kind == "id"]
    if len(ids) > 1:
        raise DataError("config must declare at most one id column", column=ids[1])
    return DataConfig(columns=columns)


def read_table(path):
    """Header and cell columns (tuples of strings) of a CSV file.

    The file is UTF-8, after a byte-order mark if it starts with one. A
    missing or empty file, a blank header, a byte that is not UTF-8, a
    repeated column name, a row (counted from 1 below the header) not as
    wide as the header, or a row `csv` cannot read (a cell past
    `csv.field_size_limit()`) is a DataError.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header, rows = None, []
        try:
            header = next(reader)
            rows.extend(reader)  # keeps the rows read before a bad one
        except StopIteration:
            raise DataError(f"empty file: {path}") from None
        except csv.Error as exc:
            if header is None:
                raise DataError(f"{exc} in the header of {path}") from None
            raise DataError(str(exc), row=len(rows) + 1) from None
        except UnicodeDecodeError:
            raise _undecodable(path) from None
    if not header:
        raise DataError(f"blank header in {path}")
    _check_unique(header)
    widths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    bad = np.flatnonzero(widths != len(header))
    if len(bad):
        raise DataError(f"{widths[bad[0]]} cells where the header has {len(header)}", row=int(bad[0]) + 1)
    return header, list(zip(*rows)) or [()] * len(header)


def _undecodable(path):
    """DataError naming the line of a file's first byte that is not UTF-8.

    The decoder reads ahead of the rows `csv` has read, so the bytes after
    any byte-order mark are decoded again whole; the line ends (\n, \r\n
    or \r) before the bad byte count its line, the header or a row counted
    from 1 below it.
    """
    raw = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    start = 0
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        start = exc.start
    what, row = f"byte 0x{raw[start:start + 1].hex()} is not UTF-8", len(raw[:start + 1].splitlines()) - 1
    return DataError(f"{what} in the header of {path}" if row == 0 else what, row=row or None)


def _parse_table(path, allowed, dtype_of):
    """Header and `np.loadtxt` table of a CSV from one C parse, or None to hand the file back.

    `dtype_of(header)` gives the table's dtype, or None. The file is handed
    back to `read_table`, which reads it cell by cell, wherever the C parse
    might read it differently: a missing or unreadable file, a header that
    is blank, holds a quote or repeats a name, no data rows (`np.loadtxt`
    warns), a blank line (`np.loadtxt` skips it, `csv` reads a short row),
    a data byte not in `allowed`, a line longer than
    `csv.field_size_limit()`, or a row or cell `np.loadtxt` rejects. One
    chunked scan checks the bytes and counts the lines, so most such files
    are handed back before the parse; the file is parsed from its handle,
    so no string holds it whole.
    """
    limit = csv.field_size_limit()
    try:
        # universal newlines (\r\n and \r read as \n); a leading byte-order mark is skipped
        with open(path, encoding="utf-8-sig") as fh:
            line = fh.readline().rstrip("\n")
            header = line.split(",")
            if '"' in line or not 0 < len(line) <= limit or len(set(header)) < len(header):
                return None
            dtype = dtype_of(header)
            if dtype is None:
                return None
            start = fh.tell()
            # byte offsets past the header: where the data read so far ends,
            # and its last newline (the header's own at -1)
            lines, end, newline = 0, 0, -1
            for chunk in iter(functools.partial(fh.read, 1 << 20), ""):
                block = chunk.encode()
                if block.translate(None, allowed):
                    return None
                ends = np.flatnonzero(np.frombuffer(block, np.uint8) == ord("\n")) + end
                if len(ends):
                    widths = np.diff(ends, prepend=newline) - 1
                    if widths.min() == 0 or widths.max() > limit:
                        return None
                    lines, newline = lines + len(ends), int(ends[-1])
                end += len(block)
            if end - newline - 1 > limit:
                return None
            lines += end > newline + 1  # a last line with no newline
            if not lines:
                return None
            fh.seek(start)
            # max_rows lets loadtxt size the table once instead of growing it
            table = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, ndmin=2, max_rows=lines)
    except (OSError, ValueError):
        return None
    return (header, table) if len(table) == lines else None


# the characters of an encoded table's data rows; any other one (a letter of
# nan or inf, a quote, a space, `_`, a non-ASCII digit) hands the file back
# before the C parse runs
_NUMBER_BYTES = b"0123456789+-.eE,\n"


def read_float_table(path):
    """Header and float64 table of a CSV of finite numbers from one C parse, or None.

    None hands the file back to `read_table` and `parse_floats`, which name
    the first bad cell: where `_parse_table` hands it back, where a data
    byte is not in `_NUMBER_BYTES`, a row is not as wide as the header, or
    a value is not finite.
    """
    parsed = _parse_table(path, _NUMBER_BYTES, lambda header: np.float64)
    if parsed is None or parsed[1].shape[1] != len(parsed[0]) or not np.isfinite(parsed[1]).all():
        return None
    return parsed


def _check_unique(names):
    """DataError naming the first column name that repeats an earlier one."""
    seen = set()
    for name in names:
        if name in seen:
            raise DataError("duplicate column name", column=name)
        seen.add(name)


def _odd_labels(labels):
    """Mask of the float labels that are not integers of magnitude below 2**53.

    A label outside the mask loads as is; `_label_error` checks the others.
    """
    return (labels % 1 != 0) | (np.abs(labels) >= 2.0**53)


def _label_error(cell, label):
    """The message of a label cell that int64 cannot hold or float64 rounded, or None."""
    if label % 1:
        return f"non-integer label {cell!r}"
    if not -(2.0**63) <= label < 2.0**63:
        return f"label {cell!r} is outside the int64 range"
    if Decimal(cell) != label:  # exact: a cell past 2**53 may have rounded to its float
        return f"label {cell!r} has no exact float64 value"
    return None


def load_encoded(path, target):
    """Dataset of an encoded CSV: numeric feature columns and an integer target column.

    A ragged row, a cell that is not a finite number, or a label that int64
    cannot hold or float64 rounds is a DataError naming the first such cell.
    A file is read cell by cell unless `read_float_table` parses it with the
    target, a feature column and integer labels below 2**53 in magnitude.
    """
    header, table = read_float_table(path) or ([], None)
    t = header.index(target) if target in header else None
    if t is not None and len(header) > 1 and not _odd_labels(table[:, t]).any():
        names, X, labels = header[:t] + header[t + 1:], np.delete(table, t, axis=1), table[:, t]
    else:
        names, columns = read_table(path)
        if target not in names:
            raise DataError("target column missing", column=target)
        if len(names) == 1:
            raise DataError(f"no feature columns besides the target in {path}")
        if not columns[0]:
            raise DataError(f"no data rows in {path}")
        t = names.index(target)
        cells = columns.pop(t)
        labels = parse_floats(cells, names.pop(t))
        for i in np.flatnonzero(_odd_labels(labels)).tolist():
            what = _label_error(cells[i], labels[i])
            if what:
                raise DataError(what, row=i + 1, column=target)
        X = np.column_stack([parse_floats(col, name) for col, name in zip(columns, names)])
    return Dataset(feature_names=names, X=X, y=labels.astype(int), target_name=target)


_NUMERIC = ("numeric-binned", "numeric-raw")


def _blank_cells(spec, cells, parsed):
    """Mask of a column's blank cells (empty or whitespace only), skipping the scan where it can.

    float() rejects '' and whitespace, so a numeric column whose every cell
    `parsed` holds no blank; a categorical or target column is scanned only
    if one of its distinct cells is blank.
    """
    if parsed or (spec.kind in ("categorical", "target") and all(map(str.strip, set(cells)))):
        return np.zeros(len(cells), dtype=bool)
    return np.fromiter(map(operator.not_, map(str.strip, cells)), dtype=bool, count=len(cells))


def _parse_number(cell, row, column):
    try:
        v = float(cell)
    except ValueError:
        raise DataError(f"unparsable numeric cell {cell!r}", row=row, column=column) from None
    if not math.isfinite(v):
        raise DataError(f"non-finite cell {cell!r}", row=row, column=column)
    return v


def _finite_floats(cells):
    """Float array of a column of cells if every cell parses to a finite float, else None."""
    try:
        values = np.fromiter(map(float, cells), dtype=float, count=len(cells))
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def parse_floats(cells, column, rows=None):
    """Float array of a column of cells; a DataError names the first unparsable or non-finite one.

    `rows` gives each cell's file row (counted from 1 below the header);
    by default the cells are the rows 1, 2, ... in order.
    """
    values = _finite_floats(cells)
    if values is None:
        rows = range(1, len(cells) + 1) if rows is None else np.asarray(rows).tolist()
        for cell, row in zip(cells, rows):
            _parse_number(cell, row, column)
    return values


def _numeric_level_key(level):
    x = float(level)
    return (math.isnan(x), 0.0 if math.isnan(x) else x, level)


def _sorted_levels(values):
    # lexicographic, except purely numeric level sets sort numerically so
    # that re-encoding an already-encoded column is the identity; nan levels
    # go last, and levels of equal value (0, -0) by their text, so the
    # order never depends on set iteration
    levels = set(values)
    try:
        return sorted(levels, key=_numeric_level_key)
    except ValueError:
        return sorted(levels)


def _resolve_edges(spec, values, column):
    if isinstance(spec.bin_edges, str):
        scheme, _, arg = spec.bin_edges.partition(":")
        if scheme != "equal-width" or not arg.isdigit() or int(arg) < 1:
            raise DataError(f"bad bin scheme {spec.bin_edges!r}", column=column)
        k = int(arg)
        lo, hi = float(values[values.argmin()]), float(values[values.argmax()])  # first extreme: 0.0 before -0.0 stays 0.0
        if hi == lo:
            hi = lo + 1.0
        edges = [lo + (hi - lo) * i / k for i in range(k + 1)]
        if not all(map(math.isfinite, edges)):
            raise DataError(f"equal-width range [{lo!r}, {hi!r}] overflows a float", column=column)
        return edges
    edges = [float(e) for e in spec.bin_edges]
    if any(b <= a for a, b in zip(edges, edges[1:])):
        raise DataError("bin edges must be strictly increasing", column=column)
    return edges


def _bin(values, edges):
    """Index i of the bin edges[i] <= v < edges[i+1] of each value, clamped to the first and last bin."""
    return np.clip(np.searchsorted(edges, values, side="right") - 1, 0, len(edges) - 2)


# the bytes a raw table's data rows may hold: not a quote (csv quoting), NUL,
# or \x1c-\x1f, which np.loadtxt's float parse strips as space and float() rejects
_TEXT_BYTES = bytes(sorted(set(range(256)) - set(b'"\0\x1c\x1d\x1e\x1f')))


def _read_raw(path, config):
    """Header, cell columns and float columns of a raw CSV from one C parse, or None.

    A numeric column under the drop-row policy is parsed in C to a float64
    array, which must be finite; every other column is a list of its cell
    strings. None hands the file back to `read_table` where `_parse_table`
    does, where a byte is not in `_TEXT_BYTES` or a header name is not in
    the config, or the other way round, or where a float cell is not finite.
    """
    names = {spec.name for spec in config.columns}

    def dtype_of(header):
        if set(header) != names:
            return None
        floats = (s.kind in _NUMERIC and s.missing_policy == "drop-row" for s in map(config.spec, header))
        return np.dtype([(f"f{j}", np.float64 if f else object) for j, f in enumerate(floats)])

    parsed = _parse_table(path, _TEXT_BYTES, dtype_of)
    if parsed is None:
        return None
    header, table = parsed[0], parsed[1].ravel()
    columns = [table[f] if table.dtype[f] == np.float64 else table[f].tolist() for f in table.dtype.names]
    floats = {name: col for name, col in zip(header, columns) if isinstance(col, np.ndarray)}
    if not all(np.isfinite(col).all() for col in floats.values()):
        return None
    return header, columns, floats


def load_csv(path, config):
    """Parse and preprocess a CSV into a numeric Dataset, one column at a time.

    The file is read by one C parse (`_read_raw`) or, where that hands it
    back, cell by cell (`read_table`). A parse error names the cell's file
    row, counted from 1 below the header, whether or not rows above it
    were dropped.
    """
    header, cell_columns, parsed = _read_raw(path, config) or (*read_table(path), {})
    for spec in config.columns:
        if spec.name not in header:
            raise DataError("configured column missing from header", column=spec.name)
    cells = dict(zip(header, cell_columns))
    specs = [config.spec(name) for name in header]

    # missing-value pass: fill values first (a fill-mode counts every row),
    # then drop the rows with a blank cell in a drop-row column
    fill, blank = {}, {}
    for spec in specs:
        col = cells[spec.name]
        if spec.kind in _NUMERIC and spec.name not in parsed:
            parsed[spec.name] = _finite_floats(col)
        blank[spec.name] = _blank_cells(spec, col, parsed.get(spec.name) is not None)
        policy, _, arg = str(spec.missing_policy).partition(":")
        if policy == "fill-value":
            fill[spec.name] = arg
        elif policy == "fill-mode":
            present = Counter(itertools.compress(col, ~blank[spec.name]))
            if not present:
                raise DataError("all values missing under fill-mode", column=spec.name)
            fill[spec.name] = max(sorted(present), key=present.__getitem__)
        elif policy != "drop-row":
            raise DataError(f"unknown missing policy {spec.missing_policy!r}", column=spec.name)
    keep = np.ones(len(cells[header[0]]), dtype=bool)
    for spec in specs:
        if spec.name not in fill:
            keep &= ~blank[spec.name]
    if not keep.any():
        raise DataError(f"no rows left after preprocessing {path}")
    file_rows = np.flatnonzero(keep) + 1
    every_row = len(file_rows) == len(keep)

    def kept(name):
        filled = name in fill and blank[name].any()
        if every_row and not filled:
            return cells[name]
        col = np.array(cells[name], dtype=object)
        if filled:
            col[blank[name]] = fill[name]
        return col[keep].tolist()

    feature_names = [s.name for s in specs if s.kind in ("categorical", "numeric-binned", "numeric-raw")]
    target_spec = config.target

    columns = {}
    for spec in specs:
        name = spec.name
        if spec.kind in _NUMERIC:
            nums = parsed.pop(name)
            if nums is None:
                nums = parse_floats(kept(name), name, file_rows)
            elif not every_row:
                nums = nums[keep]
            if spec.kind == "numeric-binned":
                nums = _bin(nums, _resolve_edges(spec, nums, name)).astype(float)
            columns[name] = nums
            continue
        raw = kept(name)
        if spec.kind == "id":
            columns[name] = list(raw)
        else:
            code = {lv: float(i) for i, lv in enumerate(_sorted_levels(raw))}
            columns[name] = np.fromiter(map(code.__getitem__, raw), dtype=float, count=len(raw))

    X = np.column_stack([columns[n] for n in feature_names]) if feature_names else np.empty((len(file_rows), 0))
    y = columns[target_spec.name].astype(int)
    id_name = next((s.name for s in specs if s.kind == "id"), None)
    return Dataset(
        feature_names=feature_names,
        X=X,
        y=y,
        target_name=target_spec.name,
        id_values=columns[id_name] if id_name else [],
        id_name=id_name,
    )


def _fmt(v):
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    f = float(v)
    return str(int(f)) if f.is_integer() else repr(f)


BLOCK_ROWS = 4096  # rows formatted per block, each written as its own line: no string holds a block

# the strings of 0..1023: every category code, bin index and label the
# CLI writes is one of them
_SMALL_INTS = np.array([str(i) for i in range(1024)], dtype=object)


def _fmt_table(values):
    """`_fmt` of every cell of an array, as an object array of strings.

    Integral cells in [0, 1024) are taken from `_SMALL_INTS`. The other
    integer cells and the integral float cells below 2**63 in magnitude
    go through `str` of the int, the non-integral cells (nan included)
    through `repr`, and the rest (±inf, integral cells from 2**63 up)
    through `_fmt`.
    """
    v = np.asarray(values)
    out = np.empty(v.shape, dtype=object)
    if v.dtype.kind in "iu":
        table = (v >= 0) & (v < len(_SMALL_INTS))
        out[table] = _SMALL_INTS[v[table]]
        out[~table] = list(map(str, v[~table].tolist()))
        return out
    v = v.astype(float)
    integral = v == np.trunc(v)
    table = integral & (v >= 0) & (v < len(_SMALL_INTS))
    out[table] = _SMALL_INTS[v[table].astype(np.intp)]
    small = integral & ~table & (np.abs(v) < 2.0**63)
    out[small] = list(map(str, v[small].astype(np.int64).tolist()))
    out[~integral] = list(map(repr, v[~integral].tolist()))
    large = integral & (np.abs(v) >= 2.0**63)
    out[large] = [_fmt(f) for f in v[large].tolist()]
    return out


_NEEDS_QUOTES = re.compile('[,"\r\n]').search


def _quote(cell):
    """A text cell as csv.writer writes it: in quotes, inner quotes doubled, if it holds , " \\r or \\n."""
    return '"' + cell.replace('"', '""') + '"' if _NEEDS_QUOTES(cell) else cell


def _write_lines(fh, n, block):
    """Write rows 0..n-1 one at a time as comma-joined lines ending in csv.writer's \\r\\n.

    block(lo, hi) gives a block's cells as string columns, none needing quotes (see `_quote`).
    """
    for lo in range(0, n, BLOCK_ROWS):
        fh.writelines(map("{}\r\n".format, map(",".join, zip(*block(lo, min(lo + BLOCK_ROWS, n))))))


def write_dataset(dataset, path):
    """Emit a processed dataset as CSV (id column first if present)."""
    header = ([dataset.id_name] if dataset.id_name else []) + dataset.feature_names + [dataset.target_name]

    def block(lo, hi):
        ids = [list(map(_quote, dataset.id_values[lo:hi]))] if dataset.id_name else []
        return [*ids, *_fmt_table(dataset.X[lo:hi].T), _fmt_table(dataset.y[lo:hi])]

    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        _write_lines(fh, dataset.X.shape[0], block)


def write_augmented(dataset, synthetic, path, minority_distances):
    """Original rows then the `synth.Records` rows, with five metadata columns.

    `minority_distances` holds one angular distance per original row of
    the minority label, in row order, as `pipeline.SmoteResult.angular_distances`
    holds them; the majority rows' distance cells are blank.
    """
    header = dataset.feature_names + [dataset.target_name] + META_COLUMNS
    label = minority_label(dataset.y)
    distance_cells = np.full(len(dataset.y), "", dtype=object)
    distance_cells[dataset.y == label] = _fmt_table(np.asarray(minority_distances, dtype=float))

    def original(lo, hi):
        blank, zero = [""] * (hi - lo), ["0"] * (hi - lo)
        features = _fmt_table(dataset.X[lo:hi].T)
        return [*features, _fmt_table(dataset.y[lo:hi]), distance_cells[lo:hi], blank, zero, zero, blank]

    def generated(lo, hi):
        s, k = synthetic, hi - lo
        meta = (s.angular_distance, s.rotation_angle, s.boosted, s.source_row_id)
        dist, angle, boosted, source = (_fmt_table(c[lo:hi]) for c in meta)
        return [*_fmt_table(s.features[lo:hi].T), [_fmt(label)] * k, dist, angle, ["1"] * k, boosted, source]

    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        _write_lines(fh, dataset.X.shape[0], original)
        _write_lines(fh, len(synthetic), generated)


def minority_label(y):
    values, counts = np.unique(y, return_counts=True)
    return int(values[np.argmin(counts)])


SVG_WIDTH, SVG_HEIGHT = 640, 400  # histogram size in pixels


def emit_histogram(values, bins, bounds, path):
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

    width, height, margin = SVG_WIDTH, SVG_HEIGHT, 40
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
