"""Per-layer trace of the qsmote modules, measured from outside.

The tracer replaces public functions with timing wrappers by setting
module attributes, so every call the program makes through a module
attribute or a module-global name is seen. Nothing under ``src/`` is
edited, and the wrappers exist only inside ``Tracer.installed()``.

For every wrapped function ``F`` it reports ``F.calls``, ``F.s``
(inclusive seconds) and ``F.failed`` (calls that raised; for
``cli.main`` also a nonzero exit code). Each layer gets ``<layer>.self_s``:
the sum over its spans of span time minus the time of direct child spans,
which is the layer's inclusive time minus time spent in other layers'
wrapped functions. Work counters sit at the same boundaries.

A function that no longer exists (say, ``synth.rotate_point`` after a
refactor) is reported as absent, with zero metrics, and never fails the
run; so is a counter that no longer fits its function's arguments.
"""

import contextlib
import importlib
import os
import time
from dataclasses import dataclass

import numpy as np

LAYERS = {
    "cli": ["main"],
    "data": ["load_csv", "write_dataset", "write_augmented", "emit_histogram"],
    "pipeline": ["run_smote", "centroid", "target_counts"],
    "qdist": ["angular_distance_table", "swap_test"],
    "statevec": ["apply_gate", "measure_qubit"],
    "synth": ["create_syn_data", "rotate_point"],
    "aol": ["detect_outliers", "boost_outliers"],
    "evaluate": ["stratified_split", "knn_predict", "compute_metrics"],
}

# cli.main is also timed per subcommand; these are the ones the workloads run
CLI_SUBCOMMANDS = ["preprocess", "smote"]


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _size(path):
    return os.path.getsize(path)


def _knn_counts(args, kwargs, result):
    queries = len(np.atleast_2d(_arg(args, kwargs, 2, "test_X")))
    return {
        "evaluate.knn_queries": queries,
        "evaluate.knn_pairs": queries * len(_arg(args, kwargs, 0, "train_X")),
    }


# function -> (args, kwargs, result) -> {counter: increment}
COUNTERS = {
    "data.load_csv": lambda a, k, r: {"data.rows_read": len(r.X)},
    "data.write_dataset": lambda a, k, r: {
        "data.rows_written": len(_arg(a, k, 0, "dataset").X),
        "data.bytes_written": _size(_arg(a, k, 1, "path")),
    },
    "data.write_augmented": lambda a, k, r: {
        "data.rows_written": len(_arg(a, k, 0, "dataset").X) + len(_arg(a, k, 1, "synthetic")),
        "data.bytes_written": _size(_arg(a, k, 2, "path")),
    },
    "data.emit_histogram": lambda a, k, r: {
        "data.bytes_written": _size(_arg(a, k, 3, "path")) + _size(r),
    },
    "pipeline.run_smote": lambda a, k, r: {"pipeline.synthetic_records": len(r.synthetic)},
    "qdist.angular_distance_table": lambda a, k, r: {"qdist.rows": len(_arg(a, k, 0, "points"))},
    # computed, not measured: a dense gate touches 2^n complex128 amplitudes
    "statevec.apply_gate": lambda a, k, r: {
        "statevec.gates": 1,
        "statevec.amp_bytes": 16 * 2 ** _arg(a, k, 0, "state").num_qubits,
    },
    "synth.create_syn_data": lambda a, k, r: {"synth.records": 1},
    "aol.boost_outliers": lambda a, k, r: {"aol.boosted": len(r)},
    "evaluate.knn_predict": _knn_counts,
}

COUNTER_UNITS = {
    "data.rows_read": "count",
    "data.rows_written": "count",
    "data.bytes_written": "B",
    "pipeline.synthetic_records": "count",
    "qdist.rows": "count",
    "statevec.gates": "count",
    "statevec.amp_bytes": "B-computed",
    "synth.records": "count",
    "aol.boosted": "count",
    "evaluate.knn_queries": "count",
    "evaluate.knn_pairs": "count",
}


def metric_units():
    """Every metric the tracer reports, in report order, with its unit."""
    return {
        name: COUNTER_UNITS.get(name, "s" if name.endswith((".s", "self_s")) else "count")
        for name in Tracer().metrics()
    }


@dataclass
class _Stat:
    calls: int = 0
    seconds: float = 0.0
    failed: int = 0


def _import(layer):
    try:
        return importlib.import_module(f"qsmote.{layer}")
    except ImportError:
        return None


class Tracer:
    """Wraps the functions named in ``layers`` and accumulates their metrics.

    ``resolve(layer)`` returns the module for a layer (or None if it is
    gone); ``clock`` returns seconds. Both are parameters so a test can
    trace fake modules on a fake clock.
    """

    def __init__(self, layers=LAYERS, resolve=None, clock=time.perf_counter):
        self.layers = layers
        self.resolve = resolve or _import
        self.clock = clock
        self.stats = {}
        self.self_s = {layer: 0.0 for layer in self.layers}
        self.counts = {name: 0 for name in COUNTER_UNITS}
        self.tag_s = {}
        self.counter_errors = 0
        self.absent = []
        self._stack = []

    def _wrap(self, layer, fn_name, fn):
        full = f"{layer}.{fn_name}"
        stat = self.stats[full]
        counter = COUNTERS.get(full)
        is_cli = full == "cli.main"
        stack = self._stack
        clock = self.clock

        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            failed = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                failed = is_cli and result != 0
                return result
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stat.calls += 1
                stat.seconds += dt
                stat.failed += failed
                self.self_s[layer] += dt - children[0]
                if is_cli:
                    tag = f"cli.main.{(_arg(args, kwargs, 0, 'argv') or ['?'])[0]}.s"
                    self.tag_s[tag] = self.tag_s.get(tag, 0.0) + dt
                if counter is not None and not failed:
                    try:
                        for name, inc in counter(args, kwargs, result).items():
                            self.counts[name] += inc
                    except (AttributeError, IndexError, KeyError, TypeError, OSError):
                        self.counter_errors += 1

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Install the wrappers for the duration of the block."""
        saved = []
        self.absent = []
        try:
            for layer, names in self.layers.items():
                module = self.resolve(layer)
                for name in names:
                    full = f"{layer}.{name}"
                    self.stats.setdefault(full, _Stat())
                    fn = getattr(module, name, None) if module is not None else None
                    if not callable(fn):
                        self.absent.append(full)
                        continue
                    saved.append((module, name, fn))
                    setattr(module, name, self._wrap(layer, name, fn))
            yield self
        finally:
            for module, name, fn in reversed(saved):
                setattr(module, name, fn)

    def metrics(self, ops=1):
        """Metric name -> value, averaged over ``ops`` traced operations."""
        out = {}
        for layer, names in self.layers.items():
            for name in names:
                stat = self.stats.get(f"{layer}.{name}", _Stat())
                out[f"{layer}.{name}.calls"] = stat.calls / ops
                out[f"{layer}.{name}.s"] = stat.seconds / ops
                out[f"{layer}.{name}.failed"] = stat.failed / ops
            out[f"{layer}.self_s"] = self.self_s[layer] / ops
        for sub in CLI_SUBCOMMANDS:
            out[f"cli.main.{sub}.s"] = self.tag_s.get(f"cli.main.{sub}.s", 0.0) / ops
        out.update({name: value / ops for name, value in self.counts.items()})
        out["trace.absent"] = len(self.absent)
        out["trace.counter_errors"] = self.counter_errors
        return out
