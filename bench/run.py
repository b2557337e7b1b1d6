"""qsmote benchmark: one seeded workload per run, closed loop, one process.

    python3 bench/run.py --workload grid-demo --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all            # every workload in turn
    python3 bench/run.py --workload all --trace 1  # per-layer tables

The program is imported from ``src/`` of the checkout this file sits in.
A run builds the workload's inputs from ``--seed`` (``setup_s`` is the
median of several set-ups before and after the operations), probes the
known defects, then runs one operation at a time until ``--seconds``
have passed (at least one operation), checking every output. With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced operations and reports the per-layer
metrics (see ``tracer.py``) averaged over traced operations, plus
``trace.overhead_s``. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import Tracer, metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# A virtual CPU can run several times slower for about a second after idling,
# so set-up is repeated untimed for WARMUP_S before the timed set-ups begin.
WARMUP_S = 1.5
MIN_SETUPS = 3
SETUP_BUDGET_S = 0.5
MAX_SETUPS = 100


END_TO_END = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}


def per_layer_units():
    """Every per-layer metric of a traced run, in report order, with its unit."""
    units = metric_units()
    units.update({"trace.overhead_s": "s", "knn_tie_share": "ratio",
                  "defect.numpy_trapz": "flag", "defect.id_as_feature": "flag"})
    return units


def _fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_op(steps, state):
    """Run every step of one operation; returns (seconds per step, digests).

    A step that raises or fails its check counts as failed and has no
    digest; the remaining steps still run.
    """
    times, digests = {}, {}
    for name, run, check in steps:
        state["attempted"] += 1
        digests[name] = None
        t0 = time.perf_counter()
        try:
            result = run()
        except Exception as exc:  # a program failure is a failed operation, not a crash
            times[name] = time.perf_counter() - t0
            state["failed"] += 1
            state["problems"].append(f"{name}: raised {type(exc).__name__}: {exc}")
            continue
        times[name] = time.perf_counter() - t0
        try:
            digests[name] = check(result)
        except (workloads.CheckFailed, OSError, ValueError, LookupError) as exc:
            # a missing or unparsable output file fails the check like a wrong value
            state["failed"] += 1
            state["problems"].append(f"{name}: {type(exc).__name__}: {exc}")
    return times, digests


def time_setups(wl, seed, workdir, setups):
    """Time a batch of set-ups into ``setups``; returns the last inputs.

    One batch runs before the operations and one after, so the median
    samples the host at two moments of the run.
    """
    batch = []
    while len(batch) < MIN_SETUPS or (sum(batch) < SETUP_BUDGET_S and len(batch) < MAX_SETUPS):
        t0 = time.perf_counter()
        inputs = wl.setup(seed, workdir)
        batch.append(time.perf_counter() - t0)
    setups += batch
    return inputs


def measure(workload_name, seed, seconds, trace):
    wl = workloads.WORKLOADS[workload_name]
    workdir = ROOT / ".bench_work" / f"{workload_name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        defects = {"defect.numpy_trapz": workloads.work_around_numpy_trapz()}
        warm_until = time.perf_counter() + WARMUP_S
        while time.perf_counter() < warm_until:
            wl.setup(seed, workdir)
        setups = []
        inputs = time_setups(wl, seed, workdir, setups)
        defects["defect.id_as_feature"] = workloads.id_as_feature_defect(workdir)
        tie_share = wl.tie_share(inputs, seed)

        state = {"attempted": 0, "failed": 0, "problems": []}
        steps = wl.steps(inputs, seed, workdir)
        tracer = Tracer()
        untraced, traced = [], []
        first = None
        repeat_ok = True
        modes = [(untraced, contextlib.nullcontext)]
        if trace:
            modes.append((traced, tracer.installed))
        deadline = time.perf_counter() + seconds
        while True:
            for timed_list, context in modes:
                with context():
                    times, digests = run_op(steps, state)
                timed_list.append(times)
                if None not in digests.values():
                    if first is None:
                        first = digests
                    elif digests != first:
                        repeat_ok = False
                        state["failed"] += 1
                        state["problems"].append("operation output differs from the run's first")
            if time.perf_counter() >= deadline:
                break
        time_setups(wl, seed, workdir, setups)

        ref = workloads.load_reference().get(workload_name, {}).get(str(seed))
        golden = "not recorded for this seed (invariant checks only)"
        if first is None:
            golden = "not compared: no operation passed its checks"
        elif ref is not None:
            try:
                wl.compare(first, ref)
                golden = "match"
            except workloads.CheckFailed as exc:
                golden = f"MISMATCH: {exc}"
                state["failed"] += 1
                state["problems"].append(str(exc))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    def op_seconds(ops):
        return [sum(t.values()) for t in ops]

    attempted, failed = state["attempted"], state["failed"]
    print(f"workload {workload_name}  seed {seed}  trace {trace}")
    print(f"  why: {wl.why}")
    print(f"  setup_s       {statistics.median(setups):.6f} s   (median of {len(setups)} set-ups)")
    for step in wl.step_names():
        values = [t[step] for t in untraced]
        print(f"  {step + '_s':<13} {statistics.median(values):.6f} s   (median of {len(values)})")
    print(f"  knn_tie_share {tie_share:.4f}")
    for name, value in defects.items():
        print(f"  {name} = {value}")
    print(f"  output check  {'pass' if failed == 0 else 'FAIL'}; golden: {golden}"
          f"; repeats agree: {repeat_ok}")
    print(f"  ops_failed    {failed}/{attempted}")
    for problem in state["problems"][:10]:
        print(f"    {problem}")

    plain = op_seconds(untraced)
    if not trace:
        values = {
            "setup_s": statistics.median(setups),
            "op_s": statistics.median(plain),
            "peak_rss_mb": peak_rss_mb,
        }
        print(f"  op_s          {values['op_s']:.6f} s   (median of {len(plain)})")
        print(f"  peak_rss_mb   {peak_rss_mb:.1f} MB")
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}
    else:
        units = per_layer_units()
        values = tracer.metrics(ops=max(len(traced), 1))
        traced_s = op_seconds(traced)
        values["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(plain)
        values["knn_tie_share"] = tie_share
        values.update(defects)
        print(f"  per layer, per traced operation ({len(traced)} traced, {len(plain)} untraced):")
        for name, unit in units.items():
            print(f"    {name:<40} {values[name]:>16.6f} {unit}")
        if tracer.absent:
            print(f"    absent: {', '.join(tracer.absent)}")
        metrics = {name: _metric(values[name], unit) for name, unit in units.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args):
    """Each workload in its own process, so peak RSS is per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            _fail(f"workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description="qsmote benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qsmote" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        _fail(f"no qsmote checkout around {HERE}: need src/qsmote and configs/")
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = run_all(args)
    elif args.workload in workloads.WORKLOADS:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    else:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)} or all")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
