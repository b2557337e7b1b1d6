"""Record the golden outputs that ``run.py`` compares against.

    python3 bench/record.py --workload grid-demo --seeds 0-31 --out bench/reference.json

Runs one operation of the workload per seed on the program in ``src/``
and stores each step's digest under ``reference[workload][seed]``,
keeping entries already in ``--out``. Record only from a commit whose
outputs are the ones to pin.
"""

import argparse
import contextlib
import json
import shutil
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def record(name, seed, workdir):
    wl = workloads.WORKLOADS[name]
    inputs = wl.setup(seed, workdir)
    digests = {}
    for step, run, check in wl.steps(inputs, seed, workdir):
        digests[step] = check(run())
    return digests


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seeds", required=True, help="inclusive range, as 0-31")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    sys.path.insert(0, str(ROOT / "src"))
    workloads.work_around_numpy_trapz()

    out = Path(args.out)
    reference = json.loads(out.read_text()) if out.exists() else {}
    workdir = ROOT / ".bench_work" / f"record-{args.workload}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for seed in range(int(lo), int(hi or lo) + 1):
            with contextlib.redirect_stdout(sys.stderr):
                digests = record(args.workload, seed, workdir)
            reference.setdefault(args.workload, {})[str(seed)] = digests
            print(f"{args.workload} seed {seed} recorded", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out.write_text(json.dumps(reference, sort_keys=True, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
