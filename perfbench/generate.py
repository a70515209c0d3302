"""Set-up of one workload, run in its own process so set-up cannot set the
peak RSS of the process that runs the timed calls.

Repeats the whole set-up SETUP_REPS times into fresh directories, keeps the
last, and prints one JSON line: the seconds of each repetition, the sha256
of everything set-up wrote and, with ``--trace 1``, the spans of every
repetition.

    python3 perfbench/generate.py --workload smoke --seed 1 --scale full \
        --trace 0 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Set-up runs this many times per benchmark run; setup_s is their median.
SETUP_REPS = 3


def tree_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    from tracing import Recorder
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    out = Path(args.out)
    recorder = Recorder()
    seconds = []
    previous = None
    for rep in range(SETUP_REPS):
        inputs = out / f"rep{rep}"
        if args.trace:
            with recorder.installed():
                root = recorder.open("setup")
                workload.generate(inputs, args.seed, args.scale)
                recorder.close(root)
        else:
            t0 = time.perf_counter()
            workload.generate(inputs, args.seed, args.scale)
            seconds.append(time.perf_counter() - t0)
        if previous is not None:
            shutil.rmtree(previous)
        previous = inputs
    previous.rename(out / "inputs")
    print(
        json.dumps(
            {"seconds": seconds, "setup_sha256": tree_sha256(out / "inputs"), "spans": recorder.spans()}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
