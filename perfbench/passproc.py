"""One pass of a workload, in a fresh interpreter.

Run by run.py, one pass at a time:

    python3 perfbench/passproc.py --workload NAME --seed N --mode off|spans|alloc --index K

It imports qfam from the checkout's src/, builds the workload's inputs,
notes the monotonic clock when they are ready, times one pass over the
operations, judges every answer and prints one JSON line.
"""

import os

# Steady timings: BLAS pools are pinned to one thread before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("off", "spans", "alloc"), default="off")
    parser.add_argument("--index", type=int, default=0)
    args = parser.parse_args()

    tracer = None
    if args.mode != "off":
        tracer = tracing.Tracer(alloc=args.mode == "alloc")
        tracing.install(tracer)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="docs-", dir=OUT))
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        ready = time.monotonic()
        answers = []
        started = time.perf_counter()
        for op in ops:
            try:
                answers.append(op.call())
            except Exception as exc:  # a raising operation is a failed one
                answers.append(exc)
        batch_s = time.perf_counter() - started
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed, correct = workloads.judge(ops, answers)
    result = {
        "ready": ready,
        "batch_s": batch_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(ops),
        "failed": failed,
        "correct": correct,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        if args.mode == "spans":
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}-pass{args.index}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
