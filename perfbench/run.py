"""qfam benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload suites|structure-ladder|cli-documents
                             --seed N --seconds S --trace 0|1

Runs passes of one workload, one at a time, each in a fresh interpreter
(perfbench/passproc.py), until the next pass would end after S seconds
(at least MIN_PASSES passes). Every pass builds the same inputs from the
seed and checks every answer. The last line of standard output is one JSON
object: correct, attempted, failed and metrics. With --trace 0 the metrics
are the end-to-end ones (medians over the passes); with --trace 1 the
passes alternate untraced, span-traced and allocation-traced, and the
metrics are the per-layer ones (see tracing.py and README.md).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("suites", "structure-ladder", "cli-documents")
END_TO_END = (("setup_s", "s"), ("batch_s", "s"), ("peak_rss_mb", "MB"))
MIN_PASSES = 3
PASS_TIMEOUT_S = 150


class PassError(RuntimeError):
    """A pass process crashed, timed out or printed no result."""


def run_pass(workload: str, seed: int, mode: str, index: int) -> dict:
    cmd = [sys.executable, str(HERE / "passproc.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--index", str(index)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"pass {index} ran longer than {PASS_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"pass {index} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - spawned
    result["wall_s"] = time.monotonic() - spawned
    result["mode"] = mode
    return result


def run_passes(workload: str, seed: int, seconds: float, modes: tuple[str, ...]) -> list[dict]:
    passes: list[dict] = []
    started = time.monotonic()
    while True:
        passes.append(run_pass(workload, seed, modes[len(passes) % len(modes)], len(passes)))
        elapsed = time.monotonic() - started
        longest = max(p["wall_s"] for p in passes)
        if len(passes) >= max(MIN_PASSES, len(modes)) and elapsed + longest > seconds:
            return passes


def median_of(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def layer_metrics(passes: list[dict]) -> dict[str, float]:
    """Per-layer medians: times and counts from the span-traced passes,
    tracemalloc peaks from the allocation-traced ones."""
    spans = [p for p in passes if p["mode"] == "spans"]
    alloc = [p for p in passes if p["mode"] == "alloc"]
    values = {}
    for name in spans[0]["layers"]:
        source = alloc if name.endswith("peak_alloc_mb") else spans
        values[name] = statistics.median(p["layers"][name] for p in source)
    off = [p for p in passes if p["mode"] == "off"]
    values["trace.batch_overhead_s"] = median_of(spans, "batch_s") - median_of(off, "batch_s")
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "qfam" / "__init__.py").is_file():
        print(f"error: no qfam sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    modes = ("off", "spans", "alloc") if args.trace else ("off",)
    try:
        passes = run_passes(args.workload, args.seed, args.seconds, modes)
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        units = dict(tracing.LAYER_METRICS)
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in layer_metrics(passes).items()}
    else:
        metrics = {name: {"value": median_of(passes, name), "unit": unit}
                   for name, unit in END_TO_END}
    failures = sorted({name for p in passes for name in p["failed"]})
    result = {
        "correct": all(p["correct"] for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(len(p["failed"]) for p in passes),
        "metrics": metrics,
    }

    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} passes")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    print(f"  operations attempted {result['attempted']}, failed {result['failed']}"
          + (f" ({', '.join(failures)})" if failures else ""))
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, passes=passes)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
