"""Cold-process benchmark for the sullivan package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload elliptic|obstruction|cohomology \
        --seed N --seconds S --trace 0|1

Each operation of the workload runs in a fresh Python process
(perfbench/worker.py), because every command a user runs starts with cold
caches.  This process runs one operation at a time: a closed loop
with one client.  A run makes one untimed warm-up pass over the
operations, then timed passes, each in a seeded order, until S seconds
have passed and at least MIN_PASSES passes are done.  Every output is
checked against its reference (workloads.py); a mismatch, an unexpected
exit code or a hit wall-clock cap counts as a failed operation.

With --trace 0 the last stdout line reports the end-to-end metrics:
wall_s and setup_s are sums over the operations of per-operation medians,
slowest_op_s the largest per-operation median, peak_rss_mb the largest
peak RSS of any timed operation.  With --trace 1, untraced and traced
passes alternate, and the line reports the per-layer metrics of spans.py,
plus trace.overhead_s, the traced minus the untraced wall time.  Work
counts must repeat exactly between traced passes, or the run is marked
incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 4  # timed passes of an untraced run
MIN_TRACED = 2  # traced (and untraced) passes of a traced run
OP_CAP_S = 60.0  # wall-clock cap of one operation
STOP_PASSES_S = 120.0  # start no pass after this much of the run
DEADLINE_S = 165.0  # no operation runs past this point of the run

# Timings are reported in seconds of a machine on which the worker's
# calibrate() takes this long: each raw time is multiplied by
# REFERENCE_CALIBRATE_S / (calibrate() measured around it).
REFERENCE_CALIBRATE_S = 0.02

END_TO_END = {"wall_s": "s", "slowest_op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class Runner:
    """Runs operations in worker processes and keeps the tallies."""

    def __init__(self, root: Path, ops: list, seed: int):
        self.src = root / "src"
        self.root = root
        self.ops = ops
        self.rng = random.Random(seed)
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("SULLIVAN_")}
        self.traced_passes = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def run_op(self, op, trace: bool, env: dict) -> dict | None:
        self.attempted += 1
        timeout = min(OP_CAP_S, DEADLINE_S - self.elapsed())
        problem, result = None, None
        if timeout <= 0:
            problem = "run deadline reached"
        else:
            spec = json.dumps({**op.spec, "trace": trace})
            try:
                proc = subprocess.run(
                    [sys.executable, "-S", str(HERE / "worker.py"), str(self.src), spec],
                    capture_output=True, text=True, timeout=timeout,
                    cwd=self.root, env=env,
                )
            except subprocess.TimeoutExpired:
                problem = f"hit the {timeout:.0f} s cap"
            else:
                if proc.returncode != 0:
                    tail = (proc.stderr.strip().splitlines() or ["no stderr"])[-1]
                    problem = f"worker exited {proc.returncode}: {tail}"
                else:
                    result = json.loads(proc.stdout.splitlines()[-1])
                    problem = op.check(result)
        if problem:
            self.failed += 1
            print(f"FAILED {op.name}: {problem}", file=sys.stderr)
            return None
        return result

    def run_pass(self, trace: bool) -> dict[str, dict]:
        """One pass over every operation in a fresh seeded order; the
        results of the operations that passed their checks, by name.

        String hashing is randomized per process by default, and on the
        realizability search that alone moved one operation's time by about
        8 % between processes.  So untimed and timed passes share one hash
        seed.  Each traced pass gets its own, so that the comparison of
        work counts between traced passes also catches counts that depend
        on hash order.
        """
        if trace:
            self.traced_passes += 1
        env = {**self.env, "PYTHONHASHSEED": str(self.traced_passes if trace else 0)}
        order = list(self.ops)
        self.rng.shuffle(order)
        results = {}
        for op in order:
            result = self.run_op(op, trace, env)
            if result is not None:
                results[op.name] = result
        return results


def calibrated(result: dict, key: str) -> float:
    """A worker's raw `setup_s` or `op_s`, in reference-machine seconds."""
    return result[key] * REFERENCE_CALIBRATE_S / result[key.replace("_s", "_calibrate_s")]


def per_op_median(passes: list[dict], key: str) -> dict[str, float]:
    names = {name for p in passes for name in p}
    return {
        name: statistics.median(calibrated(p[name], key) for p in passes if name in p)
        for name in sorted(names)
    }


def end_to_end(passes: list[dict]) -> dict:
    op_s = per_op_median(passes, "op_s")
    setup_s = per_op_median(passes, "setup_s")
    rss = max((r["peak_rss_kb"] for p in passes for r in p.values()), default=0)
    return {
        "wall_s": sum(op_s.values()),
        "slowest_op_s": max(op_s.values(), default=0.0),
        "setup_s": sum(setup_s.values()),
        "peak_rss_mb": rss / 1024,
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer values over the traced passes (counts as counted, times
    and ratios as medians), and the counts that differed between passes."""
    rows = []
    for p in traced:
        total = spans.merge(
            [(r["trace"], calibrated(r, "op_s") / r["op_s"]) for r in p.values()]
        )
        rows.append(spans.layer_metrics(total, sum(calibrated(r, "op_s") for r in p.values())))
    unsteady = [
        name for name in spans.DETERMINISTIC
        if len({json.dumps(row[name]) for row in rows}) > 1
    ]
    values = {}
    for name in spans.PER_LAYER:
        if name == "trace.overhead_s":
            continue
        column = [row[name] for row in rows]
        if "absent" in column:
            values[name] = "absent"
        elif name in spans.DETERMINISTIC:
            values[name] = column[0]
        else:
            values[name] = statistics.median(column)
    values["trace.overhead_s"] = end_to_end(traced)["wall_s"] - end_to_end(untraced)["wall_s"]
    return values, unsteady


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "sullivan" / "__init__.py").is_file():
        print(f"error: no src/sullivan package under {root}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    workdir = root / ".perfbench"
    workdir.mkdir(exist_ok=True)
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        runner = Runner(root, ops, args.seed)
        runner.run_pass(trace=False)  # warm-up: checked, never timed
        untraced: list[dict] = []
        traced: list[dict] = []
        measure_start = time.monotonic()
        while runner.elapsed() < STOP_PASSES_S:
            untraced.append(runner.run_pass(trace=False))
            if args.trace:
                traced.append(runner.run_pass(trace=True))
            enough = len(untraced) >= (MIN_TRACED if args.trace else MIN_PASSES)
            if enough and time.monotonic() - measure_start >= args.seconds:
                break
        raw = sum(statistics.median(p[n]["op_s"] for p in untraced if n in p)
                  for n in {n for p in untraced for n in p})
        print(f"{args.workload} seed {args.seed}: {len(untraced)} untraced, "
              f"{len(traced)} traced passes in {runner.elapsed():.1f} s; "
              f"uncalibrated wall_s {raw:.3f}", file=sys.stderr)

        correct = runner.failed == 0 and all(untraced) and all(traced)
        if args.trace:
            values, unsteady = per_layer(untraced, traced)
            units = {name: unit for name, (unit, _) in spans.PER_LAYER.items()}
            if unsteady:
                correct = False
                print(f"work counts differ between traced passes: {', '.join(unsteady)}",
                      file=sys.stderr)
        else:
            values, units = end_to_end(untraced), END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
