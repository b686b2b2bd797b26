"""Benchmark entry point: one workload, one seed, one mode.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-short --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` alternates traced and untraced slices and reports the
per-layer metrics plus the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Full results (raw and scaled values, calibration spread,
and for traced runs the layer table) are written under
``.perfbench_work/results/``.  The exit code is nonzero when any output
fails its correctness check.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric names and units this mode reports, as BENCHMARK.json lists them."""
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def pin_to_one_cpu() -> int:
    """Run on a single CPU.

    With two vCPUs, whether the service's producer and worker threads
    land on one CPU or two changes throughput by half again, and a
    single-threaded calibration probe cannot see which happened.  On one
    CPU both threads and the probe share one core's speed.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def prepare(workload: str, seed: int) -> Path:
    """Build artifacts in a child process, so they never count as ours."""
    done = subprocess.run(
        [sys.executable, str(HERE / "prepare.py"), "--workload", workload,
         "--seed", str(seed)],
        cwd=common.ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    return Path(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not common.have_program():
        print(f"error: no program sources under {common.SRC_DIR}", file=sys.stderr)
        return 2

    cache = None if args.workload == "train-grid" else prepare(args.workload, args.seed)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    cpu = pin_to_one_cpu()
    common.use_program_source()
    import workloads

    run = workloads.Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        if args.workload == "train-grid":
            e2e, raw = workloads.run_train(run)
            main_kinds = tuple(f"fit.{c}-{e}" for c, e in workloads.GRID_CELLS)
        elif args.workload == "monitor-obs":
            e2e, raw = workloads.run_monitor(run, cache)
            main_kinds = ("chunk",)
        else:
            e2e, raw = workloads.run_serve(run, cache)
            main_kinds = ("chunk",)
    finally:
        run.cleanup()

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu": cpu,
        "calibration": run.cal.summary(),
        "scaled": e2e,
        "raw": raw,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
    }
    name = f"{args.workload}-seed{args.seed}"
    if args.trace:
        values, report = workloads.layer_report(
            run, main_kinds, e2e["verdict_latency_p99_ms"]
        )
        table = workloads.render_table(args.workload, report, values)
        detail["layers"] = report
        common.RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        (common.RESULTS_DIR / f"{name}-layers.txt").write_text(table + "\n")
        common.write_json_atomic(common.RESULTS_DIR / f"{name}-layers.json", detail)
        print(table)
    else:
        values = e2e
        common.write_json_atomic(common.RESULTS_DIR / f"{name}-e2e.json", detail)
    print(
        f"calibration: {json.dumps(detail['calibration'])}  raw: {json.dumps(raw)}",
    )
    units = declared_metrics(args.trace)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            metric: {"value": float(values[metric]), "unit": unit}
            for metric, unit in units.items()
        },
    }
    for failure in run.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
