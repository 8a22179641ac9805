"""The foatools benchmark: four CLI workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload spatial_eval --seed 1 --seconds 22 --trace 0

Run it from the root of a foatools checkout; it imports foatools from
``src/`` and builds nothing. It writes the workload's inputs from the seed,
warms up with one op, then runs ops back to back through
``foatools.cli.main`` in this process (a closed loop with one client) for
``--seconds`` and checks every output. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` (ops) and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``. The line before it holds the details: environment,
samples, the tail where a run has enough ops for one, and any failed
record. See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
SPANS_DIR = ROOT / ".perfbench_out"

MANIFEST_JOBS = 2
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 11
MIN_OPS = 3  # per timed series, even when one op outlasts --seconds
MIN_TRACED_OPS = 2


def _parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to run ops")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric_units(trace: int) -> dict:
    """Name -> unit of the metrics BENCHMARK.json lists for this mode, in its order."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        sys.exit(f"error: no {path}; it lists the metrics to report")
    spec = json.loads(path.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _environment(blas_threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": blas_threads,
        "jobs": MANIFEST_JOBS,
    }


class Runner:
    """Runs one workload's ops and keeps their timings and records."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.walls = {False: [], True: []}  # op wall times in ns, untraced and traced
        self.costs = {False: [], True: []}  # the same ops' times at reference speed, in ns
        self.probes = []  # speed-probe times in ns, one before each timed op and one after the last
        self.work = 0.0  # work of ok timed records in untraced measured ops
        self.records = []
        self.failed_ops = 0
        self.ops = 0

    def op(self, index: int, traced: bool = False):
        import workloads

        for path in self.workload.outputs():
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        if traced:
            self.tracer.op = index
            self.tracer.install()
        try:
            start = time.perf_counter_ns()
            results = [workloads.run_cli(argv) for argv in self.workload.calls(index)]
            wall = time.perf_counter_ns() - start
        finally:
            if traced:
                self.tracer.uninstall()
        timed = self.workload.check(index, results)
        self.records += timed + self.workload.probes()
        self.ops += 1
        self.failed_ops += any(r.status != workloads.OK for r in timed)
        return wall, sum(r.work for r in timed if r.status == workloads.OK)

    def measure(self, seconds: float) -> None:
        """One warm-up op, then ops back to back until ``seconds`` have passed.

        With a tracer, traced and untraced ops alternate, so both series see
        the same machine state. A speed probe runs before every timed op and
        after the last, so each op has one on either side.
        """
        import speed

        self.op(0)
        speed.probe()
        deadline = time.perf_counter() + seconds
        timed = []  # (traced, wall ns) of each timed op, in order
        need_untraced, need_traced = (MIN_TRACED_OPS, MIN_TRACED_OPS) if self.tracer else (MIN_OPS, 0)
        while True:
            traced = self.tracer is not None and len(timed) % 2 == 1
            self.probes.append(speed.probe())
            wall, work = self.op(len(timed) + 1, traced)
            timed.append((traced, wall))
            if not traced:
                self.work += work
            n_traced = sum(t for t, _ in timed)
            enough = len(timed) - n_traced >= need_untraced and n_traced >= need_traced
            if enough and time.perf_counter() >= deadline:
                break
        self.probes.append(speed.probe())
        costs = speed.at_reference_speed([wall for _, wall in timed], self.probes)
        for (traced, wall), cost in zip(timed, costs):
            self.walls[traced].append(wall)
            self.costs[traced].append(cost)


def _setup_seconds(workload: str, inputs_path: str):
    """Set-up times in s, as measured and at reference speed."""
    import speed

    speed.probe()
    samples, probes = [], []
    for _ in range(SETUP_REPEATS):
        probes.append(speed.probe())
        start = time.perf_counter_ns()
        subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload, inputs_path], check=True
        )
        samples.append(time.perf_counter_ns() - start)
    probes.append(speed.probe())
    return [s / 1e9 for s in samples], [s / 1e9 for s in speed.at_reference_speed(samples, probes)]


def main(argv=None) -> int:
    if not (SRC / "foatools" / "cli.py").is_file():
        sys.exit(f"error: no foatools sources at {SRC / 'foatools'}; run from a foatools checkout")
    # The manifest workloads run MANIFEST_JOBS worker threads; cap BLAS
    # threads so that jobs x BLAS threads stays within the cores. This must
    # happen before numpy loads, and the child processes inherit it.
    blas_threads = max(1, len(os.sched_getaffinity(0)) // MANIFEST_JOBS)
    for var in BLAS_VARS:
        os.environ[var] = str(blas_threads)
    sys.path.insert(0, str(SRC))

    import foatools

    if Path(foatools.__file__).resolve().parent != SRC / "foatools":
        sys.exit(f"error: imported foatools from {foatools.__file__}, not from {SRC}")
    import speed
    import stats
    import tracing
    import workloads

    args = _parse_args(argv, list(workloads.WORKLOADS))
    stats.selftest()
    units = _metric_units(args.trace)

    WORK_DIR.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        subprocess.run(
            [sys.executable, str(HERE / "gen.py"), "--workload", args.workload, "--seed", str(args.seed),
             "--out", work_dir],
            check=True,
        )
        inputs_path = os.path.join(work_dir, "inputs.json")
        with open(inputs_path, encoding="utf-8") as handle:
            inputs = json.load(handle)
        workload = workloads.WORKLOADS[args.workload](inputs, work_dir, MANIFEST_JOBS)
        setup, setup_at_ref = ([], []) if args.trace else _setup_seconds(args.workload, inputs_path)
        runner = Runner(workload, tracing.Tracer() if args.trace else None)
        runner.measure(args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()

    records = runner.records
    ok = sum(r.status == workloads.OK for r in records)
    untraced = [w / 1e6 for w in runner.walls[False]]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(blas_threads),
        "ops_untraced": len(untraced),
        "ops_traced": len(runner.walls[True]),
        "records": len(records),
        "failed_ratio": 1 - ok / len(records),
        "failed_records": sorted({r.message for r in records if r.status != workloads.OK})[:8],
    }
    if args.trace:
        tracer = runner.tracer
        walls = runner.walls[True]
        metrics = tracing.layer_metrics(units, tracer, len(walls), sum(walls), workload.jobs)
        costs = runner.costs
        metrics["trace.overhead_ratio"] = statistics.median(costs[True]) / statistics.median(costs[False]) - 1
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"{args.workload}.spans.ndjson"
        tracer.write(spans_path)
        details["spans"] = str(spans_path.relative_to(ROOT))
    else:
        # Timings at reference speed, each scaled by the speed probes around
        # it; see speed.py. The wall times are in the details.
        costs = [c / 1e6 for c in runner.costs[False]]
        metrics = {
            "setup_s": statistics.median(setup_at_ref),
            "op_p50_ms_at_ref": statistics.median(costs),
            "work_per_s_at_ref": runner.work / (sum(costs) / 1e3),
            "ok_ratio": ok / len(records),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        tail = stats.tail(costs)
        details.update(
            wall={
                "setup_s": statistics.median(setup),
                "op_p50_ms": statistics.median(untraced),
                "work_per_s": runner.work / (sum(untraced) / 1e3),
            },
            probe_ms_samples=[p / 1e6 for p in runner.probes],
            setup_s_samples=setup,
            setup_s_at_ref_samples=setup_at_ref,
            op_ms_samples=untraced,
            op_ms_at_ref_samples=costs,
            op_tail_ms_at_ref=tail and tail[0],
            op_tail_percentile=tail and tail[1],
            work_per_s_is=workload.work_name,
        )
    unknown = [name for name in units if name not in metrics]
    if unknown:
        sys.exit(f"error: BENCHMARK.json lists metrics this benchmark does not compute: {unknown}")
    print(json.dumps({"details": details}))
    print(
        json.dumps(
            {
                "correct": not any(r.status == workloads.WRONG for r in records),
                "attempted": runner.ops,
                "failed": runner.failed_ops,
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
