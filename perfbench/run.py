"""pathcert benchmark: cold CLI processes on fixed, seeded workloads.

    python3 perfbench/run.py --workload certify-2d --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload in turn
    python3 perfbench/run.py --workload all --smoke         # one cycle each, checks only

Run it from the root of a checkout.  Each operation is one cold
``python3 -m pathcert.cli`` child, started in a closed loop by a single
client and timed from spawn to exit; the cycle repeats, skipping each
operation that would end after ``--seconds``, until none fits.  Every
output is checked (see workloads.verify).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs the cycle once in a fresh traced process (trace_run.py)
and once more through the CLI, and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Results, the
environment record and traces go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

from workloads import SAMPLE_POINTS, WORKLOADS, OutputError, cycle, unique, verify  # noqa: E402

SETUP_REPEATS = 7
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END_UNITS = {
    "setup_s": "s", "build_s": "s", "check_s": "s", "sample_rows_per_s": "rows/s",
    "probe_per_s": "1/s", "peak_rss_mb": "MB",
}


def child_env() -> dict:
    """The program's environment: PATHCERT_THREADS unset, no thread count above nproc."""
    env = dict(os.environ)
    env.pop("PATHCERT_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cores = os.cpu_count() or 1
    for var in THREAD_VARS:
        if var in env and (not env[var].isdigit() or int(env[var]) > cores):
            env[var] = str(cores)
    return env


def environment_record(env: dict) -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version,
        "platform": platform.platform(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": np.show_config(mode="dicts"),
        "child_env": {
            key: env[key]
            for key in sorted(env)
            if key in THREAD_VARS or key.startswith(("PATHCERT", "PYTHON")) or key == "PATH"
        },
        "pathcert_threads_set": "PATHCERT_THREADS" in env,
    }


def spawn(argv: list[str], env: dict, log: Path) -> dict:
    """Run one child to completion: wall and CPU seconds, exit code, max RSS in MB."""
    with open(log, "wb") as sink:
        start = time.perf_counter()
        child = subprocess.Popen(argv, stdout=sink, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            child.kill()
            child.wait()
            raise
        wall = time.perf_counter() - start
    # reaped by wait4 (for the child's own rusage); tell Popen so it does not wait again
    child.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "exit": child.returncode, "rss_mb": usage.ru_maxrss / 1024.0}


def setup_times(env: dict, logs: Path) -> list[float]:
    argv = [sys.executable, "-c", "import pathcert.cli"]
    times = []
    for i in range(SETUP_REPEATS):
        done = spawn(argv, env, logs / f"setup-{i}.log")
        if done["exit"] != 0:
            raise RuntimeError(f"importing pathcert.cli failed; see {logs / f'setup-{i}.log'}")
        times.append(done["wall_s"])
    return times


class Runner:
    """Runs operations one at a time and records each outcome."""

    def __init__(self, env: dict, logs: Path, load_build):
        self.env = env
        self.logs = logs
        self.load_build = load_build
        self.records: list[dict] = []
        self.digests: dict[str, str] = {}

    def run(self, op) -> dict:
        argv = [sys.executable, "-m", "pathcert.cli", *op.argv]
        record = {"label": op.label, "kind": op.kind,
                  **spawn(argv, self.env, self.logs / f"{op.label}.log"),
                  "error": None, "sha256": None}
        try:
            if record["exit"] != op.expect_exit:
                raise OutputError(f"{op.label}: exit {record['exit']}, want {op.expect_exit}")
            record["sha256"] = verify(op, self.load_build)
            first = self.digests.setdefault(op.label, record["sha256"])
            if first != record["sha256"]:
                raise OutputError(f"{op.label}: output differs from the run's first repeat")
        except (OutputError, OSError, ValueError, KeyError) as exc:
            record["error"] = str(exc)
        self.records.append(record)
        return record

    def run_cycles(self, ops, seconds: float, once: bool) -> int:
        """Repeat the cycle; after the first, skip each op that would end late.

        The run ends after a pass of the cycle in which no op fitted, so
        the short operations fill the time a long one no longer fits in.
        Returns the number of complete cycles.
        """
        start = time.perf_counter()
        last: dict[str, float] = {}
        cycles = 0
        while True:
            ran = 0
            for op in ops:
                if cycles and time.perf_counter() - start + last[op.label] > seconds:
                    continue
                last[op.label] = self.run(op)["wall_s"]
                ran += 1
            cycles += ran == len(ops)
            if once or not ran:
                return cycles

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r["error"])


def tail(values: list[float]) -> tuple[float, float] | None:
    """The highest listed percentile with at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if len(values) * (1.0 - p / 100.0) >= 10.0:
            return p, float(np.percentile(values, p))
    return None


def end_to_end(records: list[dict], setup: list[float]) -> tuple[dict, dict]:
    """Metric values and their sample statistics (count, tail percentile)."""
    walls = {kind: [r["wall_s"] for r in records if r["kind"] == kind]
             for kind in ("build", "check", "sample", "probe")}
    values = {
        "setup_s": statistics.median(setup),
        "build_s": statistics.median(walls["build"]),
        "check_s": statistics.median(walls["check"]),
        "sample_rows_per_s": SAMPLE_POINTS / statistics.median(walls["sample"]),
        "probe_per_s": len(walls["probe"]) / sum(walls["probe"]),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
    }
    samples = {"setup_s": setup, "build_s": walls["build"], "check_s": walls["check"],
               "sample_rows_per_s": walls["sample"], "probe_per_s": walls["probe"],
               "peak_rss_mb": [r["rss_mb"] for r in records]}
    stats = {name: {"n": len(samples[name]), "tail": tail(samples[name]),
                    "unit": "MB" if name == "peak_rss_mb" else "s"} for name in values}
    return values, stats


def measure(workload: str, seed: int, seconds: float, once: bool, env: dict,
            load_build) -> dict:
    work = OUT / f"{workload}-s{seed}"
    logs = work / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    setup = setup_times(env, logs)
    ops = cycle(workload, seed, work / "inputs", work / "cli")
    runner = Runner(env, logs, load_build)
    cycles = runner.run_cycles(ops, seconds, once)
    values, stats = end_to_end(runner.records, setup)
    for name, value in values.items():
        unit = END_TO_END_UNITS[name]
        info = stats[name]
        shape = (f"p{info['tail'][0]:g} of the samples = {info['tail'][1]:.6g} {info['unit']}"
                 if info["tail"] else "no tail percentile (needs >= 20 samples)")
        print(f"metric {workload} {name} = {value:.6g} {unit} (n={info['n']}; {shape})")
    attempted, failed = len(runner.records), runner.failed
    print(f"metric {workload} fail_ratio = {failed / attempted:.6g} ({failed} of {attempted}); "
          f"{cycles} complete cycles")
    for record in runner.records:
        if record["error"]:
            print(f"FAILED {record['error']}", file=sys.stderr)
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "cycles": cycles,
        "attempted": attempted, "failed": failed, "setup_s": setup,
        "operations": runner.records, "metrics": values, "stats": stats,
    }


def traced(workload: str, seed: int, env: dict, load_build) -> dict:
    """Traced in-process run in a fresh child, then one untraced CLI cycle."""
    work = OUT / f"{workload}-s{seed}-trace"
    logs = work / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    trace_file = work / "trace.json"
    argv = [sys.executable, str(BENCH / "trace_run.py"), "--workload", workload,
            "--seed", str(seed), "--work", str(work), "--out", str(trace_file)]
    if spawn(argv, env, logs / "trace_run.log")["exit"] != 0:
        raise RuntimeError(f"traced run failed; see {logs / 'trace_run.log'}")
    trace = json.loads(trace_file.read_text())

    ops = unique(cycle(workload, seed, work / "inputs", work / "cli"))
    runner = Runner(env, logs, load_build)
    runner.run_cycles(ops, 0.0, once=True)
    errors = list(trace["failures"])
    for op, record in zip(ops, runner.records):
        if record["sha256"] and record["sha256"] != trace["digests"].get(op.label):
            errors.append(f"{op.label}: traced output differs from the CLI output")
    errors += [r["error"] for r in runner.records if r["error"]]

    import_s = trace["metrics"]["cli.import_s"]
    traced_s = sum(trace["op_seconds"].values())
    untraced_s = sum(r["wall_s"] - import_s for r in runner.records)
    trace["overhead"] = {
        "traced_op_s": traced_s,
        "untraced_wall_minus_import_s": untraced_s,
        "ratio": traced_s / untraced_s,
        "traced_s": trace["op_seconds"],
        "cli_wall_s": {r["label"]: r["wall_s"] for r in runner.records},
    }
    trace["failures"] = errors
    trace_file.write_text(json.dumps(trace, indent=1) + "\n")
    for name, value in trace["metrics"].items():
        print(f"layer {workload} {name} = {value:.6g} {trace['units'][name]}")
    print(f"trace {workload}: tracing overhead, traced / untraced op time = "
          f"{traced_s:.4g} s / {untraced_s:.4g} s = {traced_s / untraced_s:.4f} -> {trace_file}")
    for error in errors:
        print(f"FAILED {error}", file=sys.stderr)
    attempted = 2 * len(runner.records)
    return {"workload": workload, "seed": seed, "attempted": attempted,
            "failed": len(errors), "metrics": trace["metrics"], "units": trace["units"]}


def result_line(results: list[dict], trace: bool) -> dict:
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics = {}
    for r in results:
        units = r["units"] if trace else END_TO_END_UNITS
        prefix = f"{r['workload']}." if len(results) > 1 else ""
        for name, value in r["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    bad = [name for name in metrics if not METRIC_NAME.fullmatch(name)]
    if bad:
        raise ValueError(f"metric names outside [A-Za-z0-9_.-]+: {bad}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run one cycle of each chosen workload and check its outputs")
    args = parser.parse_args(argv)
    if not (SRC / "pathcert" / "cli.py").is_file():
        print(f"error: no pathcert sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from pathcert.pathfile import load_build

    env = child_env()
    OUT.mkdir(parents=True, exist_ok=True)
    record = environment_record(env)
    (OUT / "env.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        if args.trace:
            result = traced(name, args.seed, env, load_build)
        else:
            result = measure(name, args.seed, args.seconds, args.smoke, env, load_build)
        result["env"] = record
        target = OUT / f"result-{name}-s{args.seed}-t{args.trace}.json"
        target.write_text(json.dumps(result, indent=1, default=str) + "\n")
        results.append(result)
    print(json.dumps(result_line(results, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
