"""repzoo benchmark: cold-process reps of the CLI over fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/repzoo``.  Every rep is a
fresh interpreter (``child.py``) running ``repzoo.cli.main`` on the workload's
commands, so no module memo or on-disk oracle cache carries over between reps;
reps run one at a time.  Each metric is the median of cold samples taken
across the whole run.

The host's speed swings by up to half within seconds, so times are reported
in reference-host seconds: each child measures its own speed while it works
(``child.py``) and its seconds are multiplied by that factor.  The raw
seconds and the factor of every sample are in the run record.

``--trace 0`` prints the end-to-end metrics (wall_s, setup_s, cpu_s,
peak_rss_mb, ok_rate).  ``--trace 1`` runs one untraced rep, one rep with
layer spans and one with exact counters, and prints the per-layer metrics.
The last stdout line is the result object; the line before it is the run
record: Python version, core count, every sample, quartiles and counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_STARTS = 8  # setup-only cold starts around each rep
DEADLINE_S = 170  # no child outlives this many seconds from the start of the run

END_TO_END = {m["name"]: m["unit"] for m in spec.BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in spec.BENCHMARK["per_layer"]}
REP_FIELDS = (
    "wall_s", "setup_s", "cpu_s", "raw_wall_s", "raw_setup_s", "raw_cpu_s", "speed",
    "probes", "peak_rss_mb", "ok", "failures",
)


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


class Runner:
    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.started = time.monotonic()
        self.children = 0
        self.failed = 0
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        # the invariants are asserts; the disk cache must be the rep's own; and
        # set-up is timed as installed code runs, from cached bytecode
        for name in ("PYTHONOPTIMIZE", "REPZOO_CACHE", "PYTHONDONTWRITEBYTECODE"):
            self.env.pop(name, None)

    def spawn(self, mode: str) -> dict:
        """Run one child to completion; returns its report plus setup_s, cpu_s,
        peak_rss_mb, and ``ok``."""
        self.children += 1
        workdir = self.workdir / f"rep{self.children}"
        workdir.mkdir()
        # -S: repzoo needs only the standard library, and the .pth hooks of the
        # host's site-packages would add their own import time to setup_s
        cmd = [sys.executable, "-S", str(HERE / "child.py"), mode, self.workload, str(self.seed), str(workdir)]
        launched = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, env=self.env)
        limit = max(1.0, DEADLINE_S - (time.monotonic() - self.started))
        killer = threading.Timer(limit, proc.kill)
        killer.start()
        try:
            data = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:  # interrupted: stop the child before leaving
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        shutil.rmtree(workdir)
        try:
            rep = json.loads(data.decode().strip().splitlines()[-1])
        except (IndexError, ValueError):
            rep = {"failures": [f"no report from child (exit {proc.returncode})"]}
        else:
            if proc.returncode != 0:
                rep.setdefault("failures", []).append(f"child exit {proc.returncode}")
        rep["ok"] = not rep.get("failures")
        if not rep["ok"]:
            self.failed += 1
            for line in rep["failures"]:
                print(f"FAILED {mode} rep: {line}", file=sys.stderr)
        speed = rep.get("speed", 1.0)
        if "ready" in rep:
            rep["raw_setup_s"] = rep["ready"] - launched
            rep["setup_s"] = rep["raw_setup_s"] * speed
        if "wall_s" in rep:
            rep["raw_wall_s"] = rep["wall_s"]
            rep["wall_s"] *= speed
        rep["raw_cpu_s"] = usage.ru_utime + usage.ru_stime
        rep["cpu_s"] = rep["raw_cpu_s"] * speed
        rep["peak_rss_mb"] = usage.ru_maxrss / 1024
        return rep

    def setup_starts(self, n: int) -> list[dict]:
        return [r for r in (self.spawn("setup") for _ in range(n)) if "setup_s" in r]


def run_plain(runner: Runner, seconds: int) -> tuple[dict, dict]:
    """Interleave setup-only cold starts with workload reps until ``seconds``
    would be exceeded by one more rep; at least one rep."""
    start = time.monotonic()
    starts: list[dict] = []
    reps: list[dict] = []
    while True:
        starts += runner.setup_starts(SETUP_STARTS)
        reps.append(runner.spawn("plain"))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(reps) > seconds:
            break
    starts += runner.setup_starts(SETUP_STARTS)
    starts += [r for r in reps if "setup_s" in r]

    samples = {
        "wall_s": [r["wall_s"] for r in reps if "wall_s" in r],
        "setup_s": [r["setup_s"] for r in starts],
        "cpu_s": [r["cpu_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }
    metrics = {name: statistics.median(vals) for name, vals in samples.items() if vals}
    # reported as the share of reps that passed, because a metric must never
    # read 0; the record also carries its complement, the error rate
    metrics["ok_rate"] = sum(r["ok"] for r in reps) / len(reps)
    record = {
        "error_rate": 1 - metrics["ok_rate"],
        "reps": [{k: r.get(k) for k in REP_FIELDS + ("digests",)} for r in reps],
        "setup_samples": [[r["setup_s"], r["raw_setup_s"], r["speed"]] for r in starts],
        "quartiles": {name: _quartiles(vals) for name, vals in samples.items() if vals},
        "n": {name: len(vals) for name, vals in samples.items()},
    }
    return metrics, record


def layer_metrics(plain: dict, traced: dict, counted: dict) -> dict[str, float]:
    """Per-layer metrics from an untraced, a traced and a counting rep."""
    spans = traced.get("trace", {})
    counts = counted.get("count", {}).get("counts", {})
    cache = counted.get("cache_files_written", [])
    metrics: dict[str, float] = {}
    for name in spec.LAYERS:
        layer, _, kind = name.rpartition(".")
        if kind == "self_s":
            metrics[name] = spans.get(layer, {}).get("self_s", 0.0) * traced.get("speed", 1.0)
        elif kind == "calls":
            metrics[name] = counts.get(layer, 0)
        elif name.startswith("harness.cache_files_"):
            index = 0 if name.endswith("cold") else 1
            metrics[name] = cache[index] if len(cache) > index else 0
        elif name == "trace.overhead_frac":
            if "wall_s" in plain and "wall_s" in traced:
                metrics[name] = traced["wall_s"] / plain["wall_s"] - 1
        elif name == "trace.coverage":
            if "raw_wall_s" in traced:
                metrics[name] = spans.get("_covered_s", 0.0) / traced["raw_wall_s"]
        else:
            metrics[name] = counts.get(name, 0)
    return metrics


def run_traced(runner: Runner) -> tuple[dict, dict]:
    """One untraced, one traced and one counting rep."""
    plain = runner.spawn("plain")
    traced = runner.spawn("trace")
    counted = runner.spawn("count")
    record = {
        "reps": {
            mode: {k: r.get(k) for k in REP_FIELDS}
            for mode, r in (("plain", plain), ("trace", traced), ("count", counted))
        },
        "spans": traced.get("trace", {}),
        "count": counted.get("count", {}),
    }
    return layer_metrics(plain, traced, counted), record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repzoo" / "cli.py").is_file():
        print(f"no repzoo sources under {ROOT / 'src'}: run from a full checkout", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an interrupt, so the running child is stopped too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        runner = Runner(args.workload, args.seed, workdir)
        runner.setup_starts(1)  # untimed: compiles bytecode and warms the file cache
        if args.trace:
            metrics, record = run_traced(runner)
            units = PER_LAYER
        else:
            metrics, record = run_plain(runner, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run's directory is still there

    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        python=platform.python_version(),
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)),
        elapsed_s=time.monotonic() - runner.started,
    )
    print(json.dumps({"record": record}))
    missing = [name for name in units if name not in metrics]
    result = {
        "correct": runner.failed == 0 and not missing,
        "attempted": runner.children,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
