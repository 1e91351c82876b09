"""One cold benchmark rep, in the fresh interpreter the parent started.

    python3 perfbench/child.py MODE WORKLOAD SEED WORKDIR

MODE is ``setup`` (import and build the argv, then stop), ``plain`` (run the
workload untraced), ``trace`` (run it with layer spans) or ``count`` (run it
with exact counters).  The child prints one JSON line: the monotonic time at
which ``repzoo.cli`` was imported and the argv built, the host speed, and for
a run its wall time, per-command stdout digests and failures.  Every
command's stdout is captured and hashed; a nonzero exit, a digest other than
the reference, or a warm replay that differs from its cold pass is a failure.

The host this runs on alternates, within seconds, between speeds that differ
by half, so the child measures its own speed while it works: a fixed
pure-Python probe runs ten times after start-up and then every 25 ms from a
timer signal.  ``speed`` is the mean of REFERENCE_PROBE_NS / probe time.  The
timer samples at even intervals of wall time, so this is the host's average
speed over the run, and wall seconds times ``speed`` is the work done, in
seconds of the reference host.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE_EVERY_S = 0.025
SETUP_PROBES = 10
# about the median probe time on the host the benchmark was defined on (Intel
# Xeon, 2 vCPUs, Python 3.11); it fixes the unit of the speed-scaled times and
# must never change
REFERENCE_PROBE_NS = 200_000
# the probe mixes the two kinds of work the workloads do: small-tuple matrix
# products (groups, characters) and Fraction arithmetic (polynomials, lietype);
# either alone tracks one workload's speed worse than the mix
_A, _B = (1, 2, 3, 4), (5, 6, 7, 8)
_FRACTIONS = [Fraction(i, i + 3) for i in range(1, 7)]


def _probe() -> int:
    """Fixed interpreter work; its duration tracks the host's current speed.
    The collector is paused so the size of the workload's heap cannot slow it."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter_ns()
    for _ in range(25):
        tuple(sum(_A[2 * i + k] * _B[2 * k + j] for k in range(2)) % 25 for i in range(2) for j in range(2))
    acc = Fraction(0)
    for x in _FRACTIONS:
        for y in _FRACTIONS:
            acc += x * y
    elapsed = time.perf_counter_ns() - start
    if enabled:
        gc.enable()
    return elapsed


def _speed(probes: list[int]) -> float:
    return statistics.fmean(REFERENCE_PROBE_NS / t for t in probes)


def _cache_state(cache_dir: Path) -> dict[str, int]:
    if not cache_dir.is_dir():
        return {}
    return {p.name: p.stat().st_mtime_ns for p in cache_dir.iterdir()}


def main(argv: list[str]) -> dict:
    mode, workload, seed, workdir = argv[0], argv[1], int(argv[2]), Path(argv[3])
    if sys.flags.optimize:
        raise SystemExit("the library's invariants are asserts; run without -O")
    sys.path.insert(0, str(ROOT / "src"))
    import repzoo.cli

    import spec

    cache_dir = workdir / "cache"
    passes = spec.plan(workload, seed, str(cache_dir))
    out = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}
    _probe()  # discarded: the first call runs before the interpreter has specialised it
    probes = [_probe() for _ in range(SETUP_PROBES)]
    if mode == "setup":
        out["speed"] = _speed(probes)
        return out

    recorder = None
    if mode in ("trace", "count"):
        import tracer

        recorder = tracer.SpanRecorder() if mode == "trace" else tracer.Counter()
        recorder.install()

    failures: list[str] = []
    digests: list[list[str]] = []
    cache_counts: list[int] = []
    first_pass: dict[str, str] = {}
    signal.signal(signal.SIGALRM, lambda signum, frame: probes.append(_probe()))
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    start = time.perf_counter()
    for pass_no, commands in enumerate(passes):
        before = _cache_state(cache_dir)
        for key, cmd in commands:
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = repzoo.cli.main(cmd)
            except Exception:  # a crash is a failed rep, reported with its traceback
                traceback.print_exc()
                code = "exception"
            digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
            digests.append([key, digest])
            if code != 0:
                failures.append(f"{key}: exit {code}")
            if digest != spec.DIGESTS[key]:
                failures.append(f"{key}: stdout sha256 {digest} != reference")
            if pass_no == 0:
                first_pass[key] = digest
            elif digest != first_pass[key]:
                failures.append(f"{key}: warm replay differs from the cold pass")
        after = _cache_state(cache_dir)
        cache_counts.append(sum(1 for k, v in after.items() if before.get(k) != v))
    out["wall_s"] = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    out["speed"] = _speed(probes)
    out["probes"] = len(probes)
    out["failures"] = failures
    out["digests"] = digests
    out["cache_files_written"] = cache_counts
    if recorder is not None:
        out[mode] = recorder.report()
    return out


if __name__ == "__main__":
    result = main(sys.argv[1:])
    sys.stdout.write(json.dumps(result) + "\n")
