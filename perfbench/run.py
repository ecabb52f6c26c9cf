"""Run one benchmark workload and print every metric by name and unit.

    python3 perfbench/run.py --workload cold-adhoc --seed 1 --seconds 8 --trace 0

Run it from the repository root; it imports the program from ``src/``
of the checkout it sits in, and exits with an error when that is
missing.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent

#: End-to-end metrics as ``(name, unit)``; BENCHMARK.json lists the same.
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("read_p50_ms", "ms"),
    ("read_p90_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_p90_ms", "ms"),
    ("first_answer_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("bytes_per_object", "B/obj"),
]
SETUP_REPEATS = 3
#: A p90 needs at least this many samples; a run keeps going past its
#: time budget (up to three times it) until it has them.
MIN_SAMPLES = 100
#: Rounds generated per deck; a run that gets further cycles through
#: them again, which the stationary rounds allow.
DECK_ROUNDS = {"cold-adhoc": 200, "mixed-oltp": 60, "reopen": 50}
WORKLOAD_NAMES = tuple(DECK_ROUNDS)


def _bootstrap() -> None:
    """Import the program from this checkout's ``src/`` or exit 2."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {src}; run from a full checkout")
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def _median(values: List[float]) -> float:
    """The median, or 0 when a run that failed left no samples."""
    return statistics.median(values) if values else 0.0


def _rate(meas) -> float:
    """Ops per second of op time, or 0 when no op took any time."""
    return meas.attempted / meas.busy if meas.busy else 0.0


def _p90(values: List[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _reset_peak_rss() -> None:
    """Start a new peak-RSS window (Linux: clear the VmHWM mark)."""
    Path("/proc/self/clear_refs").write_text("5")


def _peak_rss_mb() -> float:
    """Peak resident set size since the last reset, in MB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _phase(wl, deck, seconds: float, min_reads: int = 0, first: int = 0):
    """Whole rounds from measured round *first* until *seconds* of op
    time are done.

    The phase also keeps going until it has *min_reads* read samples,
    up to three times *seconds* of op time.  Six times *seconds* of
    wall time ends it regardless, so ops that fail fast cannot keep a
    run going.
    """
    from perfbench.hostspeed import factor
    from perfbench.workloads import Measurements

    wl.meas = meas = Measurements()
    factors = []
    before = factor()
    wl.begin_phase()
    done = 0
    began = time.perf_counter()
    while True:
        # Round 0 is the warm-up prefix; measured phases start at 1.
        for op in deck[1 + (first + done) % (len(deck) - 1)]:
            wl.execute(op)
            # The host speed during the op: the mean of the gaps on
            # either side of it.
            after = factor()
            meas.commit((before + after) / 2)
            factors.append(before)
            before = after
        done += 1
        enough = len(meas.latency["read"]) >= min_reads
        if meas.busy >= seconds and (enough or meas.busy >= 3 * seconds):
            break
        if time.perf_counter() - began >= 6 * seconds:
            break
    wl.end_phase()
    meas.rounds = done
    meas.wall = time.perf_counter() - began
    meas.host_speed = statistics.median(factors)
    return meas


def run_benchmark(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    *,
    n_objects: Optional[int] = None,
) -> Dict[str, object]:
    """Run one workload; returns the result line plus run details.

    ``n_objects`` shrinks the population for the benchmark's own tests.
    """
    from perfbench.workloads import N_OBJECTS, WORKLOADS

    workdir = ROOT / ".perfbench-tmp" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[name](seed, workdir, n_objects or N_OBJECTS)
    try:
        return _run(wl, seconds, trace)
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def _run(wl, seconds: float, trace: bool) -> Dict[str, object]:
    from perfbench.deck import deck_digest
    from perfbench.hostspeed import factor
    from perfbench.tracing import Tracer, layer_metrics
    from perfbench.workloads import Measurements

    tracer = Tracer() if trace else None
    setup_times = []
    if tracer is not None:
        tracer.install()
        setup_first = tracer.mark()
    for _ in range(1 if trace else SETUP_REPEATS):
        before = factor()
        started = time.perf_counter()
        wl.setup()
        elapsed = time.perf_counter() - started
        setup_times.append(elapsed * (before + factor()) / 2)
    if tracer is not None:
        setup_span = (setup_first, tracer.mark())
        tracer.uninstall()

    prep = wl.meas
    wl.prepare()
    deck = wl.deck(DECK_ROUNDS[wl.name])
    wl.meas = warm = Measurements()
    for op in deck[0]:
        wl.execute(op)
    gc.collect()

    phases = []
    if tracer is None:
        _reset_peak_rss()
        timed = _phase(wl, deck, seconds, MIN_SAMPLES)
        peak_rss_mb = _peak_rss_mb()
    else:
        untraced = _phase(wl, deck, seconds / 2)
        phases.append(untraced)
        tracer.wal_bytes = 0
        tracer.install()
        wl.tracer = tracer
        first = tracer.mark()
        # The deck goes on where the untraced phase stopped: replaying
        # its rounds would repeat writes of values already stored.
        timed = _phase(wl, deck, seconds / 2, first=untraced.rounds)
        timed_span = (first, tracer.mark())
        wl.tracer = None
        tracer.uninstall()
    phases.append(timed)

    wl.meas = post = Measurements()
    wl.finish()

    everything = [prep, warm, *phases, post]
    failed = sum(m.failed for m in everything) + len(wl.checks)
    attempted = sum(m.attempted for m in phases)
    ops_per_s = _rate(timed)
    if tracer is None:
        reads = timed.latency["read"]
        writes = timed.latency["write"]
        first_answers = timed.latency["first_answer"]
        values = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": ops_per_s,
            "read_p50_ms": _median(reads) * 1000.0,
            "read_p90_ms": _p90(reads) * 1000.0,
            "write_p50_ms": _median(writes) * 1000.0,
            "write_p90_ms": _p90(writes) * 1000.0,
            "first_answer_p50_ms": _median(first_answers) * 1000.0,
            "peak_rss_mb": peak_rss_mb,
            "bytes_per_object": wl.bytes_per_object,
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
        samples = {
            "reads": len(reads),
            "writes": len(writes),
            "first_answers": len(first_answers),
            "setups_s": setup_times,
        }
    else:
        from perfbench.tracing import PER_LAYER

        traced_rate = ops_per_s
        untraced_rate = _rate(untraced)
        values = layer_metrics(
            tracer,
            setup_span,
            len(setup_times),
            timed_span,
            wl.layers,
            timed.attempted,
            len(timed.latency["write"]),
            untraced_rate / traced_rate if traced_rate else 0.0,
        )
        metrics = {n: {"value": values[n], "unit": u} for n, u in PER_LAYER}
        samples = {"spans": tracer.mark(), "untraced_ops": untraced.attempted}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    rows = hashlib.sha256("".join(timed.digests).encode()).hexdigest()[:16]
    return {
        "result": result,
        "details": {
            "workload": wl.name,
            "seed": wl.seed,
            "objects": wl.spec.n_objects,
            "rounds": timed.rounds,
            "ops": timed.attempted,
            "busy_s": timed.busy,
            "wall_s": timed.wall,
            "host_speed": timed.host_speed,
            "deck": deck_digest(deck),
            "rows": rows,
            "samples": samples,
            "read_ms_by_template": {
                t: round(statistics.median(v) * 1000.0, 1)
                for t, v in sorted(timed.by_template.items())
            },
            "errors": [e for m in everything for e in m.errors],
            "checks": wl.checks,
        },
    }


def _report(outcome: Dict[str, object]) -> None:
    details = outcome["details"]
    result = outcome["result"]
    for key, value in details.items():
        print(f"# {key}: {value}")
    print(
        f"# correct={result['correct']} attempted={result['attempted']} "
        f"failed={result['failed']}"
    )
    for name, entry in result["metrics"].items():
        print(f"{name:40s} {entry['value']:14.4f} {entry['unit']}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _bootstrap()
    outcome = run_benchmark(
        args.workload, args.seed, args.seconds, trace=bool(args.trace)
    )
    _report(outcome)
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
