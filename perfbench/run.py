"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload {sweep,ingest,http,workers} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then traced, and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every oracle agreed.

Each run does a fixed amount of work, sized from ``--seconds`` by the
nominal rates below so that the timed phase lasts about that long on a
2-CPU machine; a faster program finishes sooner.  Times are reported at
reference speed: without the time the host took from the machine's CPUs,
and scaled by the slowdown of a fixed kernel timed between the ops of
the same run (``reference.py``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import inputs, reference  # noqa: E402  (numpy only; repro comes later)

WORKLOADS = ("sweep", "ingest", "http", "workers")

#: Nominal rates that size each run's work from ``--seconds``.  At ten
#: seconds or more every workload times at least 100 primary ops, so its
#: p90 has ten samples beyond it.
SWEEPS_PER_S = 11
INGEST_WRITES_PER_S = 1800
HTTP_WRITES_PER_S = 130

#: Set-ups per run; ``setup_s`` reports their median.
SETUPS = 5
#: Timed imports of the system under test per run (this process's and
#: fresh interpreters'); ``setup_s`` adds their median.
IMPORTS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Measurement:
    #: seconds of each set-up, and the part of them the host took
    setups: List[float]
    setups_stolen: List[float]
    phase: object
    peak_rss_mb: float
    extras: Dict[str, float]
    problems: List[str]


def pin_to_fastest_cpu(allowed: Set[int]) -> Tuple[int, Dict[int, float]]:
    """Pin this process to the allowed CPU that runs a fixed loop fastest.

    ``sweep`` runs there for the whole run: its ops are long enough that
    moving between CPUs would split its p50 between their speeds.
    Returns the CPU and each CPU's median probe time in seconds.
    """
    probes: Dict[int, List[float]] = {cpu: [] for cpu in sorted(allowed)}
    for _ in range(5):
        for cpu, times in probes.items():
            os.sched_setaffinity(0, {cpu})
            start = time.perf_counter()
            sum(number * number for number in range(100_000))
            times.append(time.perf_counter() - start)
    medians = {cpu: statistics.median(times) for cpu, times in probes.items()}
    fastest = min(medians, key=medians.get)
    os.sched_setaffinity(0, {fastest})
    return fastest, medians


def make_inputs(workload: str, seed: int, seconds: float):
    if workload == "sweep":
        return inputs.sweep_input(seed)
    if workload == "http":
        return inputs.http_input(seed, max(80, round(seconds * HTTP_WRITES_PER_S)))
    return inputs.ingest_input(seed, max(200, round(seconds * INGEST_WRITES_PER_S)))


def import_seconds() -> float:
    """Import the system under test here and in fresh interpreters; the
    median time of the imports."""
    probe = (
        "import sys, time; sys.path[:0] = sys.argv[1:]; import perfbench.reference; "
        "start = time.perf_counter(); import perfbench.workloads; "
        "print(time.perf_counter() - start)"
    )
    start = time.perf_counter()
    from perfbench import workloads  # noqa: F401  (imports repro)

    samples = [time.perf_counter() - start]
    for _ in range(IMPORTS - 1):
        output = subprocess.run(
            [sys.executable, "-c", probe, str(ROOT), str(ROOT / "src")],
            check=True,
            capture_output=True,
            text=True,
        ).stdout
        samples.append(float(output))
    return statistics.median(samples)


def make_workload(name: str, data, seconds: float, workdir: Path, cpus: Set[int]):
    from perfbench import workloads

    if name == "sweep":
        sweeps = max(1, round(seconds * SWEEPS_PER_S))
        return workloads.SweepWorkload(data, sweeps)
    kind = {
        "ingest": workloads.IngestWorkload,
        "http": workloads.HttpWorkload,
        "workers": workloads.WorkersWorkload,
    }[name]
    return kind(data, workdir, cpus)


def measure(workload, setups: int = SETUPS, tracer=None) -> Measurement:
    """Set up ``setups`` times, time the closed loop on the last system,
    then check its outputs."""
    times, stolen = [], []
    system = None
    for index in range(setups):
        if system is not None:
            workload.close(system)
        start, before = time.perf_counter(), reference.stolen_seconds()
        system = workload.setup()
        gc.collect()
        times.append(time.perf_counter() - start)
        stolen.append(min(reference.stolen_seconds() - before, times[-1] / 2))
    try:
        uninstall = None
        if tracer is not None:
            from perfbench.tracer import install

            uninstall = install(tracer)
        try:
            phase = workload.run(system)
        finally:
            if uninstall is not None:
                uninstall()
        rss = workload.peak_rss_mb(system)
        extras = workload.layer_extras(system, phase)
        problems = workload.check(system)
    finally:
        workload.close(system)
    return Measurement(times, stolen, phase, rss, extras, problems)


def percentile_ms(phase, percent: float, scaled: bool = False) -> float:
    from perfbench.workloads import nearest_rank

    latencies = phase.scaled if scaled else phase.latencies
    return 1e3 * nearest_rank(latencies, percent) if latencies else 0.0


def end_to_end(workload, import_s: float) -> tuple:
    result = measure(workload)
    phase = result.phase
    slowdown = phase.slowdown
    measured = {
        "setup_s": import_s + statistics.median(result.setups),
        "throughput_per_s": phase.throughput,
        "p50_ms": percentile_ms(phase, 50),
        "p90_ms": percentile_ms(phase, 90),
        "peak_rss_mb": result.peak_rss_mb,
    }
    own_setups = [seconds - stolen for seconds, stolen in zip(result.setups, result.setups_stolen)]
    values = dict(
        measured,
        setup_s=(import_s + statistics.median(own_setups)) / slowdown,
        throughput_per_s=phase.scaled_throughput,
        p50_ms=percentile_ms(phase, 50, scaled=True),
        p90_ms=percentile_ms(phase, 90, scaled=True),
    )
    print(
        f"{workload.name}: import {import_s:.4f} s, set-ups "
        + ", ".join(f"{seconds:.4f}" for seconds in result.setups)
        + " s"
    )
    print(
        f"{workload.name}: {phase.attempted} ops in {phase.elapsed:.3f} s "
        f"({phase.stolen:.3f} s stolen by the host), {len(phase.latencies)} "
        f"{workload.primary} timed for p50/p90; reference kernel slowdown "
        f"{slowdown:.4f} (median of {len(phase.slowdowns)}), {len(phase.chunk_rates)} chunks"
    )
    print(f"  {'metric':<18} {'measured':>14} {'at reference speed':>20}")
    for name, unit in END_TO_END:
        print(f"  {name:<18} {measured[name]:>14.6f} {values[name]:>20.6f} {unit}")
    return result, {name: values[name] for name, _ in END_TO_END}, END_TO_END


def per_layer(name: str, workload, data, seconds: float, workdir: Path, cpus: Set[int]) -> tuple:
    from perfbench.tracer import LAYER_UNITS, Tracer, layer_metrics

    untraced = measure(workload, setups=1)
    extras = {}
    if name == "workers":
        ingest = make_workload("ingest", data, seconds, workdir, cpus)
        baseline = measure(ingest, setups=1)
        extras["workers.boundary_ms"] = percentile_ms(
            untraced.phase, 50, scaled=True
        ) - percentile_ms(baseline.phase, 50, scaled=True)
        untraced.problems += baseline.problems
    tracer = Tracer()
    traced = measure(workload, setups=1, tracer=tracer)
    phase = traced.phase
    extras.update(traced.extras)
    extras["trace.overhead_pct"] = 100.0 * (
        untraced.phase.scaled_throughput / phase.scaled_throughput - 1.0
    )
    values = layer_metrics(tracer, len(phase.latencies), phase.elapsed, extras)
    print(
        f"{name}: traced {phase.attempted} ops in {phase.elapsed:.3f} s "
        f"({len(phase.latencies)} {workload.primary}); untraced "
        f"{untraced.phase.throughput:.1f}/s, traced {phase.throughput:.1f}/s"
    )
    for metric, unit in LAYER_UNITS:
        print(f"  {metric:<30} {values[metric]:>14.6f} {unit}")
    traced.problems += untraced.problems
    traced.phase.failed += untraced.phase.failed
    traced.phase.attempted += untraced.phase.attempted
    return traced, values, LAYER_UNITS


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The engine runs its numpy reference backend, whatever the caller set.
    os.environ.pop("REPRO_BACKEND", None)
    # A traced run times two (for workers three) phases, each half as long.
    seconds = args.seconds / 2 if args.trace else args.seconds
    data = make_inputs(args.workload, args.seed, seconds)
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    allowed = os.sched_getaffinity(0)
    try:
        if args.workload == "sweep":
            cpu, probes = pin_to_fastest_cpu(allowed)
            print(
                f"pinned to CPU {cpu} of {sorted(allowed)} (probe ms: "
                + ", ".join(f"{other} {1e3 * probe:.2f}" for other, probe in probes.items())
                + ")"
            )
        try:
            import_s = import_seconds()
        except (ImportError, subprocess.CalledProcessError) as error:
            print(f"error: cannot import the system under test: {error}", file=sys.stderr)
            return 2
        workload = make_workload(args.workload, data, seconds, workdir, allowed)
        if args.trace:
            result, values, units = per_layer(
                args.workload, workload, data, seconds, workdir, allowed
            )
        else:
            result, values, units = end_to_end(workload, import_s)
    finally:
        os.sched_setaffinity(0, allowed)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    phase = result.phase
    for problem in result.problems:
        print(f"oracle: {problem}")
    for error in phase.errors:
        print(f"failed op: {error}")
    correct = not result.problems
    print(f"oracle: {'ok' if correct else 'FAILED'}; attempted {phase.attempted}, failed {phase.failed}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": phase.attempted,
                "failed": phase.failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit} for name, unit in units
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
