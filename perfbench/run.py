"""The repository's benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload contrarian-read-heavy --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
breakdown of a separate traced run (see ``perfbench/spec.py`` for every
metric, what it should move and where).  Human-readable lines come first:
host, workload, each metric with its unit and sample count, the failed
operation ratio and the run's wall and CPU seconds.  The last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` whose metrics
are the declared ones; the p99s are printed only.  Any checker
violation, simulator mismatch between identical-seed rounds or trace gap
makes the run incorrect and the exit code 1.

The program is imported from ``src/`` next to this directory and nowhere
else; without it the command fails before measuring anything.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path and verify ``repro``
    comes from it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro
    origin = Path(repro.__file__).resolve()
    if SRC not in origin.parents:
        raise SystemExit(f"error: repro imported from {origin}, not {SRC}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _pin_one_cpu() -> list[int]:
    """Run on one fixed CPU, the highest-numbered one allowed.

    The cores of one host can differ in speed, so every run uses the same
    one.  On the 2-core machine this was written on, cpu1 ran a fixed loop
    within about 5% from one half-second to the next while cpu0 swung by
    40%, and closed-loop throughput repeated within 4% on cpu1.
    """
    if not hasattr(os, "sched_setaffinity"):
        return []
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return sorted(os.sched_getaffinity(0))


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = _parse(argv)
    _import_program()
    from perfbench import measure
    from perfbench.spec import END_TO_END, PER_LAYER, WORKLOADS
    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"known: {sorted(WORKLOADS)}")

    cpus = _pin_one_cpu()
    print(f"# host nproc={os.cpu_count()} cpu_model={_cpu_model()!r} "
          f"python={platform.python_version()} cpuset={cpus}")
    print(f"# workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    wall_start, cpu_start = time.perf_counter(), time.process_time()
    outcome = measure.run(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    wall, cpu = time.perf_counter() - wall_start, time.process_time() - cpu_start

    declared = {metric.name for metric in (PER_LAYER if args.trace
                                          else END_TO_END)}
    for name, value in outcome.metrics.items():
        note = value.note if name in declared else f"{value.note}; printed only"
        print(f"{name:<40} {value.value:>14.6g} {value.unit:<6} {note}")
    ratio = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"{'failed_op_ratio':<40} {ratio:>14.6g} {'ratio':<6} "
          f"failed={outcome.failed} attempted={outcome.attempted}")
    print(f"# wall_s={wall:.3f} cpu_s={cpu:.3f}")
    for problem in outcome.problems:
        print(f"# INCORRECT: {problem}")
    if outcome.probe is not None:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        with gzip.open(path, "wt", compresslevel=1, newline="") as handle:
            outcome.probe.spans.write_csv(handle)
        print(f"# spans={len(outcome.probe.spans)} written to "
              f"{path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value.value, "unit": value.unit}
                    for name, value in outcome.metrics.items()
                    if name in declared},
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
