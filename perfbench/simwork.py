"""The simulator workload: all three protocols at the paper-default point.

Each point is one :func:`repro.harness.runner.run_experiment` call on a
bench-scale cluster (8 partitions per DC, 2 DCs) for a fixed simulated
duration.  No process pool, asyncio loop, transport or codec is involved.
The simulator is deterministic, so rows from a repeated round must be
identical.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Optional

from repro.causal.checker import CausalConsistencyChecker, CheckerReport
from repro.cluster.config import ClusterConfig
from repro.harness import builder
from repro.harness.runner import run_experiment
from repro.workload.parameters import DEFAULT_WORKLOAD

PROTOCOLS = ("contrarian", "cure", "cc-lo")
#: Simulated seconds before operations count.
WARMUP_SECONDS = 0.05
#: (phase, clients per DC, simulated seconds including warmup).
PHASES = (("light", 1, 0.45), ("saturated", 8, 0.15))


def sim_config(seed: int, clients_per_dc: int,
               duration: float) -> ClusterConfig:
    """Bench-scale cluster of one point; the seed reaches the program here."""
    return ClusterConfig.bench_scale(
        num_dcs=2, clients_per_dc=clients_per_dc, seed=seed,
        warmup_seconds=WARMUP_SECONDS, duration_seconds=duration)


@dataclass
class SimPoint:
    """One simulated run: its result row and what it cost."""

    protocol: str
    phase: str
    row: dict
    #: Wall seconds of the whole ``run_experiment`` call.
    wall_s: float
    #: Operations completed inside the measured window.
    ops: int
    events: int
    messages: int
    rot_s: list[float]
    put_s: list[float]
    checker: Optional[CausalConsistencyChecker]
    report: Optional[CheckerReport]


def run_point(protocol: str, phase: str, clients_per_dc: int,
              duration: float, seed: int, checked: bool) -> SimPoint:
    """Simulate one (protocol, load) point; with ``checked`` the full
    history is recorded and checked inside the call."""
    config = sim_config(seed, clients_per_dc, duration)
    gc.collect()
    start = time.perf_counter()
    outcome = run_experiment(protocol, config, DEFAULT_WORKLOAD,
                             enable_checker=checked)
    wall_s = time.perf_counter() - start
    cluster, result = outcome.cluster, outcome.result
    return SimPoint(
        protocol=protocol, phase=phase, row=result.as_json_dict(),
        wall_s=wall_s, ops=result.rots_completed + result.puts_completed,
        events=cluster.sim.events_processed,
        messages=cluster.topology.network.stats.messages,
        rot_s=list(cluster.metrics.rot_latencies.samples()),
        put_s=list(cluster.metrics.put_latencies.samples()),
        checker=cluster.checker, report=outcome.checker_report)


def run_round(seed: int, checked: bool = False,
              phases: tuple = PHASES) -> list[SimPoint]:
    """Every protocol at every load of ``phases``, in order."""
    return [run_point(protocol, phase, clients, duration, seed, checked)
            for phase, clients, duration in phases
            for protocol in PROTOCOLS]


def measure_build(seed: int) -> float:
    """Seconds :func:`build_cluster` takes for the saturated Contrarian
    point (the cluster is discarded)."""
    _phase, clients, duration = PHASES[-1]
    config = sim_config(seed, clients, duration)
    gc.collect()
    start = time.perf_counter()
    builder.build_cluster("contrarian", config, DEFAULT_WORKLOAD)
    return time.perf_counter() - start


__all__ = ["PHASES", "PROTOCOLS", "SimPoint", "measure_build", "run_point",
           "run_round", "sim_config"]
