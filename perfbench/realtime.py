"""Closed-loop phases on the asyncio backend, in-process or over TCP.

Every phase builds a fresh deployment, drives its closed-loop clients for a
warmup plus a measured window, stops it, and checks the phase's full history
with the program's default checker (:class:`CausalConsistencyChecker`).
A fresh deployment per phase keeps each history short: the checker's cost
grows much faster than the history.

Two layouts, both in this one process on one event loop:

* ``inproc`` — one :class:`RealtimeCluster` over the default in-process
  transport;
* ``tcp`` — every partition server on one :class:`TcpTransport` endpoint and
  every client on another, over loopback, so load crosses at most two TCP
  connections (clients to servers, servers to clients) and every request
  and reply goes through the wire codec and framing.
"""

from __future__ import annotations

import asyncio
import gc
import math
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.causal.checker import CausalConsistencyChecker, CheckerReport
from repro.cluster.config import ClusterConfig
from repro.metrics.overheads import OverheadCounters
from repro.obs.trace import TraceAssembler
from repro.runtime.cluster import RealtimeCluster, drive_closed_loops
from repro.runtime.transport import TcpTransport
from repro.workload.parameters import WorkloadParameters

from perfbench.stats import InsufficientSamples

#: Seconds at the start of a phase whose operations are not measured.
WARMUP_SECONDS = 0.2
#: Operation count of the history the checker throughput is measured on.
CHECK_OPS = 500
#: How often a traced phase moves trace events off the bounded bus.
TRACE_DRAIN_SECONDS = 0.2


@dataclass(frozen=True)
class RealtimeWorkload:
    """One realtime workload: a protocol, a layout and a workload point."""

    name: str
    protocol: str
    layout: str
    write_ratio: float
    keys_per_partition: int
    light_seconds: float
    saturated_seconds: float
    num_dcs: int = 2
    num_partitions: int = 4
    light_clients: int = 1
    saturated_clients: int = 8
    #: Set-ups timed after each repetition; ``setup_s`` is their median.
    setups_per_repetition: int = 2

    def workload(self) -> WorkloadParameters:
        return WorkloadParameters(write_ratio=self.write_ratio, rot_size=4,
                                  value_size=8, skew=0.99)

    def config(self, seed: int, clients_per_dc: int,
               seconds: float) -> ClusterConfig:
        """The cluster of one phase; the seed reaches the program only here."""
        return ClusterConfig(
            num_partitions=self.num_partitions, num_dcs=self.num_dcs,
            clients_per_dc=clients_per_dc,
            keys_per_partition=self.keys_per_partition,
            stabilization_interval_ms=5.0,
            warmup_seconds=WARMUP_SECONDS,
            duration_seconds=WARMUP_SECONDS + seconds, seed=seed)


class Deployment:
    """The clusters of one phase and the one that holds its clients."""

    def __init__(self, clients: RealtimeCluster,
                 clusters: tuple[RealtimeCluster, ...]) -> None:
        self.clients = clients
        self.clusters = clusters
        #: Seconds from the end of construction until ready (listeners,
        #: peer tables, node tasks).
        self.start_s = 0.0

    @staticmethod
    async def open(layout: str, protocol: str, config: ClusterConfig,
                   workload: WorkloadParameters, *,
                   trace: bool = False) -> "Deployment":
        """Build and start a deployment; the first operation may follow."""
        if layout == "inproc":
            cluster = RealtimeCluster(protocol, config, workload,
                                      enable_checker=True, trace=trace)
            deployment = Deployment(cluster, (cluster,))
            start = time.perf_counter()
            try:
                await cluster.start()
            except BaseException:
                await deployment.close()
                raise
            deployment.start_s = time.perf_counter() - start
            return deployment
        if layout != "tcp":
            raise ValueError(f"unknown layout {layout!r}")
        server_transport, client_transport = TcpTransport(), TcpTransport()
        servers = RealtimeCluster(
            protocol, config, workload, workload_clients=False,
            transport=server_transport, trace=trace, trace_source="servers")
        clients = RealtimeCluster(
            protocol, config, workload, enable_checker=True,
            transport=client_transport, server_ids=(), trace=trace,
            trace_source="clients")
        deployment = Deployment(clients, (clients, servers))
        start = time.perf_counter()
        try:
            await server_transport.start()
            await client_transport.start()
            client_transport.set_peers(
                {addr: (server_transport.host, server_transport.port)
                 for addr in server_transport.local_addrs()})
            server_transport.set_peers(
                {addr: (client_transport.host, client_transport.port)
                 for addr in client_transport.local_addrs()})
            epoch = time.time()
            await servers.start(wall_epoch=epoch)
            await clients.start(wall_epoch=epoch)
        except BaseException:
            await deployment.close()
            raise
        deployment.start_s = time.perf_counter() - start
        return deployment

    async def close(self) -> None:
        """Stop clients first, then servers; raise the first node failure."""
        for cluster in self.clusters:
            await cluster.stop()
        for cluster in self.clusters:
            failure = cluster.first_failure()
            if failure is not None:
                raise failure

    def overhead(self) -> OverheadCounters:
        total = OverheadCounters()
        for cluster in self.clusters:
            total.merge(cluster.overhead())
        return total

    def drain_trace(self, assembler: TraceAssembler) -> None:
        for cluster in self.clusters:
            if cluster.trace_bus is not None:
                assembler.ingest_bus(cluster.trace_bus)


@dataclass
class PhaseResult:
    """What one phase measured and what its checks found."""

    name: str
    start_s: float
    measured_s: float
    cpu_s: float
    rot_s: list[float]
    put_s: list[float]
    attempted: int
    completed: int
    puts: int
    reads_checked: int
    report: CheckerReport
    overhead: OverheadCounters
    #: Checks that could not be made (too short a history), with counts.
    shortfalls: list[str] = field(default_factory=list)
    #: Remote-visibility lags (seconds) and lost trace events of a traced
    #: phase; the timeline itself is dropped so it cannot slow later phases.
    visibility_lags: list[float] = field(default_factory=list)
    trace_gaps: int = 0
    flagged: int = field(init=False)

    def __post_init__(self) -> None:
        self.flagged = (len(self.report.snapshot_violations)
                        + len(self.report.session_violations)
                        + len(self.report.convergence_violations))

    @property
    def ops_per_s(self) -> float:
        return (len(self.rot_s) + len(self.put_s)) / self.measured_s

    @property
    def failed(self) -> int:
        return self.attempted - self.completed + self.flagged


class SliceTimer:
    """The checker's throughput on fixed-count slices of a run's histories.

    Check time grows faster than history length, so the rate is measured on
    slices of :data:`CHECK_OPS` operations: a faster server, which makes
    longer histories, must not read as a slower checker.  Each slice is
    re-checked in passes spread over the run, and its shortest time counts,
    the one the host disturbed least.
    """

    def __init__(self) -> None:
        self.slices: list[tuple[list, list]] = []
        self.best: list[float] = []
        self.report = CheckerReport()

    def add(self, checker: CausalConsistencyChecker) -> None:
        """Cut ``checker``'s history into consecutive slices that keep its
        PUT share (PUTs and ROTs are recorded in completion order, so a
        slice is a stretch of the run)."""
        puts, rots = checker.recorded_history()
        total = len(puts) + len(rots)
        if total < CHECK_OPS:
            raise InsufficientSamples(
                f"checker throughput needs a history of {CHECK_OPS} "
                f"operations; the run completed {total}")
        put_count = round(CHECK_OPS * len(puts) / total)
        rot_count = CHECK_OPS - put_count
        for index in range(total // CHECK_OPS):
            self.slices.append(
                (puts[index * put_count:(index + 1) * put_count],
                 rots[index * rot_count:(index + 1) * rot_count]))
            self.best.append(math.inf)

    def check_all(self, spans=None) -> None:
        """Check every slice once more, each with a fresh default checker;
        violations go to :attr:`report`.  With a probe's ``spans`` the
        checks run inside a ``bench.fixed_count_check`` span, so their
        recording calls are not taken for the completion path's."""
        outer = (spans.enter("bench.fixed_count_check", None)
                 if spans is not None else None)
        for index, (puts, rots) in enumerate(self.slices):
            fresh = CausalConsistencyChecker()
            fresh.record_history(puts, rots)
            start = time.perf_counter()
            found = fresh.check()
            self.best[index] = min(self.best[index],
                                   time.perf_counter() - start)
            self.report.snapshot_violations.extend(found.snapshot_violations)
            self.report.session_violations.extend(found.session_violations)
        if outer is not None:
            spans.exit(outer)

    def rate(self) -> float:
        """Operations per second over every slice's shortest time."""
        return len(self.best) * CHECK_OPS / sum(self.best)


async def run_phase(spec: RealtimeWorkload, name: str, seed: int,
                    clients_per_dc: int, seconds: float, *,
                    trace: bool = False, probe=None,
                    slices: Optional[SliceTimer] = None) -> PhaseResult:
    """Set up, drive for warmup + ``seconds``, tear down and check; with
    ``slices``, the history is also cut into slices for the checker's
    throughput."""
    config = spec.config(seed, clients_per_dc, seconds)
    # Collect the previous phase's garbage now rather than mid-measurement.
    gc.collect()
    deployment = await Deployment.open(spec.layout, spec.protocol, config,
                                       spec.workload(), trace=trace)
    assembler = TraceAssembler() if trace else None
    background = []
    if assembler is not None:
        background.append(asyncio.ensure_future(
            _drain_periodically(deployment, assembler)))
    # The set-up heap (preloaded stores, nodes, clients) outlives the
    # window.  Frozen, it is left out of the collections the window's own
    # allocations trigger: a full collection over it stalls every client
    # for 50-150 ms, and whether one falls inside the window or not would
    # decide the p99s.
    gc.freeze()
    cpu_start = time.process_time()
    try:
        await drive_closed_loops(deployment.clients,
                                 WARMUP_SECONDS + seconds)
        # Operations still in flight at the stop complete before this, so
        # every counted completion lies inside the window.
        measured_s = deployment.clients.clock.now - WARMUP_SECONDS
    finally:
        gc.unfreeze()
        for task in background:
            task.cancel()
        await asyncio.gather(*background, return_exceptions=True)
        await deployment.close()
    cpu_s = time.process_time() - cpu_start
    if probe is not None:
        probe.end_phase()
    lags, gaps = [], 0
    if assembler is not None:
        deployment.drain_trace(assembler)
        lags = [lag for _trace, _dc, lag in assembler.visibility_lags()]
        gaps = assembler.total_dropped()

    clients = deployment.clients
    metrics, checker = clients.metrics, clients.checker
    report = checker.check()
    puts, rots = checker.recorded_history()
    put_ids = {put.version_id for put in puts}
    reads_checked = sum(1 for rot in rots for read in rot.reads
                        if read.version_id in put_ids)
    shortfalls = []
    if slices is not None:
        try:
            slices.add(checker)
        except InsufficientSamples as error:
            shortfalls.append(str(error))
    return PhaseResult(
        name=name, start_s=deployment.start_s,
        measured_s=measured_s, cpu_s=cpu_s,
        rot_s=list(metrics.rot_latencies.samples()),
        put_s=list(metrics.put_latencies.samples()),
        attempted=metrics.rots_issued + metrics.puts_issued,
        completed=len(puts) + len(rots), puts=len(puts),
        reads_checked=reads_checked, report=report,
        overhead=deployment.overhead(),
        shortfalls=shortfalls,
        visibility_lags=lags, trace_gaps=gaps)


async def _drain_periodically(deployment: Deployment,
                              assembler: TraceAssembler) -> None:
    """Keep the bounded trace buses from overflowing during a phase."""
    while True:
        await asyncio.sleep(TRACE_DRAIN_SECONDS)
        deployment.drain_trace(assembler)


async def measure_setup(spec: RealtimeWorkload, seed: int) -> float:
    """Seconds from construction until the first operation has completed,
    for the saturated deployment (then torn down).

    The TCP transport connects each link on its first frame, so the first
    operation is what opens both connections (its request one way, its
    reply the other); with it they count as set-up.
    """
    config = spec.config(seed, spec.saturated_clients, 1.0)
    gc.collect()
    start = time.perf_counter()
    deployment = await Deployment.open(spec.layout, spec.protocol, config,
                                       spec.workload())
    try:
        client = deployment.clients.clients[0]
        await client.perform(client.generator.next_operation())
        return time.perf_counter() - start
    finally:
        await deployment.close()


__all__ = ["CHECK_OPS", "Deployment", "PhaseResult", "RealtimeWorkload",
           "SliceTimer", "WARMUP_SECONDS", "measure_setup", "run_phase"]
