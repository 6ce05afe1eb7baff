"""The single-process TCP layout and the seed's reach."""

import asyncio
import gc

from perfbench import simwork
from perfbench.probes import Probe
from perfbench.realtime import RealtimeWorkload, measure_setup, run_phase
from perfbench.spec import CCLO, REALTIME
from repro.harness import builder
from repro.runtime.cluster import RealtimeCluster
from repro.workload.parameters import DEFAULT_WORKLOAD

TINY_TCP = RealtimeWorkload(
    name="tiny-tcp", protocol="cc-lo", layout="tcp", write_ratio=0.1,
    keys_per_partition=64, light_seconds=0.2, saturated_seconds=0.2)


def test_tcp_layout_stops_with_no_pending_tasks():
    async def scenario():
        phase = await run_phase(TINY_TCP, "saturated", 1, 2, 0.3)
        current = asyncio.current_task()
        return phase, [task for task in asyncio.all_tasks()
                       if task is not current]

    phase, pending = asyncio.run(scenario())
    assert pending == []
    # The set-up heap is frozen only for the measured window.
    assert gc.get_freeze_count() == 0
    assert phase.report.ok
    assert phase.completed > 0 and phase.failed == 0


def test_tcp_setup_lasts_until_both_connections_are_open():
    with Probe() as probe:
        assert asyncio.run(measure_setup(TINY_TCP, 1)) > 0
    spans = probe.spans
    connects = [index for index, name in enumerate(spans.names)
                if name == "transport.connect"]
    assert len(connects) == 2
    [(_trace, _start, first_op_end)] = probe.ops
    assert all(spans.ends[index] <= first_op_end for index in connects)


def test_traced_tcp_phase_pairs_every_delivery_with_its_send():
    with Probe() as probe:
        phase = asyncio.run(run_phase(TINY_TCP, "saturated", 2, 2, 0.3,
                                      trace=True, probe=probe))
    assert phase.trace_gaps == 0
    assert len(probe.ops) == phase.completed
    frames = probe.counts["transport.frames"]
    assert frames > 0
    assert len(probe.wait_samples("transport")) == frames
    assert all(wait >= 0 for wait in probe.wait_samples("mailbox"))
    assert 0.0 <= probe.residual_share() < 1.0


def _realtime_stream(seed):
    spec = REALTIME[CCLO]
    cluster = RealtimeCluster(spec.protocol, spec.config(seed, 2, 1.0),
                              spec.workload())
    return [client.generator.next_operation()
            for client in cluster.clients for _ in range(25)]


def _sim_stream(seed):
    cluster = builder.build_cluster(
        "contrarian", simwork.sim_config(seed, 2, 0.1), DEFAULT_WORKLOAD)
    return [client.generator.next_operation()
            for client in cluster.topology.clients for _ in range(25)]


def test_seed_sets_the_operation_stream():
    for stream in (_realtime_stream, _sim_stream):
        assert stream(3) == stream(3)
        assert stream(3) != stream(4)
