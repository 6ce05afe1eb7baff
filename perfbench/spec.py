"""What the benchmark runs and reports: workloads and metric declarations.

``BENCHMARK.json`` at the repository root is :func:`benchmark_json` written
out (a test keeps the two equal).  Its schema has no room for why a layer
metric exists, so that lives here: every per-layer metric names the
end-to-end metrics it should move and the workloads it applies to.  On a
workload outside that list the metric reads 0 — and for the bypass counters
(wire encodes, socket frames, runtime deliveries, readers checks,
stabilization messages) that 0 is the point: it shows the workload skips
the layer.
"""

from __future__ import annotations

from dataclasses import dataclass

from perfbench.realtime import RealtimeWorkload

CONTRARIAN = "contrarian-read-heavy"
CCLO = "cclo-write-heavy-tcp"
SIM = "sim-paper-default"

#: Measured seconds of one run (``run_seconds`` in BENCHMARK.json).
RUN_SECONDS = 10

REALTIME = {
    CONTRARIAN: RealtimeWorkload(
        name=CONTRARIAN, protocol="contrarian", layout="inproc",
        write_ratio=0.05, keys_per_partition=10_000,
        light_seconds=0.6, saturated_seconds=0.6, setups_per_repetition=1),
    CCLO: RealtimeWorkload(
        name=CCLO, protocol="cc-lo", layout="tcp",
        write_ratio=0.1, keys_per_partition=1_000,
        light_seconds=0.5, saturated_seconds=0.5, setups_per_repetition=4),
}

WORKLOADS = {
    CONTRARIAN: "Contrarian in-process at w=0.05: vector-kernel ROTs, store "
                "snapshot reads, mailbox dispatch and GSS stabilization; no "
                "wire encodes, no readers checks",
    CCLO: "CC-LO at w=0.1 on hot keys over one client and one server TCP "
          "endpoint: readers checks tax PUTs and every request crosses the "
          "codec, framing and socket; no stabilization",
    SIM: "Simulator, all three protocols at the paper default, 2 DCs x 8 "
         "partitions: engine, network, sim drivers and kernels only; "
         "deterministic, so repeated rows must match",
}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    #: End-to-end metrics this one should move.
    moves: str
    #: Workloads where it is measured (0 elsewhere).
    workloads: tuple[str, ...]


#: Every bound is the largest allowed.  The shared 2-vCPU host this was
#: tuned on steps between a fast and a slow state (about 1.5x apart), and
#: ten runs of one workload spread (quartile distance over median) by up to
#: 0.25, more when the host changed state during them; see
#: perfbench/README.md.
#:
#: The p99s (``rot_p99_ms``, ``put_p99_ms`` and their ``light_`` forms)
#: are printed with their sample counts but are not part of the result.
#: A p99 needs the samples of every phase, so it follows how fast the host
#: was over the whole run, where the other latencies come from the run's
#: fastest phase: on Contrarian a phase's p99 times its throughput stays
#: about constant, and ten runs spread by 0.17-0.26, past the largest bound.
END_TO_END = (
    EndToEnd("ops_per_s", "ops/s", "higher", 0.25),
    EndToEnd("rot_p50_ms", "ms", "lower", 0.25),
    EndToEnd("put_p50_ms", "ms", "lower", 0.25),
    EndToEnd("light_rot_p50_ms", "ms", "lower", 0.25),
    EndToEnd("light_put_p50_ms", "ms", "lower", 0.25),
    EndToEnd("check_ops_per_s", "ops/s", "higher", 0.25),
    EndToEnd("setup_s", "s", "lower", 0.25),
)

#: Message types the server kernels handle, over all three protocols.
SERVER_MESSAGES = (
    # Contrarian and Cure
    "VectorPutRequest", "RotCoordinatorRequest", "RotProxyRead",
    "RotReadRequest", "ReplicateUpdate", "StabilizationMessage",
    "RemoteHeartbeat",
    # CC-LO
    "CcloPutRequest", "OneRoundReadRequest", "ReadersCheckRequest",
    "ReadersCheckReply", "CcloReplicateUpdate",
)
VECTOR_MESSAGES = SERVER_MESSAGES[:7]
TIMER_TAGS = ("stabilization", "remote-heartbeat", "put-wait", "rot-block",
              "cclo-gc")
ROT_MESSAGES = ("RotCoordinatorRequest", "RotProxyRead", "RotReadRequest",
                "OneRoundReadRequest")

_RT = (CONTRARIAN, CCLO)
_ALL = (CONTRARIAN, CCLO, SIM)


def _kernel_layers() -> list[Layer]:
    layers = []
    for message in SERVER_MESSAGES:
        moves = ("light_rot_p50_ms" if message in ROT_MESSAGES
                 else "light_put_p50_ms ops_per_s")
        where = ((CONTRARIAN, SIM) if message in VECTOR_MESSAGES
                 else (CCLO, SIM))
        layers.append(Layer(f"kernel.server_us.{message}", "us", "lower",
                            moves, where))
        layers.append(Layer(f"kernel.server_calls.{message}", "count",
                            "lower", moves, where))
    for tag in TIMER_TAGS:
        where = (CCLO, SIM) if tag == "cclo-gc" else (CONTRARIAN, SIM)
        layers.append(Layer(f"kernel.timer_us.{tag}", "us", "lower",
                            "ops_per_s", where))
        layers.append(Layer(f"kernel.timer_calls.{tag}", "count", "lower",
                            "ops_per_s", where))
    return layers


PER_LAYER = (
    Layer("runtime.mailbox_wait_us.p50", "us", "lower",
          "rot_p99_ms ops_per_s", _RT),
    Layer("runtime.mailbox_wait_us.p99", "us", "lower",
          "rot_p99_ms ops_per_s", _RT),
    Layer("runtime.msgs_per_op", "count", "lower", "ops_per_s", _RT),
    Layer("runtime.cpu_us_per_op", "us", "lower", "ops_per_s", _RT),
    Layer("runtime.background_msg_share", "ratio", "lower",
          "ops_per_s light_rot_p50_ms", (CONTRARIAN,)),
    Layer("runtime.deliver_calls", "count", "lower", "ops_per_s", _RT),
    *_kernel_layers(),
    Layer("kernel.client_us.start_operation", "us", "lower",
          "light_rot_p50_ms light_put_p50_ms", _ALL),
    Layer("kernel.client_us.on_message", "us", "lower",
          "light_rot_p50_ms light_put_p50_ms", _ALL),
    Layer("protocol.readers_check_msgs_per_put", "count", "lower",
          "put_p50_ms put_p99_ms", (CCLO,)),
    Layer("protocol.rot_ids_distinct_share", "ratio", "higher",
          "put_p50_ms put_p99_ms", (CCLO,)),
    Layer("protocol.stabilization_msgs_per_op", "count", "lower",
          "ops_per_s", (CONTRARIAN,)),
    Layer("protocol.replication_msgs_per_put", "count", "lower",
          "ops_per_s", _RT),
    Layer("store.install_us", "us", "lower", "light_put_p50_ms", _ALL),
    Layer("store.read_us", "us", "lower", "light_rot_p50_ms", _ALL),
    Layer("store.chain_len.max", "count", "lower", "light_rot_p50_ms", _ALL),
    Layer("store.chain_len.mean", "count", "lower", "light_rot_p50_ms",
          _ALL),
    Layer("wire.encode_us_per_msg", "us", "lower", "ops_per_s put_p99_ms",
          (CCLO,)),
    Layer("wire.decode_us_per_msg", "us", "lower", "ops_per_s put_p99_ms",
          (CCLO,)),
    Layer("wire.bytes_per_msg", "B", "lower", "ops_per_s", (CCLO,)),
    Layer("wire.msgs_per_frame", "count", "higher", "ops_per_s", (CCLO,)),
    Layer("wire.encodes_per_op", "count", "lower", "ops_per_s", (CCLO,)),
    Layer("transport.send_us", "us", "lower",
          "light_rot_p50_ms light_put_p50_ms ops_per_s", _RT),
    Layer("transport.delivery_us.p50", "us", "lower",
          "light_rot_p50_ms light_put_p50_ms", (CCLO,)),
    Layer("transport.delivery_us.p99", "us", "lower", "rot_p99_ms put_p99_ms",
          (CCLO,)),
    Layer("transport.frames_per_op", "count", "lower", "ops_per_s", (CCLO,)),
    Layer("checker.record_us", "us", "lower", "ops_per_s", _ALL),
    Layer("checker.check_s", "s", "lower", "check_ops_per_s", _ALL),
    Layer("workload.next_op_us", "us", "lower", "ops_per_s", _ALL),
    Layer("visibility.p50_ms", "ms", "lower", "(visibility lag)", _RT),
    Layer("visibility.p99_ms", "ms", "lower", "(visibility lag)", _RT),
    Layer("sim.events_per_s", "1/s", "higher", "ops_per_s", (SIM,)),
    Layer("sim.events_per_op", "count", "lower", "ops_per_s", (SIM,)),
    Layer("sim.msgs_per_op", "count", "lower", "ops_per_s", (SIM,)),
    Layer("sim.build_s", "s", "lower", "setup_s", (SIM,)),
    Layer("setup.preload_s", "s", "lower", "setup_s", _ALL),
    Layer("setup.start_s", "s", "lower", "setup_s", _RT),
    Layer("setup.connect_s", "s", "lower", "setup_s", (CCLO,)),
    Layer("op.residual_share", "ratio", "lower", "(breakdown coverage)",
          _RT),
    Layer("trace.ops_per_s_traced", "ops/s", "higher", "(tracing overhead)",
          _ALL),
    Layer("trace.ops_per_s_untraced", "ops/s", "higher",
          "(tracing overhead)", _ALL),
    Layer("trace.sequence_gaps", "count", "lower", "(trace integrity)", _RT),
)


def benchmark_json() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


__all__ = ["CCLO", "CONTRARIAN", "END_TO_END", "EndToEnd", "Layer",
           "PER_LAYER", "REALTIME", "RUN_SECONDS", "SIM", "SERVER_MESSAGES",
           "TIMER_TAGS", "WORKLOADS", "benchmark_json"]
