"""Tracing wrappers that time the program's layers from outside.

A :class:`Probe` replaces a fixed set of public functions and methods (the
kernels' entry points, the multi-version store, the wire codec as the
transport calls it, the transports, the checker and the workload generator)
with thin wrappers that record a span per call, then puts every original
back.  Nothing under ``src/`` knows about it: the untraced runs execute the
program's own code, which :func:`assert_unwrapped` verifies before each one.

Spans live in memory as parallel arrays (name, start, end, parent, trace);
the parent is the span that was open when the call began, so a layer's self
time is its duration minus its children's (:func:`self_times`).  Besides
spans the probe records each garbage collection as a ``python.gc`` span
(so a pause is not charged to the call it interrupted) and two kinds of
waits, both keyed by the operation's trace id:

* *mailbox* — from a node's ``deliver`` to the kernel call that consumes the
  message (mailboxes are FIFO, so the n-th delivery to a node is the n-th
  message its kernel sees);
* *transport* — from ``TcpTransport.send`` of a remote message to the
  receiver's ``deliver`` (one process, one clock; each of the two links is
  FIFO, so arrivals are matched to sends in order per destination kind).
"""

from __future__ import annotations

import asyncio
import csv
import gc
import time
from array import array
from collections import Counter, defaultdict, deque
from typing import Callable, Iterable, Optional, TextIO

from repro.causal.checker import CausalConsistencyChecker
from repro.core.common.kernel import ClientKernel, Send, ServerKernel
from repro.harness import builder as sim_builder
from repro.runtime import cluster as runtime_cluster
from repro.runtime import transport as runtime_transport
from repro.runtime.nodes import RealtimeClient, RealtimeServer
from repro.runtime.transport import Envelope, InprocTransport, TcpTransport
from repro.storage.mvstore import MultiVersionStore
from repro.workload.generator import WorkloadGenerator

_clock = time.perf_counter

#: Marker attribute carried by every wrapper this module installs.
_MARK = "__perfbench_probe__"


def _patch_points() -> tuple[tuple[object, str], ...]:
    """Every (owner, attribute) a :class:`Probe` replaces."""
    return (
        (ServerKernel, "on_message"), (ServerKernel, "on_timer"),
        (ClientKernel, "start_operation"), (ClientKernel, "on_message"),
        (RealtimeServer, "deliver"), (RealtimeClient, "deliver"),
        (RealtimeClient, "perform"),
        (MultiVersionStore, "install"), (MultiVersionStore, "latest"),
        (MultiVersionStore, "versions"),
        (CausalConsistencyChecker, "record_put"),
        (CausalConsistencyChecker, "record_rot"),
        (CausalConsistencyChecker, "check"),
        (WorkloadGenerator, "next_operation"),
        (InprocTransport, "send"), (TcpTransport, "send"),
        (runtime_transport, "encode"), (runtime_transport, "decode"),
        (runtime_transport, "frame"),
        (runtime_cluster, "preload_initial_keyspace"),
        (sim_builder, "preload_initial_keyspace"),
        (asyncio, "open_connection"),
    )


def wrapped_points() -> list[str]:
    """Names of the patch points that currently carry a probe wrapper."""
    return [f"{getattr(owner, '__name__', owner)}.{name}"
            for owner, name in _patch_points()
            if getattr(getattr(owner, name), _MARK, False)]


def assert_unwrapped() -> None:
    """Fail unless the program's own code is in place (untraced runs)."""
    left = wrapped_points()
    if left:
        raise RuntimeError(f"probe wrappers still installed: {left}")


class SpanLog:
    """Spans kept in memory until the run ends."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.traces: list[Optional[str]] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def enter(self, name: str, trace: Optional[str]) -> int:
        index = len(self.names)
        self.names.append(name)
        self.traces.append(trace)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(_clock())
        return index

    def exit(self, index: int) -> None:
        self.ends[index] = _clock()
        self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int = -1,
            trace: Optional[str] = None) -> int:
        """Record a finished span directly (tests, asynchronous calls)."""
        index = len(self.names)
        self.names.append(name)
        self.traces.append(trace)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        return index

    def write_csv(self, handle: TextIO) -> None:
        """Write every span as ``name,start_us,end_us,parent,trace``."""
        writer = csv.writer(handle)
        writer.writerow(("name", "start_us", "end_us", "parent", "trace"))
        for index, name in enumerate(self.names):
            writer.writerow((name, round(self.starts[index] * 1e6, 3),
                             round(self.ends[index] * 1e6, 3),
                             self.parents[index], self.traces[index] or ""))


def self_times(spans: SpanLog) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    children = [0.0] * len(spans)
    starts, ends, parents = spans.starts, spans.ends, spans.parents
    for index in range(len(spans)):
        parent = parents[index]
        if parent >= 0:
            children[parent] += ends[index] - starts[index]
    return [ends[index] - starts[index] - children[index]
            for index in range(len(spans))]


def covered_seconds(intervals: Iterable[tuple[float, float]],
                    start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals
                     if e > start and s < end)
    covered = 0.0
    current_start = current_end = None
    for s, e in clipped:
        if current_end is None or s > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = s, e
        elif e > current_end:
            current_end = e
    if current_end is not None:
        covered += current_end - current_start
    return covered


class Probe:
    """Installs the timing wrappers; a context manager that always removes
    them again."""

    def __init__(self) -> None:
        self.spans = SpanLog()
        self.counts: Counter = Counter()
        #: (kind, start, end, trace) of mailbox and transport waits.
        self.waits: list[tuple[str, float, float, Optional[str]]] = []
        #: (trace, start, end) of every operation a client performed.
        self.ops: list[tuple[str, float, float]] = []
        self.chain_lengths = array("l")
        self.wire_bytes = 0
        self._arrivals: dict[int, deque] = defaultdict(deque)
        self._in_flight: dict[type, deque] = defaultdict(deque)
        self._tcp_arrival: Optional[tuple[float, Optional[str]]] = None
        self._saved: list[tuple[object, str, bool, object]] = []
        self._gc_span: Optional[int] = None

    # -------------------------------------------------------------- lifecycle
    def __enter__(self) -> "Probe":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.remove()

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("probe already installed")
        assert_unwrapped()
        factories = self._factories()
        gc.callbacks.append(self._on_gc)
        try:
            for owner, name in _patch_points():
                original = getattr(owner, name)
                owned = name in vars(owner)
                wrapper = factories[name, owner](original)
                setattr(wrapper, _MARK, True)
                self._saved.append((owner, name, owned, original))
                setattr(owner, name, wrapper)
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._saved:
            owner, name, owned, original = self._saved.pop()
            if owned:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    def _on_gc(self, phase: str, info: dict) -> None:
        # A collection pauses whatever call allocated; as a child span it
        # is subtracted from that call's self time instead of inflating it.
        if phase == "start":
            self._gc_span = self.spans.enter("python.gc", None)
        elif self._gc_span is not None:
            self.spans.exit(self._gc_span)
            self._gc_span = None

    def end_phase(self) -> None:
        """Forget deliveries and sends a stopped deployment never consumed
        (a later node may reuse a dead kernel's id)."""
        self._arrivals.clear()
        self._in_flight.clear()
        self._tcp_arrival = None

    # --------------------------------------------------------------- wrappers
    def _span(self, name: str, original: Callable,
              trace_of: Callable = lambda args: None) -> Callable:
        spans = self.spans

        def wrapper(*args, **kwargs):
            index = spans.enter(name, trace_of(args))
            try:
                return original(*args, **kwargs)
            finally:
                spans.exit(index)
        return wrapper

    def _kernel(self, prefix: str, original: Callable, label: Callable,
                mailbox: bool, timer: bool = False) -> Callable:
        spans, counts, waits = self.spans, self.counts, self.waits
        arrivals = self._arrivals

        def wrapper(kernel, *args):
            trace = kernel.current_trace
            name = prefix + label(args)
            index = spans.enter(name, trace)
            try:
                effects = original(kernel, *args)
            finally:
                spans.exit(index)
            if mailbox:
                queue = arrivals.get(id(kernel))
                if queue:
                    waits.append(("mailbox", queue.popleft(),
                                  spans.starts[index], trace))
            sends = sum(1 for effect in effects if isinstance(effect, Send))
            background = timer and trace is None
            counts["sends.background" if background else "sends.foreground"] \
                += sends
            return effects
        return wrapper

    def _deliver(self, original: Callable) -> Callable:
        counts, waits, arrivals = self.counts, self.waits, self._arrivals

        def deliver(node, sender, message, trace=None):
            now = _clock()
            counts["runtime.deliver"] += 1
            arrivals[id(node.kernel)].append(now)
            arrival, self._tcp_arrival = self._tcp_arrival, None
            if arrival is not None:
                waits.append(("transport", arrival[0], now, arrival[1]))
            return original(node, sender, message, trace)
        return deliver

    def _perform(self, original: Callable) -> Callable:
        ops = self.ops

        async def perform(client, operation, *args, **kwargs):
            # The client mints this id for the operation (see
            # repro.runtime.nodes.RealtimeClient.perform).
            trace = f"{client.node_id}#{client.sequence + 1}"
            start = _clock()
            result = await original(client, operation, *args, **kwargs)
            ops.append((trace, start, _clock()))
            return result
        return perform

    def _read(self, original: Callable, chain: bool) -> Callable:
        spans, lengths = self.spans, self.chain_lengths

        def read(store, key, *args, **kwargs):
            index = spans.enter("store.read", None)
            try:
                return original(store, key, *args, **kwargs)
            finally:
                spans.exit(index)
                if chain:
                    lengths.append(store.version_count(key))
        return read

    def _tcp_send(self, original: Callable) -> Callable:
        spans, in_flight = self.spans, self._in_flight

        def send(transport, sender, dest, message, trace=None):
            index = spans.enter("transport.send", trace)
            try:
                if dest not in transport.local_addrs():
                    in_flight[type(dest)].append((spans.starts[index], trace))
                return original(transport, sender, dest, message, trace)
            finally:
                spans.exit(index)
        return send

    def _encode(self, original: Callable) -> Callable:
        spans, counts = self.spans, self.counts

        def encode(value, *args, **kwargs):
            index = spans.enter("wire.encode", None)
            try:
                data = original(value, *args, **kwargs)
            finally:
                spans.exit(index)
            counts["wire.encode"] += 1
            if isinstance(value, Envelope):
                counts["wire.envelopes"] += 1
            self.wire_bytes += len(data)
            return data
        return encode

    def _decode(self, original: Callable) -> Callable:
        spans, counts, in_flight = self.spans, self.counts, self._in_flight

        def decode(data, *args, **kwargs):
            index = spans.enter("wire.decode", None)
            try:
                value = original(data, *args, **kwargs)
            finally:
                spans.exit(index)
            counts["wire.decode"] += 1
            if isinstance(value, Envelope):
                queue = in_flight.get(type(value.dest))
                if queue:
                    self._tcp_arrival = queue.popleft()
            return value
        return decode

    def _frame(self, original: Callable) -> Callable:
        counts = self.counts

        def frame(payload, *args, **kwargs):
            counts["transport.frames"] += 1
            return original(payload, *args, **kwargs)
        return frame

    def _connect(self, original: Callable) -> Callable:
        spans = self.spans

        async def open_connection(*args, **kwargs):
            start = _clock()
            try:
                return await original(*args, **kwargs)
            finally:
                spans.add("transport.connect", start, _clock())
        return open_connection

    def _factories(self) -> dict:
        message_name = lambda args: type(args[1]).__name__  # noqa: E731
        span = self._span
        return {
            ("on_message", ServerKernel): lambda f: self._kernel(
                "kernel.server.", f, message_name, mailbox=True),
            ("on_timer", ServerKernel): lambda f: self._kernel(
                "kernel.timer.", f, lambda args: args[0], mailbox=False,
                timer=True),
            ("start_operation", ClientKernel): lambda f: self._kernel(
                "kernel.client.", f, lambda args: "start_operation",
                mailbox=False),
            ("on_message", ClientKernel): lambda f: self._kernel(
                "kernel.client.", f, lambda args: "on_message",
                mailbox=True),
            ("deliver", RealtimeServer): self._deliver,
            ("deliver", RealtimeClient): self._deliver,
            ("perform", RealtimeClient): self._perform,
            ("install", MultiVersionStore): lambda f: span("store.install", f),
            ("latest", MultiVersionStore): lambda f: self._read(f, True),
            ("versions", MultiVersionStore): lambda f: self._read(f, False),
            ("record_put", CausalConsistencyChecker):
                lambda f: span("checker.record", f),
            ("record_rot", CausalConsistencyChecker):
                lambda f: span("checker.record", f),
            ("check", CausalConsistencyChecker):
                lambda f: span("checker.check", f),
            ("next_operation", WorkloadGenerator):
                lambda f: span("workload.next_op", f),
            ("send", InprocTransport): lambda f: span(
                "transport.send", f, lambda args: args[4]
                if len(args) > 4 else None),
            ("send", TcpTransport): self._tcp_send,
            ("encode", runtime_transport): self._encode,
            ("decode", runtime_transport): self._decode,
            ("frame", runtime_transport): self._frame,
            ("preload_initial_keyspace", runtime_cluster):
                lambda f: span("setup.preload", f),
            ("preload_initial_keyspace", sim_builder):
                lambda f: span("setup.preload", f),
            ("open_connection", asyncio): self._connect,
        }

    # ---------------------------------------------------------------- queries
    def self_time_by_name(self) -> dict[str, tuple[int, float]]:
        """``name -> (calls, total self seconds)`` over every span."""
        totals: dict[str, list] = {}
        for name, seconds in zip(self.spans.names, self_times(self.spans)):
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += seconds
        return {name: (calls, seconds)
                for name, (calls, seconds) in totals.items()}

    def wait_samples(self, kind: str) -> list[float]:
        """Durations (seconds) of every recorded wait of ``kind``."""
        return [end - start for wait_kind, start, end, _ in self.waits
                if wait_kind == kind]

    def residual_share(self) -> float:
        """Share of operation latency covered by no span and no wait."""
        by_trace: dict[str, list[tuple[float, float]]] = defaultdict(list)
        spans = self.spans
        for index, trace in enumerate(spans.traces):
            if trace is not None:
                by_trace[trace].append((spans.starts[index],
                                        spans.ends[index]))
        for _kind, start, end, trace in self.waits:
            if trace is not None:
                by_trace[trace].append((start, end))
        latency = uncovered = 0.0
        for trace, start, end in self.ops:
            span = end - start
            latency += span
            uncovered += span - covered_seconds(by_trace.get(trace, ()),
                                                start, end)
        return uncovered / latency if latency else 0.0


__all__ = ["Probe", "SpanLog", "assert_unwrapped", "covered_seconds",
           "self_times", "wrapped_points"]
