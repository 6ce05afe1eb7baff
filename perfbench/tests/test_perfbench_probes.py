"""Span self time, interval coverage and wrapper removal."""

import gc

import pytest

from perfbench import probes
from perfbench.probes import (
    Probe,
    SpanLog,
    assert_unwrapped,
    covered_seconds,
    self_times,
    wrapped_points,
)
from repro.core.common.kernel import ServerKernel
from repro.runtime import transport as runtime_transport
from repro.runtime.nodes import RealtimeServer
from repro.storage.mvstore import MultiVersionStore


def test_self_time_subtracts_direct_children_only():
    spans = SpanLog()
    root = spans.add("kernel", 0.0, 10.0)
    child = spans.add("store", 1.0, 4.0, parent=root)
    spans.add("gc", 2.0, 3.0, parent=child)
    spans.add("store", 5.0, 7.0, parent=root)
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0]


def test_nested_calls_record_parents():
    spans = SpanLog()
    outer = spans.enter("outer", "t#1")
    inner = spans.enter("inner", None)
    spans.exit(inner)
    spans.exit(outer)
    assert list(spans.parents) == [-1, outer]
    assert spans.traces == ["t#1", None]
    durations = self_times(spans)
    assert durations[0] >= 0 and durations[1] >= 0


def test_covered_seconds_is_a_clipped_union():
    intervals = [(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (9.0, 12.0)]
    assert covered_seconds(intervals, 1.0, 10.0) == pytest.approx(4.0)
    assert covered_seconds([], 0.0, 1.0) == 0.0


def test_wrappers_are_removed_after_the_traced_run():
    originals = {(owner, name): getattr(owner, name)
                 for owner, name in probes._patch_points()}
    inherited = "deliver" not in vars(RealtimeServer)
    assert_unwrapped()
    probe = Probe()
    with pytest.raises(ZeroDivisionError):
        with probe:
            assert probe._on_gc in gc.callbacks
            assert len(wrapped_points()) == len(originals)
            with pytest.raises(RuntimeError):
                assert_unwrapped()
            1 / 0
    assert wrapped_points() == []
    for (owner, name), original in originals.items():
        assert getattr(owner, name) is original, (owner, name)
    assert ("deliver" not in vars(RealtimeServer)) == inherited
    assert probe._on_gc not in gc.callbacks


def test_probe_times_calls_and_counts_wire_traffic():
    store = MultiVersionStore()
    with Probe() as probe:
        store.latest("missing")
        data = runtime_transport.encode(("x", 1))
        assert runtime_transport.decode(data) == ("x", 1)
    totals = probe.self_time_by_name()
    assert totals["store.read"][0] == 1
    assert totals["wire.encode"][0] == 1 and totals["wire.decode"][0] == 1
    assert probe.wire_bytes == len(data)
    assert list(probe.chain_lengths) == [0]
    assert ServerKernel.on_message is not None
