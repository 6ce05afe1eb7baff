"""Runs one workload and turns its phases into the reported metrics.

An untraced run (``trace=False``) yields the end-to-end metrics.  How many
phases (or repeats) it runs depends on ``--seconds`` and the workload only,
never on how fast the program is, so both sides of a comparison take the
best of the same number.  A shared host only ever slows work down, so
deterministic work (a simulator point, a checker slice) counts at its
fastest repeat, and on the realtime workloads throughput and the p50
latencies come from the fastest phase; the p99 latencies pool every
phase, so stalls of the program's own still show.  A p99 without the
samples it needs, or a history too short to measure the checker on, is
reported as a failed check with its count.

A traced run first makes one untraced repetition (one checked simulator
round) as the companion that tracing overhead is judged against, then runs the workload again under a
:class:`~perfbench.probes.Probe` with the program's ``repro.obs`` events on,
and yields the per-layer metrics.  The rule for the per-layer numbers: time
per call, counts, shares and waits come from the traced phases; rates per
wall second and CPU per operation come from the untraced companion, since
the wrappers slow every call they time.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Optional

from repro.causal.checker import CheckerReport

from perfbench import simwork
from perfbench.probes import Probe, assert_unwrapped
from perfbench.realtime import (
    CHECK_OPS,
    PhaseResult,
    RealtimeWorkload,
    SliceTimer,
    measure_setup,
    run_phase,
)
from perfbench.spec import (
    PER_LAYER,
    REALTIME,
    SERVER_MESSAGES,
    SIM,
    TIMER_TAGS,
)
from perfbench.stats import InsufficientSamples, median, percentile, ratio

#: Passes over every checker slice after each realtime repetition.
CHECK_PASSES_PER_REPETITION = 2
#: ``--seconds`` per repeat of the simulator's saturated points.
SIM_SECONDS_PER_REPEAT = 3.5
#: Seeds whose checked light histories the simulator's checker rate is
#: measured on: the rate moves by half with a history's content (seed),
#: so it averages over several.
SIM_CHECK_SEEDS = 2
#: ``build_cluster`` calls timed after each repeat of the saturated points.
SIM_BUILDS_PER_REPEAT = 8


@dataclass
class Value:
    """One reported metric value with its unit and sample note."""

    value: float
    unit: str
    note: str = ""


@dataclass
class Outcome:
    """Everything one run reports."""

    metrics: dict[str, Value]
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    probe: Optional[Probe] = None

    @property
    def correct(self) -> bool:
        return not self.problems


def _latency_values(name: str, typical_s: list[float], tail_s: list[float],
                    metrics: dict[str, Value], problems: list[str],
                    note: str = "") -> None:
    """Add ``<name>_p50_ms`` from ``typical_s`` and ``<name>_p99_ms`` from
    ``tail_s`` (both in seconds); a percentile the samples cannot support
    becomes a problem instead."""
    for label, fraction, samples in (("p50", 0.50, typical_s),
                                     ("p99", 0.99, tail_s)):
        metric = f"{name}_{label}_ms"
        try:
            point = percentile(samples, fraction)
        except InsufficientSamples as error:
            problems.append(f"{metric}: {error}")
            continue
        metrics[metric] = Value(
            point.value * 1e3, "ms",
            f"n={point.samples} beyond={point.beyond}{note}")


def _report_problems(where: str, report: CheckerReport) -> list[str]:
    """The first few violations ``report`` holds."""
    return [f"{where}: {violation}" for violation in
            (report.snapshot_violations + report.session_violations
             + report.convergence_violations)[:5]]


def _phase_problems(phase: PhaseResult) -> list[str]:
    problems = [f"{phase.name}: {shortfall}"
                for shortfall in phase.shortfalls]
    problems.extend(_report_problems(phase.name, phase.report))
    if phase.reads_checked == 0:
        problems.append(f"{phase.name}: the checker verified no read")
    return problems


# ------------------------------------------------------------------ realtime
def repetitions(spec: RealtimeWorkload, seconds: float) -> int:
    """Light + saturated repetitions that fill ``seconds`` measured (the
    rounding forgives the binary error of lengths such as 1.6 s)."""
    return max(1, int(seconds / (spec.light_seconds
                                 + spec.saturated_seconds) + 1e-9))


async def _repetition(spec: RealtimeWorkload, seed: int, *,
                      slices: Optional[SliceTimer] = None, **kwargs
                      ) -> tuple[PhaseResult, PhaseResult]:
    """A light phase, then a saturated one; only the saturated history goes
    to ``slices`` for the checker's throughput."""
    light = await run_phase(spec, "light", seed, spec.light_clients,
                            spec.light_seconds, **kwargs)
    saturated = await run_phase(spec, "saturated", seed,
                                spec.saturated_clients,
                                spec.saturated_seconds, slices=slices,
                                **kwargs)
    return light, saturated


def _rep_seed(seed: int, rep: int) -> int:
    """Each repetition draws its own inputs, all derived from ``seed``."""
    return seed * 100 + rep


async def realtime_untraced(spec: RealtimeWorkload, seed: int,
                            seconds: float) -> Outcome:
    assert_unwrapped()
    lights, saturated, setups = [], [], []
    slices = SliceTimer()
    for rep in range(repetitions(spec, seconds)):
        light, sat = await _repetition(spec, _rep_seed(seed, rep),
                                       slices=slices)
        lights.append(light)
        saturated.append(sat)
        # Set-ups and checker passes spread over the run, so no one slow
        # moment of the host owns them.
        for _ in range(spec.setups_per_repetition):
            setups.append(await measure_setup(
                spec, _rep_seed(seed, len(setups))))
        for _ in range(CHECK_PASSES_PER_REPETITION):
            slices.check_all()

    phases = lights + saturated
    problems = [problem for phase in phases
                for problem in _phase_problems(phase)]
    problems.extend(_report_problems("slices", slices.report))
    metrics: dict[str, Value] = {}
    for prefix, group in (("", saturated), ("light_", lights)):
        best = max(group, key=lambda phase: phase.ops_per_s)
        if not prefix:
            metrics["ops_per_s"] = Value(
                best.ops_per_s, "ops/s",
                f"fastest of {len(group)} phases, "
                f"{len(best.rot_s) + len(best.put_s)} ops")
        for kind in ("rot", "put"):
            _latency_values(
                f"{prefix}{kind}", getattr(best, f"{kind}_s"),
                [sample for phase in group
                 for sample in getattr(phase, f"{kind}_s")], metrics,
                problems,
                f"; p50 of the fastest of {len(group)} phases, p99 of all")
    if slices.best:
        metrics["check_ops_per_s"] = Value(
            slices.rate(), "ops/s", f"{len(slices.best)} slices of "
            f"{CHECK_OPS} ops, each at its fastest check")
    metrics["setup_s"] = Value(
        median(setups), "s", f"median of {len(setups)} set-ups, each until "
        f"its first operation completed")
    return Outcome(
        metrics=metrics,
        attempted=sum(phase.attempted for phase in phases),
        failed=sum(phase.failed for phase in phases),
        problems=problems)


async def realtime_traced(spec: RealtimeWorkload, seed: int,
                          seconds: float) -> Outcome:
    assert_unwrapped()
    companion_light, companion = await _repetition(spec, _rep_seed(seed, 0))
    traced: list[PhaseResult] = []
    with Probe() as probe:
        for rep in range(repetitions(spec, seconds)):
            traced.extend(await _repetition(
                spec, _rep_seed(seed, rep), trace=True, probe=probe))
    assert_unwrapped()
    phases = [companion_light, companion, *traced]
    problems = [problem for phase in phases
                for problem in _phase_problems(phase)]
    gaps = sum(phase.trace_gaps for phase in traced)
    if gaps:
        problems.append(f"trace sequence gaps: {gaps} events lost")

    values = _layer_values(probe)
    ops = sum(phase.completed for phase in traced)
    puts = sum(phase.puts for phase in traced)
    counts = probe.counts
    overhead = traced[0].overhead
    for phase in traced[1:]:
        overhead.merge(phase.overhead)
    sends = counts["sends.foreground"] + counts["sends.background"]
    lags_ms = [lag * 1e3 for phase in traced
               for lag in phase.visibility_lags]
    traced_saturated = [phase for phase in traced
                        if phase.name == "saturated"]

    def point(name: str, samples: list[float], fraction: float) -> float:
        try:
            return percentile(samples, fraction).value
        except InsufficientSamples as error:
            problems.append(f"{name}: {error}")
            return 0.0

    mailbox = probe.wait_samples("mailbox")
    values.update({
        "runtime.mailbox_wait_us.p50":
            point("runtime.mailbox_wait_us.p50", mailbox, 0.5) * 1e6,
        "runtime.mailbox_wait_us.p99":
            point("runtime.mailbox_wait_us.p99", mailbox, 0.99) * 1e6,
        "runtime.msgs_per_op": ratio(counts["runtime.deliver"], ops),
        "runtime.cpu_us_per_op":
            ratio(companion.cpu_s, companion.completed) * 1e6,
        "runtime.background_msg_share":
            ratio(counts["sends.background"], sends),
        "protocol.readers_check_msgs_per_put":
            ratio(overhead.readers_check_messages, puts),
        "protocol.rot_ids_distinct_share":
            ratio(overhead.rot_ids_distinct, overhead.rot_ids_cumulative),
        "protocol.stabilization_msgs_per_op":
            ratio(overhead.stabilization_messages, ops),
        "protocol.replication_msgs_per_put":
            ratio(overhead.replication_messages, puts),
        "wire.encodes_per_op": ratio(counts["wire.encode"], ops),
        "transport.frames_per_op": ratio(counts["transport.frames"], ops),
        "visibility.p50_ms": point("visibility.p50_ms", lags_ms, 0.5),
        "visibility.p99_ms": point("visibility.p99_ms", lags_ms, 0.99),
        "setup.start_s": median([phase.start_s for phase in traced]),
        "op.residual_share": probe.residual_share(),
        "trace.ops_per_s_traced":
            median([phase.ops_per_s for phase in traced_saturated]),
        "trace.ops_per_s_untraced": companion.ops_per_s,
        "trace.sequence_gaps": float(gaps),
    })
    _per_phase(values, probe, len(traced))
    if spec.layout == "tcp":
        deliveries = probe.wait_samples("transport")
        for name, fraction in (("transport.delivery_us.p50", 0.5),
                               ("transport.delivery_us.p99", 0.99)):
            values[name] = point(name, deliveries, fraction) * 1e6
    return Outcome(
        metrics=_layer_metrics(values),
        attempted=sum(phase.attempted for phase in phases),
        failed=sum(phase.failed for phase in phases),
        problems=problems, probe=probe)


# ----------------------------------------------------------------- simulator
def sim_repeats(seconds: float) -> int:
    """Unchecked repeats of the saturated simulator points: at least two,
    so identical-seed rows can be compared and the fastest taken."""
    return max(2, round(seconds / SIM_SECONDS_PER_REPEAT))


def _sim_problems(reference: list[simwork.SimPoint],
                  rounds: list[list[simwork.SimPoint]]) -> list[str]:
    """Rows that differ from the same point's row in ``reference``."""
    expected = {(point.protocol, point.phase): point.row
                for point in reference}
    return [f"{point.protocol} {point.phase} row differs between two runs "
            f"with the same seed"
            for points in rounds for point in points
            if point.row != expected[(point.protocol, point.phase)]]


def _sim_rate(points: list[simwork.SimPoint]) -> float:
    """Operations the saturated points completed per wall second of their
    ``run_experiment`` calls."""
    saturated = [point for point in points if point.phase == "saturated"]
    return (sum(point.ops for point in saturated)
            / sum(point.wall_s for point in saturated))


def _report_points(points: list[simwork.SimPoint]) -> list[str]:
    return [problem for point in points
            for problem in _report_problems(point.protocol, point.report)]


def sim_untraced(seed: int, seconds: float) -> Outcome:
    assert_unwrapped()
    light_phase, saturated_phase = simwork.PHASES[:1], simwork.PHASES[1:]
    checked = [simwork.run_round(_rep_seed(seed, rep) if rep else seed,
                                 checked=True, phases=light_phase)
               for rep in range(SIM_CHECK_SEEDS)]
    problems = _report_points([point for points in checked
                               for point in points])
    # One slice timer per protocol, so the rate weighs the three protocols
    # alike whatever their history lengths.
    timers = {protocol: SliceTimer() for protocol in simwork.PROTOCOLS}
    for point in (point for points in checked for point in points):
        try:
            timers[point.protocol].add(point.checker)
        except InsufficientSamples as error:
            problems.append(f"{point.protocol}: {error}")
    light = simwork.run_round(seed, phases=light_phase)
    repeats: list[list[simwork.SimPoint]] = []
    builds: list[float] = []
    for _ in range(sim_repeats(seconds)):
        repeats.append(simwork.run_round(seed, phases=saturated_phase))
        # Builds and checker passes spread over the run, like the repeats.
        builds.extend(simwork.measure_build(seed)
                      for _ in range(SIM_BUILDS_PER_REPEAT))
        for timer in timers.values():
            timer.check_all()
    problems.extend(_sim_problems(checked[0], [light]))
    problems.extend(_sim_problems(repeats[0], repeats[1:]))
    for protocol, timer in timers.items():
        problems.extend(_report_problems(protocol, timer.report))

    metrics: dict[str, Value] = {}
    fastest = [min(same, key=lambda point: point.wall_s)
               for same in zip(*repeats)]
    metrics["ops_per_s"] = Value(
        _sim_rate(fastest), "ops/s", f"simulated ops per wall second, each "
        f"point at its fastest of {len(repeats)} repeats")
    for prefix, points in (("", repeats[0]), ("light_", light)):
        for kind in ("rot", "put"):
            samples = [sample for point in points
                       for sample in getattr(point, f"{kind}_s")]
            _latency_values(f"{prefix}{kind}", samples, samples, metrics,
                            problems, " simulated, 3 protocols pooled")
    if all(timer.best for timer in timers.values()):
        metrics["check_ops_per_s"] = Value(
            len(timers) / sum(1 / timer.rate() for timer in timers.values()),
            "ops/s", f"equal-weight harmonic mean over the protocols' light "
            f"histories of {len(checked)} seeds in {CHECK_OPS}-op slices, "
            f"each slice at its fastest of {len(repeats)} checks")
    metrics["setup_s"] = Value(median(builds), "s",
                               f"median of {len(builds)} build_cluster calls")
    attempted = sum(point.ops for points in (*checked, light, *repeats)
                    for point in points)
    return Outcome(metrics=metrics, attempted=attempted,
                   failed=len(problems), problems=problems)


def sim_traced(seed: int, seconds: float) -> Outcome:
    del seconds  # two untraced and one traced checked round
    assert_unwrapped()
    builds = [simwork.measure_build(seed)
              for _ in range(SIM_BUILDS_PER_REPEAT)]
    # The first round in a process also pays for growing the heap, so the
    # companion takes each point at the faster of two rounds.
    companions = [simwork.run_round(seed, checked=True) for _ in range(2)]
    companion = [min(same, key=lambda point: point.wall_s)
                 for same in zip(*companions)]
    with Probe() as probe:
        traced = simwork.run_round(seed, checked=True)
        slices = SliceTimer()
        for point in traced:
            if point.phase == "saturated":
                slices.add(point.checker)
        slices.check_all(probe.spans)
    assert_unwrapped()
    problems = _sim_problems(companions[0], [companions[1], traced])
    problems.extend(_report_points(companions[0] + companions[1] + traced))
    problems.extend(_report_problems("slices", slices.report))
    values = _layer_values(probe)
    ops = sum(point.ops for point in companion)
    values.update({
        "sim.events_per_s": (sum(point.events for point in companion)
                             / sum(point.wall_s for point in companion)),
        "sim.events_per_op": ratio(sum(p.events for p in companion), ops),
        "sim.msgs_per_op": ratio(sum(p.messages for p in companion), ops),
        "sim.build_s": median(builds),
        "trace.ops_per_s_traced": _sim_rate(traced),
        "trace.ops_per_s_untraced": _sim_rate(companion),
    })
    _per_phase(values, probe, len(traced))
    return Outcome(metrics=_layer_metrics(values),
                   attempted=sum(point.ops for points in (*companions, traced)
                                 for point in points),
                   failed=len(problems), problems=problems, probe=probe)


# -------------------------------------------------------------- layer values
def _layer_values(probe: Probe) -> dict[str, float]:
    """Per-call self times, calls per operation and store/wire/checker
    figures that read the same on every workload."""
    totals = probe.self_time_by_name()
    ops = max(1, totals.get("kernel.client.start_operation", (0, 0.0))[0])

    def mean_us(name: str) -> float:
        calls, seconds = totals.get(name, (0, 0.0))
        return ratio(seconds, calls) * 1e6

    def calls_per_op(name: str) -> float:
        return totals.get(name, (0, 0.0))[0] / ops

    values: dict[str, float] = {}
    for message in SERVER_MESSAGES:
        name = f"kernel.server.{message}"
        values[f"kernel.server_us.{message}"] = mean_us(name)
        values[f"kernel.server_calls.{message}"] = calls_per_op(name)
    for tag in TIMER_TAGS:
        name = f"kernel.timer.{tag}"
        values[f"kernel.timer_us.{tag}"] = mean_us(name)
        values[f"kernel.timer_calls.{tag}"] = calls_per_op(name)
    spans = probe.spans
    top_records = [spans.ends[i] - spans.starts[i]
                   for i, name in enumerate(spans.names)
                   if name == "checker.record" and spans.parents[i] < 0]
    checks = [spans.ends[i] - spans.starts[i]
              for i, name in enumerate(spans.names)
              if name == "checker.check"]
    encodes = probe.counts["wire.encode"]
    lengths = probe.chain_lengths
    values.update({
        "runtime.deliver_calls": float(probe.counts["runtime.deliver"]),
        "kernel.client_us.start_operation":
            mean_us("kernel.client.start_operation"),
        "kernel.client_us.on_message": mean_us("kernel.client.on_message"),
        "store.install_us": mean_us("store.install"),
        "store.read_us": mean_us("store.read"),
        "store.chain_len.max": float(max(lengths, default=0)),
        "store.chain_len.mean": ratio(sum(lengths), len(lengths)),
        "wire.encode_us_per_msg": mean_us("wire.encode"),
        "wire.decode_us_per_msg": mean_us("wire.decode"),
        "wire.bytes_per_msg": ratio(probe.wire_bytes, encodes),
        "wire.msgs_per_frame": ratio(probe.counts["wire.envelopes"],
                                     probe.counts["transport.frames"]),
        "transport.send_us": mean_us("transport.send"),
        "checker.record_us": ratio(sum(top_records), len(top_records)) * 1e6,
        "checker.check_s": ratio(sum(checks), len(checks)),
        "workload.next_op_us": mean_us("workload.next_op"),
    })
    return values


def _per_phase(values: dict[str, float], probe: Probe, phases: int) -> None:
    """Set-up figures averaged over the traced phases (or sim points)."""
    totals = probe.self_time_by_name()
    values["setup.preload_s"] = totals.get("setup.preload",
                                           (0, 0.0))[1] / phases
    values["setup.connect_s"] = totals.get("transport.connect",
                                           (0, 0.0))[1] / phases


def _layer_metrics(values: dict[str, float]) -> dict[str, Value]:
    """Every declared per-layer metric, 0 where the workload has none."""
    unknown = set(values) - {layer.name for layer in PER_LAYER}
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return {layer.name: Value(float(values.get(layer.name, 0.0)), layer.unit)
            for layer in PER_LAYER}


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    """Run ``workload`` once and return what it reports."""
    if workload == SIM:
        return (sim_traced if trace else sim_untraced)(seed, seconds)
    spec = REALTIME[workload]
    runner = realtime_traced if trace else realtime_untraced
    return asyncio.run(runner(spec, seed, seconds))


__all__ = ["Outcome", "Value", "repetitions", "run", "sim_repeats"]
