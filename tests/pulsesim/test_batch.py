"""Unit and property tests for the vectorized batch kernel.

Three layers of coverage:

* API semantics — mode selection (analytic vs event), scheduling
  validation, per-lane drop-rate overrides, reset/RNG rewind, stats
  shapes, version pinning;
* differential properties — every lane of a batch run must equal a
  scalar ``kernel="sealed"`` run of the same circuit on that lane's
  stimulus (the same netlist strategy the sealed-vs-reference suite
  uses, so tie-order-sensitive cells are in scope);
* codec transport — the shared ``codec_cases`` strategy round-trips
  per-lane operand values through a batch-simulated JTL pipeline.
"""

import random
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cells.interconnect import IdealMerger, Jtl, Merger, Splitter
from repro.cells.toggle import Tff
from repro.core.balancer import Balancer
from repro.encoding.pulsestream import PulseStreamCodec
from repro.encoding.racelogic import RaceLogicCodec
from repro.errors import ConfigurationError, SimulationError
from repro.pulsesim import (
    BatchSimulator,
    Circuit,
    DropChannel,
    JitterChannel,
    PulseRecorder,
    Simulator,
)
from repro.verify.oracles import STATE_ATTRS
from tests.strategies import (
    BATCH_LANES,
    codec_cases,
    jtl_pipe,
    lane_trains,
    netlists,
    run_case,
    run_case_batch,
    scalar_comparable,
)


def ff_fabric():
    """Analytic-eligible fabric: splitter -> two JTL paths -> ideal merger."""
    circuit = Circuit("ff")
    split = circuit.add(Splitter("s"))
    j1 = circuit.add(Jtl("j1"))
    j2 = circuit.add(Jtl("j2"))
    merger = circuit.add(IdealMerger("m"))
    circuit.connect(split, "q1", j1, "a", delay=100)
    circuit.connect(split, "q2", j2, "a", delay=300)
    circuit.connect(j1, "q", merger, "a")
    circuit.connect(j2, "q", merger, "b")
    probe = circuit.probe(merger, "q")
    return circuit, split, merger, probe


def tff_circuit():
    """Stateful (event-mode-only) circuit: JTL -> TFF."""
    circuit = Circuit("tff")
    jtl = circuit.add(Jtl("j"))
    tff = circuit.add(Tff("t"))
    circuit.connect(jtl, "q", tff, "a", delay=50)
    probe = circuit.probe(tff, "q")
    return circuit, jtl, tff, probe


def drop_circuit(rate=0.5, seed=7):
    circuit = Circuit("drop")
    jtl = circuit.add(Jtl("j"))
    channel = circuit.add(DropChannel("d", drop_rate=rate, seed=seed))
    circuit.connect(jtl, "q", channel, "a", delay=20)
    probe = circuit.probe(channel, "q")
    return circuit, jtl, channel, probe


TRAIN = [0, 1_000, 1_000, 2_500, 4_000, 4_000, 9_000]


class TestModes:
    def test_feedforward_takes_analytic_path(self):
        circuit, entry, merger, _probe = ff_fabric()
        sim = BatchSimulator(circuit, batch=3)
        sim.schedule_train(entry, "a", TRAIN)
        stats = sim.run()
        assert stats.mode == "analytic"
        # Every input pulse reaches the merger twice (both paths).
        assert sim.port_counts(merger, "q").tolist() == [2 * len(TRAIN)] * 3

    def test_until_forces_event_mode(self):
        circuit, entry, merger, _probe = ff_fabric()
        sim = BatchSimulator(circuit, batch=2)
        sim.schedule_train(entry, "a", TRAIN)
        stats = sim.run(until=100_000)
        assert stats.mode == "event"
        assert stats.end_time.tolist() == [100_000, 100_000]

    def test_stateful_circuit_uses_event_mode(self):
        circuit, entry, tff, _probe = tff_circuit()
        sim = BatchSimulator(circuit, batch=2)
        sim.schedule_train(entry, "a", TRAIN)
        stats = sim.run()
        assert stats.mode == "event"
        assert sim.port_counts(tff, "q").tolist() == [len(TRAIN) // 2] * 2

    def test_analytic_then_event_raises_until_reset(self):
        circuit, entry, _merger, _probe = ff_fabric()
        sim = BatchSimulator(circuit, batch=2)
        sim.schedule_train(entry, "a", TRAIN)
        assert sim.run().mode == "analytic"
        sim.schedule_input(entry, "a", 50_000)
        with pytest.raises(SimulationError, match="analytic"):
            sim.run(until=60_000)
        sim.reset()
        sim.schedule_input(entry, "a", 50_000)
        assert sim.run(until=60_000).mode == "event"

    def test_repeated_analytic_runs_accumulate(self):
        circuit, entry, merger, _probe = ff_fabric()
        sim = BatchSimulator(circuit, batch=2)
        sim.schedule_train(entry, "a", TRAIN[:4])
        first = sim.run()
        sim.schedule_train(entry, "a", TRAIN[4:])
        second = sim.run()
        assert second.mode == "analytic"
        assert second.events_total > first.events_total
        assert sim.port_counts(merger, "q").tolist() == [2 * len(TRAIN)] * 2

    def test_event_budget_is_enforced(self):
        circuit, entry, _tff, _probe = tff_circuit()
        sim = BatchSimulator(circuit, batch=4, max_events=3)
        sim.schedule_train(entry, "a", TRAIN)
        with pytest.raises(SimulationError):
            sim.run()


class TestScheduling:
    def test_schedule_input_broadcast_vs_array(self):
        circuit, entry, merger, _probe = ff_fabric()
        sim = BatchSimulator(circuit, batch=3)
        sim.schedule_input(entry, "a", 1_000)
        sim.schedule_input(entry, "a", np.array([10, 20, 30]))
        sim.run()
        assert sim.port_counts(merger, "q").tolist() == [4, 4, 4]
        times = [sim.port_times(merger, "q", lane) for lane in range(3)]
        assert times[0] != times[1] != times[2]

    def test_validation_errors(self):
        circuit, entry, _merger, probe = ff_fabric()
        sim = BatchSimulator(circuit, batch=2)
        with pytest.raises(SimulationError, match="negative"):
            sim.schedule_input(entry, "a", -5)
        with pytest.raises(SimulationError, match="not an input port"):
            sim.schedule_input(entry, "nope", 0)
        with pytest.raises(SimulationError, match="scalar or a"):
            sim.schedule_input(entry, "a", np.array([1, 2, 3]))
        with pytest.raises(SimulationError, match="lane ids"):
            sim.schedule_flat(entry, "a", [0, 1], [0, 2])
        with pytest.raises(SimulationError, match="does not match"):
            sim.schedule_flat(entry, "a", [0, 1], [0])
        with pytest.raises(SimulationError, match="one train per lane"):
            sim.schedule_lane_trains(entry, "a", [[0]])
        with pytest.raises(ConfigurationError, match="batch size"):
            BatchSimulator(circuit, batch=0)

    def test_circuit_change_after_build_raises(self):
        circuit, entry, merger, _probe = ff_fabric()
        sim = BatchSimulator(circuit, batch=2)
        circuit.probe(merger, "q", PulseRecorder("extra"))  # bumps the version
        sim.schedule_input(entry, "a", 0)
        with pytest.raises(SimulationError, match="changed"):
            sim.run()

    def test_seal_batch_caches_per_version(self):
        circuit, _entry, merger, _probe = ff_fabric()
        program = circuit.seal_batch()
        assert circuit.seal_batch() is program
        circuit.probe(merger, "q", PulseRecorder("second"))
        assert circuit.seal_batch() is not program


class TestFaults:
    def test_set_drop_rates_per_lane(self):
        circuit, entry, channel, _probe = drop_circuit()
        sim = BatchSimulator(circuit, batch=4)
        sim.set_drop_rates(channel, [0.0, 0.3, 0.7, 1.0])
        pulses = list(range(0, 500_000, 1_000))
        sim.schedule_train(entry, "a", pulses)
        sim.run()
        counts = sim.port_counts(channel, "q").tolist()
        assert counts[0] == len(pulses)
        assert counts[3] == 0
        assert counts[0] > counts[1] > counts[2] > counts[3]
        seen = [sim.element_attr(channel, "pulses_seen", lane) for lane in range(4)]
        lost = [sim.element_attr(channel, "pulses_dropped", lane) for lane in range(4)]
        assert seen == [len(pulses)] * 4
        assert [s - d for s, d in zip(seen, lost)] == counts

    def test_set_drop_rates_validation(self):
        circuit = Circuit("faults")
        jtl = circuit.add(Jtl("j"))
        jitter = circuit.add(JitterChannel("g", std_fs=100))
        circuit.connect(jtl, "q", jitter, "a")
        circuit.probe(jitter, "q")
        sim = BatchSimulator(circuit, batch=2)
        with pytest.raises(ConfigurationError, match="not a DropChannel"):
            sim.set_drop_rates(jitter, 0.5)
        with pytest.raises(ConfigurationError, match="not a fault channel"):
            sim.set_drop_rates(jtl, 0.5)
        circuit2, _entry, channel, _probe = drop_circuit()
        sim2 = BatchSimulator(circuit2, batch=2)
        with pytest.raises(ConfigurationError, match=r"in \[0, 1\]"):
            sim2.set_drop_rates(channel, [0.5, 1.5])

    def test_deterministic_channels_match_scalar(self):
        for rate in (0.0, 1.0):
            circuit, entry, channel, _probe = drop_circuit(rate=rate)
            sim = BatchSimulator(circuit, batch=3)
            sim.schedule_train(entry, "a", TRAIN)
            sim.run()
            scircuit, sentry, schannel, sprobe = drop_circuit(rate=rate)
            ssim = Simulator(scircuit, kernel="sealed")
            ssim.schedule_train(sentry, "a", TRAIN)
            ssim.run()
            for lane in range(3):
                assert sim.port_times(channel, "q", lane) == sorted(sprobe.times)
                assert sim.element_attr(channel, "pulses_seen", lane) == \
                    schannel.pulses_seen
                assert sim.element_attr(channel, "pulses_dropped", lane) == \
                    schannel.pulses_dropped

    def test_jitter_counts_post_clamp_displacements(self):
        circuit = Circuit("jitter")
        jtl = circuit.add(Jtl("j"))
        jitter = circuit.add(JitterChannel("g", std_fs=300, mean_fs=100))
        circuit.connect(jtl, "q", jitter, "a", delay=10)
        circuit.probe(jitter, "q")
        sim = BatchSimulator(circuit, batch=3)
        inject = list(range(0, 200_000, 2_000))
        sim.schedule_train(jtl, "a", inject)
        sim.run()
        jtl_delay = Jtl("ref").delay
        for lane in range(3):
            arrivals = sim.port_times(jitter, "q", lane)
            entries = [t + jtl_delay + 10 for t in inject]
            moves = [out - t - 100 for out, t in zip(arrivals, sorted(entries))]
            displaced = sim.element_attr(jitter, "pulses_displaced", lane)
            peak = sim.element_attr(jitter, "max_displacement_fs", lane)
            assert displaced == sim.element_attr(jitter, "pulses_seen", lane) - \
                sum(1 for m in moves if m == 0)
            assert displaced > 0  # std=300 over 100 pulses: certain
            assert peak >= max(abs(m) for m in moves)
            assert min(t + 100 + m for t, m in zip(sorted(entries), moves)) >= \
                min(entries)  # clamp: never earlier than zero extra delay

    def test_lane_streams_independent_of_batch_size(self):
        results = {}
        for batch in (2, 5):
            circuit, entry, channel, _probe = drop_circuit(rate=0.4, seed=11)
            sim = BatchSimulator(circuit, batch=batch)
            sim.schedule_train(entry, "a", list(range(0, 300_000, 1_000)))
            sim.run()
            results[batch] = [
                sim.port_times(channel, "q", lane) for lane in range(2)
            ]
        assert results[2] == results[5]

    def test_reset_rewinds_rng_streams(self):
        circuit, entry, channel, _probe = drop_circuit(rate=0.4)
        sim = BatchSimulator(circuit, batch=2)

        def go():
            sim.schedule_train(entry, "a", list(range(0, 100_000, 1_000)))
            sim.run()
            return [sim.port_times(channel, "q", lane) for lane in range(2)]

        first = go()
        sim.reset()
        assert go() == first


class TestStats:
    def test_lane_stats_and_totals(self):
        circuit, entry, _merger, _probe = ff_fabric()
        sim = BatchSimulator(circuit, batch=3)
        sim.schedule_train(entry, "a", TRAIN)
        stats = sim.run()
        assert stats.events_total == int(stats.events.sum())
        assert stats.pulses_total == int(stats.pulses.sum())
        lane = stats.lane(1)
        assert lane.events_processed == int(stats.events[1])
        assert lane.pulses_emitted == int(stats.pulses[1])
        assert lane.end_time == int(stats.end_time[1])
        assert stats.wall_s >= 0.0

    def test_pending_events_drains(self):
        circuit, entry, _tff, _probe = tff_circuit()
        sim = BatchSimulator(circuit, batch=2)
        sim.schedule_train(entry, "a", TRAIN)
        sim.run(until=1_500)
        assert sim.pending_events > 0
        sim.run()
        assert sim.pending_events == 0


@settings(max_examples=50, deadline=None)
@given(netlists())
def test_batch_matches_sealed_kernel_per_lane(case):
    build, stimulus = case
    lanes = run_case_batch(build, stimulus)
    for lane, train in enumerate(lane_trains(stimulus)):
        expected = scalar_comparable(run_case(build, train, "sealed"))
        assert lanes[lane] == expected, f"lane {lane} diverged"


@settings(max_examples=20, deadline=None)
@given(netlists(), st.integers(0, 30))
def test_batch_event_mode_matches_sealed_across_resume(case, cut):
    """Per-lane agreement across a run(until=...) boundary (event mode)."""
    build, stimulus = case
    horizon = cut * 1_000
    circuit, entry, probes = build()
    tap_ports = {
        id(tap.probe): (tap.source, port)
        for (_eid, port), taps in circuit._taps.items()
        for tap in taps
    }
    sim = BatchSimulator(circuit, batch=BATCH_LANES)
    sim.schedule_lane_trains(entry, "a", lane_trains(stimulus))
    sim.run(until=horizon)
    partial = [
        [sim.port_times(*tap_ports[id(p)], lane) for p in probes]
        for lane in range(BATCH_LANES)
    ]
    stats = sim.run()
    for lane, train in enumerate(lane_trains(stimulus)):
        scircuit, sentry, sprobes = build()
        ssim = Simulator(scircuit, kernel="sealed")
        ssim.schedule_train(sentry, "a", train)
        ssim.run(until=horizon)
        assert partial[lane] == [sorted(p.times) for p in sprobes]
        sstats = ssim.run()
        assert int(stats.events[lane]) == sstats.events_processed
        assert int(stats.pulses[lane]) == sstats.pulses_emitted
        assert int(stats.end_time[lane]) == sstats.end_time


@settings(max_examples=30, deadline=None)
@given(codec_cases(), st.integers(1, 7))
def test_batch_racelogic_transport_roundtrip(case, stride):
    """Per-lane Race-Logic operands survive batch-simulated transport."""
    epoch, _value, epoch_index = case
    codec = RaceLogicCodec(epoch)
    circuit, entry, _probe, latency = jtl_pipe()
    slots = [(lane * stride) % (epoch.n_max + 1) for lane in range(BATCH_LANES)]
    times = np.array(
        [codec.pulse_time(slot, epoch_index) for slot in slots], dtype=np.int64
    )
    sim = BatchSimulator(circuit, batch=BATCH_LANES)
    sim.schedule_input(entry, "a", times)
    assert sim.run().mode == "analytic"
    taps = [(tap.source, port)
            for (_eid, port), tap_list in circuit._taps.items()
            for tap in tap_list]
    element, port = taps[0]
    for lane, slot in enumerate(slots):
        arrivals = [t - latency for t in sim.port_times(element, port, lane)]
        assert codec.decode_pulse_train(arrivals, epoch_index) == slot


@settings(max_examples=30, deadline=None)
@given(codec_cases(), st.integers(1, 7))
def test_batch_pulsestream_transport_roundtrip(case, stride):
    """Per-lane pulse-stream operands survive batch-simulated transport."""
    epoch, _value, epoch_index = case
    codec = PulseStreamCodec(epoch)
    circuit, entry, _probe, latency = jtl_pipe()
    counts = [(lane * stride) % (epoch.n_max + 1) for lane in range(BATCH_LANES)]
    values = [codec.unipolar_of_count(n) for n in counts]
    sim = BatchSimulator(circuit, batch=BATCH_LANES)
    sim.schedule_lane_trains(
        entry, "a",
        [codec.encode_unipolar(value, epoch_index) for value in values],
    )
    sim.run()
    taps = [(tap.source, port)
            for (_eid, port), tap_list in circuit._taps.items()
            for tap in tap_list]
    element, port = taps[0]
    for lane, value in enumerate(values):
        arrivals = [t - latency for t in sim.port_times(element, port, lane)]
        assert codec.decode_unipolar(arrivals, epoch_index) == value


# -- lane-boundary differential ------------------------------------------------
#: Batch sizes around the bitset's word edges (one lane, a pair, 64-bit
#: boundaries, more than two words).
LANE_BOUNDARIES = (1, 2, 63, 64, 65, 130)

#: State compared lane by lane: the oracle's cell attributes plus the
#: fault channels' counters.
LANE_ATTRS = STATE_ATTRS + (
    "pulses_seen", "pulses_dropped", "pulses_displaced", "max_displacement_fs",
)


def _boundary_trains(stimulus, batch):
    """Lane ``k`` replays the stimulus minus its last ``k mod (n + 1)``
    pulses, so neighbouring lanes across every word edge differ."""
    n = len(stimulus)
    return [stimulus[: n - lane % (n + 1)] for lane in range(batch)]


def _with_channels(build, drop_rate, jitter_mean):
    """A :func:`netlists` circuit plus a probed drop -> jitter chain off
    the entry: the deterministic channel settings (rate 0 or 1, zero std)
    whose batch lanes are bit-identical to scalar runs."""

    def built():
        circuit, entry, probes = build()
        drop = circuit.add(DropChannel("drop", drop_rate=drop_rate, seed=3))
        jitter = circuit.add(
            JitterChannel("jitter", std_fs=0, mean_fs=jitter_mean, seed=5)
        )
        circuit.connect(entry, "q1", drop, "a", delay=300)
        circuit.connect(drop, "q", jitter, "a")
        return circuit, entry, probes + [circuit.probe(jitter, "q")]

    return built


def _tap_ports(circuit, probes):
    ports = {
        id(tap.probe): (tap.source, port)
        for (_eid, port), taps in circuit._taps.items()
        for tap in taps
    }
    return [ports[id(probe)] for probe in probes]


def _scalar_snapshots(build, train, windows):
    """Sealed-kernel snapshots after each ``run(until=w)`` and at the end."""
    circuit, entry, probes = build()
    sim = Simulator(circuit, kernel="sealed")
    sim.schedule_train(entry, "a", train)
    snapshots = []
    for until in (*windows, None):
        stats = sim.run(until=until)
        snapshots.append({
            "recordings": [sorted(probe.times) for probe in probes],
            "events": stats.events_processed,
            "pulses": stats.pulses_emitted,
            "end_time": stats.end_time,
            "state": [
                tuple(getattr(element, attr, None) for attr in LANE_ATTRS)
                for element in circuit.elements
            ],
        })
    return snapshots


def _batch_snapshots(build, trains, windows):
    """Per-lane batch snapshots shaped like :func:`_scalar_snapshots`."""
    circuit, entry, probes = build()
    taps = _tap_ports(circuit, probes)
    sim = BatchSimulator(circuit, batch=len(trains))
    sim.schedule_lane_trains(entry, "a", trains)
    snapshots = []
    for until in (*windows, None):
        stats = sim.run(until=until)
        snapshots.append([
            {
                "recordings": [sim.port_times(el, port, lane) for el, port in taps],
                "events": int(stats.events[lane]),
                "pulses": int(stats.pulses[lane]),
                "end_time": int(stats.end_time[lane]),
                "state": [
                    tuple(
                        sim.element_attr(element, attr, lane, None)
                        for attr in LANE_ATTRS
                    )
                    for element in circuit.elements
                ],
            }
            for lane in range(len(trains))
        ])
    return snapshots


@pytest.mark.parametrize("batch", LANE_BOUNDARIES)
@settings(max_examples=12, deadline=None)
@given(
    netlists(),
    st.lists(st.integers(0, 45_000), min_size=3, max_size=3).map(sorted),
    st.sampled_from([0.0, 1.0]),
    st.sampled_from([0, 700]),
)
def test_batch_lanes_match_sealed_across_word_boundaries(
    batch, case, windows, drop_rate, jitter_mean
):
    """Every lane at every batch size equals a sealed run of its train:
    stats, recordings and cell state, after each of three resumed
    ``run(until=...)`` windows and at the end of the run."""
    base, stimulus = case
    build = _with_channels(base, drop_rate, jitter_mean)
    trains = _boundary_trains(stimulus, batch)
    expected = {}
    for train in map(tuple, trains):
        if train not in expected:
            expected[train] = _scalar_snapshots(build, list(train), windows)
    resumed = _batch_snapshots(build, trains, windows)
    for window, lanes in enumerate(resumed):
        for lane, train in enumerate(trains):
            assert lanes[lane] == expected[tuple(train)][window], (
                f"lane {lane} of {batch} diverged in window {window}"
            )
    # Resuming across windows ends where one unbounded run does (bar the
    # end time, which a window past the last event raises to its bound).
    unbounded = _batch_snapshots(build, trains, ())[-1]
    for lane, (one, split) in enumerate(zip(unbounded, resumed[-1])):
        one["end_time"] = max(windows[-1], one["end_time"])
        assert one == split, f"lane {lane} of {batch}: resume diverged"


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_balancer_bitplanes_match_the_scalar_router(seed):
    """Per-lane a/b arrivals with gaps around the coincidence (2 ps) and
    t_BFF (12 ps) windows: pairs, hazards and plain toggles interleave
    differently in each of 70 lanes, and every lane must route, count
    hazards and end in the state of a sealed run of its arrivals."""
    rng = random.Random(seed)
    gaps = (0, 1_000, 2_000, 3_000, 11_000, 12_000, 13_000, 40_000)
    patterns = []
    for _lane in range(70):
        t = 0
        arrivals = {"a": [], "b": []}
        for _ in range(rng.randrange(1, 12)):
            t += rng.choice(gaps)
            arrivals[rng.choice("ab")].append(t)
        patterns.append(arrivals)

    def build():
        circuit = Circuit("bal")
        cell = circuit.add(Balancer("bal"))
        probes = [circuit.probe(cell, out) for out in ("y1", "y2")]
        return circuit, cell, probes

    circuit, cell, _probes = build()
    sim = BatchSimulator(circuit, batch=len(patterns))
    for port in "ab":
        sim.schedule_lane_trains(cell, port, [p[port] for p in patterns])
    sim.run()
    for lane, arrivals in enumerate(patterns):
        scircuit, scell, sprobes = build()
        ssim = Simulator(scircuit, kernel="sealed")
        for port in "ab":
            ssim.schedule_train(scell, port, arrivals[port])
        ssim.run()
        assert [sim.port_times(cell, out, lane) for out in ("y1", "y2")] == [
            sorted(probe.times) for probe in sprobes
        ], f"lane {lane} routed differently"
        for attr in ("state", "hazard_events"):
            assert sim.element_attr(cell, attr, lane) == getattr(scell, attr)


def test_last_accept_is_none_before_the_first_accept():
    circuit = Circuit("accepts")
    jtl = circuit.add(Jtl("j"))
    merger = circuit.add(Merger("m"))
    circuit.connect(jtl, "q", merger, "a", delay=1_000)
    circuit.probe(merger, "q")
    sim = BatchSimulator(circuit, batch=65)
    sim.schedule_flat(jtl, "a", [0, 20_000], [64, 3])
    sim.run(until=10_000)
    assert [sim.element_attr(merger, "_last_accept", lane) for lane in (0, 3, 64)] \
        == [None, None, Jtl("ref").delay + 1_000]
    sim.run()
    assert [sim.element_attr(merger, "_last_accept", lane) for lane in (0, 3, 64)] \
        == [None, 20_000 + Jtl("ref").delay + 1_000, Jtl("ref").delay + 1_000]


@pytest.mark.parametrize("batch", LANE_BOUNDARIES)
@settings(max_examples=10, deadline=None)
@given(netlists(), st.floats(0.0, 1.0))
def test_event_budget_raises_at_the_same_event(batch, case, fraction):
    """``max_events`` counts lane-events: a budget one short of the run's
    total raises, the exact total does not, and at one lane the raise
    leaves the recordings a sealed run with the same budget leaves."""
    build, stimulus = case
    trains = _boundary_trains(stimulus, batch)

    def batch_run(budget):
        circuit, entry, probes = build()
        sim = BatchSimulator(circuit, batch=batch, max_events=budget)
        sim.schedule_lane_trains(entry, "a", trains)
        try:
            # A bound forces the event loop (the analytic path checks the
            # budget once, after the whole run).
            stats = sim.run(until=10**9)
        except SimulationError as error:
            assert "max_events" in str(error)
            stats = None
        return stats, [
            sim.port_times(el, port, 0) for el, port in _tap_ports(circuit, probes)
        ]

    total = batch_run(10**9)[0].events_total
    assert batch_run(total)[0] is not None
    assert batch_run(total - 1)[0] is None
    if batch == 1:
        budget = int(fraction * total)
        stats, recordings = batch_run(budget)
        circuit, entry, probes = build()
        scalar = Simulator(circuit, kernel="sealed", max_events=budget)
        scalar.schedule_train(entry, "a", trains[0])
        with nullcontext() if stats else pytest.raises(SimulationError):
            scalar.run()
        assert recordings == [sorted(probe.times) for probe in probes]
