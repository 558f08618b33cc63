"""Vectorized batch kernel: thousands of independent epochs per dispatch.

Monte-Carlo sweeps (fig19 error injection, codec fuzzing, fleet-scale
accuracy studies) run the *same* netlist over and over with different
stimulus — per-point Python event loops pay the full interpreter cost for
every lane even though the lanes share all routing.  This module compiles
a sealed circuit once into a *structure-of-arrays* program executed over a
leading batch axis of ``B`` independent lanes:

* **Masked event mode** (the general case).  A single master event loop
  pops ``(time, packed_key, opcode, lane_mask)`` entries from one queue
  (a heap of pending times, each holding a heap of its entries).
  Times and routing are scalar — shared by construction, because every
  lane runs the same netlist — while the mask says which lanes the event
  exists in.  A mask is a Python int bitset (bit ``i`` = lane ``i``), so
  each opcode updates all masked lanes with a couple of big-int
  operations whose cost barely depends on ``B``:

  - one-bit cell state (stores, toggles, inverter arming, the balancer's
    toggle state, last port, last index and pair-open flag) is one
    bitplane int per row — a TFF is ``st ^= mask; fire = mask & ~st``;
  - time-valued state (a merger's accepts, a balancer's last arrival)
    is a short list of ``(time, lanes)`` entries; an entry leaves the
    hot scan once it is older than the cell's dead-time, ``t_BFF`` or
    coincidence window, past which a lane acts as if it had no recent
    arrival;
  - per-lane counters (events, pulses, NDRO reads, collisions, hazards)
    and the lanes' last event times accumulate per distinct mask in
    dicts and fold into ``(B,)`` arrays once, at the end of ``run()``.

  *Soundness*: restricting the master order to any one lane yields a
  valid scalar ``(time, priority, sequence)`` order.  Entries are pushed
  in the same relative order a scalar run would push them (stimulus in
  call order, fanout rows in wire order), masks are immutable once
  scheduled, and an event only ever spawns events whose masks are subsets
  of its own — so per lane, the subsequence of events whose mask includes
  that lane is exactly the scalar run's event sequence.  Sequence numbers
  differ from a scalar run's, but sequence only breaks ties *within* one
  (time, priority) class, where the competing batch entries are either
  copies of the same scalar event or ordered identically.

* **Analytic closed form** (feed-forward fast path).  When every cell is
  a JTL, splitter, or zero-dead-time merger — the paper's Race-Logic and
  pulse-stream interconnect fabrics — the response to one stimulus pulse
  is a fixed, state-independent tree of arrivals.  The compiler folds each
  ``(element, input port)`` into a :class:`_Profile` (events spawned,
  pulses emitted, latest-arrival offset, per-probe delay multisets) and
  ``run()`` reduces whole stimulus chunks with ``bincount``/``maximum``
  reductions: no event loop at all, cost independent of pulse count per
  tap.  This is where the large (50x+) batch speedups come from.

Programs come from the lowering shared with the scalar sealed kernel
(:mod:`repro.pulsesim.lowering`), on one opcode numbering.  The batch
side supplies a state-row index as each cell's slot and recording
indices as taps; the same table yields :attr:`BatchProgram.state_map`
and the families the analytic path checks.  Every family in the table
runs vectorized, the balancer and both fault channels included.

Generic cells (custom ``handle`` or ``emit``) still work in event mode:
each gets ``B`` per-lane clones (rebuilt from ``Element.params()``), and
the master loop calls ``clone.handle`` per set bit of the mask — correct
but not vectorized, like the scalar generic-call opcode.

Fault channels are vectorized natively: every lane draws from its own
``numpy.random.Generator`` seeded ``SeedSequence([seed, lane])``, with
chunked per-lane buffers so the hot path is a single gather (the mask
becomes a ``(B,)`` bool array around the draw).  Lane
streams are therefore independent of batch composition and reproducible,
but they are *not* the scalar channels' ``random.Random`` streams; only
rate-0/std-0 channels are bit-identical to scalar runs.

Typical usage::

    from repro.pulsesim.batch import BatchSimulator

    sim = BatchSimulator(circuit, batch=4096)
    sim.schedule_flat(entry, "a", times, lanes)   # per-lane stimulus
    stats = sim.run()                             # per-lane stat arrays
    counts = sim.port_counts(sink, "q")           # (B,) pulse counts

The batch-vs-sealed differential oracle in :mod:`repro.verify.oracles`
locks this kernel to the scalar sealed kernel lane by lane.
"""

from __future__ import annotations

import sys
from heapq import heappop, heappush
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.pulsesim.element import Element
from repro.pulsesim.lowering import (
    BAL,
    CALL,
    DELAY1,
    DELAY1T,
    DELAYN,
    DFF,
    DISARM,
    DROP,
    INV,
    JITTER,
    MERGER,
    MULTI,
    NDRO,
    STATE,
    STORE0,
    STORE1,
    TFF,
    TFF2,
    Lowering,
)
from repro.pulsesim.netlist import Circuit

#: Analytic-mode guards: a splitter tree doubles per level, so profiles
#: cap the per-arrival tap fanout and event count; circuits past the cap
#: fall back to the masked event loop.
_ANALYTIC_TAP_CAP = 4096
_ANALYTIC_EVENT_CAP = 1 << 20

#: Per-lane RNG buffer length: variates drawn per refill of one lane.
_RNG_CHUNK = 256

#: Mask-by-lane cells unpacked per step when tallies fold into per-lane
#: arrays (bounds the fold's scratch memory at large ``B``).
_FOLD_CELLS = 1 << 15


class _NotAnalytic(Exception):
    """Internal: circuit is outside the closed-form fast path."""


class _Profile:
    """Closed-form response of one ``(element, input port)`` to one pulse.

    Attributes:
        events: Events a scalar kernel would pop per stimulus arrival
            (including the arrival itself).
        pulses: Pulses a scalar kernel would emit per stimulus arrival.
        d_max: Largest event-time offset from the stimulus time (the
            lane's ``end_time`` contribution).
        taps: ``tap_index -> int64 array`` of record-time offsets (one
            entry per pulse recorded at that probe, duplicates kept).
        mergers: ``merger_index -> int`` largest arrival offset at that
            merger (its ``_last_accept`` contribution; with zero dead
            time every arrival is accepted, so the latest arrival is the
            last accept).
    """

    __slots__ = ("events", "pulses", "d_max", "taps", "mergers")

    def __init__(self, events, pulses, d_max, taps, mergers):
        self.events = events
        self.pulses = pulses
        self.d_max = d_max
        self.taps = taps
        self.mergers = mergers


class BatchProgram:
    """Flat batched dispatch tables for one circuit at one version.

    Attributes:
        version: Circuit version the program was built from.
        inports: ``id(element) -> {port -> (packed_priority_base, op)}``.
        emit_tables: ``id(element) -> {output_port -> (taps, rows)}``,
            rows with zero base delay, for :meth:`BatchSimulator.emit`.
        tap_index: ``(id(element), output_port) -> recording index`` for
            every probed port.
        tap_keys: ``(element, port)`` per recording index.
        state_init: uint8 initial value per unified-state row (an NDRO's
            read count sits in the same row of the reads array).
        n_mergers: row count of the merger (last-accept, collisions)
            arrays.
        n_balancers: row count of the balancer Mealy-state arrays
            (toggle state, last arrival, pair-open flag, hazard count).
        fault_specs: ``("drop"|"jitter", element)`` per fault index.
        generic: elements executed via per-lane clones.
        state_map: ``id(element) -> ((attr, store, row), ...)`` mapping
            scalar state attributes onto the batch arrays (for the
            differential oracle's state snapshots).
        analytic: whether the closed-form fast path applies.
        profiles: ``(id(element), port) -> _Profile`` when analytic.
    """

    __slots__ = (
        "version",
        "inports",
        "emit_tables",
        "tap_index",
        "tap_keys",
        "state_init",
        "n_mergers",
        "n_balancers",
        "fault_specs",
        "generic",
        "state_map",
        "analytic",
        "profiles",
    )


#: Batch store -> (row space, simulator field or fault-state field).  A
#: cell takes one row of one space, shared by all its stores: a merger's
#: collision count and last accept sit in row ``m`` of two arrays, and an
#: NDRO's read count in the same row of ``_reads`` as its bitplane in
#: ``_state``.  One-bit stores are lists of bitplane ints, the rest
#: ``(rows, B)`` arrays.
_STORES = {
    "u8": ("state", "_state"),
    "armed": ("state", "_state"),
    "reads": ("state", "_reads"),
    "mcoll": ("merger", "_mcoll"),
    "mlast": ("merger", "_mlast"),
    "bstate": ("balancer", "_bal_state"),
    "bhaz": ("balancer", "_bal_haz"),
    "seen": ("fault", "seen"),
    "lost": ("fault", "lost"),
    "peak": ("fault", "peak"),
}


class _BatchLowering(Lowering):
    """The batch kernel's side of the shared lowering: the slot is a
    state-row index and taps are recording indices."""

    def __init__(self, circuit: Circuit):
        super().__init__(circuit, {})
        self.tap_index: Dict[Tuple[int, str], int] = {}
        self.tap_keys: List[Tuple[Element, str]] = []
        for (eid, port), taps in circuit._taps.items():
            if taps:
                self.tap_index[(eid, port)] = len(self.tap_keys)
                self.tap_keys.append((taps[0].source, port))
        self.n_rows = {"state": 0, "merger": 0, "balancer": 0}
        self.state_init: List[int] = []
        self.fault_specs: List[Tuple[str, Element]] = []
        self.state_map: Dict[int, tuple] = {}

    def taps_of(self, element: Element, port: str) -> tuple:
        ti = self.tap_index.get((id(element), port))
        return () if ti is None else (ti,)

    def slot_of(self, family: str, element: Element) -> int:
        stores = STATE[family]
        space = _STORES[stores[0][1]][0]
        if space == "fault":
            row = len(self.fault_specs)
            self.fault_specs.append((family, element))
        else:
            row = self.n_rows[space]
            self.n_rows[space] += 1
            if space == "state":
                # An inverter is armed until an `a` pulse disarms it.
                self.state_init.append(1 if stores[0][1] == "armed" else 0)
        self.state_map[id(element)] = tuple(
            (attr, store, row) for attr, store in stores
        )
        return row


def compile_batch(circuit: Circuit) -> BatchProgram:
    """Compile a sealed circuit into a :class:`BatchProgram`.

    Normally reached through :meth:`Circuit.seal_batch`, which caches the
    program against the circuit version (a probe attached later bumps the
    version and recompiles with the new tap index).
    """
    if not circuit.sealed:
        circuit.seal()

    lowering = _BatchLowering(circuit)
    kinds: Dict[int, Optional[str]] = {}
    generic: List[Element] = []
    emit_tables: Dict[int, dict] = {}
    inports: Dict[int, Dict[str, tuple]] = {}
    for element in circuit.elements:
        eid = id(element)
        emit_tables[eid] = lowering.emit_table(element)
        kinds[eid], inports[eid] = lowering.lower(element)
        if kinds[eid] is None:
            generic.append(element)

    prog = BatchProgram()
    prog.version = circuit._version
    prog.inports = inports
    prog.emit_tables = emit_tables
    prog.tap_index = lowering.tap_index
    prog.tap_keys = lowering.tap_keys
    prog.state_init = np.asarray(lowering.state_init, dtype=np.uint8)
    prog.n_mergers = lowering.n_rows["merger"]
    prog.n_balancers = lowering.n_rows["balancer"]
    prog.fault_specs = lowering.fault_specs
    prog.generic = generic
    prog.state_map = lowering.state_map

    prog.analytic = all(
        kind in ("jtl", "splitter")
        or (kind == "merger" and element.dead_time == 0)
        for element, kind in zip(circuit.elements, kinds.values())
    ) and bool(circuit.elements)
    prog.profiles = None
    if prog.analytic:
        try:
            prog.profiles = _build_profiles(circuit, kinds, lowering)
        except _NotAnalytic:
            prog.analytic = False
    return prog

def _build_profiles(circuit, kinds, lowering):
    """Closed-form :class:`_Profile` per ``(element, input port)``.

    Raises :class:`_NotAnalytic` on feedback loops or when the response
    tree outgrows the caps (the event loop handles those circuits).
    """
    tap_index = lowering.tap_index
    state_map = lowering.state_map
    memo: Dict[Tuple[int, str], _Profile] = {}

    def visit(el, port, stack):
        key = (id(el), port)
        got = memo.get(key)
        if got is not None:
            return got
        if key in stack:
            raise _NotAnalytic  # feedback loop: no static response tree
        stack.add(key)
        events = 1
        pulses = 0
        d_max = 0
        tap_parts: Dict[int, list] = {}
        mergers: Dict[int, int] = {}
        kind = kinds[id(el)]
        if kind == "merger":
            mergers[state_map[id(el)][0][2]] = 0  # the merger's row
        outs = ("q1", "q2") if kind == "splitter" else ("q",)
        for out in outs:
            dq = el.delay
            pulses += 1
            ti = tap_index.get((id(el), out))
            if ti is not None:
                tap_parts.setdefault(ti, []).append(
                    np.asarray([dq], dtype=np.int64)
                )
            for wire in circuit._fanout.get((id(el), out), ()):
                child = visit(wire.sink, wire.sink_port, stack)
                off = dq + wire.delay
                events += child.events
                pulses += child.pulses
                if events > _ANALYTIC_EVENT_CAP:
                    raise _NotAnalytic
                if off + child.d_max > d_max:
                    d_max = off + child.d_max
                for cti, delays in child.taps.items():
                    tap_parts.setdefault(cti, []).append(delays + off)
                for cm, cd in child.mergers.items():
                    if cd + off > mergers.get(cm, -1):
                        mergers[cm] = cd + off
        taps = {}
        for ti, parts in tap_parts.items():
            merged = np.concatenate(parts)
            if merged.size > _ANALYTIC_TAP_CAP:
                raise _NotAnalytic
            taps[ti] = merged
        stack.discard(key)
        prof = _Profile(events, pulses, d_max, taps, mergers)
        memo[key] = prof
        return prof

    for element in circuit.elements:
        for port in element.input_names:
            visit(element, port, set())
    return memo


class _LaneRng:
    """Chunked per-lane random streams for vectorized fault channels.

    Lane ``i`` draws from ``Generator(PCG64(SeedSequence([seed, i])))``,
    so its stream depends only on the channel seed and lane index — never
    on batch size or on what other lanes consumed.  Variates are drawn
    ``_RNG_CHUNK`` at a time per lane; the hot path is one gather plus a
    masked pointer bump.
    """

    __slots__ = ("_gens", "_buf", "_ptr", "_ids", "_normal")

    def __init__(self, seed: int, batch: int, normal: bool):
        self._gens = [
            np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, lane])))
            for lane in range(batch)
        ]
        self._buf = np.empty((batch, _RNG_CHUNK), dtype=np.float64)
        self._ptr = np.full(batch, _RNG_CHUNK, dtype=np.int64)
        self._ids = np.arange(batch)
        self._normal = normal

    def take(self, mask: np.ndarray) -> np.ndarray:
        """Next variate per lane; consumed (pointer advanced) only where
        ``mask`` is set.  Unmasked entries are unspecified."""
        need = mask & (self._ptr >= _RNG_CHUNK)
        if need.any():
            for lane in np.flatnonzero(need):
                gen = self._gens[lane]
                self._buf[lane] = (
                    gen.standard_normal(_RNG_CHUNK)
                    if self._normal
                    else gen.random(_RNG_CHUNK)
                )
                self._ptr[lane] = 0
        vals = self._buf[self._ids, np.minimum(self._ptr, _RNG_CHUNK - 1)]
        self._ptr += mask
        return vals


# -- lane bitsets ----------------------------------------------------------------
if sys.version_info >= (3, 10):
    _popcount = int.bit_count
else:  # pragma: no cover - Python 3.9

    def _popcount(mask: int) -> int:
        return bin(mask).count("1")


def _lanes_of(mask: int, batch: int) -> np.ndarray:
    """The ``(batch,)`` bool array of a lane bitset."""
    raw = np.frombuffer(mask.to_bytes((batch + 7) >> 3, "little"), np.uint8)
    return np.unpackbits(raw, count=batch, bitorder="little").view(bool)


def _mask_of(lanes: np.ndarray) -> int:
    """The lane bitset of a ``(batch,)`` bool array."""
    return int.from_bytes(np.packbits(lanes, bitorder="little").tobytes(), "little")


def _unpack(masks: List[int], batch: int) -> np.ndarray:
    """``(len(masks), batch)`` 0/1 uint8 matrix of lane bitsets."""
    nbytes = (batch + 7) >> 3
    raw = b"".join(mask.to_bytes(nbytes, "little") for mask in masks)
    packed = np.frombuffer(raw, np.uint8).reshape(len(masks), nbytes)
    return np.unpackbits(packed, axis=1, count=batch, bitorder="little")


def _chunks(rows: List[int], values: List[int], masks: List[int], batch: int):
    """``(rows, values, lane bits)`` arrays in chunks that bound the
    unpacked scratch."""
    step = max(1, _FOLD_CELLS // batch)
    for start in range(0, len(masks), step):
        end = start + step
        yield (
            np.asarray(rows[start:end], dtype=np.int64),
            np.asarray(values[start:end], dtype=np.int64),
            _unpack(masks[start:end], batch),
        )


def _fold_counts(out: np.ndarray, rows, counts, masks) -> None:
    """Add ``counts[i]`` to ``out[rows[i], lane]`` for every lane of
    ``masks[i]`` (``rows`` sorted: one product per distinct row)."""
    for r, c, bits in _chunks(rows, counts, masks, out.shape[1]):
        # Exact in float64: the sums stay far below 2**53.
        weights = c.astype(np.float64)
        bits = bits.astype(np.float64)
        bounds = np.flatnonzero(np.r_[True, r[1:] != r[:-1], True]).tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            out[r[lo]] += (weights[lo:hi] @ bits[lo:hi]).astype(np.int64)


def _fold_last(out: np.ndarray, rows, times, masks) -> None:
    """Raise ``out[rows[i], lane]`` to ``times[i]`` for every lane of
    ``masks[i]``."""
    for r, t, bits in _chunks(rows, times, masks, out.shape[1]):
        np.maximum.at(out, r, np.where(bits, t[:, None], -1))


def _latest(pairs, full: int):
    """``(time, lanes)`` with disjoint lanes, each lane at its latest
    time, from ``(time, mask)`` pairs given newest first."""
    remaining = full
    for t, mask in pairs:
        hit = mask & remaining
        if hit:
            yield t, hit
            remaining ^= hit
            if not remaining:
                return


class _DropState:
    __slots__ = ("rng", "rates", "seen", "lost")

    def __init__(self, element, batch):
        self.rng = _LaneRng(element.seed, batch, normal=False)
        self.rates = np.full(batch, element.drop_rate, dtype=np.float64)
        self.seen = np.zeros(batch, dtype=np.int64)
        self.lost = np.zeros(batch, dtype=np.int64)


class _JitterState:
    __slots__ = ("rng", "std", "mean", "seen", "lost", "peak")

    def __init__(self, element, batch):
        self.rng = _LaneRng(element.seed, batch, normal=True)
        self.std = element.std_fs
        self.mean = element.mean_fs
        self.seen = np.zeros(batch, dtype=np.int64)
        self.lost = np.zeros(batch, dtype=np.int64)  # pulses_displaced
        self.peak = np.zeros(batch, dtype=np.int64)  # max_displacement_fs


class BatchStats:
    """Per-lane run statistics; scalar-compatible views via :meth:`lane`.

    ``mode`` is ``"analytic"`` or ``"event"``; both produce the same
    ``events``/``pulses``/``end_time`` a scalar sealed run of each lane
    would report.  Queue depth is not tracked (the master queue's depth
    has no per-lane meaning) and ``wall_s`` is the whole-batch wall time.
    """

    __slots__ = ("batch", "events", "pulses", "end_time", "wall_s", "mode")

    def __init__(self, batch, events, pulses, end_time, wall_s, mode):
        self.batch = batch
        self.events = events
        self.pulses = pulses
        self.end_time = end_time
        self.wall_s = wall_s
        self.mode = mode

    @property
    def events_total(self) -> int:
        return int(self.events.sum())

    @property
    def pulses_total(self) -> int:
        return int(self.pulses.sum())

    def lane(self, lane: int):
        """A :class:`~repro.pulsesim.simulator.SimulationStats` for one lane."""
        from repro.pulsesim.simulator import SimulationStats

        return SimulationStats(
            events_processed=int(self.events[lane]),
            pulses_emitted=int(self.pulses[lane]),
            end_time=int(self.end_time[lane]),
            max_queue_depth=0,
            wall_s=self.wall_s,
        )


class BatchSimulator:
    """Run ``batch`` independent lanes of one circuit in lockstep.

    Args:
        circuit: The netlist; compiled via :meth:`Circuit.seal_batch`.
        batch: Number of independent lanes (epochs) to execute.
        max_events: Total lane-event budget across the whole batch
            (oscillation guard, compare the scalar per-run default).
        kw-only drop-rate overrides etc. are set post-construction via
            :meth:`set_drop_rates`.

    Stimulus must target elements of ``circuit``; probes must be attached
    before the first ``run()`` (the program snapshot carries the tap
    indices).  ``run(until=...)`` bounds simulated time like the scalar
    kernels and forces the event loop; an unbounded run on an eligible
    feed-forward circuit takes the analytic fast path.
    """

    def __init__(
        self,
        circuit: Circuit,
        batch: int,
        max_events: int = 50_000_000,
    ):
        if batch < 1:
            raise ConfigurationError(f"batch size must be >= 1, got {batch}")
        self.circuit = circuit
        self.batch = int(batch)
        self.max_events = max_events
        self._program = circuit.seal_batch()
        self._alloc()

    # -- lifecycle ------------------------------------------------------------
    def _alloc(self) -> None:
        prog = self._program
        B = self.batch
        self._full = (1 << B) - 1
        n_state = prog.state_init.size
        nm = prog.n_mergers
        nb = prog.n_balancers
        # Per-lane counters, one row each: events, pulses, then the NDRO
        # reads, merger collisions and balancer hazards.
        reads, coll, haz = 2, 2 + n_state, 2 + n_state + nm
        self._row_bases = (reads, coll, haz)
        self._counts = np.zeros((haz + nb, B), dtype=np.int64)
        self._events = self._counts[0]
        self._pulses = self._counts[1]
        self._reads = self._counts[reads:coll]
        self._mcoll = self._counts[coll:haz]
        self._bal_haz = self._counts[haz:]
        # Per-lane times: the end time, then each merger's last accept.
        self._lane_times = np.full((1 + nm, B), -1, dtype=np.int64)
        self._lane_times[0] = 0
        self._end = self._lane_times[0]
        self._mlast = self._lane_times[1:]
        # Event-mode state: one bitplane int per one-bit row.
        self._state = [self._full if v else 0 for v in prog.state_init.tolist()]
        self._bal_state = [0] * nb
        self._bal_port = [0] * nb  # lanes whose last arrival came on `b`
        self._bal_idx = [0] * nb  # lanes whose last pulse left on y2
        self._bal_pair = [0] * nb  # lanes with a simultaneous pair open
        # (last arrival, lanes) partitions, stale entries dropped.
        self._bal_recent: List[list] = [[] for _ in range(nb)]
        # (accept time, lanes) per merger since the last fold; entries
        # before _merger_hot[m] are past the dead time.
        self._merger_accepts: List[list] = [[] for _ in range(nm)]
        self._merger_hot = [0] * nm
        # Tallies folded into the arrays above by _fold(): a count per
        # mask for each row of _counts, and the lanes with an event at
        # each event time (in time order) for _end.
        self._tallies: List[Dict[int, int]] = [{} for _ in self._counts]
        self._tally_end: Dict[int, int] = {}
        self._recs: List[list] = [[] for _ in prog.tap_keys]  # (time, mask)
        self._arecs: List[list] = [[] for _ in prog.tap_keys]  # (times, lanes, delays)
        self._raw: List[tuple] = []
        # The event queue: a heap of pending times, and per time a heap
        # of ``(packed key, program, mask)`` entries.
        self._due: List[int] = []
        self._buckets: Dict[int, list] = {}
        self._seq = 0
        self._now = 0
        self._mode: Optional[str] = None
        self._total_events = 0
        self._wall = 0.0
        self._call_lane: Optional[int] = None
        self._clone_owner: Dict[int, int] = {}
        self._clones: Dict[int, list] = {}
        for element in prog.generic:
            lanes = [self._make_clone(element) for _ in range(B)]
            self._clones[id(element)] = lanes
            for clone in lanes:
                self._clone_owner[id(clone)] = id(element)
        self._faults = [
            _DropState(el, B) if kind == "drop" else _JitterState(el, B)
            for kind, el in prog.fault_specs
        ]

    def _make_clone(self, element: Element) -> Element:
        try:
            return type(element)(element.name, **element.params())
        except Exception as exc:
            raise SimulationError(
                f"cannot build per-lane clones of {element!r}: constructor "
                f"replay via params() failed ({exc}); give the cell a "
                "params()-recoverable constructor to run it under the batch "
                "kernel"
            ) from exc

    def reset(self) -> None:
        """Fresh lanes: state, recordings, stats, RNG streams rewound."""
        self._alloc()

    # -- scheduling -----------------------------------------------------------
    def _check_port(self, element: Element, port: str) -> None:
        if port not in self._program.inports.get(id(element), ()):
            raise SimulationError(
                f"{element.name}.{port} is not an input port of an element "
                f"of circuit {self.circuit.name!r}"
            )

    def _add_chunk(self, element, port, times, lanes) -> None:
        self._check_port(element, port)
        times = np.asarray(times, dtype=np.int64)
        if times.ndim != 1:
            raise SimulationError(
                f"stimulus times must be one-dimensional, got shape {times.shape}"
            )
        if times.size and times.min() < 0:
            raise SimulationError(
                f"cannot schedule pulse at negative time {int(times.min())}"
            )
        if lanes is not None:
            lanes = np.asarray(lanes, dtype=np.int64)
            if lanes.shape != times.shape:
                raise SimulationError(
                    f"lane array shape {lanes.shape} does not match times "
                    f"shape {times.shape}"
                )
            if lanes.size and (lanes.min() < 0 or lanes.max() >= self.batch):
                raise SimulationError(
                    f"lane ids must be in [0, {self.batch}), got "
                    f"[{int(lanes.min())}, {int(lanes.max())}]"
                )
        if times.size:
            self._raw.append((element, port, times, lanes))

    def schedule_input(self, element: Element, port: str, time) -> None:
        """One pulse per lane: a scalar broadcasts, a ``(batch,)`` array
        gives each lane its own time."""
        arr = np.asarray(time)
        if arr.ndim == 0:
            self._add_chunk(element, port, [int(time)], None)
        elif arr.shape == (self.batch,):
            self._add_chunk(element, port, arr, np.arange(self.batch))
        else:
            raise SimulationError(
                f"schedule_input takes a scalar or a ({self.batch},) array, "
                f"got shape {arr.shape}"
            )

    def schedule_train(self, element: Element, port: str, times) -> None:
        """Broadcast a stimulus train to every lane."""
        self._add_chunk(element, port, list(times), None)

    def schedule_lane_trains(self, element: Element, port: str, trains) -> None:
        """Per-lane trains: ``trains[i]`` is lane ``i``'s pulse times."""
        trains = list(trains)
        if len(trains) != self.batch:
            raise SimulationError(
                f"need one train per lane ({self.batch}), got {len(trains)}"
            )
        times = []
        lanes = []
        for lane, train in enumerate(trains):
            train = list(train)
            times.extend(train)
            lanes.extend([lane] * len(train))
        if times:
            self._add_chunk(element, port, times, lanes)

    def schedule_flat(self, element: Element, port: str, times, lanes) -> None:
        """Flat ``(times, lanes)`` stimulus arrays (the SoA native form)."""
        self._add_chunk(element, port, times, lanes)

    def set_drop_rates(self, element: Element, rates) -> None:
        """Per-lane drop probabilities for one :class:`DropChannel`.

        Lets a Monte-Carlo sweep coalesce *different* error rates into a
        single batch run (each lane keeps its own seeded stream, so lane
        results match a same-rate batch run lane for lane).
        """
        for state, (kind, el) in zip(self._faults, self._program.fault_specs):
            if el is element:
                if kind != "drop":
                    raise ConfigurationError(
                        f"{element.name} is a {kind} channel, not a DropChannel"
                    )
                arr = np.asarray(rates, dtype=np.float64)
                if arr.ndim == 0:
                    arr = np.full(self.batch, float(arr))
                if arr.shape != (self.batch,):
                    raise ConfigurationError(
                        f"rates must be scalar or ({self.batch},), got {arr.shape}"
                    )
                if arr.min() < 0.0 or arr.max() > 1.0:
                    raise ConfigurationError("drop rates must be in [0, 1]")
                state.rates = arr
                return
        raise ConfigurationError(
            f"{element.name!r} is not a fault channel of this circuit"
        )

    # -- execution ------------------------------------------------------------
    def run(self, until: Optional[int] = None) -> BatchStats:
        """Execute all pending stimulus; returns per-lane stats.

        ``until`` bounds simulated time (events after it stay queued for a
        later ``run``) and forces event mode.  Analytic and event results
        cannot be mixed within one simulator lifetime — ``reset()`` first.
        """
        prog = self._program
        if prog.version != self.circuit._version:
            raise SimulationError(
                "circuit changed (topology or probes) after this "
                "BatchSimulator was built; construct a new BatchSimulator"
            )
        wall0 = perf_counter()
        want_event = (
            until is not None or not prog.analytic or self._mode == "event"
        )
        if want_event:
            if self._mode == "analytic":
                raise SimulationError(
                    "cannot continue an analytic batch run in event mode; "
                    "reset() and reschedule"
                )
            self._mode = "event"
            self._flush_raw()
            self._run_events(until)
        else:
            self._mode = "analytic"
            self._run_analytic()
        self._wall += perf_counter() - wall0
        return BatchStats(
            batch=self.batch,
            events=self._events.copy(),
            pulses=self._pulses.copy(),
            end_time=self._end.copy(),
            wall_s=self._wall,
            mode=self._mode,
        )

    # -- analytic fast path ---------------------------------------------------
    def _run_analytic(self) -> None:
        prog = self._program
        B = self.batch
        for element, port, times, lanes in self._raw:
            prof = prog.profiles[(id(element), port)]
            if lanes is None:
                n = times.size
                self._events += prof.events * n
                self._pulses += prof.pulses * n
                tmax = int(times.max())
                np.maximum(self._end, tmax + prof.d_max, out=self._end)
                for m, dm in prof.mergers.items():
                    row = self._mlast[m]
                    np.maximum(row, tmax + dm, out=row)
                for ti, delays in prof.taps.items():
                    self._arecs[ti].append((times, None, delays))
            else:
                counts = np.bincount(lanes, minlength=B)
                self._events += prof.events * counts
                self._pulses += prof.pulses * counts
                has = counts > 0
                tmax = np.full(B, -1, dtype=np.int64)
                np.maximum.at(tmax, lanes, times)
                np.maximum(
                    self._end,
                    np.where(has, tmax + prof.d_max, self._end),
                    out=self._end,
                )
                for m, dm in prof.mergers.items():
                    row = self._mlast[m]
                    np.maximum(row, np.where(has, tmax + dm, row), out=row)
                for ti, delays in prof.taps.items():
                    self._arecs[ti].append((times, lanes, delays))
        self._raw.clear()
        self._total_events = int(self._events.sum())
        if self._total_events > self.max_events:
            raise SimulationError(
                f"exceeded max_events={self.max_events}; "
                "raise the budget for this batch size"
            )

    # -- masked event loop ----------------------------------------------------
    def _flush_raw(self) -> None:
        due = self._due
        buckets = self._buckets
        seq = self._seq
        per_lane = iter(self._stimulus_masks())
        for element, port, times, lanes in self._raw:
            kb, op = self._program.inports[id(element)][port]
            if lanes is None:
                entries = [(t, self._full) for t in np.sort(times).tolist()]
            else:
                entries = next(per_lane)
            for t, mask in entries:
                bucket = buckets.get(t)
                if bucket is None:
                    buckets[t] = [(kb + seq, op, mask)]
                    heappush(due, t)
                else:
                    heappush(bucket, (kb + seq, op, mask))
                seq += 1
        self._seq = seq
        self._raw.clear()

    def _stimulus_masks(self) -> List[List[Tuple[int, int]]]:
        """``(time, mask)`` entries of each pending per-lane stimulus chunk
        in push order: by time, then the ``k``-th pulse of each lane at
        that time (a lane with ``c`` pulses at one time is in ``c``
        entries).  All chunks are packed in one vectorized pass."""
        chunks = [
            (times, lanes) for _e, _p, times, lanes in self._raw if lanes is not None
        ]
        if not chunks:
            return []
        sizes = [times.size for times, _lanes in chunks]
        cs = np.repeat(np.arange(len(chunks)), sizes)
        ts = np.concatenate([times for times, _lanes in chunks])
        ls = np.concatenate([lanes for _times, lanes in chunks])
        order = np.lexsort((ls, ts, cs))
        cs = cs[order]
        ts = ts[order]
        ls = ls[order]
        head = np.ones(ts.size, dtype=bool)
        head[1:] = (ts[1:] != ts[:-1]) | (cs[1:] != cs[:-1])
        again = ~head[1:] & (ls[1:] == ls[:-1])
        if again.any():
            # Rank each pulse among its lane's pulses at the same time and
            # group by (chunk, time, rank).
            first = np.flatnonzero(np.r_[True, ~again])
            rank = np.arange(ts.size) - np.repeat(first, np.diff(np.r_[first, ts.size]))
            order = np.lexsort((ls, rank, ts, cs))
            cs = cs[order]
            ts = ts[order]
            ls = ls[order]
            head[1:] |= rank[order][1:] != rank[order][:-1]
        group = np.cumsum(head) - 1
        nbytes = (self.batch + 7) >> 3
        # Lanes are distinct within a group: summing bit weights per byte
        # packs them.
        packed = np.bincount(
            group * nbytes + (ls >> 3),
            weights=np.left_shift(1, ls & 7),
            minlength=(int(group[-1]) + 1) * nbytes,
        ).astype(np.uint8)
        raw = packed.tobytes()
        out: List[List[Tuple[int, int]]] = [[] for _ in chunks]
        for g, (c, t) in enumerate(zip(cs[head].tolist(), ts[head].tolist())):
            out[c].append(
                (t, int.from_bytes(raw[g * nbytes : (g + 1) * nbytes], "little"))
            )
        return out

    def _run_events(self, until: Optional[int]) -> None:
        from repro.pulsesim.faults import _TOTALS

        due = self._due
        buckets = self._buckets
        state = self._state
        recs = self._recs
        tallies = self._tallies
        tally_events = tallies[0]
        tally_pulses = tallies[1]
        seq = self._seq

        def emit(t, dq, taps, rows, mask):
            """Record taps and push fanout for one emission over ``mask``."""
            nonlocal seq
            tally_pulses[mask] = tally_pulses.get(mask, 0) + 1
            if taps:
                ot = t + dq
                for ti in taps:
                    recs[ti].append((ot, mask))
            for kb, dly, nop in rows:
                at = t + dly
                bucket = buckets.get(at)
                if bucket is None:
                    buckets[at] = [(kb + seq, nop, mask)]
                    heappush(due, at)
                else:
                    heappush(bucket, (kb + seq, nop, mask))
                seq += 1

        self._emit = emit  # generic-cell callbacks emit through this
        tally_end = self._tally_end
        row_reads, row_coll, row_haz = self._row_bases
        accepts_of = self._merger_accepts
        hot_of = self._merger_hot
        bal_state = self._bal_state
        bal_port = self._bal_port
        bal_idx = self._bal_idx
        bal_pair = self._bal_pair
        bal_recent = self._bal_recent
        budget = self.max_events
        total = self._total_events
        now = self._now
        # The lanes with an event at the current time, and the current run
        # of consecutive events sharing one mask (tallied once per run).
        lanes_now = 0
        run_mask = 0
        run_len = 0
        n_active = 0
        try:
            while due:
                t = due[0]
                if until is not None and t > until:
                    break
                if t < now:
                    raise SimulationError(
                        f"causality violation: event at {t} fs before "
                        f"now={now} fs"
                    )
                now = t
                bucket = buckets[t]
                while bucket:
                    _key, op, mask = heappop(bucket)
                    if mask != run_mask:
                        if run_len:
                            tally_events[run_mask] = (
                                tally_events.get(run_mask, 0) + run_len
                            )
                        run_mask = mask
                        run_len = 0
                        n_active = _popcount(mask)
                    run_len += 1
                    lanes_now |= mask
                    total += n_active
                    if total > budget:
                        raise SimulationError(
                            f"exceeded max_events={self.max_events}; "
                            "likely an oscillating netlist"
                        )
                    kind = op[0]
                    if kind == DELAY1:
                        _c, kb, dly, nop = op
                        tally_pulses[mask] = tally_pulses.get(mask, 0) + 1
                        at = t + dly
                        nxt = buckets.get(at)
                        if nxt is None:
                            buckets[at] = [(kb + seq, nop, mask)]
                            heappush(due, at)
                        else:
                            heappush(nxt, (kb + seq, nop, mask))
                        seq += 1
                    elif kind == NDRO:
                        _c, s, dq, taps, rows = op
                        tally = tallies[row_reads + s]
                        tally[mask] = tally.get(mask, 0) + 1
                        fire = mask & state[s]
                        if fire:
                            emit(t, dq, taps, rows, fire)
                    elif kind == INV:
                        _c, s, dq, taps, rows = op
                        fire = mask & state[s]
                        state[s] |= mask
                        if fire:
                            emit(t, dq, taps, rows, fire)
                    elif kind == BAL:
                        # The balancer Mealy machine (repro.core.balancer.
                        # _MealyRouter.route) over bitplanes.  The lane-
                        # restricted event order equals the scalar order
                        # (kernel invariant), so sequential per-lane routing
                        # decisions map 1:1 onto these masked updates.  A lane
                        # whose last arrival is past both the coincidence and
                        # t_BFF windows routes like one with no arrival yet.
                        _c, b, port, t_bff, coinc, (em1, em2) = op
                        near_pair = 0  # last arrival within the coincidence window
                        near_bff = 0  # last arrival within t_BFF
                        recent = []
                        for tl, lanes in bal_recent[b]:
                            gap = t - tl
                            if gap > coinc and gap >= t_bff:
                                continue  # stale: routes like no arrival
                            if gap <= coinc:
                                near_pair |= lanes
                            if gap < t_bff:
                                near_bff |= lanes
                            lanes &= ~mask
                            if lanes:
                                recent.append((tl, lanes))
                        recent.append((t, mask))
                        bal_recent[b] = recent
                        last_b = bal_port[b]
                        if port == "b":
                            other_port = ~last_b
                            bal_port[b] = last_b | mask
                        else:
                            other_port = last_b
                            bal_port[b] = last_b & ~mask
                        pair_hit = mask & near_pair & other_port & bal_pair[b]
                        hazard = mask & near_bff & ~pair_hit
                        # Routed to y2: a hazard repeats the last index, every
                        # other pulse leaves by the toggle state.
                        m2 = (hazard & bal_idx[b]) | (mask & bal_state[b] & ~hazard)
                        m1 = mask ^ m2
                        bal_state[b] ^= mask ^ hazard
                        bal_pair[b] = (bal_pair[b] & ~mask) | (
                            mask & ~(pair_hit | hazard)
                        )
                        bal_idx[b] = (bal_idx[b] & ~mask) | m2
                        if hazard:
                            tally = tallies[row_haz + b]
                            tally[hazard] = tally.get(hazard, 0) + 1
                        if m1:
                            emit(t, em1[0], em1[1], em1[2], m1)
                        if m2:
                            emit(t, em2[0], em2[1], em2[2], m2)
                    elif kind == MULTI:
                        for dq, taps, rows in op[1]:
                            emit(t, dq, taps, rows, mask)
                    elif kind == DISARM:
                        state[op[1]] &= ~mask
                    elif kind == MERGER:
                        # Lanes with an accept inside the dead time reject.
                        _c, m, dead, dq, taps, rows = op
                        accepts = accepts_of[m]
                        hot = hot_of[m]
                        n = len(accepts)
                        while hot < n and t - accepts[hot][0] >= dead:
                            hot += 1
                        hot_of[m] = hot
                        busy = 0
                        for i in range(hot, n):
                            busy |= accepts[i][1]
                        reject = mask & busy
                        if reject:
                            tally = tallies[row_coll + m]
                            tally[reject] = tally.get(reject, 0) + 1
                        accept = mask ^ reject
                        if accept:
                            accepts.append((t, accept))
                            emit(t, dq, taps, rows, accept)
                    elif kind == STORE1:
                        state[op[1]] |= mask
                    elif kind == STORE0:
                        state[op[1]] &= ~mask
                    elif kind == TFF:
                        _c, s, dq, taps, rows = op
                        st = state[s] ^ mask
                        state[s] = st
                        fire = mask & ~st
                        if fire:
                            emit(t, dq, taps, rows, fire)
                    elif kind == DFF:
                        _c, s, dq, taps, rows = op
                        fire = mask & state[s]
                        if fire:
                            state[s] ^= fire
                            emit(t, dq, taps, rows, fire)
                    elif kind == TFF2:
                        _c, s, (em1, em2) = op
                        st = state[s]
                        m2 = mask & st
                        m1 = mask ^ m2
                        state[s] = st ^ mask
                        if m1:
                            emit(t, em1[0], em1[1], em1[2], m1)
                        if m2:
                            emit(t, em2[0], em2[1], em2[2], m2)
                    elif kind == DELAY1T:
                        _c, dq, taps, kb, dly, nop = op
                        emit(t, dq, taps, ((kb, dly, nop),), mask)
                    elif kind == DELAYN:
                        emit(t, op[1], op[2], op[3], mask)
                    elif kind == DROP:
                        _c, f, dq, taps, rows = op
                        fa = self._faults[f]
                        lanes = _lanes_of(mask, self.batch)
                        fa.seen += lanes
                        _TOTALS["drop.pulses_seen"] += n_active
                        dropped = lanes & (fa.rng.take(lanes) < fa.rates)
                        lost = _mask_of(dropped)
                        if lost:
                            fa.lost += dropped
                            _TOTALS["drop.pulses_dropped"] += _popcount(lost)
                        if mask ^ lost:
                            emit(t, dq, taps, rows, mask ^ lost)
                    elif kind == JITTER:
                        _c, f, dq, taps, rows = op
                        fa = self._faults[f]
                        lanes = _lanes_of(mask, self.batch)
                        fa.seen += lanes
                        _TOTALS["jitter.pulses_seen"] += n_active
                        if fa.std:
                            disp = np.rint(fa.rng.take(lanes) * fa.std).astype(
                                np.int64
                            )
                        else:
                            disp = np.zeros(self.batch, dtype=np.int64)
                        delay = np.maximum(0, fa.mean + disp)
                        effective = delay - fa.mean
                        moved = lanes & (effective != 0)
                        nm = int(moved.sum())
                        if nm:
                            fa.lost += moved
                            _TOTALS["jitter.pulses_displaced"] += nm
                            np.maximum(
                                fa.peak,
                                np.where(moved, np.abs(effective), 0),
                                out=fa.peak,
                            )
                        for d in np.unique(delay[lanes]).tolist():
                            emit(t + d, dq, taps, rows, _mask_of(lanes & (delay == d)))
                    elif kind == CALL:
                        element, port = op[1], op[2]
                        clones = self._clones[id(element)]
                        self._now = now
                        rest = mask
                        try:
                            while rest:
                                low = rest & -rest
                                rest ^= low
                                lane = low.bit_length() - 1
                                self._call_lane = lane
                                clones[lane].handle(self, port, t)
                        finally:
                            self._call_lane = None
                    else:  # pragma: no cover - compiler invariant
                        raise SimulationError(
                            f"corrupt batch program (kind {kind!r})"
                        )
                tally_end[t] = lanes_now
                lanes_now = 0
                del buckets[t]
                heappop(due)
        finally:
            self._seq = seq
            if run_len:
                tally_events[run_mask] = tally_events.get(run_mask, 0) + run_len
            if lanes_now:
                tally_end[now] = lanes_now
            self._now = now
            self._total_events = total
            self._fold()
        if until is not None:
            np.maximum(self._end, until, out=self._end)

    def _fold(self) -> None:
        """Fold the per-mask tallies into the per-lane arrays."""
        rows: List[int] = []
        counts: List[int] = []
        masks: List[int] = []
        for row, tally in enumerate(self._tallies):
            if tally:
                rows += [row] * len(tally)
                counts += tally.values()
                masks += tally
                tally.clear()
        if masks:
            _fold_counts(self._counts, rows, counts, masks)
        # Newest first: _tally_end fills in time order.
        ends = reversed(self._tally_end.items())
        latest = [(0, ends)]
        latest += [
            (1 + m, reversed(accepts))
            for m, accepts in enumerate(self._merger_accepts)
        ]
        rows, masks = [], []
        times: List[int] = []
        for row, pairs in latest:
            for t, lanes in _latest(pairs, self._full):
                rows.append(row)
                times.append(t)
                masks.append(lanes)
        self._tally_end.clear()
        if masks:
            _fold_last(self._lane_times, rows, times, masks)
        for m, accepts in enumerate(self._merger_accepts):
            # Entries past the dead time are folded for good.
            del accepts[: self._merger_hot[m]]
            self._merger_hot[m] = 0

    def emit(self, source: Element, port: str, time: int) -> None:
        """Pulse delivery for generic-cell callbacks (single-lane mask)."""
        lane = self._call_lane
        if lane is None:
            raise SimulationError(
                "BatchSimulator.emit is only valid inside a cell callback"
            )
        eid = self._clone_owner.get(id(source), id(source))
        table = self._program.emit_tables.get(eid)
        row = table.get(port) if table is not None else None
        if row is None:
            self._pulses[lane] += 1
            return
        self._emit(time, 0, row[0], row[1], 1 << lane)

    # -- results --------------------------------------------------------------
    def _tap(self, element: Element, port: str) -> int:
        ti = self._program.tap_index.get((id(element), port))
        if ti is None:
            raise SimulationError(
                f"no probe on {element.name}.{port}; attach one with "
                "circuit.probe(...) before building the BatchSimulator"
            )
        return ti

    def port_counts(self, element: Element, port: str) -> np.ndarray:
        """Per-lane pulse count ``(batch,)`` recorded at a probed port."""
        ti = self._tap(element, port)
        out = np.zeros(self.batch, dtype=np.int64)
        for times, lanes, delays in self._arecs[ti]:
            if lanes is None:
                out += times.size * delays.size
            else:
                out += np.bincount(lanes, minlength=self.batch) * delays.size
        tally: Dict[int, int] = {}
        for _t, mask in self._recs[ti]:
            tally[mask] = tally.get(mask, 0) + 1
        if tally:
            _fold_counts(out[None], [0] * len(tally), list(tally.values()), list(tally))
        return out

    def port_times(self, element: Element, port: str, lane: int) -> List[int]:
        """Sorted pulse times recorded at a probed port in one lane."""
        ti = self._tap(element, port)
        parts = []
        for times, lanes, delays in self._arecs[ti]:
            sel = times if lanes is None else times[lanes == lane]
            if sel.size and delays.size:
                parts.append((sel[:, None] + delays[None, :]).ravel())
        direct = [t for t, mask in self._recs[ti] if mask >> lane & 1]
        if direct:
            parts.append(np.asarray(direct, dtype=np.int64))
        if not parts:
            return []
        merged = np.concatenate(parts)
        merged.sort()
        return merged.tolist()

    def element_attr(self, element: Element, attr: str, lane: int, default=None):
        """Scalar-equivalent state attribute of ``element`` in one lane.

        Mirrors ``getattr(element, attr, default)`` on a scalar run: the
        batch arrays are consulted for vectorized cells, the per-lane
        clone for generic cells, and the element's own (never-touched)
        attribute as the fallback for state the batch kernel does not
        model (e.g. stateless cells).
        """
        eid = id(element)
        clones = self._clones.get(eid)
        if clones is not None:
            return getattr(clones[lane], attr, default)
        for name, store, row in self._program.state_map.get(eid, ()):
            if name != attr:
                continue
            space, field = _STORES[store]
            if space == "fault":
                return int(getattr(self._faults[row], field)[lane])
            plane = getattr(self, field)[row]
            if isinstance(plane, int):  # a one-bit store's bitplane
                value = plane >> lane & 1
            else:
                value = int(plane[lane])
            if store == "armed":
                return bool(value)
            return None if store == "mlast" and value < 0 else value
        return getattr(element, attr, default)

    @property
    def pending_events(self) -> int:
        """Master-queue entries still pending (0 after an unbounded run)."""
        return sum(map(len, self._buckets.values())) + sum(
            chunk[2].size for chunk in self._raw
        )


# -- per-request lane slicing --------------------------------------------------
def lane_slices(lane_counts) -> List[slice]:
    """Contiguous per-request lane ranges for a coalesced batch run.

    The serving layer packs heterogeneous payloads into one
    :class:`BatchSimulator` run: request ``i`` contributes
    ``lane_counts[i]`` adjacent lanes (one per dot-product row, epoch,
    Monte-Carlo sample...).  This returns one :class:`slice` per request,
    valid into any ``(batch,)``-shaped per-lane array — ``port_counts``,
    :class:`BatchStats` fields — so results come back out per request:

        >>> lane_slices([2, 1, 3])
        [slice(0, 2, None), slice(2, 3, None), slice(3, 6, None)]

    Zero-lane requests are allowed (an empty slice keeps positions
    aligned); negative counts raise :class:`ConfigurationError`.
    """
    slices: List[slice] = []
    start = 0
    for count in lane_counts:
        count = int(count)
        if count < 0:
            raise ConfigurationError(
                f"lane counts must be >= 0, got {count}"
            )
        slices.append(slice(start, start + count))
        start += count
    return slices
