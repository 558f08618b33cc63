"""Random *legal* netlist generation.

The generator enumerates circuits the design-rule checker
(:mod:`repro.lint`) accepts with **zero** diagnostics, by turning each DRC
rule into a construction constraint instead of a post-hoc filter:

===================  =========================================================
Rule                 Constraint
===================  =========================================================
implicit-fanout      every pool output is consumed by at most one wire;
                     fanout only ever comes from explicit ``Splitter`` cells
unmerged-fanin       every input port gets exactly one wire
floating-input       every input port gets exactly one wire (same invariant)
dead-element         wires only reference earlier pool outputs, all of which
                     descend from the declared ``entry`` stimulus splitter
dangling-output      the builder probes every unconsumed output
combinational-loop   pool indexing is topological: the netlist is a DAG
no-clock-driver      clocked cells have *all* inputs wired, clocks included
merger-collision     static worst-case input arrivals at merger cells are
                     spaced at least one dead time apart (wire delays are
                     bumped using the same longest-path arrival model
                     :mod:`repro.lint.graph` computes)
===================  =========================================================

The harness still lints every generated circuit — not as a filter but as a
cross-check that couples the generator to the rule catalogue: a rule
change that invalidates these constraints fails the ``lint-clean`` oracle
immediately.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import VerificationError
from repro.pulsesim.element import CellRole
from repro.synth.builder import space_arrivals, splitters_needed
from repro.verify.spec import (
    ENTRY_OUTPUTS,
    CellSpec,
    NetlistSpec,
    WireSpec,
    input_ports,
    output_ports,
    template,
)

#: Draw weights over the standard-cell library.  Interconnect and storage
#: cells dominate (they dominate real U-SFQ datapaths); every kind keeps a
#: non-zero weight so the full library is continuously exercised.
KIND_WEIGHTS: Tuple[Tuple[str, int], ...] = (
    ("Jtl", 3),
    ("Splitter", 3),
    ("Merger", 2),
    ("IdealMerger", 2),
    ("Tff", 2),
    ("Tff2", 2),
    ("Dff", 2),
    ("Ndro", 2),
    ("Dff2", 1),
    ("Inverter", 1),
    ("Bff", 1),
    ("Mux", 1),
    ("Demux", 1),
    ("FirstArrival", 1),
    ("LastArrival", 1),
    ("ClockedAnd", 1),
    ("ClockedOr", 1),
    ("ClockedXor", 1),
    ("Balancer", 1),
)


@dataclass(frozen=True)
class Profile:
    """Size envelope for one verification depth."""

    name: str
    examples: int
    min_cells: int
    max_cells: int
    max_stimulus: int
    max_slot: int
    time_scale: int = 1_000
    delay_choices: Tuple[int, ...] = (0, 0, 500, 1_000, 1_500, 2_500)


PROFILES: Dict[str, Profile] = {
    "smoke": Profile("smoke", examples=25, min_cells=1, max_cells=5,
                     max_stimulus=12, max_slot=20),
    "ci": Profile("ci", examples=200, min_cells=1, max_cells=8,
                  max_stimulus=25, max_slot=40),
    "nightly": Profile("nightly", examples=2_000, min_cells=2, max_cells=14,
                       max_stimulus=60, max_slot=80),
}


def profile(name: str) -> Profile:
    try:
        return PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(PROFILES))
        raise VerificationError(
            f"unknown profile {name!r}; known profiles: {known}"
        ) from None


def example_rng(seed: int, example: int) -> random.Random:
    """The deterministic RNG substream for one example index."""
    return random.Random(f"usfq-verify/{seed}/{example}")


class _PoolState:
    """Arrival-annotated pool bookkeeping during generation."""

    def __init__(self) -> None:
        entry_departure = template("Splitter").propagation_delay_fs
        #: pool slot -> static worst-case departure time of its driver
        #: (arrival at the driving cell + its propagation delay), the
        #: longest-path model of :meth:`repro.lint.graph.CircuitGraph.
        #: arrival_times`.
        self.departures: List[int] = [entry_departure] * ENTRY_OUTPUTS
        self.available: List[int] = list(range(ENTRY_OUTPUTS))

    def consume(self, slot: int) -> None:
        self.available.remove(slot)

    def extend(self, departure: int, count: int) -> None:
        for _ in range(count):
            self.available.append(len(self.departures))
            self.departures.append(departure)


def _draw_kind(rng: random.Random) -> str:
    total = sum(weight for _, weight in KIND_WEIGHTS)
    pick = rng.randrange(total)
    for kind, weight in KIND_WEIGHTS:
        pick -= weight
        if pick < 0:
            return kind
    raise AssertionError("unreachable")  # pragma: no cover


def _add_cell(kind: str, rng: random.Random, prof: Profile,
              pool: _PoolState, cells: List[CellSpec]) -> None:
    """Wire one cell from the available pool, honouring merger spacing."""
    ports = input_ports(kind)
    sources = rng.sample(pool.available, len(ports))
    delays = [rng.choice(prof.delay_choices) for _ in ports]
    arrivals = [pool.departures[s] + d for s, d in zip(sources, delays)]
    cell = template(kind)
    dead_time = getattr(cell, "dead_time", 0)
    if cell.has_role(CellRole.MERGER) and dead_time > 0:
        # Space static worst-case arrivals >= one dead time apart so the
        # merger-collision timing rule cannot fire (shared legality
        # helper, also used by the synthesis builder and the DRC rule).
        for index, bump in enumerate(space_arrivals(arrivals, dead_time)):
            delays[index] += bump
            arrivals[index] += bump
    for slot in sources:
        pool.consume(slot)
    departure = max(arrivals) + cell.propagation_delay_fs
    pool.extend(departure, len(output_ports(kind)))
    cells.append(CellSpec(kind=kind, inputs=tuple(
        WireSpec(s, d) for s, d in zip(sources, delays)
    )))


def generate_spec(rng: random.Random, prof: Profile) -> NetlistSpec:
    """One random legal :class:`NetlistSpec` drawn from ``rng``."""
    cells: List[CellSpec] = []
    pool = _PoolState()
    target = rng.randint(prof.min_cells, prof.max_cells)
    while len(cells) < target:
        kind = _draw_kind(rng)
        # Grow the pool with explicit splitters until the cell's fan-in
        # can be served — the only legal fanout mechanism in RSFQ.
        for _ in range(
            splitters_needed(len(pool.available), len(input_ports(kind)))
        ):
            _add_cell("Splitter", rng, prof, pool, cells)
        _add_cell(kind, rng, prof, pool, cells)
    count = rng.randint(1, prof.max_stimulus)
    stimulus = tuple(
        rng.randint(0, prof.max_slot) * prof.time_scale for _ in range(count)
    )
    return NetlistSpec(cells=tuple(cells), stimulus=stimulus)
