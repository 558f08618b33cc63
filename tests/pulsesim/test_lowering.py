"""The shared cell-to-opcode lowering, checked in both compiled kernels.

Every input port of every family in :data:`repro.pulsesim.lowering.PORTS`
must lower to an opcode each executor dispatches, and running it must
match the reference kernel (sealed) and the sealed kernel (batch).
Subclasses that inherit ``handle`` stay inline; subclasses that override
``handle`` or ``emit`` lower to ``CALL``.
"""

import pytest

from repro.cells.interconnect import IdealMerger, Jtl, Merger, Splitter
from repro.cells.logic import Inverter
from repro.cells.storage import Dff, Dff2, Ndro
from repro.cells.toggle import Tff, Tff2
from repro.core.balancer import Balancer
from repro.pulsesim import BatchSimulator, Circuit, Simulator
from repro.pulsesim.faults import DropChannel, JitterChannel
from repro.pulsesim.lowering import CALL, DELAY1, DELAY1T, DELAYN, PORTS, family_of
from repro.verify.oracles import STATE_ATTRS

#: One default-parameter instance per family.  The fault channels are
#: deterministic (rate 0, std 0) so the batch lanes replay them exactly.
FAMILY_CELLS = {
    "jtl": lambda: Jtl("x"),
    "splitter": lambda: Splitter("x"),
    "merger": lambda: Merger("x"),
    "ndro": lambda: Ndro("x"),
    "dff": lambda: Dff("x"),
    "dff2": lambda: Dff2("x"),
    "tff": lambda: Tff("x"),
    "tff2": lambda: Tff2("x"),
    "inverter": lambda: Inverter("x"),
    "balancer": lambda: Balancer("x"),
    "drop": lambda: DropChannel("x", drop_rate=0.0),
    "jitter": lambda: JitterChannel("x", std_fs=0, mean_fs=500),
}

#: Families the sealed kernel leaves on CALL: their random streams live
#: in the cell.
SEALED_CALL = {"drop", "jitter"}


class LoudJtl(Jtl):
    """Overrides ``handle``: must lower to CALL."""

    def handle(self, sim, port, time):
        super().handle(sim, port, time)


class EchoJtl(Jtl):
    """Overrides ``emit``: must lower to CALL."""

    def emit(self, sim, port, time):
        super().emit(sim, port, time)


def _build(factory):
    """The cell under test, each output probed and relayed through an
    unprobed JTL into a probed one, so one circuit holds all three JTL
    opcodes (DELAY1T for a probed one-wire JTL under test)."""
    circuit = Circuit("lowering")
    cell = circuit.add(factory())
    probes = []
    for out in cell.output_names:
        relay = circuit.add(Jtl(f"relay_{out}"))
        sink = circuit.add(Jtl(f"sink_{out}"))
        circuit.connect(cell, out, relay, "a", delay=300)
        circuit.connect(relay, "q", sink, "a")
        probes += [(cell, out), (sink, "q")]
    recorders = {
        (element.name, port): circuit.probe(element, port)
        for element, port in probes
    }
    return circuit, cell, probes, recorders


def _stimulus(cell):
    """Three rounds over the input ports: in port order, with the last
    two swapped (an NDRO set then read before its reset), and 150 fs
    apart (merger collisions, balancer pairs and t_BFF hazards); then
    two more pulses on the last port (a re-armed inverter's clock)."""
    last = len(cell.input_names) - 1
    return {
        port: [i * 1_000, 20_000 + (2 * i % 3) * 1_000, 40_000 + i * 150]
        + ([60_000, 60_500] if i == last else [])
        for i, port in enumerate(cell.input_names)
    }


def _state(element):
    return tuple(getattr(element, attr, None) for attr in STATE_ATTRS)


def _run_scalar(factory, kernel):
    circuit, cell, _probes, recorders = _build(factory)
    sim = Simulator(circuit, kernel=kernel)
    for port, times in _stimulus(cell).items():
        sim.schedule_train(cell, port, times)
    stats = sim.run()
    return circuit, cell, {
        "recordings": {
            key: sorted(recorder.times) for key, recorder in recorders.items()
        },
        "events": stats.events_processed,
        "pulses": stats.pulses_emitted,
        "state": [_state(element) for element in circuit.elements],
    }


def _run_batch(factory):
    circuit, cell, probes, _recorders = _build(factory)
    sim = BatchSimulator(circuit, batch=2)
    for port, times in _stimulus(cell).items():
        sim.schedule_train(cell, port, times)
    stats = sim.run()
    return circuit, cell, {
        "recordings": {
            (element.name, port): sim.port_times(element, port, 1)
            for element, port in probes
        },
        "events": int(stats.events[1]),
        "pulses": int(stats.pulses[1]),
        "state": [
            tuple(sim.element_attr(element, attr, 1) for attr in STATE_ATTRS)
            for element in circuit.elements
        ],
    }


def _sealed_kind(circuit, element, port):
    return circuit._ops[(id(element), port)][0]


def _batch_kind(circuit, element, port):
    return circuit.seal_batch().inports[id(element)][port][1][0]


def test_every_family_has_a_cell_and_covers_its_ports():
    assert set(FAMILY_CELLS) == set(PORTS)
    for family, factory in FAMILY_CELLS.items():
        cell = factory()
        assert family_of(cell) == family
        assert set(PORTS[family]) == set(cell.input_names)


@pytest.mark.parametrize("family", sorted(PORTS))
def test_every_port_lowers_to_a_dispatched_opcode_in_both_kernels(family):
    factory = FAMILY_CELLS[family]
    _c, _e, reference = _run_scalar(factory, "reference")
    circuit, cell, sealed = _run_scalar(factory, "sealed")
    assert sealed == reference
    assert sealed["pulses"] > 0
    batch_circuit, batch_cell, batch = _run_batch(factory)
    assert batch == sealed
    for port in cell.input_names:
        opcode = PORTS[family][port][0]
        if family == "jtl":
            opcode = DELAY1T  # probed, one wire to its relay
        sealed_opcode = CALL if family in SEALED_CALL else opcode
        assert _sealed_kind(circuit, cell, port) == sealed_opcode
        assert _batch_kind(batch_circuit, batch_cell, port) == opcode
    for kind_of, owner in ((_sealed_kind, circuit), (_batch_kind, batch_circuit)):
        relay, sink = owner.elements[1:3]
        assert kind_of(owner, relay, "a") == DELAY1
        assert kind_of(owner, sink, "a") == DELAYN


def test_balancer_is_inline_and_keeps_the_sealed_drain_monotonic():
    circuit, cell, _result = _run_scalar(FAMILY_CELLS["balancer"], "sealed")
    assert circuit._compiled.monotonic


def test_inherited_handle_is_inlined():
    factory = lambda: IdealMerger("x")  # noqa: E731
    assert family_of(factory()) == "merger"
    _c, _e, reference = _run_scalar(factory, "reference")
    circuit, cell, sealed = _run_scalar(factory, "sealed")
    assert sealed == reference
    batch_circuit, batch_cell, batch = _run_batch(factory)
    assert batch == sealed
    for port in cell.input_names:
        opcode = PORTS["merger"][port][0]
        assert _sealed_kind(circuit, cell, port) == opcode
        assert _batch_kind(batch_circuit, batch_cell, port) == opcode


@pytest.mark.parametrize("cls", [LoudJtl, EchoJtl])
def test_overridden_handle_or_emit_lowers_to_call(cls):
    factory = lambda: cls("x")  # noqa: E731
    assert family_of(factory()) is None
    _c, _e, reference = _run_scalar(factory, "reference")
    circuit, cell, sealed = _run_scalar(factory, "sealed")
    assert sealed == reference
    assert _sealed_kind(circuit, cell, "a") == CALL
    assert not circuit._compiled.monotonic
    batch_circuit, batch_cell, batch = _run_batch(factory)
    assert batch == sealed
    assert _batch_kind(batch_circuit, batch_cell, "a") == CALL
