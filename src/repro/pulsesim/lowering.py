"""One cell-to-opcode lowering for the sealed and batch kernels.

Every accelerator in the paper is built from one cell library: the
Table 1 gates plus the section 4.2-B balancer, the adder of every
counting network, DPU and FIR.  This module is the only place that
library becomes opcodes:

* :func:`families` maps each cell's ``handle`` *function* to a family,
  so a subclass that inherits ``handle`` (``IdealMerger``) lowers like
  its parent, while one that overrides ``handle`` or ``emit`` runs
  through the generic ``CALL`` opcode;
* :data:`PORTS` maps each input port of a family to its opcode, the cell
  constants the program carries, and the outputs it emits on;
  :data:`STATE` lists the attributes holding the family's run state.

Both executors dispatch on the one numbering below.  A program is a flat
list ``[opcode, slot, *operands, *emission]``.  ``slot`` is where the
cell's state lives (absent for JTL and splitter): the cell object in the
sealed kernel, a state-row index in the batch kernel.  ``operands`` are
the cell attributes :data:`PORTS` names (``"port"``: the input port
itself).  An emission ``(cell delay, taps, rows)`` is spliced in flat
for one output and packed as a tuple of emissions, in output order, for
two.  Rows are ``(packed priority base, cell + wire delay, sink
program)``; taps are what the executor records a probed pulse with.
A JTL with exactly one wire lowers to ``DELAY1`` (unprobed) or
``DELAY1T`` (probed) with that row spliced in flat.  The sealed loop
tests ``kind <= 5`` first, so that group holds the hottest opcodes.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple

from repro.pulsesim.element import Element
from repro.pulsesim.netlist import Circuit

#: Packed sort keys are ``priority * SEQ_SPAN + sequence``; the sequence
#: counter would need 2**48 events (years of wall clock) to overflow into
#: the priority bits.
SEQ_SPAN = 1 << 48

# Opcodes, with their program layouts.
CALL = 0  # [0, element, port]                      generic cell
DELAY1 = 1  # [1, kb, dly, nop]                       JTL, 1 wire, unprobed
MERGER = 2  # [2, slot, dead, dq, taps, rows]         merger (dead time)
MULTI = 3  # [3, (em_q1, em_q2)]                     splitter
STORE1 = 4  # [4, slot]                               state = 1
STORE0 = 5  # [5, slot]                               state = 0
BAL = 6  # [6, slot, port, t_bff, coinc, (em_y1, em_y2)]  balancer
NDRO = 7  # [7, slot, dq, taps, rows]               NDRO clk
TFF = 8  # [8, slot, dq, taps, rows]               TFF a
DELAY1T = 9  # [9, dq, taps, kb, dly, nop]             JTL, 1 wire, probed
DELAYN = 10  # [10, dq, taps, rows]                    JTL, other fanout
INV = 11  # [11, slot, dq, taps, rows]              inverter clk
DISARM = 12  # [12, slot]                              inverter a
DFF = 13  # [13, slot, dq, taps, rows]              DFF clk / DFF2 c1,c2
TFF2 = 14  # [14, slot, (em_q1, em_q2)]              TFF2 a
DROP = 15  # [15, slot, dq, taps, rows]              DropChannel a
JITTER = 16  # [16, slot, dq, taps, rows]              JitterChannel a

_Q = ("q",)
_SET = (STORE1, (), ())

#: family -> {input port: (opcode, operands, output ports)}.
PORTS: Dict[str, Dict[str, tuple]] = {
    "jtl": {"a": (DELAYN, (), _Q)},
    "splitter": {"a": (MULTI, (), ("q1", "q2"))},
    "merger": {p: (MERGER, ("dead_time",), _Q) for p in ("a", "b")},
    "ndro": {"set": _SET, "reset": (STORE0, (), ()), "clk": (NDRO, (), _Q)},
    "dff": {"d": _SET, "clk": (DFF, (), _Q)},
    "dff2": {"a": _SET, "c1": (DFF, (), ("y1",)), "c2": (DFF, (), ("y2",))},
    "tff": {"a": (TFF, (), _Q)},
    "tff2": {"a": (TFF2, (), ("q1", "q2"))},
    "inverter": {"a": (DISARM, (), ()), "clk": (INV, (), _Q)},
    "balancer": {
        p: (BAL, ("port", "t_bff_fs", "coincidence_fs"), ("y1", "y2"))
        for p in ("a", "b")
    },
    "drop": {"a": (DROP, (), _Q)},
    "jitter": {"a": (JITTER, (), _Q)},
}

#: family -> ``(attribute, store)`` per state attribute; a family listed
#: here gets a slot.  ``store`` names the kind of value, which the batch
#: kernel keeps in one array (or fault-state field) per store.
STATE: Dict[str, tuple] = {
    "merger": (("collisions", "mcoll"), ("_last_accept", "mlast")),
    "ndro": (("state", "u8"), ("reads", "reads")),
    "dff": (("state", "u8"),),
    "dff2": (("state", "u8"),),
    "tff": (("state", "u8"),),
    "tff2": (("state", "u8"),),
    "inverter": (("_armed", "armed"),),
    "balancer": (("state", "bstate"), ("hazard_events", "bhaz")),
    "drop": (("pulses_seen", "seen"), ("pulses_dropped", "lost")),
    "jitter": (
        ("pulses_seen", "seen"),
        ("pulses_displaced", "lost"),
        ("max_displacement_fs", "peak"),
    ),
}

_families: Optional[Dict[object, str]] = None


def families() -> Dict[object, str]:
    """``handle function -> family``, built lazily so the kernels stay
    importable before the cell library."""
    global _families
    if _families is None:
        from repro.cells.interconnect import Jtl, Merger, Splitter
        from repro.cells.logic import Inverter
        from repro.cells.storage import Dff, Dff2, Ndro
        from repro.cells.toggle import Tff, Tff2
        from repro.core.balancer import Balancer
        from repro.pulsesim.faults import DropChannel, JitterChannel

        _families = {
            Jtl.handle: "jtl",
            Splitter.handle: "splitter",
            Merger.handle: "merger",
            Ndro.handle: "ndro",
            Dff.handle: "dff",
            Dff2.handle: "dff2",
            Tff.handle: "tff",
            Tff2.handle: "tff2",
            Inverter.handle: "inverter",
            Balancer.handle: "balancer",
            DropChannel.handle: "drop",
            JitterChannel.handle: "jitter",
        }
    return _families


def family_of(element: Element) -> Optional[str]:
    """The element's family, or None when it must run through ``CALL``."""
    cls = type(element)
    if cls.emit is not Element.emit:
        return None
    return families().get(cls.handle)


class Lowering:
    """Writes the programs of one circuit for one executor.

    ``ops`` maps ``(id(element), port)`` to each port's program list,
    which is patched in place so queued events never hold stale routing.
    Subclasses supply what differs between executors: :meth:`taps_of`
    (how a probed output records) and :meth:`slot_of` (where a cell's
    state lives).  :attr:`INLINE` names the families the executor runs
    natively; every other cell lowers to ``CALL``.
    """

    INLINE: FrozenSet[str] = frozenset(PORTS)

    def __init__(self, circuit: Circuit, ops: Dict[Tuple[int, str], list]):
        self.circuit = circuit
        self.ops = ops

    def taps_of(self, element: Element, port: str) -> tuple:
        raise NotImplementedError

    def slot_of(self, family: str, element: Element):
        raise NotImplementedError

    def op_of(self, element: Element, port: str) -> list:
        return self.ops.setdefault((id(element), port), [])

    def rows(self, element: Element, port: str, base: int) -> tuple:
        """Fanout rows of one output, ``base`` folded into each delay."""
        return tuple(
            (
                wire.sink.input_priority(wire.sink_port) * SEQ_SPAN,
                base + wire.delay,
                self.op_of(wire.sink, wire.sink_port),
            )
            for wire in self.circuit._fanout.get((id(element), port), ())
        )

    def emit_table(self, element: Element) -> Dict[str, tuple]:
        """``{output port: (taps, rows)}`` at zero base delay: the view for
        pulses a cell hands to ``emit`` already delayed."""
        return {
            port: (self.taps_of(element, port), self.rows(element, port, 0))
            for port in element.output_names
        }

    def emission(self, element: Element, port: str) -> tuple:
        # Fault channels carry no fixed delay: a drop channel emits at the
        # arrival time and a jitter channel adds its drawn delay at run time.
        delay = getattr(element, "delay", 0)
        return (delay, self.taps_of(element, port), self.rows(element, port, delay))

    def lower(self, element: Element) -> Tuple[Optional[str], Dict[str, tuple]]:
        """Write the programs of ``element``'s input ports.

        Returns its family (None when it runs through ``CALL``) and its
        arrival table ``{input port: (packed priority base, program)}``.
        """
        arrivals = {
            port: (element.input_priority(port) * SEQ_SPAN, self.op_of(element, port))
            for port in element.input_names
        }
        family = family_of(element)
        if family is None or family not in self.INLINE:
            for port, (_kb, op) in arrivals.items():
                op[:] = [CALL, element, port]
            return None, arrivals
        head = [self.slot_of(family, element)] if family in STATE else []
        for port, (_kb, op) in arrivals.items():
            opcode, operands, outs = PORTS[family][port]
            body: list = [opcode, *head]
            body.extend(
                port if name == "port" else getattr(element, name)
                for name in operands
            )
            if len(outs) == 1:
                dq, taps, rows = self.emission(element, outs[0])
                if opcode == DELAYN and len(rows) == 1:
                    body = [DELAY1T, dq, taps] if taps else [DELAY1]
                    body.extend(rows[0])
                else:
                    body.extend((dq, taps, rows))
            elif outs:
                body.append(tuple(self.emission(element, out) for out in outs))
            op[:] = body
        return family, arrivals
