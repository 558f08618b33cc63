"""Oracle matrix: every property holds on generated circuits, and each
oracle actually has teeth (a seeded defect trips it)."""

import pytest
from hypothesis import given, settings

from repro.errors import VerificationError
from repro.verify.generator import example_rng, generate_spec, profile
from repro.verify.oracles import (
    ORACLES,
    TIE_ORDER_SENSITIVE,
    oracle_drop_identity,
    oracle_kernel_differential,
    oracle_merger_commutativity,
    oracle_time_shift,
    run_oracle,
)
from repro.verify.spec import CellSpec, NetlistSpec, WireSpec
from tests.strategies import verify_specs


@settings(max_examples=25, deadline=None)
@given(verify_specs())
def test_full_matrix_holds_on_generated_specs(spec):
    for name, oracle in ORACLES.items():
        result = oracle(spec)
        assert result.ok, f"{name}: {result.detail}"
        assert result.oracle == name


def test_run_oracle_by_name_and_unknown_name():
    spec = generate_spec(example_rng(0, 0), profile("smoke"))
    assert run_oracle("lint-clean", spec).ok
    with pytest.raises(VerificationError, match="unknown oracle"):
        run_oracle("vibes", spec)


def test_merger_commutativity_inapplicable_without_mergers():
    spec = NetlistSpec(cells=(CellSpec("Jtl", (WireSpec(0),)),),
                       stimulus=(0,))
    result = oracle_merger_commutativity(spec)
    assert result.ok and not result.applicable


def test_identity_oracles_gate_on_tie_order_sensitive_cells():
    assert TIE_ORDER_SENSITIVE == {"Bff", "Balancer", "Dff2", "Mux", "Demux"}
    spec = NetlistSpec(
        cells=(
            CellSpec("Splitter", (WireSpec(0),)),
            CellSpec("Splitter", (WireSpec(2),)),
            CellSpec("Bff", (WireSpec(1), WireSpec(3),
                             WireSpec(4), WireSpec(5))),
        ),
        stimulus=(0, 1_000),
    )
    result = oracle_drop_identity(spec)
    assert result.ok and not result.applicable
    assert "tie-order" in result.detail
    # Simultaneous a/b pulses pair up or hit the t_BFF hazard by pop order.
    balancer = NetlistSpec(
        cells=(CellSpec("Balancer", (WireSpec(0), WireSpec(1))),),
        stimulus=(0, 0),
    )
    result = oracle_drop_identity(balancer)
    assert result.ok and not result.applicable


def test_kernel_differential_catches_a_reference_only_defect():
    """A cell whose reference ``handle`` drifts from its sealed inline
    opcode is exactly what the differential oracle trips on."""
    from repro.cells import Tff

    from tests.verify.helpers import inline_defect

    spec = NetlistSpec(cells=(CellSpec("Tff", (WireSpec(0),)),),
                       stimulus=(0, 5_000, 10_000, 15_000))
    assert oracle_kernel_differential(spec).ok

    original = Tff.handle

    def sticky(self, sim, port, time):  # never toggles back
        self.state = 1
        original(self, sim, port, time)

    with inline_defect(Tff, sticky):
        result = oracle_kernel_differential(spec)
    assert not result.ok
    assert result.detail


def test_time_shift_catches_absolute_time_defects(monkeypatch):
    """A cell that latches absolute timestamps into its behaviour breaks
    time-translation symmetry — and only that oracle sees it."""
    from repro.cells import Jtl

    spec = NetlistSpec(cells=(CellSpec("Jtl", (WireSpec(0),)),),
                       stimulus=(2_000, 9_000))
    assert oracle_time_shift(spec).ok

    def warped(self, sim, port, time):
        # Extra delay only before t=10ps: not shift-equivariant.
        self.emit(sim, "q", time + self.delay + (100 if time < 10_000 else 0))

    monkeypatch.setattr(Jtl, "handle", warped)
    assert not oracle_time_shift(spec).ok


def test_drop_identity_catches_lossy_channels(monkeypatch):
    """If a zero-rate DropChannel ever ate a pulse, the splice oracle
    notices immediately."""
    from repro.pulsesim.faults import DropChannel

    spec = NetlistSpec(cells=(CellSpec("Jtl", (WireSpec(0),)),),
                       stimulus=(0, 3_000))
    assert oracle_drop_identity(spec).ok

    def lossy(self, sim, port, time):
        self.pulses_seen += 1  # drops everything regardless of rate

    monkeypatch.setattr(DropChannel, "handle", lossy)
    result = oracle_drop_identity(spec)
    assert not result.ok
    assert "recordings" in result.detail or "state" in result.detail
