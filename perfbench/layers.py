"""Per-layer metrics of a traced run, computed from the tracer's records.

Every record is one measured operation: layer times in seconds (keys as
booked by ``tracer.py``), event counts, and ``op``, the operation's
latency as its caller saw it.  Times are reported as the mean per
operation, so disjoint layer times add up: the workload's ``COMPONENTS``
plus ``trace.other_ms`` equal ``trace.latency_ms``.  Counts marked exact
are summed over the first ``EXACT_OPS`` operations, which a given seed
fixes, so they repeat bit for bit.  A layer a workload never reaches
reads 0.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

#: Operations whose counts form the exact (seed-determined) invariants.
EXACT_OPS = {"serve-dpu": 16, "serve-mix": 64, "synth-sim": 8, "suite": 2}

#: Metrics that must repeat bit for bit for a given workload and seed.
EXACT_METRICS = (
    "serve.cache_hit_ratio",
    "serve.batch_lanes_mean",
    "pulsesim.batch_events",
    "pulsesim.sealed_events",
    "synth.jj_total",
    "shard.events",
)

_SERVE = (
    "serve.http",
    "serve.handle_self",
    "serve.parse",
    "serve.cache_key",
    "serve.batcher_wait",
    "serve.exec_hop",
    "serve.engine_self",
    "core.dpu_stimulus",
    "pulsesim.batch_run",
)

#: Disjoint layer times that, with the remainder, make up one operation.
COMPONENTS: Dict[str, Sequence[str]] = {
    "serve-dpu": _SERVE,
    "serve-mix": _SERVE,
    "synth-sim": (
        "synth.expand",
        "synth.refeval",
        "synth.opt",
        "synth.lower",
        "synth.emit",
        "lint.check",
        "pulsesim.sealed_run",
        "synth.decode",
    ),
    "suite": (
        "runner.overhead",
        "experiments.fig19",
        "experiments.shard",
        "experiments.validation",
        "experiments.other",
    ),
}

#: Slack for float round-off and timer granularity in the accounting check.
_TOLERANCE = 0.02


class AccountingError(RuntimeError):
    """Layer times overlap: they exceed the operation they belong to."""


def per_layer(
    workload: str,
    ops: List[Mapping[str, float]],
    wall_s: float,
    correct: int,
    extras: Mapping[str, float],
) -> Dict[str, Dict[str, object]]:
    """Every ``per_layer`` metric of BENCHMARK.json for one traced run."""
    exact_ops = EXACT_OPS[workload]
    if len(ops) < exact_ops:
        raise AccountingError(
            f"{workload}: {len(ops)} traced operations, the exact counts "
            f"need {exact_ops}; raise --seconds"
        )
    count = len(ops)

    def total(key: str) -> float:
        return sum(record.get(key, 0.0) for record in ops)

    def mean(key: str, scale: float = 1e3) -> float:
        return scale * total(key) / count

    def exact(key: str) -> int:
        return int(sum(record.get(key, 0) for record in ops[:exact_ops]))

    def rate(events: str, seconds: str) -> float:
        busy = total(seconds)
        return total(events) / busy if busy else 0.0

    latency_ms = mean("op")
    parts = {key: mean(key) for key in COMPONENTS[workload]}
    other_ms = latency_ms - sum(parts.values())
    slack = _TOLERANCE * latency_ms
    overlapping = {k: v for k, v in parts.items() if v < -slack}
    if overlapping or other_ms < -slack:
        raise AccountingError(
            f"{workload}: layer times {parts} exceed the operation "
            f"latency {latency_ms:.4f} ms (remainder {other_ms:.4f} ms)"
        )

    values = [
        ("serve.http_ms", mean("serve.http"), "ms"),
        ("serve.handle_self_us", mean("serve.handle_self", 1e6), "us"),
        ("serve.parse_us", mean("serve.parse", 1e6), "us"),
        ("serve.cache_key_us", mean("serve.cache_key", 1e6), "us"),
        ("serve.cache_hit_ratio", extras.get("cache_hit_ratio", 0.0), "ratio"),
        ("serve.batcher_wait_ms", mean("serve.batcher_wait"), "ms"),
        ("serve.batch_lanes_mean", extras.get("batch_lanes_mean", 0.0), "lanes"),
        ("serve.exec_hop_ms", mean("serve.exec_hop"), "ms"),
        ("serve.engine_ms", mean("serve.engine"), "ms"),
        ("core.dpu_batch_ms", mean("core.dpu_batch"), "ms"),
        ("core.dpu_stimulus_ms", mean("core.dpu_stimulus"), "ms"),
        ("pulsesim.compile_ms", mean("pulsesim.compile"), "ms"),
        ("pulsesim.batch_run_ms", mean("pulsesim.batch_run"), "ms"),
        ("pulsesim.batch_events", exact("pulsesim.batch_run_events"), "count"),
        (
            "pulsesim.batch_events_per_s",
            rate("pulsesim.batch_run_events", "pulsesim.batch_run"),
            "1/s",
        ),
        ("pulsesim.sealed_run_ms", mean("pulsesim.sealed_run"), "ms"),
        ("pulsesim.sealed_events", exact("pulsesim.sealed_run_events"), "count"),
        (
            "pulsesim.sealed_events_per_s",
            rate("pulsesim.sealed_run_events", "pulsesim.sealed_run"),
            "1/s",
        ),
        ("synth.expand_ms", mean("synth.expand"), "ms"),
        ("synth.opt_ms", mean("synth.opt"), "ms"),
        ("synth.refeval_ms", mean("synth.refeval"), "ms"),
        ("synth.lower_ms", mean("synth.lower"), "ms"),
        ("synth.emit_ms", mean("synth.emit"), "ms"),
        ("synth.decode_ms", mean("synth.decode"), "ms"),
        ("synth.jj_total", exact("synth.jj"), "count"),
        ("lint.check_ms", mean("lint.check"), "ms"),
        ("runner.overhead_ms", mean("runner.overhead"), "ms"),
        ("experiments.fig19_ms", mean("experiments.fig19"), "ms"),
        ("experiments.shard_ms", mean("experiments.shard"), "ms"),
        ("experiments.validation_ms", mean("experiments.validation"), "ms"),
        ("experiments.other_ms", mean("experiments.other"), "ms"),
        ("shard.run_ms", mean("shard.run"), "ms"),
        ("shard.events", exact("shard.run_events"), "count"),
        ("trace.latency_ms", latency_ms, "ms"),
        ("trace.other_ms", other_ms, "ms"),
        ("trace.goodput_per_s", correct / wall_s, "1/s"),
        ("trace.ops", count, "count"),
    ]
    return {name: {"value": value, "unit": unit} for name, value, unit in values}
