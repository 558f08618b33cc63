#!/usr/bin/env python3
"""The benchmark's own test: exact counts repeat, and the output is whole.

Runs each workload's traced run twice on one seed and requires:

* both result lines to have exactly the contract's keys, every answer
  correct, and every ``per_layer`` metric of BENCHMARK.json present;
* every count marked exact (``layers.EXACT_METRICS``) to be identical in
  both runs and, on the default seed, equal to ``EXPECTED``;
* every layer the workload reaches (``REACHED``) to read more than 0, so
  a tracer hook that stops firing fails here instead of reading 0.

A change that only speeds up a simulator must leave the counts
unchanged; one that changes what is simulated updates ``EXPECTED`` and
says why.  Usage, from the root of a checkout::

    python3 perfbench/selftest.py [--workload NAME ...] [--seed N] [--seconds S]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict, List, Optional, Tuple

from common import ROOT
from layers import EXACT_METRICS
from run import WORKLOADS


#: The default seed, on which the exact counts must equal ``EXPECTED``.
SEED = 7

_NONE = {name: 0 for name in EXACT_METRICS}

#: ``EXACT_METRICS`` of each workload's traced run on ``SEED``.
EXPECTED: Dict[str, Dict[str, float]] = {
    "serve-dpu": dict(
        _NONE, **{"serve.batch_lanes_mean": 1.0, "pulsesim.batch_events": 27394}
    ),
    "serve-mix": dict(
        _NONE, **{"serve.cache_hit_ratio": 8 / 64, "serve.batch_lanes_mean": 1.0}
    ),
    "synth-sim": dict(
        _NONE, **{"pulsesim.sealed_events": 68793, "synth.jj_total": 8421}
    ),
    "suite": dict(
        _NONE,
        **{
            "pulsesim.batch_events": 1572864,
            "pulsesim.sealed_events": 169986,
            "shard.events": 65186,
        },
    ),
}

_TRACE = ("trace.latency_ms", "trace.goodput_per_s", "trace.ops")
_SERVE = (
    "serve.http_ms", "serve.handle_self_us", "serve.parse_us",
    "serve.cache_key_us", "serve.batcher_wait_ms", "serve.batch_lanes_mean",
    "serve.exec_hop_ms", "serve.engine_ms",
)

#: Per-layer metrics each workload's traced run must read above 0.
REACHED: Dict[str, Tuple[str, ...]] = {
    "serve-dpu": _TRACE + _SERVE + (
        "core.dpu_batch_ms", "core.dpu_stimulus_ms", "pulsesim.batch_run_ms",
        "pulsesim.batch_events", "pulsesim.batch_events_per_s",
    ),
    "serve-mix": _TRACE + _SERVE + ("serve.cache_hit_ratio",),
    "synth-sim": _TRACE + (
        "synth.expand_ms", "synth.opt_ms", "synth.refeval_ms",
        "synth.lower_ms", "synth.emit_ms", "synth.decode_ms",
        "synth.jj_total", "lint.check_ms", "pulsesim.compile_ms",
        "pulsesim.sealed_run_ms", "pulsesim.sealed_events",
        "pulsesim.sealed_events_per_s",
    ),
    "suite": _TRACE + (
        "runner.overhead_ms", "experiments.fig19_ms", "experiments.shard_ms",
        "experiments.validation_ms", "experiments.other_ms", "shard.run_ms",
        "shard.events", "pulsesim.compile_ms", "pulsesim.batch_run_ms",
        "pulsesim.batch_events", "pulsesim.sealed_run_ms",
        "pulsesim.sealed_events",
    ),
}


def traced_run(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    completed = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--seconds", type=float, default=4.0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        per_layer = {metric["name"] for metric in json.load(handle)["per_layer"]}

    problems: List[str] = []
    for workload in args.workload or WORKLOADS:
        runs = [traced_run(workload, args.seed, args.seconds) for _ in range(2)]
        exact = []
        for result in runs:
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload}: {result['failed']} failed")
            values = {name: m["value"] for name, m in result["metrics"].items()}
            if set(values) != per_layer:
                problems.append(
                    f"{workload}: metrics differ from BENCHMARK.json: "
                    f"{sorted(set(values) ^ per_layer)}"
                )
            silent = [n for n in REACHED[workload] if not values.get(n, 0) > 0]
            if silent:
                problems.append(f"{workload}: layers read 0: {silent}")
            exact.append({name: values.get(name) for name in EXACT_METRICS})
        if exact[0] != exact[1]:
            problems.append(f"{workload}: exact counts differ: {exact}")
        if args.seed == SEED and exact[0] != EXPECTED[workload]:
            problems.append(
                f"{workload}: exact counts {exact[0]}, "
                f"expected {EXPECTED[workload]}"
            )
        print(f"{workload}: {exact[0]}", flush=True)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
