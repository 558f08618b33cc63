"""Program process for the in-process workloads (``synth-sim``, ``suite``).

Run by ``run.py``, never by hand::

    python perfbench/inproc.py --workload synth-sim --seed 0/0 --seconds 2 \\
        --trace 0

The process imports the program, builds its seeded inputs, runs one
warm-up operation outside the measured set and prints ``ready``; the
orchestrator's clock from spawn to that line is one ``setup_s`` sample.
Then it runs the closed loop for ``--seconds``, checks every answer, and
prints one JSON line with the latencies, counts and its own peak memory
(it is the process that runs the program).  Calibration chunks run
between operations (``common.HostClock``), outside their own times.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
import time
import traceback
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from common import HostClock, clock_fields, vm_hwm_mb
from tracer import Tracer, install

#: One operation: returns (answer correct, per-op values for the trace).
Operation = Callable[[], Tuple[bool, Dict[str, float]]]

#: ``synth-sim`` program shape: an N x N matvec whose row 0 feeds a tap chain.
MATVEC_N = 6
TAPS = 4
BITS = (6, 7)


def synth_spec(rng: random.Random, name: str, bits: int) -> Any:
    """One fixed-shape dataflow program with seeded levels and weights."""
    from repro.synth import dataflow_spec

    n_max = 1 << bits
    nodes: List[Dict[str, Any]] = [
        {"id": f"x{i}", "op": "const", "encoding": "stream",
         "level": rng.randrange(n_max + 1)}
        for i in range(MATVEC_N)
    ]
    nodes.append({
        "id": "mv",
        "op": "matvec",
        "args": [f"x{i}" for i in range(MATVEC_N)],
        "matrix": [
            [rng.randrange(n_max + 1) for _ in range(MATVEC_N)]
            for _ in range(MATVEC_N)
        ],
    })
    nodes.append({
        "id": "fir",
        "op": "tap",
        "args": ["mv.y0"],
        "taps": [rng.randrange(n_max + 1) for _ in range(TAPS)],
        "spacing": rng.randint(1, 3),
    })
    outputs = ["fir"] + [f"mv.y{i}" for i in range(1, MATVEC_N)]
    return dataflow_spec(name, bits, nodes, outputs)


def synth_ops(seed: str) -> Iterator[Operation]:
    """compile -> emit -> lint -> simulate, one seeded program each."""
    from repro.synth import api

    def operation(spec: Any) -> Tuple[bool, Dict[str, float]]:
        program = api.compile_spec(spec)
        emitted = json.loads(program.to_json())
        report = api.lint_program(program)
        outcome = program.simulate()
        expected = {port.ref: port.expected_level for port in program.outputs}
        correct = (
            not report.diagnostics
            and outcome.levels == expected
            and outcome.collisions == 0
            and emitted["spec_key"] == spec.key()
        )
        return correct, {"synth.jj": program.stats["jj"]}

    warm = random.Random(f"perfbench-synth-warmup/{seed}")
    yield lambda: operation(synth_spec(warm, "warmup", BITS[-1]))
    # Widths alternate rather than being drawn: a 7-bit program costs
    # ~25 % more than a 6-bit one, and a drawn share would move the
    # latency median between seeds.
    rng = random.Random(f"perfbench-synth/{seed}")
    for index in itertools.count():
        spec = synth_spec(rng, f"op{index}", BITS[index % len(BITS)])
        yield lambda spec=spec: operation(spec)


def suite_ops(seed: str) -> Iterator[Operation]:
    """One full ``run_suite`` pass as ``usfq-experiments --no-cache`` runs
    it (a cold recompute of every experiment), claims checked.

    The suite's inputs are the paper's fixed experiments; ``seed`` is
    recorded but selects nothing.
    """
    from repro.experiments import fig19_accuracy
    from repro.experiments.registry import EXPERIMENTS
    from repro.runner import run_suite

    ids = list(EXPERIMENTS)
    split = ("fig19", "shard", "validation")

    def operation() -> Tuple[bool, Dict[str, float]]:
        # fig19 memoises its structural batch-kernel run per process; a
        # --no-cache invocation runs in a fresh process and pays for it,
        # so every pass does too.
        memo = getattr(fig19_accuracy, "_STRUCTURAL_CACHE", None)
        if memo is not None:
            memo.clear()
        started = time.perf_counter()
        report = run_suite(ids, jobs=1, cache=None)
        wall = time.perf_counter() - started
        outcomes = report.outcomes
        correct = sorted(outcomes) == sorted(ids) and all(
            outcome.failures == 0 and outcome.result.claims
            for outcome in outcomes.values()
        )
        compute = {k: outcome.compute_time_s for k, outcome in outcomes.items()}
        values = {f"experiments.{k}": compute.get(k, 0.0) for k in split}
        values["experiments.other"] = sum(
            t for k, t in compute.items() if k not in split
        )
        values["runner.overhead"] = wall - sum(compute.values())
        return bool(correct), values

    while True:
        yield operation


WORKLOADS = {"synth-sim": synth_ops, "suite": suite_ops}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", required=True, help="run seed/process index")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tracer: Optional[Tracer] = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    ops = WORKLOADS[args.workload](args.seed)
    warm_correct, _ = next(ops)()
    if not warm_correct:
        print("warm-up operation answered wrongly", file=sys.stderr)
        return 1
    print("ready", flush=True)

    records: List[Dict[str, float]] = []
    attempted = correct = 0
    clock = HostClock()
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        operation = next(ops)
        if tracer is not None:
            tracer.begin()
        op_started = time.perf_counter()
        try:
            ok, values = operation()
        except Exception:  # noqa: BLE001 - a crash is a failed operation
            traceback.print_exc()
            ok, values = False, {}
        latency = time.perf_counter() - op_started
        attempted += 1
        correct += ok
        if tracer is not None:
            records.append(tracer.end(op=latency, **values))
        clock.record(latency)
    clock.calibrate()
    print(json.dumps({
        "attempted": attempted,
        "correct": correct,
        **clock_fields(clock),
        "peak_rss_mb": vm_hwm_mb("self"),
        "ops": records,
        "extras": {},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
