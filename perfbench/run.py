#!/usr/bin/env python3
"""The repository's benchmark: four workloads, end-to-end or traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-dpu --seed 0 --seconds 20 --trace 0

Workloads (README.md says why each was chosen):

* ``serve-dpu`` -- distinct ``dpu.dot`` requests over one HTTP connection;
* ``serve-mix`` -- model ops (``pe.*``, ``fir.*``) over one connection,
  an eighth of them repeats that the response cache answers;
* ``synth-sim`` -- compile, emit, lint and simulate a seeded dataflow
  program, in process;
* ``suite`` -- one full ``run_suite`` pass of every experiment, in process.

The program always runs in a child process: the server for the serve
workloads, ``inproc.py`` otherwise.  The benchmark and the program share
one CPU.  ``--trace 0`` reports the ``end_to_end`` metrics of
BENCHMARK.json, in reference seconds (``common.py`` says how the host's
speed is factored out), ``--trace 1`` the ``per_layer`` metrics from a
separate run with the layer tracer installed.  Every answer is checked.
The last stdout line is the result object; the line before it records
the host, the seed, the sample count, the p90 where at least ten samples
lie beyond it, and the same metrics in wall-clock time.  Exit status 2
means the benchmark could not run (for example, no program in the
checkout).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import common
import layers
import serve_load

WORKLOADS = ("serve-dpu", "serve-mix", "synth-sim", "suite")


def run_inproc(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    """Run ``inproc.py`` processes in turn (see ``common.run_processes``)."""

    def part(index: int, part_seconds: float) -> Tuple[float, Dict[str, Any]]:
        started = time.perf_counter()
        proc = common.spawn([
            "perfbench/inproc.py", "--workload", workload,
            "--seed", f"{seed}/{index}", "--seconds", repr(part_seconds),
            "--trace", str(trace),
        ])
        try:
            ready = proc.stdout.readline() if proc.stdout else ""
            setup = time.perf_counter() - started
            if ready.strip() != "ready":
                raise RuntimeError(f"{workload}: program did not set up")
            result = json.loads(proc.stdout.readline() if proc.stdout else "")
        finally:
            common.stop(proc, terminate=False)
        if proc.returncode != 0:
            raise RuntimeError(f"{workload}: program exited {proc.returncode}")
        return setup, result

    return common.run_processes(
        part, 1 if trace else common.PROCESSES, seconds
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not common.program_present():
        print(f"perfbench: no program under {common.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, common.SRC)  # the answer checks use the program

    common.pin_one_cpu()
    host = common.host_stamp()
    measure = serve_load.run if args.workload.startswith("serve-") else run_inproc
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    attempted = result["attempted"]
    correct = result["correct"]
    if attempted < 1:
        print(f"perfbench: {args.workload} attempted nothing", file=sys.stderr)
        return 1
    if args.trace:
        metrics = layers.per_layer(
            args.workload, result["ops"], result["wall_s"], correct,
            result["extras"],
        )
    else:
        metrics = common.end_to_end(result)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "setups_s": result["setups_s"],
        **common.detail(result),
        **result.get("mix", {}),
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": attempted > 0 and correct == attempted,
        "attempted": attempted,
        "failed": attempted - correct,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
