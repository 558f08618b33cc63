"""Outside-in layer tracer: times calls into each layer's public functions.

The tracer lives in the benchmark, not in ``src/repro``: :func:`install`
replaces a fixed set of public functions and methods with timing
wrappers, inside the one process that runs the program (the server for
the serve workloads, the in-process child otherwise).  Each wrapper adds
its wall time to the record of the operation in flight; calls outside an
operation (warm-up, boot) land in a scratch record that is dropped.

A wrapper may also book a *self* time: its own duration minus what its
named children added to the record during the call.  Self times and
leaf times are disjoint, which is what lets ``layers.py`` check that the
layer times plus an explicit remainder sum to the operation latency.

Every workload runs one closed-loop client, so at most one operation is
in flight and a single current record is enough.
"""

from __future__ import annotations

import functools
import time
import weakref
from collections import defaultdict
from typing import Any, Callable, DefaultDict, Dict, List, Optional, Sequence

Counter = Callable[[Sequence[Any], Any], int]


class Tracer:
    """Per-operation records of layer times (seconds) and counts."""

    def __init__(self) -> None:
        self.ops: List[Dict[str, float]] = []
        self._op: DefaultDict[str, float] = defaultdict(float)
        self._depth: DefaultDict[str, int] = defaultdict(int)

    # -- operation boundaries ---------------------------------------------------
    def begin(self) -> None:
        self._op = defaultdict(float)

    def end(self, **values: float) -> Dict[str, float]:
        record = dict(self._op)
        record.update(values)
        self.ops.append(record)
        self._op = defaultdict(float)
        return record

    # -- wrappers -----------------------------------------------------------------
    def _book(
        self,
        op: DefaultDict[str, float],
        key: str,
        elapsed: float,
        self_key: Optional[str],
        children: Sequence[str],
        before: Sequence[float],
    ) -> None:
        op[key] += elapsed
        if self_key is not None:
            nested = sum(op[child] - b for child, b in zip(children, before))
            op[self_key] += elapsed - nested

    def wrap(
        self,
        owner: Any,
        attr: str,
        key: str,
        self_key: Optional[str] = None,
        children: Sequence[str] = (),
        count: Optional[Counter] = None,
    ) -> None:
        """Time ``owner.attr`` (a function or plain method) under ``key``.

        Re-entrant calls of the same key are timed once, by the outermost
        call.  ``count(args, result)`` adds to ``key + "_events"``.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def timed(*args: Any, **kwargs: Any) -> Any:
            if tracer._depth[key]:
                return original(*args, **kwargs)
            op = tracer._op
            before = [op[child] for child in children]
            pre = count(args, None) if count is not None else 0
            tracer._depth[key] += 1
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                tracer._depth[key] -= 1
                tracer._book(op, key, elapsed, self_key, children, before)
            if count is not None:
                op[key + "_events"] += count(args, result) - pre
            return result

        setattr(owner, attr, timed)

    def wrap_async(
        self,
        owner: Any,
        attr: str,
        key: str,
        self_key: Optional[str] = None,
        children: Sequence[str] = (),
        boundary: Optional[Callable[[Sequence[Any]], bool]] = None,
    ) -> None:
        """Time a coroutine method; ``boundary(args)`` true makes the call
        one whole operation (its own record)."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        async def timed(*args: Any, **kwargs: Any) -> Any:
            if boundary is not None:
                if not boundary(args):
                    return await original(*args, **kwargs)
                tracer.begin()
            op = tracer._op
            before = [op[child] for child in children]
            started = time.perf_counter()
            try:
                return await original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                tracer._book(op, key, elapsed, self_key, children, before)
                if boundary is not None:
                    tracer.end()

        setattr(owner, attr, timed)


def _sealed_events(args: Sequence[Any], result: Any) -> int:
    # Simulator stats accumulate over resumed runs; the wrapper books the delta.
    return int(args[0].stats.events_processed)


def _batch_counter() -> Counter:
    # BatchStats totals accumulate over resumed runs of one simulator.
    seen: "weakref.WeakKeyDictionary[Any, int]" = weakref.WeakKeyDictionary()

    def events(args: Sequence[Any], result: Any) -> int:
        if result is None:
            return seen.get(args[0], 0)
        seen[args[0]] = int(result.events_total)
        return seen[args[0]]

    return events


def _shard_events(args: Sequence[Any], result: Any) -> int:
    return 0 if result is None else int(result.events_processed)


def install(tracer: Tracer, serve: bool = False) -> None:
    """Wrap every traced layer entry point (``serve``: the HTTP service)."""
    from repro.core import dpu
    from repro.pulsesim import batch, kernel
    from repro.shard import engine as shard_engine
    from repro.synth import api as synth_api, lower

    tracer.wrap(kernel, "compile_circuit", "pulsesim.compile")
    tracer.wrap(batch, "compile_batch", "pulsesim.compile")
    tracer.wrap(
        batch.BatchSimulator, "run", "pulsesim.batch_run", count=_batch_counter()
    )
    tracer.wrap(
        kernel.SealedSimulator, "run", "pulsesim.sealed_run", count=_sealed_events
    )
    tracer.wrap(
        shard_engine.ShardSimulator, "run", "shard.run", count=_shard_events
    )
    tracer.wrap(
        dpu.DotProductUnit,
        "run_counts_batch",
        "core.dpu_batch",
        self_key="core.dpu_stimulus",
        children=("pulsesim.batch_run",),
    )
    tracer.wrap(synth_api, "expand_spec", "synth.expand")
    tracer.wrap(synth_api, "optimize_graph", "synth.opt")
    tracer.wrap(synth_api, "evaluate", "synth.refeval")
    tracer.wrap(synth_api, "lower_graph", "synth.lower")
    tracer.wrap(synth_api, "lint_program", "lint.check")
    tracer.wrap(lower.CompiledProgram, "to_json", "synth.emit")
    tracer.wrap(
        lower.CompiledProgram,
        "simulate",
        "synth.simulate",
        self_key="synth.decode",
        children=("pulsesim.sealed_run",),
    )
    if not serve:
        return
    from repro.serve import batcher, engine, protocol, server, workers

    tracer.wrap(server, "parse_request", "serve.parse")
    tracer.wrap(protocol.Request, "cache_key", "serve.cache_key")
    tracer.wrap(
        engine.ComputeEngine,
        "execute_group",
        "serve.engine",
        self_key="serve.engine_self",
        children=("core.dpu_batch",),
    )
    tracer.wrap_async(
        workers.ExecutionTier,
        "execute",
        "serve.execute",
        self_key="serve.exec_hop",
        children=("serve.engine",),
    )
    tracer.wrap_async(
        batcher.MicroBatcher,
        "submit",
        "serve.submit",
        self_key="serve.batcher_wait",
        children=("serve.execute",),
    )
    tracer.wrap_async(
        server.ServeService,
        "handle",
        "serve.handle",
        self_key="serve.handle_self",
        children=("serve.parse", "serve.cache_key", "serve.submit"),
        boundary=lambda args: args[2] == "/v1/compute",
    )
