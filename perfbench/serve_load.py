"""The serve workloads: one keep-alive HTTP connection, one fresh server.

The server is ``python -m repro.serve --port 0`` with its defaults (or,
for a traced run, the same CLI behind ``traced_server.py``).  One client
connection is deliberate: a second one makes batch composition depend
on timer races (see README.md).  The client and the server share one
CPU.  The loop is closed: the next request is sent when the previous
answer has been read; calibration chunks (``common.HostClock``) run in
the client between requests, while the server is idle.

Answers are checked after the timed loop, so checking costs no measured
time: every ``dpu.dot`` count against :class:`repro.core.dpu.DpuModel`,
every first answer to a ``serve-mix`` payload against an in-process
:class:`repro.serve.engine.ComputeEngine`, and every repeat against the
bytes of that first answer.
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
import re
import socket
import time
from collections import deque
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from common import (
    PROCESSES, HostClock, clock_fields, run_processes, spawn, stop, vm_hwm_mb,
)
from layers import EXACT_OPS

#: The ROADMAP's DPU measurement config.
DPU_CONFIG = {"bits": 5, "slot_fs": 40_000, "length": 8, "bipolar": True}
#: Epoch for the model ops of ``serve-mix``.
MIX_EPOCH = {"bits": 5, "slot_fs": 40_000}
MIX_OPS = ("pe.mac", "pe.matmul", "fir.binary", "fir.unary")
MATMUL_N = 4
FIR_TAPS = 16
FIR_SAMPLES = 64
#: ``serve-mix`` sends rounds of one request per op, in a seeded order.
#: Every ``REPEAT_ROUNDS``-th round, one op, in turn, repeats one of its
#: last ``REPEAT_WINDOW`` distinct payloads, so every seed sends each op
#: and the repeats in the same shares: a quarter per op, an eighth
#: repeats.  The window is far below the server's 4096-entry cache, so
#: every repeat is a cache read.  The shares are chosen, not measured
#: (the repository records no production op mix or hit rate); README.md
#: says why an eighth.
REPEAT_ROUNDS = 2
REPEAT_WINDOW = 256

#: ``serve-mix`` calibration chunk: this many one-byte round trips over
#: a loopback TCP connection ...
LOOPBACK_ROUND_TRIPS = 100
#: ... which the reference host makes in exactly this time.
REFERENCE_LOOPBACK_S = 0.001

_LISTEN = re.compile(r"listening on http://([^:]+):(\d+)")

Payloads = Tuple[List[bytes], Iterator[bytes]]


def _encode(payload: Dict[str, Any]) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode()


def dpu_payloads(seed: str) -> Payloads:
    """One warm-up and an endless stream of distinct ``dpu.dot`` requests."""
    n_max = 1 << DPU_CONFIG["bits"]
    length = DPU_CONFIG["length"]
    seen: Set[Tuple[Tuple[int, ...], Tuple[int, ...]]] = set()

    def fresh(rng: random.Random) -> bytes:
        while True:
            a = tuple(rng.randrange(n_max + 1) for _ in range(length))
            b = tuple(rng.randrange(n_max + 1) for _ in range(length))
            if (a, b) not in seen:
                seen.add((a, b))
                return _encode({"op": "dpu.dot", "config": DPU_CONFIG,
                                "a_slots": list(a), "b_counts": list(b)})

    warmup = [fresh(random.Random(f"perfbench-dpu-warmup/{seed}"))]

    def stream() -> Iterator[bytes]:
        rng = random.Random(f"perfbench-dpu/{seed}")
        while True:
            yield fresh(rng)

    return warmup, stream()


def _mix_request(rng: random.Random, op: str) -> bytes:
    def unit() -> float:
        return round(rng.random(), 4)

    def signed() -> float:
        return round(rng.uniform(-1.0, 1.0), 4)

    if op == "pe.mac":
        return _encode({"op": op, "config": MIX_EPOCH,
                        "values": [unit() for _ in range(3)]})
    if op == "pe.matmul":
        a, b = (
            [[unit() for _ in range(MATMUL_N)] for _ in range(MATMUL_N)]
            for _ in range(2)
        )
        return _encode({"op": op, "config": MIX_EPOCH, "a": a, "b": b})
    config = dict(MIX_EPOCH, coefficients=[signed() for _ in range(FIR_TAPS)])
    return _encode({"op": op, "config": config,
                    "samples": [signed() for _ in range(FIR_SAMPLES)]})


def mix_payloads(seed: str) -> Payloads:
    """One warm-up per op, then rounds of model ops (see ``REPEAT_ROUNDS``).

    Fixed shares keep the latency median in place: the ops' costs differ
    by up to 4x, so a share drawn at random would move it between seeds.
    """
    warm = random.Random(f"perfbench-mix-warmup/{seed}")
    warmup = [_mix_request(warm, op) for op in MIX_OPS]

    def stream() -> Iterator[bytes]:
        rng = random.Random(f"perfbench-mix/{seed}")
        recent = {op: deque(maxlen=REPEAT_WINDOW) for op in MIX_OPS}
        for round_index in itertools.count():
            repeated = None
            if round_index % REPEAT_ROUNDS == REPEAT_ROUNDS - 1:
                repeated = MIX_OPS[round_index // REPEAT_ROUNDS % len(MIX_OPS)]
            for op in rng.sample(MIX_OPS, len(MIX_OPS)):
                if op == repeated and recent[op]:
                    yield rng.choice(recent[op])
                else:
                    body = _mix_request(rng, op)
                    recent[op].append(body)
                    yield body

    return warmup, stream()


PAYLOADS = {"serve-dpu": dpu_payloads, "serve-mix": mix_payloads}


class LoopbackChunk:
    """Calibration chunk for ``serve-mix`` (see ``common.HostClock``).

    Most of a ``serve-mix`` round trip is the kernel's loopback TCP path
    and the switches between client and server, which slow with the host
    in a different way from pure-Python work.  So its chunk is one-byte
    round trips over a loopback connection inside this process.
    """

    def __init__(self) -> None:
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            self._send = socket.create_connection(listener.getsockname())
            self._recv, _ = listener.accept()
        for end in (self._send, self._recv):
            end.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def __call__(self) -> float:
        started = time.perf_counter()
        for _ in range(LOOPBACK_ROUND_TRIPS):
            self._send.sendall(b"x")
            self._recv.recv(1)
        return time.perf_counter() - started

    def close(self) -> None:
        self._send.close()
        self._recv.close()


class Client:
    """One keep-alive HTTP/1.1 connection to the server under test."""

    def __init__(self, port: int):
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def call(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Tuple[int, bytes, float]:
        """(status, body, round-trip seconds)."""
        headers = {"Content-Type": "application/json"} if body else {}
        started = time.perf_counter()
        self._conn.request(method, path, body=body, headers=headers)
        response = self._conn.getresponse()
        data = response.read()
        elapsed = time.perf_counter() - started
        return response.status, data, elapsed

    def get_json(self, path: str) -> Dict[str, Any]:
        status, data, _ = self.call("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path}: HTTP {status}")
        return json.loads(data)

    def histogram(self, name: str) -> Tuple[float, float]:
        """(sum, count) of one histogram on ``/metrics``."""
        status, data, _ = self.call("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"GET /metrics: HTTP {status}")
        series = dict(
            line.rsplit(" ", 1)
            for line in data.decode().splitlines()
            if line and not line.startswith("#")
        )
        return (
            float(series.get(f"{name}_sum", 0)),
            float(series.get(f"{name}_count", 0)),
        )

    def close(self) -> None:
        self._conn.close()


def _boot(trace: int) -> Tuple[Any, int]:
    argv = (
        ["perfbench/traced_server.py", "--port", "0"]
        if trace
        else ["-m", "repro.serve", "--port", "0"]
    )
    proc = spawn(argv)
    line = proc.stdout.readline() if proc.stdout else ""
    match = _LISTEN.search(line)
    if match is None:
        stop(proc)
        raise RuntimeError(f"server did not report its port: {line!r}")
    return proc, int(match.group(2))


def _cache_counts(client: Client) -> Tuple[int, int]:
    cache = client.get_json("/stats")["cache"]
    return int(cache["hits"]), int(cache["misses"])


def run(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    """Set up, measure and check one serve workload (see ``run.py``).

    Each program process is a fresh server with its own payload stream.
    """

    def part(index: int, part_seconds: float) -> Tuple[float, Dict[str, Any]]:
        warmup, stream = PAYLOADS[workload](f"{seed}/{index}")
        started = time.perf_counter()
        proc, port = _boot(trace)
        client = Client(port)
        try:
            for body in warmup:
                status, data, _ = client.call("POST", "/v1/compute", body)
                if status != 200:
                    raise RuntimeError(
                        f"warm-up failed: HTTP {status} {data[:200]!r}"
                    )
            setup = time.perf_counter() - started
            result = _measure(
                workload, client, stream, part_seconds, trace, chunk
            )
            result["peak_rss_mb"] = vm_hwm_mb(proc.pid)
        finally:
            client.close()
            output = stop(proc)
        if trace:
            dump = json.loads(output.strip().splitlines()[-1])
            pairs = zip(dump["ops"][len(warmup):], result["raw_latencies_s"])
            for record, latency in pairs:
                record["op"] = latency
                record["serve.http"] = latency - record.get("serve.handle", 0.0)
                result["ops"].append(record)
        return setup, result

    chunk = LoopbackChunk() if workload == "serve-mix" else None
    try:
        result = run_processes(part, 1 if trace else PROCESSES, seconds)
    finally:
        if chunk is not None:
            chunk.close()
    sent = result.pop("sent")
    result["correct"] = check(workload, sent, result.pop("answers"))
    if workload == "serve-mix":
        result["mix"] = mix_shares(sent)
    return result


def mix_shares(sent: List[bytes]) -> Dict[str, Any]:
    """The traffic a ``serve-mix`` run sent: share of each op among all
    requests, and share of repeats (requests the cache can answer)."""
    ops: Dict[str, int] = {}
    for body in sent:
        op = json.loads(body)["op"]
        ops[op] = ops.get(op, 0) + 1
    return {
        "op_shares": {op: n / len(sent) for op, n in sorted(ops.items())},
        "repeat_share": 1.0 - len(set(sent)) / len(sent),
    }


def _measure(
    workload: str,
    client: Client,
    stream: Iterator[bytes],
    seconds: float,
    trace: int,
    chunk: Optional[LoopbackChunk],
) -> Dict[str, Any]:
    """The closed loop on one server; a traced run also reads the exact
    counts over its first ``EXACT_OPS`` requests."""
    extras: Dict[str, float] = {}
    sent: List[bytes] = []
    answers: List[Tuple[int, bytes]] = []
    if trace:
        hits0, misses0 = _cache_counts(client)
        lanes0 = client.histogram("serve_batch_lanes")
    clock = HostClock() if chunk is None else HostClock(chunk, REFERENCE_LOOPBACK_S)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        body = next(stream)
        try:
            status, data, elapsed = client.call("POST", "/v1/compute", body)
        except (OSError, http.client.HTTPException) as exc:
            # The server is gone: this request fails and the run ends.
            sent.append(body)
            answers.append((0, repr(exc).encode()))
            break
        sent.append(body)
        answers.append((status, data))
        clock.record(elapsed)
        if trace and len(sent) == EXACT_OPS[workload]:
            clock.calibrate()
            hits, misses = _cache_counts(client)
            lane_sum, lane_count = client.histogram("serve_batch_lanes")
            served = (hits - hits0) + (misses - misses0)
            extras["cache_hit_ratio"] = (hits - hits0) / served
            extras["batch_lanes_mean"] = (
                (lane_sum - lanes0[0]) / (lane_count - lanes0[1])
                if lane_count > lanes0[1] else 0.0
            )
            clock.resume()
    clock.calibrate()
    return {
        "attempted": len(sent),
        "sent": sent,
        "answers": answers,
        **clock_fields(clock),
        "ops": [],
        "extras": extras,
    }


def check(workload: str, sent: List[bytes], answers: List[Tuple[int, bytes]]) -> int:
    """Number of correct answers (status 200 and the expected bytes)."""
    from repro.digest import canonical_json
    from repro.encoding.epoch import EpochSpec
    from repro.serve.engine import ComputeEngine
    from repro.serve.protocol import parse_request

    if workload == "serve-dpu":
        from repro.core.dpu import DpuModel

        model = DpuModel(
            EpochSpec(bits=DPU_CONFIG["bits"], slot_fs=DPU_CONFIG["slot_fs"]),
            length=DPU_CONFIG["length"],
            bipolar=DPU_CONFIG["bipolar"],
        )
        correct = 0
        for body, (status, data) in zip(sent, answers):
            if status != 200:
                continue
            request = json.loads(body)
            expected = model.output_count(request["a_slots"], request["b_counts"])
            try:
                correct += json.loads(data)["result"]["count"] == expected
            except (ValueError, KeyError, TypeError):
                pass
        return correct

    engine = ComputeEngine()
    first: Dict[bytes, bytes] = {}
    correct = 0
    for body, (status, data) in zip(sent, answers):
        if status != 200:
            continue
        expected = first.get(body)
        if expected is None:
            request = parse_request(json.loads(body))
            result = engine.execute_group(
                request.op, request.config, [request.operands]
            )[0]
            expected = canonical_json(
                {"ok": True, "op": request.op, "result": result}
            ).encode()
            first[body] = data
        correct += data == expected
    return correct
