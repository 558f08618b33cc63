"""Shared plumbing for the benchmark: paths, child processes, host-speed
normalisation, statistics.

Nothing here imports ``repro``: the orchestrator (``run.py``) stays a
thin load generator, and every layer of the program runs in a child
process whose peak memory is the one reported.

**Host-speed normalisation.**  The speed of a virtual machine's CPU
drifts by tens of percent over seconds to minutes, far more than the
change a benchmark should detect.  So the benchmark interleaves a fixed
pure-Python calibration chunk with the measured work, on the same CPU,
and reports every end-to-end time as *reference seconds*: the measured
time scaled by ``REFERENCE_CHUNK_S`` over the chunk's time measured
next to it.  A program change moves the measured time and leaves the
chunk alone, so it moves the scaled figure by the same share; a host
slowdown moves both and cancels.  The raw wall-clock figures are
printed on the detail line.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Fresh program processes per run, each measured for an equal share of
#: the run; ``setup_s`` is the median of their set-up times.
PROCESSES = 9

#: Calibration chunk: this many iterations of a fixed pure-Python loop ...
CHUNK_ITERATIONS = 20_000
#: ... which the reference host runs in exactly this time.
REFERENCE_CHUNK_S = 0.002
#: Calibration time per second of measured time.
CALIBRATION_SHARE = 0.1
#: Chunks run just before each program process starts, to scale its set-up.
SETUP_CHUNKS = 16

#: A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10

#: Seconds a child gets to exit after SIGTERM before it is killed.
STOP_GRACE_S = 20.0


def program_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def spawn(argv: Sequence[str]) -> "subprocess.Popen[str]":
    """Start a Python child in the checkout root, the checkout's ``src``
    first on its path, with a line-read stdout."""
    env = dict(os.environ)
    paths = [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.pop("REPRO_KERNEL", None)  # the program's default kernel choice
    return subprocess.Popen(
        [sys.executable, *argv],
        cwd=ROOT,
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        text=True,
        bufsize=1,
    )


def stop(proc: "subprocess.Popen[str]", terminate: bool = True) -> str:
    """End a child (SIGTERM, then SIGKILL after the grace) and wait for it.

    Returns whatever the child still wrote to stdout.
    """
    if terminate and proc.poll() is None:
        proc.terminate()
    try:
        out, _ = proc.communicate(timeout=STOP_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
    return out or ""


def vm_hwm_mb(pid: Union[int, str]) -> float:
    """Peak resident set (VmHWM) of a live process (or ``"self"``), in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def pin_one_cpu() -> None:
    """Run this process, and every child it starts, on one CPU.

    The program and the benchmark code next to it (the load generator,
    the calibration chunks) then share a CPU: a round trip costs CPU work,
    not a cross-CPU wake-up, and the chunks see the speed the program sees.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def chunk_s() -> float:
    """Time of one calibration chunk."""
    started = time.perf_counter()
    total = 0
    for i in range(CHUNK_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - started


def host_speed(chunks: int) -> float:
    """Reference seconds per measured second, from ``chunks`` chunks run now."""
    return REFERENCE_CHUNK_S * chunks / sum(chunk_s() for _ in range(chunks))


class HostClock:
    """Scales the operations of a closed loop to reference seconds.

    Call :meth:`record` after every operation.  Once the operations since
    the last calibration add up to ``reference_s / CALIBRATION_SHARE``,
    it runs ``chunk`` for a tenth of that time and scales the operations
    and the loop time in between by the speed the chunks show (a chunk
    takes ``reference_s`` on the reference host).  Call :meth:`calibrate`
    once more after the loop.  Time spent outside the loop between
    :meth:`calibrate` and :meth:`resume` is not counted.
    """

    def __init__(
        self,
        chunk: Callable[[], float] = chunk_s,
        reference_s: float = REFERENCE_CHUNK_S,
    ) -> None:
        self._chunk = chunk
        self._reference_s = reference_s
        self.scaled: List[float] = []  # reference seconds per operation
        self.raw: List[float] = []  # wall seconds per operation
        self.wall_s = 0.0  # reference seconds of loop time
        self.raw_wall_s = 0.0
        self.speeds: List[float] = []
        self._pending: List[float] = []
        self._debt = 0.0
        self._segment = time.perf_counter()

    def record(self, seconds: float) -> None:
        self._pending.append(seconds)
        self.raw.append(seconds)
        self._debt += CALIBRATION_SHARE * seconds
        if self._debt >= self._reference_s:
            self.calibrate()

    def calibrate(self) -> None:
        segment = time.perf_counter() - self._segment
        spent: List[float] = []
        while not spent or self._debt > 0:
            spent.append(self._chunk())
            self._debt -= spent[-1]
        speed = self._reference_s * len(spent) / sum(spent)
        self.speeds.append(speed)
        self.scaled.extend(seconds * speed for seconds in self._pending)
        self._pending = []
        self.wall_s += segment * speed
        self.raw_wall_s += segment
        self.resume()

    def resume(self) -> None:
        self._segment = time.perf_counter()


def run_processes(
    part: Callable[[int, float], Tuple[float, Dict[str, Any]]],
    processes: int,
    seconds: float,
) -> Dict[str, Any]:
    """Run a workload on ``processes`` fresh program processes in turn.

    ``part(index, seconds)`` starts process ``index``, waits until it has
    answered its warm-up, runs the closed loop on it for ``seconds``,
    stops it and returns ``(set-up seconds, its loop's result)``.  Each
    process gets an equal share of the run, so a process that happens to
    run slow (its memory layout, its hash seed) weighs 1/``processes``.
    Each set-up time is scaled by chunks run just before it.  Returns the
    parts merged: lists joined, counts and times summed, the highest peak
    memory, and the first part's ``extras``.
    """
    parts: List[Dict[str, Any]] = []
    for index in range(processes):
        speed = host_speed(SETUP_CHUNKS)
        setup, result = part(index, seconds / processes)
        result["raw_setups_s"] = [setup]
        result["setups_s"] = [setup * speed]
        parts.append(result)
    merged: Dict[str, Any] = {}
    for key, first in parts[0].items():
        values = [result[key] for result in parts]
        if key == "peak_rss_mb":
            merged[key] = max(values)
        elif key == "extras":
            merged[key] = first
        elif isinstance(first, list):
            merged[key] = [item for value in values for item in value]
        else:
            merged[key] = sum(values)
    return merged


def calibration_s() -> float:
    """Time of 100 calibration chunks in a row: the host stamp's speed."""
    return sum(chunk_s() for _ in range(100))


def host_stamp() -> Dict[str, object]:
    """What every result records about the machine it ran on."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "calibration_s": calibration_s(),
    }


def tail_percentile(samples: Sequence[float]) -> Optional[float]:
    """p90 when at least ``TAIL_SAMPLES`` samples lie beyond it, else None."""
    if len(samples) < 10 * TAIL_SAMPLES:
        return None
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def clock_fields(clock: HostClock) -> Dict[str, Any]:
    """A finished loop's times, as ``end_to_end`` and ``detail`` read them."""
    return {
        "latencies_s": clock.scaled,
        "raw_latencies_s": clock.raw,
        "wall_s": clock.wall_s,
        "raw_wall_s": clock.raw_wall_s,
        "speeds": clock.speeds,
    }


def end_to_end(result: Dict[str, Any]) -> Dict[str, Dict[str, object]]:
    """The ``end_to_end`` metrics of BENCHMARK.json, by name with units.

    Times are reference seconds (see the module docstring).
    """
    return {
        "setup_s": {"value": statistics.median(result["setups_s"]), "unit": "s"},
        "goodput_per_s": {
            "value": result["correct"] / result["wall_s"],
            "unit": "1/s",
        },
        "latency_p50_ms": {
            "value": 1e3 * statistics.median(result["latencies_s"]),
            "unit": "ms",
        },
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MiB"},
    }


def detail(result: Dict[str, Any]) -> Dict[str, object]:
    """Sample count, the p90 where the sample rule allows it, and the
    wall-clock figures behind the reference-second metrics."""
    p90 = tail_percentile(result["latencies_s"])
    raw = result["raw_latencies_s"]
    return {
        "samples": len(raw),
        "latency_p90_ms": None if p90 is None else 1e3 * p90,
        "host_speed": statistics.median(result["speeds"]),
        "wall_clock": {
            "setups_s": result["raw_setups_s"],
            "goodput_per_s": result["correct"] / result["raw_wall_s"],
            "latency_p50_ms": 1e3 * statistics.median(raw),
        },
    }
