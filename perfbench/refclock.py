"""Reference clock: CPU time corrected by a co-scheduled speed probe.

On the 2-vCPU shared cloud VM this benchmark was measured on, one vCPU's
speed drifts by up to 2x within seconds as host load changes (a fixed numpy loop
took 19-42 ms per iteration within four minutes).  Process CPU time drifts
the same way, so it is the hardware, not descheduling, and wall-clock or
CPU-time throughput spread by 20-50 % between runs, wider than any useful
regression bound.

So the benchmark pins itself and a reference process to the same CPU.  The
reference runs a fixed loop and publishes how many chunks it has done and
its own CPU time; both processes run at the same momentary hardware speed.
`RefClock.now` advances by the benchmark's CPU time multiplied by the
reference's speed (chunks per CPU second) over the same interval, divided by
`CHUNKS_PER_REF_SECOND`, a fixed scale (the loop's median speed running
alone on that VM: Intel Xeon, CPython 3.11, numpy 2.4.6).  A reference
second is a fixed amount of work relative to the reference loop, not a CPU
or wall second.  The reference runs at nice `REFERENCE_NICE`, so it takes
about a tenth of the CPU and the benchmark the rest; it then runs in short
bursts and reads slower than alone, so one reference second took 2-2.7 s of
the benchmark's CPU time on that VM in a slow host state.
"""

from __future__ import annotations

import itertools
import mmap
import os
import subprocess
import sys
import time
from pathlib import Path

CHUNKS_PER_REF_SECOND = 5000.0
REFERENCE_NICE = 10
_VDOTS_PER_CHUNK = 20
_MIN_CHUNKS = 10
_RUN, _PAUSE, _STOP = 0, 1, 2
# Slots of the shared file, as int64: chunks done, reference CPU ns, state.
_CHUNKS, _CPU_NS, _STATE = 0, 1, 2


def _reference_loop(path: str, cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    os.nice(REFERENCE_NICE)
    import json

    import numpy as np

    # One chunk mixes the kinds of work the program does, so host contention
    # slows it the way it slows the program: small batched einsums, Kronecker
    # products, many tiny vector calls, and JSON text.
    rng = np.random.default_rng(0)
    batch = rng.normal(size=(32, 4, 4)) + 1j * rng.normal(size=(32, 4, 4))
    matrix = rng.normal(size=(4, 4)) + 0j
    gate = rng.normal(size=(2, 2)) + 0j
    vector = rng.normal(size=64) + 0j
    record = {"id": 7, "values": rng.normal(size=48).tolist()}
    vdot, einsum, kron, dumps, loads = np.vdot, np.einsum, np.kron, json.dumps, json.loads
    parent = os.getppid()
    with open(path, "r+b") as handle, mmap.mmap(handle.fileno(), 0) as shared:
        slots = memoryview(shared).cast("q")
        chunks = 0
        for turn in itertools.count():
            if slots[_STATE] == _STOP or (turn % 256 == 0 and os.getppid() != parent):
                break  # stopped, or the benchmark died without stopping us
            if slots[_STATE] == _PAUSE:
                time.sleep(0.001)
            else:
                einsum("sjd,de,sie->sji", batch.conj(), matrix, batch)
                kron(kron(gate, gate), gate)
                for _ in range(_VDOTS_PER_CHUNK):
                    vdot(vector, vector)
                loads(dumps(record))
                chunks += 1
                slots[_CHUNKS] = chunks
                slots[_CPU_NS] = time.process_time_ns()
        slots.release()


class RefClock:
    """Context manager: pins this process and the reference loop to one CPU.

    The two share three int64 slots through ``path``, a file in the run's
    own work directory.
    """

    def __init__(self, path: Path):
        self.cpu = min(os.sched_getaffinity(0))
        self._path = Path(path)
        self._path.write_bytes(bytes(8 * 3))
        self._handle = open(self._path, "r+b")
        self._shared = mmap.mmap(self._handle.fileno(), 0)
        self._slots = memoryview(self._shared).cast("q")
        self._proc = None
        self._ref = 0.0
        self._speed = CHUNKS_PER_REF_SECOND
        self._last = None
        self._pending = [0.0, 0, 0]  # own CPU seconds, chunks, reference CPU ns

    def __enter__(self) -> "RefClock":
        os.sched_setaffinity(0, {self.cpu})
        self._proc = subprocess.Popen([sys.executable, __file__, str(self._path), str(self.cpu)])
        deadline = time.monotonic() + 60.0
        while self._slots[_CHUNKS] < _MIN_CHUNKS:
            if self._proc.poll() is not None or time.monotonic() > deadline:
                self.close()
                raise RuntimeError("reference loop did not start")
            time.sleep(0.01)
        self.now()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        self._slots[_STATE] = _STOP
        if self._proc is not None:
            try:
                self._proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._slots.release()
        self._shared.close()
        self._handle.close()

    def now(self) -> float:
        """Reference seconds of this process's CPU time so far.

        CPU time is scaled by the reference's speed over the same span,
        once that span holds at least `_MIN_CHUNKS` reference chunks; until
        then (or while the reference is paused) by the last speed seen.
        """
        reading = (time.process_time(), self._slots[_CHUNKS], self._slots[_CPU_NS])
        if self._last is not None:
            for i, (a, b) in enumerate(zip(reading, self._last)):
                self._pending[i] += a - b
            own, chunks, ref_ns = self._pending
            if chunks >= _MIN_CHUNKS and ref_ns > 0:
                self._speed = chunks / (ref_ns * 1e-9)
                self._ref += own * self._speed / CHUNKS_PER_REF_SECOND
                self._pending = [0.0, 0, 0]
        self._last = reading
        return self._ref + self._pending[0] * self._speed / CHUNKS_PER_REF_SECOND

    def pause(self) -> None:
        """Stop the reference loop for untimed work (the output checks);
        `now` is not meaningful afterwards."""
        self._slots[_STATE] = _PAUSE


if __name__ == "__main__":
    _reference_loop(sys.argv[1], int(sys.argv[2]))
