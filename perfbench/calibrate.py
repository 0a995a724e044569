"""Samples the machine's speed while the workload runs, so timings can be
reported in units that do not move with it.

The benchmark runs on shared hosts whose speed drifts: on the 2-vCPU VM
it was tuned on, the same pass of the same commands took from 1x to 1.6x
its fastest time within minutes, and varied by 10-15% from one pass to the
next. CPU time tracked wall time, so the drift is contention for the CPU
itself (caches, memory bandwidth, a busy sibling thread), not preemption.

A ``Probe`` runs a small fixed piece of work and returns its wall time.
In an untraced workload process a ``Sampler`` runs it from a SIGALRM
handler every ``INTERVAL_S`` of wall time, so the samples fall inside the
commands being measured, not only between them. The handler runs in the
main thread between bytecodes, so a probe interval lies either wholly
inside a command or wholly outside it; the probes inside a command are
subtracted from its wall time. A pass's calibrated time is its wall time
x (the probe's reference time) / (its mean time during the pass): seconds
on a machine where each part of the probe takes its ``PART_REF_S``.

The parts do the kinds of work the program does, on inputs and output
buffers made once before timing (so a probe allocates little, and does
not move the workload process's peak memory); each workload probes with the parts that match where its
time goes, since a part tracks the program's slowdown only as far as
both suffer the same contention:

- ``flood``: a pure-Python 8-connected flood fill over a NumPy array,
  like ``foreground.connected_components``;
- ``arrays``: batched 8x8 and 32x32 matrix products, like the DCT
  comparator, and whole-frame uint8 array passes, like subtraction and
  the other comparators;
- ``stream``: differences of consecutive 720p frames from a stack larger
  than a core's L2 cache, like a loaded sequence.

Nothing here imports ``blockbg``, so a change to the program cannot
change the probe.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Typical time of each part, in seconds, on the VM the benchmark was tuned
# on (2 vCPU Xeon, Python 3.11, NumPy 2.4, one BLAS thread).
PART_REF_S = {"flood": 0.005, "arrays": 0.0033, "stream": 0.006}
# Wall time between samples; probes cost 3-10% of a workload process's
# time, depending on their parts.
INTERVAL_S = 0.15
STACK_FRAMES = 12
STREAM_FRAMES = 5  # per probe; successive probes walk through the stack
# Set-up time is calibrated by a probe run just after it: importing is
# interpreter work (unmarshalling and running module bodies), like flood.
SETUP_PARTS = ("flood",)

_NEIGHBORS = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


def _flood_inputs(rng) -> dict:
    bits = np.zeros((60, 80), dtype=np.uint8)
    bits[5:25, 5:40] = 1
    bits[35:50, 45:65] = 1
    return {"bits": bits}


def _flood(inp: dict) -> None:
    bits = inp["bits"]
    h, w = bits.shape
    seen = np.zeros((h, w), dtype=bool)
    for sy, sx in np.argwhere(bits == 1):
        if seen[sy, sx]:
            continue
        stack = [(int(sy), int(sx))]
        seen[sy, sx] = True
        while stack:
            y, x = stack.pop()
            for dy, dx in _NEIGHBORS:
                ny, nx = y + dy, x + dx
                if 0 <= ny < h and 0 <= nx < w and bits[ny, nx] and not seen[ny, nx]:
                    seen[ny, nx] = True
                    stack.append((ny, nx))


def _dct_matrix(n: int) -> np.ndarray:
    k = np.arange(n)
    return np.cos(np.pi * (2 * k[None, :] + 1) * k[:, None] / (2 * n))


def _blocks(rng, count: int, n: int) -> tuple:
    """Blocks, their DCT matrix, and two buffers for the products."""
    return rng.random((count, n, n)), _dct_matrix(n), np.empty((count, n, n)), np.empty((count, n, n))


def _frame_buffers(shape) -> tuple:
    return np.empty(shape, dtype=np.int16), np.empty(shape, dtype=bool)


def _diff_count(a, b, diff, over) -> int:
    np.subtract(a, b, out=diff, dtype=np.int16)
    np.abs(diff, out=diff)
    return int(np.greater(diff, 40, out=over).sum())


def _arrays_inputs(rng) -> dict:
    shape = (360, 640)
    return {
        "blocks": (_blocks(rng, 1200, 8), _blocks(rng, 75, 32)),
        "frames": (rng.integers(0, 256, shape, dtype=np.uint8),
                   rng.integers(0, 256, shape, dtype=np.uint8)),
        "buffers": _frame_buffers(shape),
    }


def _arrays(inp: dict) -> None:
    for blocks, c, cx, cxc in inp["blocks"]:
        np.matmul(c, blocks, out=cx)
        np.matmul(cx, c.T, out=cxc)
        np.abs(cxc, out=cxc).sum()
    a, b = inp["frames"]
    for _ in range(3):
        _diff_count(a, b, *inp["buffers"])
        np.median(a[::4, ::4])


def _stream_inputs(rng) -> dict:
    return {
        "stack": rng.integers(0, 256, (STACK_FRAMES, 720, 1280), dtype=np.uint8),
        "buffers": _frame_buffers((720, 1280)),
        "next": 0,
    }


def _stream(inp: dict) -> None:
    stack, first = inp["stack"], inp["next"]
    frames = [stack[(first + i) % STACK_FRAMES] for i in range(STREAM_FRAMES)]
    for a, b in zip(frames, frames[1:]):
        _diff_count(a, b, *inp["buffers"])
    inp["next"] = (first + STREAM_FRAMES) % STACK_FRAMES


_PARTS = {"flood": (_flood_inputs, _flood), "arrays": (_arrays_inputs, _arrays),
          "stream": (_stream_inputs, _stream)}


class Probe:
    """The named parts of the reference work; calling it runs them once
    and returns the wall time in seconds."""

    def __init__(self, parts) -> None:
        rng = np.random.default_rng(0)
        self.steps = [(_PARTS[p][1], _PARTS[p][0](rng)) for p in parts]
        self.ref_s = sum(PART_REF_S[p] for p in parts)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for run, inp in self.steps:
            run(inp)
        return time.perf_counter() - t0


class Sampler:
    """Runs a probe every INTERVAL_S of wall time while started.

    ``samples`` holds one (start, end) pair of ``time.perf_counter()``
    readings per probe, in order.
    """

    def __init__(self, probe: Probe) -> None:
        self.probe = probe
        self.samples: list[tuple[float, float]] = []

    def sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        self.probe()
        self.samples.append((t0, time.perf_counter()))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def between(self, t0: float, t1: float, since: int = 0) -> list[tuple[float, float]]:
        """The samples, from index ``since`` on, that ran within [t0, t1]."""
        return [(s, e) for s, e in self.samples[since:] if s >= t0 and e <= t1]
