"""Speed probe of the kkt benchmark: a fixed numpy loop that runs no kkt code.

    python3 perfbench/probe.py

For each line read from standard input it runs the loop once and prints
the loop's wall time in seconds. `run.py` keeps one probe process through
a timed run and scales its timings by the probe times around them, so the
machine's speed drifts out of the figures. The probe runs in its own
process so that its arrays stay out of the benchmark's peak RSS.

The loop has two parts. Small matrix products and softmaxes, with a dict
allocated per step, stand for the autodiff's per-op work. Copies of a
32 MB array stand for memory traffic, which the machine's slow state
stretches most. The cyclic GC is off, so nothing but the machine's state
moves the time.
"""

import gc
import sys
import time

import numpy as np

SMALL_REPS = 1500
STREAM_REPS = 6
STREAM_FLOATS = 4_000_000


def probe(a, w, big) -> float:
    t0 = time.perf_counter()
    for i in range(SMALL_REPS):
        h = np.tanh(a @ w)
        e = np.exp(h - h.max(axis=1, keepdims=True))
        s = e / e.sum(axis=1, keepdims=True)
        node = {"value": s, "grad": s.T @ a, "step": i}  # allocates like an autodiff node
    for _ in range(STREAM_REPS):
        b = big.copy()
        b += 1.0
        float(b.sum())
    return time.perf_counter() - t0


def main():
    gc.disable()
    rng = np.random.default_rng(0)
    a = rng.standard_normal((80, 24))
    w = rng.standard_normal((24, 24))
    big = np.ones(STREAM_FLOATS)
    for _ in sys.stdin:
        print(repr(probe(a, w, big)), flush=True)


if __name__ == "__main__":
    main()
