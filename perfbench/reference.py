"""A fixed reference task, timed on request in a process of its own.

``run.py`` starts this file as a child process and writes one line to its
stdin whenever it wants the host's current speed; the child runs the
reference task once and answers with its duration in seconds.  Running it in
its own process keeps its timing independent of the benchmarked program's
heap, imports and interpreter state.
"""

from __future__ import annotations

import sys
import time

import numpy as np


def reference_task() -> float:
    """Fixed work shaped like catemeta's hot loops: small numpy calls from Python."""
    x = np.random.default_rng(0).random((200, 5))
    total = 0.0
    for i in range(3500):
        order = np.argsort(x[:, i % 5])
        total += float(np.cumsum(x[order, 0])[-1]) + sum(range(40))
    return total


def serve() -> None:
    """Answer each line read from stdin with one timing of the reference task."""
    for _ in sys.stdin:
        start = time.perf_counter()
        reference_task()
        print(repr(time.perf_counter() - start), flush=True)


if __name__ == "__main__":
    serve()
