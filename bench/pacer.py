"""Host-speed pacer: rescales wall times to a fixed reference speed.

The benchmark runs on a few cores of a shared host whose clock moves with
the load of its other tenants: the same child can take 2.8 s or 4.3 s a
few minutes apart, with CPU time moving with wall time. The pacer samples
that speed inside the child, over the same interval and on the same core
as the work it corrects. A ``SIGALRM`` every ``INTERVAL_S`` runs one
*chunk*, a fixed pure-Python loop plus small matrix products (interpreter
and BLAS call overhead, which is where the pipeline spends its time), and
records how long the chunk took. A timed interval of wall time ``w``
during which ``n`` chunks took ``total`` in all, ``pace = total / n`` on
average, is reported as

    (w - total) * REFERENCE_S / pace

that is, the time the work would have taken had the host run at the speed
where a chunk takes ``REFERENCE_S``. The chunks are spread evenly in time,
so their mean weighs each slow spell by how long it lasted, as the work
felt it; their median, which drops the slow spells, left the modulated
workloads' between-run spreads two to three times wider. The chunk is fixed code in the
benchmark, so a faster program lowers the figure and a faster host does
not. Chunks are timed with their own clock reads; nothing here touches the
program.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
# Mean chunk time on the machine described in environment.json, at its
# usual (not its fastest) speed. Only the scale of the reported figures
# depends on it.
REFERENCE_S = 3.0e-4

_A = np.random.default_rng(0).random((32, 32))
_samples: list[float] = []


def chunk() -> float:
    """Run one fixed chunk of work and return its wall time."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(2000):
        s += i * 0.5
    for _ in range(40):
        _A @ _A
    dt = time.perf_counter() - t0
    _samples.append(dt)
    return dt


def _on_alarm(signum, frame) -> None:
    chunk()


def block(n: int = 100) -> float:
    """Mean time of ``n`` back-to-back chunks: the pace right now."""
    return statistics.fmean(chunk() for _ in range(n))


def start() -> None:
    """Sample the pace every ``INTERVAL_S`` until ``stop``."""
    _samples.clear()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def stop() -> tuple[float, float, int]:
    """Stop sampling; return (mean chunk time, summed chunk time, chunks)."""
    signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)
    if not _samples:  # an interval shorter than INTERVAL_S
        return block(5), 0.0, 0
    total = sum(_samples)
    return total / len(_samples), total, len(_samples)


def adjust(wall: float, pace: float, spent: float = 0.0) -> float:
    """Wall time ``wall`` (``spent`` of it in chunks) at the reference pace."""
    return (wall - spent) * REFERENCE_S / pace
