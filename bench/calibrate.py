"""The host's speed, read from a fixed loop of the benchmark's own arithmetic.

The shared host's speed drifts by tens of per cent within seconds and by up
to 2x between hours, while the program's work repeats exactly (see
README.md).  So every time the benchmark reports is rescaled to one
reference speed: a time ``t`` measured while the loop ran at ``rate``
batches per second is reported as ``t * rate / REF_RATE``, the time it would
have taken with the loop at ``REF_RATE``.  The loop is a skew product with
right division in the reference arithmetic (``reference.Twist.petit`` over
GF(9)): the same kind of interpreted table arithmetic as the program, and
no part of it.  A change to skewcodes cannot change the loop.

The loop runs between timed operations (``run.py``) and just before and
just after a set-up, and a time is scaled by the mean of the rates read on
either side of it.  It does not run during an operation: the catalogue's
worker threads would slow it by up to half, so it would no longer read the
host alone.
"""

from __future__ import annotations

import gc
import time

from reference import Ring, Twist

# batches per second of ``_batch``, about as ``rate`` reads it on the quiet
# host (Intel Xeon 2.0 GHz, 2 cores, Python 3.11.7; 8,100-9,100 over a day)
REF_RATE = 8200.0

_TWIST = Twist(Ring(p=3, r=2, modulus=(2, 2, 1)), 1)
_F, _G, _H = [1, 2, 0, 3, 5, 1], [4, 0, 7, 1, 2], [8, 3, 3, 0, 6]


def _batch():
    for _ in range(5):
        _TWIST.petit(_G, _H, _F)


_batch()  # the interpreter specialises the loop's code on its first runs


def rate(min_seconds: float) -> float:
    """Batches of the loop per second, read for at least ``min_seconds``.

    A first batch runs uncounted: it runs on caches the program has cooled.
    The others count in full, also one that the host interrupted, since such
    interruptions slow the program as much.  The garbage collector is off
    meanwhile (the loop makes no cycles), so the reading does not depend on
    how many objects the program holds.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        _batch()
        n, t0 = 0, time.perf_counter()
        while True:
            _batch()
            n += 1
            dt = time.perf_counter() - t0
            if dt >= min_seconds:
                return n / dt
    finally:
        if was_enabled:
            gc.enable()


def scaled(seconds: float, rate_before: float, rate_after: float) -> float:
    """``seconds`` at reference speed, from the loop's rate on either side of it."""
    return seconds * (rate_before + rate_after) / 2 / REF_RATE
