"""A fixed piece of interpreter work that measures how fast the host runs
Python at the moment, so that timings can be corrected for it.

On a shared host the speed of one core drifts by 20-30% over seconds and
minutes while other tenants come and go, and CPU time drifts with wall
time.  A timing multiplied by ``NOMINAL_S / chunk``, where ``chunk`` is
the time this reference took around and during it, keeps the cost of the
program and loses most of that drift: it is the time the work would have
taken on a host where one chunk takes ``NOMINAL_S``.  The reference does
not touch stringchar, so no change to the program can change it.
"""

from __future__ import annotations

import signal
import statistics
import time

# roughly the time of one chunk on a 2-vCPU Intel Xeon VM with CPython
# 3.11.7 (4-8 ms as the host's load changes); it only sets the scale of
# the corrected timings
NOMINAL_S = 0.005
CHUNK_ROUNDS = 32
CHUNKS_PER_SLOT = 3
# while a call runs, one chunk every this many seconds of wall time
INTERVAL_S = 0.05

# two sparse polynomials in three variables: exponent tuple -> coefficient
_P = {(i % 3, i % 5, -(i % 2)): i + 1 for i in range(12)}
_Q = {(i % 2, -(i % 3), i % 4): i - 3 for i in range(10)}


def chunk():
    """Products of two small sparse polynomials, kept as dicts from
    exponent tuples to coefficients, with their terms sorted: the kind of
    work the Laurent polynomials do.  Of the kinds of work tried (sorting
    small tuples, string formatting, Fraction arithmetic, pointer chasing
    over a large list, these products), this one tracked the speed of all
    three workloads best."""
    for _ in range(CHUNK_ROUNDS):
        product = {}
        for exps_a, coeff_a in _P.items():
            for exps_b, coeff_b in _Q.items():
                exps = tuple(x + y for x, y in zip(exps_a, exps_b))
                product[exps] = product.get(exps, 0) + coeff_a * coeff_b
        terms = sorted(product.items())
    return terms


def timed_chunk():
    start = time.perf_counter()
    chunk()
    return time.perf_counter() - start


def slot():
    """The times of a few chunks run back to back."""
    return [timed_chunk() for _ in range(CHUNKS_PER_SLOT)]


def scale(chunk_times):
    """The factor that turns a timing made while these chunks ran into a
    timing at reference speed; the median keeps one preempted chunk from
    counting."""
    return NOMINAL_S / statistics.median(chunk_times)


class Sampler:
    """Runs a chunk from a SIGALRM handler every INTERVAL_S while it is
    entered, so that a long call is sampled while it runs.  `clock` is
    wall time minus the time spent in the handler, so timings taken with
    it leave the chunks out."""

    def __init__(self):
        self.chunks = []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def _tick(self, _signum, _frame):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        chunk()
        end = time.perf_counter()
        self.chunks.append(end - start)
        self.spent += time.perf_counter() - start
        self._busy = False

    def clock(self):
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now - spent

    def slot(self):
        """Run a slot between calls and keep its chunk times."""
        self.chunks.extend(slot())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
