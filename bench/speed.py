"""A fixed reference task that tracks the speed of the machine.

The machines the benchmark runs on share their cores, and pure Python code
on them runs at speeds that drift by up to about 1.6x, over seconds to
minutes, in CPU time as well as in wall time.  Every case slows by the same
factor.  The benchmark therefore times ``reference_work`` before the first
case of a pass and after each case, and reports the pass's times scaled to
the speed at which the reference takes ``REFERENCE_S``.  The reference is
stdlib code of the same kind as the program's hot paths (small objects,
dicts keyed by tuples, Fractions, integer row operations).  It never calls
the program, so a change to the program moves the scaled times while the
reference stays put.
"""

from __future__ import annotations

import time
from fractions import Fraction
from statistics import fmean, median

# Seconds that one reference_work() call takes at the nominal speed:
# roughly the median probe over a few minutes on the machine that defined
# the benchmark (2 shared vCPUs, Python 3.11.7).  Only a scale; it cancels
# in every comparison between two commits.
REFERENCE_S = 0.0040
# A probe takes the median of this many calls, so one interruption by the
# scheduler does not read as a slow machine.
PROBE_CALLS = 3


class _Term:
    __slots__ = ("exps", "coeff")

    def __init__(self, exps, coeff):
        self.exps = exps
        self.coeff = coeff


def _poly_mul(p, q):
    out = {}
    for a in p:
        for b in q:
            key = tuple(x + y for x, y in zip(a.exps, b.exps))
            out[key] = out.get(key, 0) + a.coeff * b.coeff
    return [_Term(k, c) for k, c in sorted(out.items()) if c]


def _row_reduce(rows):
    """Integer elimination on a copy of ``rows``; returns the last pivot."""
    rows = [list(r) for r in rows]
    pivot = 1
    for col in range(len(rows[0])):
        live = [r for r in rows if r[col]]
        if not live:
            continue
        p = min(live, key=lambda r: abs(r[col]))
        for r in rows:
            if r is not p and r[col]:
                f = r[col] // p[col]
                for j in range(len(r)):
                    r[j] -= f * p[j]
        pivot = p[col]
    return pivot


_P = [_Term((i, j, (i * j) % 3), Fraction(i + 1, j + 2)) for i in range(6) for j in range(5)]
_Q = [_Term((j, i % 4, 1), Fraction(2 * j - 3, i + 1)) for i in range(5) for j in range(4)]
_ROWS = [[(7 * i + 3 * j * j + 1) % 23 - 11 for j in range(8)] for i in range(8)]


def reference_work():
    """One unit of fixed work; its result never changes."""
    prod = _poly_mul(_P, _Q)
    return len(prod), _row_reduce(_ROWS)


def probe():
    """Seconds one ``reference_work()`` takes now (median of PROBE_CALLS)."""
    times = []
    for _ in range(PROBE_CALLS):
        t0 = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t0)
    return median(times)


def factor(probes):
    """Factor that turns seconds measured while ``probes`` were taken into
    seconds at the nominal speed."""
    return REFERENCE_S / fmean(probes)
