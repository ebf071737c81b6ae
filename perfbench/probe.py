"""A fixed piece of work that measures how fast the host runs right now.

The benchmark shares a few cores of a host with other jobs, and their load
changes the speed of every instruction by tens of percent over minutes.
The worker times this probe between passes and scales each pass's wall time
by `REFERENCE_PROBE_S / probe time`, which reports the pass in seconds at
the host speed at which the probe takes `REFERENCE_PROBE_S`. A change to
edgecache moves the pass time and leaves the probe alone, so it still shows
in the scaled time; a change in host speed moves both and cancels.

The probe mixes the kinds of work edgecache does: interpreted integer
loops, exact `Fraction` arithmetic, LAPACK on small matrices, seeded
per-trial random draws with tiny numpy arrays, and memory copies. It
holds one 1 MiB buffer and copies it, and adds 2-3 MiB to the worker's
peak memory on every workload alike.
"""

from __future__ import annotations

import math
from fractions import Fraction
from time import perf_counter

import numpy as np

# Probe time on an idle 2-vCPU x86-64 host with Python 3.11 and numpy 2.4
# at one BLAS thread; any fixed value works, this one keeps scaled times
# close to raw ones there.
REFERENCE_PROBE_S = 0.08

_MATRIX = np.random.default_rng(0).standard_normal((4, 4))
_BUFFER = bytearray(1 << 20)


def _integers() -> int:
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return total


def _fractions() -> Fraction:
    total = Fraction(0)
    for i in range(1, 3000):
        total += Fraction(1, i) * Fraction(i + 1, i + 2)
        total = Fraction(total.numerator % 10**12, total.denominator % 10**12 + 1)
    return total


def _lapack() -> None:
    for _ in range(1500):
        np.linalg.svd(_MATRIX)


def _small_arrays() -> None:
    for i in range(300):
        rng = np.random.default_rng(np.random.SeedSequence([7, i]))
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        np.linalg.norm(np.linalg.pinv(h), axis=0)


def _copies() -> None:
    for _ in range(60):
        bytes(_BUFFER)


_PARTS = (_integers, _fractions, _lapack, _small_arrays, _copies)


def probe_s() -> float:
    """Geometric mean of the parts' times times their number, in seconds.

    The geometric mean weighs each kind of work alike, whatever its length.
    """
    logs = []
    for part in _PARTS:
        start = perf_counter()
        part()
        logs.append(math.log(perf_counter() - start))
    return len(_PARTS) * math.exp(sum(logs) / len(_PARTS))
