"""Fixed slices of interpreter work that measure the CPU's current speed.

On a shared machine the same job runs up to a third slower for seconds or
minutes at a time, while its time relative to a fixed piece of similar
work, run next to it, stays within a few percent.  Times are therefore
reported at a reference speed: measured time x reference / calibration.

Jobs do exact-rational arithmetic and dictionary work, which
``calibration_seconds`` repeats.  Importing a package mostly unmarshals
and runs module bodies, which ``module_exec_seconds`` repeats on three
standard-library modules; the arithmetic loop would overcorrect it.
"""

import functools
import marshal
import os
import time
from fractions import Fraction

# Calibration times at the reference speed: about the fastest seen on a
# 2-core x86-64 VM under CPython 3.11.
REFERENCE_S = 0.004
REFERENCE_EXEC_S = 0.0011


def calibration_seconds() -> float:
    """Time of one pass of exact-rational and dictionary work, as the jobs do."""
    start = time.perf_counter()
    total, table = Fraction(0), {}
    for i in range(1, 900):
        total += Fraction(i % 7 - 3, i % 13 + 1)
        table[i % 61] = table.get(i % 61, 0) + i
    return time.perf_counter() - start


def calibrate() -> tuple[float, float, float]:
    """(start, end, seconds) of one calibration pass."""
    start = time.perf_counter()
    seconds = calibration_seconds()
    return start, time.perf_counter(), seconds


def at_reference_speed(seconds: float, begin: float, end: float,
                       calibrations: list[tuple[float, float, float]]) -> float:
    """A job's time at the reference speed.

    The speed is the mean over the calibrations that overlap the job's
    interval widened by its own length on each side, which always includes
    the two run right before and after it: a long job spans many switches
    between fast and slow stretches, which two snapshots would miss.
    """
    reach = max(end - begin, 1e-3)
    near = [c for lo, hi, c in calibrations if hi >= begin - reach and lo <= end + reach]
    return seconds * REFERENCE_S * len(near) / sum(near)


@functools.cache
def _module_code() -> tuple[bytes, ...]:
    stdlib = os.path.dirname(os.__file__)
    blobs = []
    for rel in ("argparse.py", "fractions.py", os.path.join("json", "decoder.py")):
        path = os.path.join(stdlib, rel)
        with open(path) as fh:
            blobs.append(marshal.dumps(compile(fh.read(), path, "exec")))
    return tuple(blobs)


def module_exec_seconds() -> float:
    """Time to unmarshal and run three module bodies, as an import does."""
    blobs = _module_code()
    start = time.perf_counter()
    for blob in blobs:
        exec(marshal.loads(blob), {"__name__": "calibration"})
    return time.perf_counter() - start
