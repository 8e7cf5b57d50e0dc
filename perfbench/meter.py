"""Wall-clock timing calibrated against a reference kernel.

The host this benchmark was written on changes speed by up to 2x in spells
lasting seconds to minutes, because other tenants share it.  Raw wall times
of the same work then spread by up to a fifth between runs.  A Meter
therefore re-times a fixed reference kernel around every pass and at the
first call boundary after each REF_INTERVAL seconds, and expresses every
stretch of work in multiples of the reference time interpolated to its
midpoint ("ref" units).  The reference kernel's own time is excluded from
the work.

A workload calls ``meter.call(fn, ...)`` for each call into qmfc, or wraps
a stretch of work in ``with meter.unit():`` to make it one unit.
"""

import contextlib
import statistics
import time

import numpy as np

REF_INTERVAL = 0.25     # re-time the reference at the first call boundary after this
REF_REPEATS = 3         # the reference time is the median of this many runs

_STACK = (np.arange(1024).reshape(256, 2, 2) % 7 + 1j) / 8.0
_G = np.arange(2304).reshape(256, 3, 3) % 5 + 1j * (np.arange(2304).reshape(256, 3, 3) % 3)
_HERM = _G + np.conj(np.swapaxes(_G, 1, 2))
_SMALL = (np.arange(4).reshape(2, 2) % 3 + 1j) / 4.0
_SMALL_HERM = _SMALL + _SMALL.conj().T


def reference_kernel():
    """A fixed mix of the kinds of work qmfc does (about 3.5 ms): stacked 2x2
    matmuls and a batched eigensolve as in the ensemble kernel, calls on
    single 2x2 matrices as in the scalar engine, and interpreted arithmetic."""
    a = _STACK
    for _ in range(15):
        a = (a @ _STACK) * 0.5
    np.linalg.eigvalsh(_HERM)
    r = _SMALL
    for _ in range(150):
        r = (r @ _SMALL) * 0.5
        np.trace(r)
    for _ in range(30):
        np.linalg.eigvalsh(_SMALL_HERM)
    s = 0.0
    for i in range(2000):
        s += i * 0.5
    return s


class Meter:
    def __init__(self):
        self.refs = []         # (time, reference seconds)
        self.intervals = []    # (start, seconds, unit id or -1, pass index)
        self.passes = 0
        self._mark = None      # start of the open work interval
        self._unit = -1
        self._units = 0
        self._last_ref = -np.inf

    def _reference(self):
        t = time.perf_counter()
        times = []
        for _ in range(REF_REPEATS):
            t0 = time.perf_counter()
            reference_kernel()
            times.append(time.perf_counter() - t0)
        self.refs.append((t, statistics.median(times)))
        self._last_ref = time.perf_counter()

    def checkpoint(self, force=False):
        """Close the open work interval, re-time the reference if due, open the next."""
        now = time.perf_counter()
        if self._mark is not None:
            self.intervals.append((self._mark, now - self._mark, self._unit, self.passes))
        if force or now - self._last_ref >= REF_INTERVAL:
            self._reference()
        self._mark = time.perf_counter()

    @contextlib.contextmanager
    def timed_pass(self):
        self.checkpoint(force=True)
        try:
            yield
        finally:
            self.checkpoint(force=True)
            self._mark = None
            self.passes += 1

    @contextlib.contextmanager
    def unit(self):
        self.checkpoint()
        self._unit = self._units
        self._units += 1
        try:
            yield
        finally:
            self.checkpoint()
            self._unit = -1

    def call(self, fn, *args, unit=False, **kwargs):
        if unit:
            with self.unit():
                return fn(*args, **kwargs)
        self.checkpoint()
        return fn(*args, **kwargs)

    def summary(self):
        """Per pass and per unit: (raw seconds, ref units)."""
        ref_t = np.array([t for t, _ in self.refs])
        ref_v = np.array([v for _, v in self.refs])
        passes = np.zeros((self.passes, 2))
        units = np.zeros((self._units, 2))
        for start, seconds, unit, index in self.intervals:
            ref = np.interp(start + seconds / 2, ref_t, ref_v)
            passes[index] += (seconds, seconds / ref)
            if unit >= 0:
                units[unit] += (seconds, seconds / ref)
        return passes, units, ref_v
