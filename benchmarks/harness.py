"""Measurement helpers for the grsecant benchmark: percentiles, spans, tallies.

Nothing here imports grsecant or numpy, so the helpers can be tested on their
own and imported before the BLAS thread count is pinned.
"""

from __future__ import annotations

import functools
import math
import os
import platform
import resource
import sys
import time
import traceback
from collections import defaultdict
from typing import Callable


def percentile(values, q: float) -> float:
    """The q-th percentile (0..100) by linear interpolation between order statistics."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50)


def mean(values) -> float:
    """Arithmetic mean.

    Where a run holds many near-equal samples taken while the host switches
    between a fast and a slow state, their median reads whichever state held
    more of the run; the mean moves in proportion to the time spent in each.
    """
    xs = list(values)
    if not xs:
        raise ValueError("mean of no samples")
    return math.fsum(xs) / len(xs)


def tail_level(n: int) -> float | None:
    """Highest of p90, p99, p99.9 that has at least ten of n samples beyond it.

    Returns None below 100 samples, where no tail percentile is backed by ten
    samples and only the median should be read.
    """
    for beyond_share, level in ((1000, 99.9), (100, 99.0), (10, 90.0)):
        if n // beyond_share >= 10:
            return level
    return None


def covered_length(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    """In-memory spans around calls into the package, summarised when the run ends.

    A span is [layer, start, end, parent index, op id]; spans of one benchmark
    operation share the op id.  Layer counters are summed where the work
    happens, by hooks that see each call's arguments and result.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op = 0
        self._stack: list[int] = []

    def span(self, layer: str, fn: Callable, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(
        self, layer: str, fn: Callable, hook: Callable | None = None, before: Callable | None = None
    ) -> Callable:
        """`fn` recording a span per call.

        `hook(counts, args, result, state)` adds the layer's counters after each
        call, where `state` is `before(args)` taken just before it.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args) if before is not None else None
            result = self.span(layer, fn, *args, **kwargs)
            if hook is not None:
                hook(self.counts[layer], args, result, state)
            return result

        return traced

    def calls(self, layer: str) -> int:
        return sum(1 for s in self.spans if s[0] == layer)

    def busy(self, layer: str) -> float:
        """Wall time inside the layer, counting a call nested in the same layer once."""
        total = 0.0
        for s in self.spans:
            if s[0] == layer and not self._inside(s, layer):
                total += s[2] - s[1]
        return total

    def self_time(self, layer: str) -> float:
        """Busy time of the layer minus the part its direct child spans cover."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for s in self.spans:
            if s[3] >= 0:
                children[s[3]].append((s[1], s[2]))
        return sum(
            (s[2] - s[1]) - covered_length(children[i])
            for i, s in enumerate(self.spans)
            if s[0] == layer
        )

    def _inside(self, span: list, layer: str) -> bool:
        parent = span[3]
        while parent >= 0:
            if self.spans[parent][0] == layer:
                return True
            parent = self.spans[parent][3]
        return False


class Recorder:
    """Times operations, checks each output against its reference, counts failures."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.op_ms: list[float] = []
        self.write_ms: list[float] = []
        self.attempted = 0
        self.failed = 0

    def tally(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"MISMATCH: {what}", file=sys.stderr)

    def run_op(self, what: str, fn: Callable, check: Callable, samples: list | None = None):
        """Run one operation, append its time in ms to `samples`, and tally `check(result)`.

        An operation that raises counts as failed; the traceback goes to
        stderr and None is returned.
        """
        if self.tracer is not None:
            self.tracer.op += 1
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.tally(False, f"{what} raised")
            return None
        if samples is not None:
            samples.append((time.perf_counter() - t0) * 1000)
        self.tally(bool(check(result)), what)
        return result

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def clear_lru_caches(*modules) -> None:
    """Empty every functools cache found at module level."""
    for mod in modules:
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)) and hasattr(obj, "cache_info"):
                obj.cache_clear()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def environment(blas_threads: int) -> dict:
    """Interpreter, numpy, BLAS build and thread settings of this process."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas_threads": blas_threads,
        "machine": platform.machine(),
    }
