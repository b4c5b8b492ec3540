"""Measurement helpers: per-layer self-time timer, percentiles, the host
speed probes, peak RSS.

Nothing here imports the program under test, so these helpers also work
before the program's sources have been located.
"""

from __future__ import annotations

import math
import os
import statistics
import threading
import time
from collections import defaultdict


class LayerTimer:
    """Self time of wrapped calls, keyed by layer name.

    A wrapped call nested inside another wrapped call is billed to its
    own layer only: the outer layer's total excludes it, so the totals
    of one op never count the same interval twice.
    """

    def __init__(self) -> None:
        self.totals: dict[str, float] = defaultdict(float)
        self._child_time: list[float] = []

    def wrap(self, layer: str, fn):
        def timed(*args, **kwargs):
            self._child_time.append(0.0)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                nested = self._child_time.pop()
                self.totals[layer] += elapsed - nested
                if self._child_time:
                    self._child_time[-1] += elapsed
        return timed

    def call(self, layer: str, fn, *args, **kwargs):
        return self.wrap(layer, fn)(*args, **kwargs)


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile; failed ops enter as ``math.inf``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def host_probe() -> float:
    """Seconds a fixed slice of interpreter work takes right now (~3 ms).

    The benchmark host's other tenants slow it by up to 2x, for seconds
    or for minutes at a time; CPU time slows with wall time, so the
    slowdown is not steal.  Timed between closed-loop ops, this tells how
    fast the host ran.  The slice touches almost no memory, so the
    program's own state cannot slow it: a pool fork, which leaves this
    process's pages copy-on-write, slows a slice that allocates by 5-10%
    and this one not at all.
    """
    started = time.perf_counter()
    total = 0
    for i in range(80_000):
        total += i
    return time.perf_counter() - started


#: What :func:`host_probe` reads on a quiet 2-vCPU x86-64 VM.  Closed-loop
#: op times and set-up times are reported at this host speed.
REFERENCE_PROBE_S = 3.0e-3


#: Bytes one :func:`stream_probe` pass reads: more than the share of the
#: last-level cache a tenant of a shared host can count on.
STREAM_BYTES = 16 << 20
#: What :func:`stream_probe` reads while :func:`host_probe` reads
#: :data:`REFERENCE_PROBE_S`: the median ratio of the two, 0.47, measured
#: over 1500 interleaved pairs on a shared 2-vCPU x86-64 VM.
REFERENCE_STREAM_S = 1.4e-3
_stream_buffer = None


def stream_probe() -> float:
    """Seconds one read pass over :data:`STREAM_BYTES` takes right now.

    Its time follows the memory bandwidth the host's tenants share.  The
    buffer is allocated on first use, after the served workload's pool
    has forked, so its workers do not map it, and it is only ever read.
    """
    global _stream_buffer
    if _stream_buffer is None:
        import numpy
        _stream_buffer = numpy.ones(STREAM_BYTES // 8)
    started = time.perf_counter()
    _stream_buffer.sum()
    return time.perf_counter() - started


def mixed_probe() -> float:
    """:func:`host_probe` plus :func:`stream_probe`, on the scale of
    :func:`host_probe` (it reads :data:`REFERENCE_PROBE_S` at the
    reference speed).

    The analog MVM kernel streams arrays, so a served request slows with
    memory bandwidth as well as with interpreter speed.  Timed against
    both probes for four minutes on a noisy host, medians of five
    in-process runs of the served request scattered by 11% (standard
    deviation of the log) after scaling by :func:`host_probe` alone and
    by 8% after scaling by this sum.  MVP and AP ops scattered about as
    much either way, so the closed loops keep :func:`host_probe`.
    """
    reading = host_probe() + stream_probe()
    return reading * REFERENCE_PROBE_S / (REFERENCE_PROBE_S
                                          + REFERENCE_STREAM_S)


def at_reference_speed(seconds: float, probe: float) -> float:
    """``seconds`` of work timed while :func:`host_probe` read ``probe``,
    rescaled to the host speed at which it reads
    :data:`REFERENCE_PROBE_S`."""
    return seconds * REFERENCE_PROBE_S / probe


def finite(value: float, ceiling: float = 1e12) -> float:
    """JSON has no infinity: clamp a percentile that landed on a failure."""
    return value if math.isfinite(value) else ceiling


def _descendants(pid: int) -> list[int]:
    found = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                children = [int(c) for c in handle.read().split()]
        except OSError:
            continue
        for child in children:
            found.append(child)
            found.extend(_descendants(child))
    return found


def _peak_rss_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


#: Seconds between two peak-memory samples.
RSS_INTERVAL = 0.05


class PeakRss:
    """Peak resident memory of this process plus its live descendants.

    A sampler thread sums every process's own high-water mark (VmHWM)
    each :data:`RSS_INTERVAL` seconds and keeps the largest sum, so
    short-lived pool workers are counted while they are alive.
    """

    def __init__(self) -> None:
        self.peak_kib = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="perfbench-rss")

    def sample(self) -> None:
        me = os.getpid()
        total = sum(_peak_rss_kib(pid) for pid in [me, *_descendants(me)])
        self.peak_kib = max(self.peak_kib, total)

    def _loop(self) -> None:
        while not self._stop.wait(RSS_INTERVAL):
            self.sample()

    def __enter__(self) -> "PeakRss":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()

    @property
    def megabytes(self) -> float:
        return self.peak_kib / 1024.0
