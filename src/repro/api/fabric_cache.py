"""Process-local warm-fabric cache: mapped hardware reused across runs.

Building an engine's compute fabric -- for the analog MVM engine,
tiling a weight stack into differential crossbar pairs and decomposing
it into bit planes -- can dominate a small run's wall time.  For *ideal*
fabrics that construction is a deterministic, entropy-free pure
function of the spec's structure, and ideal execution never mutates the
mapped arrays, so a long-lived worker can keep the mapped fabric warm
and serve later runs of the same structure with a fresh cost ledger
(:meth:`~repro.mvm.analog.AnalogAccelerator.ledger_twin`) instead of a
remap.  Reuse is bit-identical by construction: the cached template is
only accepted after its source data verifies equal, and twins were
pinned identical to fresh construction in the PR-8 equivalence suite.

The cache is deliberately *opt-in and process-local*: nothing is warm
unless a host (a :class:`~repro.parallel.pool.WorkerPool` worker, a
long-lived service process) activates a cache via
:func:`activate_fabric_cache`.  Plain ``Engine.from_spec(spec).run()``
calls keep their stateless cold-construction semantics.  Nonideal
fabrics are never cached -- their construction draws per-item entropy
and their reads mutate shared state.

Keys are engine-chosen strings built on
:meth:`~repro.api.spec.ScenarioSpec.structure_hash` (the spec minus its
batch width), so batch-width-only traffic variations share hardware
while any change to engine, workload, device window, sizes, seed,
params or nonideality splits the entry.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from typing import Any

__all__ = [
    "FabricCache",
    "FabricCacheStats",
    "activate_fabric_cache",
    "active_fabric_cache",
    "deactivate_fabric_cache",
]


@dataclasses.dataclass(frozen=True)
class FabricCacheStats:
    """Counters of one :class:`FabricCache`'s lifetime.

    Attributes:
        hits: lookups answered from a warm entry.
        misses: lookups finding no (or an unverifiable) entry.
        stores: templates written.
        evictions: entries displaced by the LRU cap.
        entries: entries currently warm.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    entries: int = 0

    def as_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)

    def delta(self, since: "FabricCacheStats") -> "FabricCacheStats":
        """The counter increments between ``since`` and this snapshot."""
        return FabricCacheStats(
            hits=self.hits - since.hits,
            misses=self.misses - since.misses,
            stores=self.stores - since.stores,
            evictions=self.evictions - since.evictions,
            entries=self.entries,
        )

    def merged_with(self, other: "FabricCacheStats") -> "FabricCacheStats":
        """Counter sums (entries: sum of the per-process populations)."""
        return FabricCacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            stores=self.stores + other.stores,
            evictions=self.evictions + other.evictions,
            entries=self.entries + other.entries,
        )


class FabricCache:
    """An LRU store of warm fabric templates, keyed by structure.

    Values are opaque to the cache (the owning engine decides what a
    template is and how to verify it); the cache owns only lifetime,
    LRU order and counters.  Thread-safe: the serving pool's inline
    mode shares one cache across executor threads.

    Args:
        max_entries: LRU capacity (a mapped analog fabric holds the
            full stacked conductance tensors, so the default is small).
    """

    def __init__(self, max_entries: int = 8) -> None:
        if not isinstance(max_entries, int) or isinstance(max_entries, bool) \
                or max_entries < 1:
            raise ValueError("max_entries must be a positive integer")
        self.max_entries = max_entries
        self._entries: OrderedDict[str, Any] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._evictions = 0

    def lookup(self, key: str) -> Any | None:
        """The warm template under ``key`` (marked recently used)."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def miss(self) -> None:
        """Count a verification failure as a miss.

        Engines call this when :meth:`lookup` returned an entry whose
        source data no longer verifies equal (so the 'hit' must be
        demoted), keeping hit/miss totals honest.
        """
        with self._lock:
            self._hits -= 1
            self._misses += 1

    def store(self, key: str, value: Any) -> None:
        """Warm ``key`` with ``value``, evicting LRU overflow."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1
            self._stores += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> FabricCacheStats:
        """A consistent snapshot of the lifetime counters."""
        with self._lock:
            return FabricCacheStats(
                hits=self._hits,
                misses=self._misses,
                stores=self._stores,
                evictions=self._evictions,
                entries=len(self._entries),
            )


#: The process's active cache (None = cold construction everywhere).
_ACTIVE: FabricCache | None = None


def activate_fabric_cache(
    cache: FabricCache | None = None,
) -> FabricCache:
    """Install ``cache`` (or a fresh default one) as process-active.

    Returns:
        The installed cache, so hosts can read its stats later.
    """
    global _ACTIVE
    if cache is None:
        cache = FabricCache()
    _ACTIVE = cache
    return cache


def active_fabric_cache() -> FabricCache | None:
    """The process's active cache, or None when construction is cold."""
    return _ACTIVE


def deactivate_fabric_cache() -> None:
    """Return the process to cold (stateless) fabric construction."""
    global _ACTIVE
    _ACTIVE = None
