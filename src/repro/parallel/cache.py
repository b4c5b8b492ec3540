"""Content-addressed on-disk result cache keyed by the spec hash.

Every cache entry is one JSON file at
``<root>/<hh>/<hash>.json`` where ``hash`` is
:meth:`ScenarioSpec.canonical_hash` (SHA-256 over the canonical spec
JSON) and ``hh`` its first two hex digits (a fan-out directory, so huge
sweeps do not pile thousands of files into one directory).  The entry
stores the spec alongside the result: on load the stored spec must
equal the requested one, so a (vanishingly unlikely) hash collision or
a stale file degrades to a miss, never to a wrong result.

Robustness contract:

* **writes are atomic** -- serialized to a temp file in the same
  directory, then ``os.replace``d into place, so a crashed or
  concurrent writer can never leave a half-written entry under the
  final name;
* **corrupted entries recover** -- any unreadable, unparsable or
  schema-mismatched entry is treated as a miss and deleted, and the
  next ``store`` rewrites it;
* **bounded growth** -- optional ``max_entries`` / ``max_bytes`` caps
  prune least-recently-used entries after every store (hits touch the
  entry's mtime, so replayed results stay warm), and
  :meth:`ResultCache.prune` / ``repro cache prune`` apply the same
  policy on demand.  Pruning never parses payloads: a corrupted entry
  is just another file to evict.

Cache hits are marked in ``provenance["cache"]``; everything else in
the returned :class:`~repro.api.result.RunResult` round-trips through
the ``to_dict``/``from_dict`` forms (costs and spec exactly; outputs in
their JSON-normalized form).

Each instance counts its traffic as ``result_cache_*`` series in its
own metrics registry; :meth:`ResultCache.metrics` snapshots them, and
callers read each counter by series name.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Any

import repro
from repro.api.result import RunResult
from repro.api.spec import ScenarioSpec
from repro.obs.metrics import MetricsRegistry

__all__ = ["PruneStats", "ResultCache"]

#: Entry schema identifier; bump to invalidate every older entry.
CACHE_SCHEMA = "repro-result-cache-v1"


@dataclasses.dataclass(frozen=True)
class PruneStats:
    """What one :meth:`ResultCache.prune` pass did.

    Attributes:
        scanned: entry files found.
        removed: entries evicted.
        kept: entries surviving the caps.
        removed_bytes: bytes freed.
        kept_bytes: bytes still stored.
    """

    scanned: int = 0
    removed: int = 0
    kept: int = 0
    removed_bytes: int = 0
    kept_bytes: int = 0


class ResultCache:
    """A spec-hash-addressed store of :class:`RunResult` payloads.

    Args:
        root: cache directory (created lazily on first store).
        max_entries: optional entry-count cap; every store prunes the
            least-recently-used overflow.
        max_bytes: optional total-size cap, enforced the same way.
    """

    def __init__(
        self,
        root: str | Path,
        max_entries: int | None = None,
        max_bytes: int | None = None,
    ) -> None:
        self.root = Path(root)
        _validate_caps(max_entries, max_bytes)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        # Running size estimates for the capped store path: seeded by
        # one full scan on the first capped store, bumped per store,
        # trued up by every prune.  They only decide *when* to run a
        # real prune pass, so drift (concurrent writers, overwritten
        # entries) can at worst mistime a prune, never corrupt one.
        self._bytes_estimate: int | None = None
        self._entries_estimate: int | None = None
        # Lifetime traffic counters (see metrics()), held as series in
        # this instance's own metrics registry so the serving layer can
        # fold them into its unified snapshot.
        self._metrics = MetricsRegistry()
        self._hits = self._metrics.counter("result_cache_hits_total")
        self._misses = self._metrics.counter("result_cache_misses_total")
        self._stores = self._metrics.counter("result_cache_stores_total")
        self._evictions = self._metrics.counter(
            "result_cache_evictions_total")
        self._corrupt_dropped = self._metrics.counter(
            "result_cache_corrupt_dropped_total")
        self._stale_dropped = self._metrics.counter(
            "result_cache_stale_dropped_total")

    def metrics(self) -> dict[str, Any]:
        """This instance's lifetime ``result_cache_*`` counters.

        In-memory accounting (a fresh instance over an old directory
        starts at zero) of hits, misses (absent, corrupt, stale-version
        and hash-collision entries all count), stores, evictions (prune
        passes, automatic ones included), and the ``corrupt_dropped``
        and ``stale_dropped`` subsets of the misses.  The serving cache
        tier merges it into
        :meth:`~repro.serving.service.Service.metrics`; ``repro cache
        prune --verbose`` prints it.
        """
        return self._metrics.snapshot()

    def path_for(self, spec: ScenarioSpec) -> Path:
        """The entry path ``spec`` addresses (existing or not)."""
        key = spec.canonical_hash()
        return self.root / key[:2] / f"{key}.json"

    def load(self, spec: ScenarioSpec) -> RunResult | None:
        """The cached result for ``spec``, or None on a miss.

        A hit's provenance gains ``{"cache": {"hit": True, ...}}`` so
        callers (and the CLI) can tell replayed results from fresh
        ones; the producing run's scheduling provenance (wall time,
        shard plan) is moved under ``cache["producer"]`` rather than
        presented as if it described the replay.  Entries produced by a
        different ``repro`` version are misses -- a code change may
        have changed what the spec computes, and a silently replayed
        pre-change result would be wrong with no warning.  Corrupted
        entries are deleted and reported as misses.
        """
        path = self.path_for(spec)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            self._misses.inc()
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self._discard(path)
            self._misses.inc()
            self._corrupt_dropped.inc()
            return None
        try:
            if payload["schema"] != CACHE_SCHEMA:
                raise ValueError("schema mismatch")
            stored_spec = payload["spec"]
            result = RunResult.from_dict(payload["result"])
        except (AttributeError, IndexError, KeyError, OverflowError,
                TypeError, ValueError):
            # Anything a structurally wrong JSON payload can make the
            # decoders raise -- not just the documented trio: a list
            # where a mapping should be (AttributeError/IndexError), or
            # a 1e999-style float overflowing int() (OverflowError).
            # The hit path must degrade to a recompute, never crash.
            self._discard(path)
            self._misses.inc()
            self._corrupt_dropped.inc()
            return None
        if stored_spec != spec.to_dict():
            # Hash collision or stale key derivation: a valid entry that
            # answers a different question.  Not corruption -- leave it.
            self._misses.inc()
            return None
        if result.provenance.get("repro_version") != repro.__version__:
            # Valid entry from another code version: stale, not
            # corrupt.  Report a miss; the rerun's store overwrites it.
            self._misses.inc()
            self._stale_dropped.inc()
            return None
        producer = {
            key: result.provenance[key]
            for key in ("wall_seconds", "parallel", "trace")
            if key in result.provenance
        }
        provenance = {
            key: value for key, value in result.provenance.items()
            if key not in producer
        }
        provenance["cache"] = {
            "hit": True,
            "key": spec.canonical_hash(),
            "producer": producer,
        }
        # LRU bookkeeping: a hit marks the entry recently used, so the
        # size-cap pruner evicts cold entries first.
        try:
            os.utime(path, None)
        except OSError:
            pass
        self._hits.inc()
        return RunResult(
            spec=result.spec,
            outputs=result.outputs,
            cost=result.cost,
            item_costs=result.item_costs,
            provenance=provenance,
            fidelity=result.fidelity,
            accuracy=result.accuracy,
        )

    def store(self, result: RunResult) -> Path:
        """Persist ``result`` under its spec hash (atomically).

        Returns:
            The entry path written.
        """
        path = self.path_for(result.spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": CACHE_SCHEMA,
            "key": result.spec.canonical_hash(),
            "spec": result.spec.to_dict(),
            "result": result.to_dict(),
        }
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True) + "\n")
        os.replace(tmp, path)
        self._stores.inc()
        if self.max_entries is not None or self.max_bytes is not None:
            if self._over_caps_estimate(path):
                self.prune(max_entries=self.max_entries,
                           max_bytes=self.max_bytes)
        return path

    def _over_caps_estimate(self, stored: Path) -> bool:
        """Cheaply decide whether a store may have exceeded the caps.

        Both caps use running estimates, seeded with a single full
        scan the first time and trued up by every prune, so an
        under-budget sweep never pays a per-store directory scan.
        """
        if self._bytes_estimate is None or self._entries_estimate is None:
            entries = self._collect_entries()
            self._bytes_estimate = sum(size for _, size, _ in entries)
            self._entries_estimate = len(entries)
        else:
            self._entries_estimate += 1
            try:
                self._bytes_estimate += stored.stat().st_size
            except OSError:
                pass
        if self.max_bytes is not None \
                and self._bytes_estimate > self.max_bytes:
            return True
        return self.max_entries is not None \
            and self._entries_estimate > self.max_entries

    # -- size management -------------------------------------------------------

    def entry_paths(self) -> list[Path]:
        """Every entry file currently stored (sorted, tmp files excluded)."""
        return sorted(self.root.glob("*/*.json"))

    def prune(
        self,
        max_entries: int | None = None,
        max_bytes: int | None = None,
    ) -> PruneStats:
        """Evict least-recently-used entries down to the given caps.

        Entries are ranked by mtime (stores write it, hits touch it)
        and the *most-recent prefix* that fits both caps survives --
        everything older than the first entry that busts a cap is
        evicted, which is exactly evict-oldest-until-under-budget LRU
        (a cold small entry never outlives a warm large one).  Mtime
        ties break by path name for determinism.  Files that vanish
        mid-scan (a concurrent pruner or store) are skipped;
        unreadable-but-present files still count by size and evict
        like any other entry, so a corrupted cache prunes without
        error.

        Args:
            max_entries: keep at most this many entries (None: no cap).
            max_bytes: keep at most this many payload bytes (None: no
                cap).  An entry larger than the whole budget is evicted
                outright.

        Returns:
            A :class:`PruneStats` accounting of the pass.

        Raises:
            ValueError: on a zero or negative cap -- the same
                validation the constructor applies, so a sign slip
                cannot silently evict the whole cache.
        """
        _validate_caps(max_entries, max_bytes)
        entries = self._collect_entries()
        kept = removed = kept_bytes = removed_bytes = 0
        evicting = False
        for _, size, path in entries:
            if not evicting:
                evicting = (
                    (max_entries is not None and kept >= max_entries)
                    or (max_bytes is not None
                        and kept_bytes + size > max_bytes)
                )
            if evicting:
                self._discard(path)
                removed += 1
                removed_bytes += size
            else:
                kept += 1
                kept_bytes += size
        self._bytes_estimate = kept_bytes
        self._entries_estimate = kept
        self._evictions.inc(removed)
        return PruneStats(
            scanned=len(entries),
            removed=removed,
            kept=kept,
            removed_bytes=removed_bytes,
            kept_bytes=kept_bytes,
        )

    def _collect_entries(self) -> list[tuple[float, int, Path]]:
        """Stat every entry, newest first (mtime desc, path tie-break)."""
        entries = []
        for path in self.entry_paths():
            try:
                stat = path.stat()
            except OSError:
                continue  # vanished mid-scan
            entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort(key=lambda e: (-e[0], e[2].name))
        return entries

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass


def _validate_caps(max_entries: int | None, max_bytes: int | None) -> None:
    """Shared cap validation for the constructor and :meth:`prune`."""
    for name, value in (("max_entries", max_entries),
                        ("max_bytes", max_bytes)):
        if value is not None and (
                not isinstance(value, int)
                or isinstance(value, bool) or value < 1):
            raise ValueError(
                f"{name} must be a positive integer or None, "
                f"got {value!r}"
            )
