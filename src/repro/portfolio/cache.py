"""Content-addressed, on-disk solution cache.

Re-solving an identical instance with an identical scheduler spec repeats
the full search.  This module memoizes solved requests on disk, keyed by
``(instance signature, scheduler spec, seed)``:

* the *instance signature* (:func:`repro.portfolio.features.instance_signature`)
  content-addresses the (DAG, machine) pair,
* the entry payload stores both the deterministic
  :class:`~repro.spec.SolveResult` dictionary and the full schedule
  (:func:`repro.experiments.persistence.schedule_to_dict`), so a hit can
  reproduce the exact solve outcome — byte-identical result, identical
  schedule — without re-running any scheduler,
* writes are atomic (temp file + ``os.replace`` in the same directory), so
  concurrent workers of a :class:`~repro.experiments.runner.ParallelRunner`
  pool can share one cache directory without torn entries,
* every entry carries a ``format`` version header; entries written by an
  incompatible cache format are treated as misses (and overwritten on the
  next store),
* an in-process LRU layer serves repeated hits of hot keys without touching
  the filesystem.

The on-disk tier is unbounded; removing the directory clears it.

Layout: ``<root>/<sig[:2]>/<key>.json`` where ``key`` is the SHA-256 of
``signature|scheduler spec|seed`` — flat, shardable, and independent of any
filesystem-unsafe characters a spec string may contain.  Any other file in
a shard (such as the ``.journal`` access log older versions kept) is not an
entry and is ignored.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..model.schedule import BspSchedule
from ..obs import trace as _trace
from ..obs.metrics import Metrics
from ..spec import SolveResult

__all__ = [
    "CACHE_FORMAT_VERSION",
    "CacheEntry",
    "SolutionCache",
    "default_cache_dir",
    "set_default_cache_dir",
]

#: Version header of the on-disk entry format.  Bump whenever the payload
#: layout (or the serialization of schedules/results it embeds) changes
#: incompatibly; readers treat any other version as a miss.  Version 2:
#: :func:`repro.portfolio.features.instance_signature` started hashing array
#: dtypes, so signatures (and therefore keys) of v1 entries are not
#: comparable — stale v1 entries must read as misses, never as hits.
CACHE_FORMAT_VERSION = 2

PathLike = Union[str, Path]


#: Process-wide default cache directory (CLI ``--cache-dir`` / REPRO_CACHE_DIR).
_DEFAULT_CACHE_DIR: Optional[str] = None
#: Whether this module wrote REPRO_CACHE_DIR itself, and what it displaced —
#: clearing the default must restore the user's own variable, not delete it.
_ENV_OVERRIDDEN = False
_ENV_SAVED: Optional[str] = None


def set_default_cache_dir(path: Optional[PathLike]) -> Optional[str]:
    """Set (or clear, with ``None``) the process-wide default cache directory.

    Portfolio schedulers built with ``cache=default`` (and the CLI's
    ``--cache-dir`` flag) resolve through this hook.  The directory is also
    exported as ``REPRO_CACHE_DIR`` so that multiprocessing pool workers see
    it under *any* start method — with ``spawn`` (macOS/Windows) a worker
    re-imports this module and would otherwise come up with no default,
    silently disabling the cache for parallel batches.  Clearing restores
    whatever ``REPRO_CACHE_DIR`` held before this hook overrode it.

    Returns the directory this hook held before the call (``None`` if
    none), so a caller can put it back.
    """
    global _DEFAULT_CACHE_DIR, _ENV_OVERRIDDEN, _ENV_SAVED
    previous = _DEFAULT_CACHE_DIR
    if path is not None:
        if not _ENV_OVERRIDDEN:
            _ENV_SAVED = os.environ.get("REPRO_CACHE_DIR")
            _ENV_OVERRIDDEN = True
        _DEFAULT_CACHE_DIR = str(path)
        os.environ["REPRO_CACHE_DIR"] = _DEFAULT_CACHE_DIR
    else:
        _DEFAULT_CACHE_DIR = None
        if _ENV_OVERRIDDEN:
            if _ENV_SAVED is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = _ENV_SAVED
            _ENV_OVERRIDDEN = False
            _ENV_SAVED = None
    return previous


def default_cache_dir() -> Optional[str]:
    """The process-wide default cache directory, if any.

    Resolution order: :func:`set_default_cache_dir`, then the
    ``REPRO_CACHE_DIR`` environment variable, then ``None`` (caching off).
    """
    if _DEFAULT_CACHE_DIR is not None:
        return _DEFAULT_CACHE_DIR
    return os.environ.get("REPRO_CACHE_DIR") or None


@dataclass(frozen=True)
class CacheEntry:
    """One cached solution: the solve outcome plus its schedule.

    The schedule is the portfolio's half (a hit replays it instead of
    re-solving); the stored :class:`~repro.spec.SolveResult` is what the
    daemon answers with, and what ``portfolio-explain`` and services reading
    the cache directly get without re-costing — it is ``None`` when an entry
    predates a result-schema detail (never a reason to re-solve).

    Decoding a schedule rebuilds its DAG and machine, so :attr:`schedule` is
    decoded from the stored payload on first read only: a caller answering
    from the result pays nothing for it.  Every :meth:`SolutionCache.get`
    returns a new entry, so each hit still gets its own schedule.
    """

    result: Optional[SolveResult]
    #: The stored schedule dictionary (:func:`repro.experiments.persistence.schedule_to_dict`).
    schedule_payload: Dict[str, Any] = field(repr=False)
    #: The scheduler spec the portfolio actually delegated to (for
    #: ``portfolio-explain`` and cache introspection).
    chosen: str = ""

    @cached_property
    def schedule(self) -> BspSchedule:
        """The stored schedule; raises :class:`ValueError` if it cannot be decoded."""
        from ..experiments.persistence import schedule_from_dict

        try:
            return schedule_from_dict(self.schedule_payload)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"undecodable cached schedule: {exc!r}") from exc


class SolutionCache:
    """Content-addressed solution store with an in-process LRU layer.

    ``get``/``put`` never raise on cache corruption: an unreadable,
    malformed or version-incompatible entry is simply a miss.  ``hits`` /
    ``misses`` / ``stores`` count the traffic of this process.
    """

    def __init__(self, root: PathLike, *, max_memory_entries: int = 128) -> None:
        self.root = Path(root)
        self.max_memory_entries = int(max_memory_entries)
        self._lru: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        #: Per-instance metrics registry (merged into the daemon's ``metrics``
        #: wire op); the historical integer counters are read-only properties
        #: over these instruments.
        self.metrics = Metrics()
        self._hits = self.metrics.counter(
            "repro_cache_hits_total", help="Cache lookups served from LRU or disk"
        )
        self._misses = self.metrics.counter(
            "repro_cache_misses_total", help="Cache lookups that found no usable entry"
        )
        self._stores = self.metrics.counter(
            "repro_cache_stores_total", help="Entries written to the cache"
        )

    # ------------------------------------------------------------------
    # Counters (Metrics-backed, read as plain ints for compatibility)
    # ------------------------------------------------------------------
    @property
    def hits(self) -> int:
        return int(self._hits.value)

    @property
    def misses(self) -> int:
        return int(self._misses.value)

    @property
    def stores(self) -> int:
        return int(self._stores.value)

    def _count_hit(self) -> None:
        self._hits.inc()
        if _trace.enabled():
            _trace.event("cache", hit=True)

    def _count_miss(self) -> None:
        self._misses.inc()
        if _trace.enabled():
            _trace.event("cache", hit=False)

    # ------------------------------------------------------------------
    # Keys and paths
    # ------------------------------------------------------------------
    @staticmethod
    def key(signature: str, scheduler_spec: str, seed: Optional[int]) -> str:
        """Digest identifying one (instance, scheduler spec, seed) solution."""
        payload = f"{signature}|{scheduler_spec}|{'' if seed is None else int(seed)}"
        return hashlib.sha256(payload.encode()).hexdigest()

    def entry_path(self, signature: str, scheduler_spec: str, seed: Optional[int]) -> Path:
        """On-disk location of the entry (exists only after a store)."""
        key = self.key(signature, scheduler_spec, seed)
        return self.root / signature[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def get(
        self, signature: str, scheduler_spec: str, seed: Optional[int] = None
    ) -> Optional[CacheEntry]:
        """Cached solution for the key, or ``None`` on a miss.

        The entry's schedule is decoded when first read (see
        :class:`CacheEntry`); a caller that finds it undecodable treats the
        entry as a miss and reports so with :meth:`demote_hit`.
        """
        key = self.key(signature, scheduler_spec, seed)
        payload = self._lru_get(key)
        if payload is None:
            path = self.entry_path(signature, scheduler_spec, seed)
            try:
                payload = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError, ValueError):
                self._count_miss()
                return None
            if (
                not isinstance(payload, dict)
                or payload.get("format") != CACHE_FORMAT_VERSION
                or payload.get("key") != key
            ):
                self._count_miss()
                return None
            self._lru_put(key, payload)
        schedule = payload.get("schedule")
        if not isinstance(schedule, dict):
            self._count_miss()
            return None
        try:
            result: Optional[SolveResult] = SolveResult.from_dict(payload["result"])
        except (KeyError, TypeError, ValueError):
            result = None
        entry = CacheEntry(result=result, schedule_payload=schedule, chosen=payload.get("chosen", ""))
        self._count_hit()
        return entry

    def demote_hit(self) -> None:
        """Recount a hit as a miss: its caller could not decode the schedule."""
        self._hits.inc(-1)
        self._count_miss()

    def put(
        self,
        signature: str,
        scheduler_spec: str,
        seed: Optional[int],
        result: SolveResult,
        schedule: BspSchedule,
        *,
        chosen: str = "",
    ) -> Path:
        """Store one solution atomically; returns the entry path."""
        from ..experiments.persistence import schedule_to_dict

        key = self.key(signature, scheduler_spec, seed)
        payload: Dict[str, Any] = {
            "format": CACHE_FORMAT_VERSION,
            "key": key,
            "signature": signature,
            "scheduler": scheduler_spec,
            "seed": None if seed is None else int(seed),
            "chosen": chosen,
            "result": result.to_dict(),
            "schedule": schedule_to_dict(schedule),
        }
        path = self.entry_path(signature, scheduler_spec, seed)
        path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(payload, sort_keys=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".json")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._lru_put(key, payload)
        self._stores.inc()
        return path

    # ------------------------------------------------------------------
    # In-process LRU layer
    # ------------------------------------------------------------------
    def _lru_get(self, key: str) -> Optional[Dict[str, Any]]:
        payload = self._lru.get(key)
        if payload is not None:
            self._lru.move_to_end(key)
        return payload

    def _lru_put(self, key: str, payload: Dict[str, Any]) -> None:
        if self.max_memory_entries <= 0:
            return
        self._lru[key] = payload
        self._lru.move_to_end(key)
        while len(self._lru) > self.max_memory_entries:
            self._lru.popitem(last=False)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Hit/miss/store counters of this process, plus the LRU occupancy.

        This is the per-session telemetry surfaced by ``repro cache-stats``
        and the serve daemon's ``stats`` endpoint; on-disk totals are the
        separate (directory-walking) :meth:`disk_stats`.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "lru_entries": len(self._lru),
            "lru_capacity": self.max_memory_entries,
        }

    def disk_stats(self) -> Dict[str, int]:
        """On-disk totals: entry count, payload bytes, shard directories.

        Walks the cache root (missing root: all zeros).  In-flight temp
        files of concurrent writers (``.tmp-*``) are not counted — only
        fully committed entries — and only directories actually holding
        committed entries count as shards, so a stray subdirectory (editor
        droppings, an emptied-out shard) cannot inflate the telemetry.
        """
        entries = 0
        total_bytes = 0
        shards = 0
        try:
            shard_dirs = [p for p in self.root.iterdir() if p.is_dir()]
        except OSError:
            shard_dirs = []
        for shard in shard_dirs:
            shard_entries = 0
            try:
                for path in shard.iterdir():
                    if path.name.startswith(".tmp-") or path.suffix != ".json":
                        continue
                    try:
                        total_bytes += path.stat().st_size
                    except OSError:
                        continue  # concurrently replaced or removed
                    shard_entries += 1
            except OSError:
                continue
            entries += shard_entries
            if shard_entries:
                shards += 1
        return {"entries": entries, "bytes": total_bytes, "shards": shards}

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"SolutionCache(root={str(self.root)!r}, {self.stats()})"
