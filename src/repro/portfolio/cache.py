"""Content-addressed, on-disk solution cache.

Re-solving an identical instance with an identical scheduler spec repeats
the full search — for the heavy repeated traffic the ROADMAP targets, that
is the single largest avoidable cost.  This module memoizes solved requests
on disk, keyed by ``(instance signature, scheduler spec, seed)``:

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
  the filesystem,
* the on-disk tier can be size-bounded (``max_disk_bytes`` /
  ``max_disk_entries``): every shard keeps an append-only *access journal*
  (one key per line, appended on disk reads and stores) from which
  :meth:`SolutionCache.evict` derives a least-recently-used order, and a
  store that pushes the directory over budget triggers best-effort eviction
  of the coldest entries.  ``repro cache-gc`` runs the same eviction
  explicitly.

Layout: ``<root>/<sig[:2]>/<key>.json`` where ``key`` is the SHA-256 of
``signature|scheduler spec|seed`` — flat, shardable, and independent of any
filesystem-unsafe characters a spec string may contain.  Each shard may
additionally hold a ``.journal`` file (the access journal; atomic one-line
appends, compacted via temp file + ``os.replace`` when it grows past
:data:`JOURNAL_COMPACT_BYTES`).
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
from typing import Any, Dict, List, Optional, Tuple, Union

from ..model.schedule import BspSchedule
from ..obs import trace as _trace
from ..obs.metrics import Metrics
from ..spec import SolveResult

__all__ = [
    "CACHE_FORMAT_VERSION",
    "JOURNAL_COMPACT_BYTES",
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

#: Name of the per-shard access-journal file.  A leading dot keeps it out of
#: the ``*.json`` entry namespace (and out of :meth:`SolutionCache.disk_stats`).
JOURNAL_NAME = ".journal"

#: Compact a shard's access journal (rewrite keeping only the last
#: occurrence of each live key) once an append leaves it past this size.
JOURNAL_COMPACT_BYTES = 256 * 1024

PathLike = Union[str, Path]


def _env_int(name: str) -> Optional[int]:
    """Optional integer knob from the environment (unset/invalid: ``None``)."""
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value > 0 else None

#: Process-wide default cache directory (CLI ``--cache-dir`` / REPRO_CACHE_DIR).
_DEFAULT_CACHE_DIR: Optional[str] = None
#: Whether this module wrote REPRO_CACHE_DIR itself, and what it displaced —
#: clearing the default must restore the user's own variable, not delete it.
_ENV_OVERRIDDEN = False
_ENV_SAVED: Optional[str] = None


def set_default_cache_dir(path: Optional[PathLike]) -> None:
    """Set (or clear, with ``None``) the process-wide default cache directory.

    Portfolio schedulers built with ``cache=default`` (and the CLI's
    ``--cache-dir`` flag) resolve through this hook.  The directory is also
    exported as ``REPRO_CACHE_DIR`` so that multiprocessing pool workers see
    it under *any* start method — with ``spawn`` (macOS/Windows) a worker
    re-imports this module and would otherwise come up with no default,
    silently disabling the cache for parallel batches.  Clearing restores
    whatever ``REPRO_CACHE_DIR`` held before this hook overrode it.
    """
    global _DEFAULT_CACHE_DIR, _ENV_OVERRIDDEN, _ENV_SAVED
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
    ``misses`` / ``stores`` / ``evictions`` count the traffic of this
    process.

    ``max_disk_bytes`` / ``max_disk_entries`` bound the on-disk tier
    (``None``, the default, means unbounded; the ``REPRO_CACHE_MAX_BYTES`` /
    ``REPRO_CACHE_MAX_ENTRIES`` environment variables supply process-wide
    defaults).  A :meth:`put` that leaves the directory over budget triggers
    best-effort LRU eviction — "best effort" because concurrent writers may
    momentarily overshoot; every writer converges the directory back under
    budget on its next store, and byte budgets admit at least the newest
    entry even when that entry alone exceeds them.
    """

    def __init__(
        self,
        root: PathLike,
        *,
        max_memory_entries: int = 128,
        max_disk_bytes: Optional[int] = None,
        max_disk_entries: Optional[int] = None,
    ) -> None:
        self.root = Path(root)
        self.max_memory_entries = int(max_memory_entries)
        if max_disk_bytes is None:
            max_disk_bytes = _env_int("REPRO_CACHE_MAX_BYTES")
        if max_disk_entries is None:
            max_disk_entries = _env_int("REPRO_CACHE_MAX_ENTRIES")
        self.max_disk_bytes = None if max_disk_bytes is None else int(max_disk_bytes)
        self.max_disk_entries = None if max_disk_entries is None else int(max_disk_entries)
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
        self._evictions = self.metrics.counter(
            "repro_cache_evictions_total", help="Entries evicted from the on-disk tier"
        )
        #: Running (entries, bytes) estimate of the on-disk tier, used to
        #: decide cheaply whether a put must walk the directory and evict.
        #: ``None`` until the first bounded put initializes it from disk.
        self._disk_usage: Optional[Tuple[int, int]] = None

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

    @property
    def evictions(self) -> int:
        return int(self._evictions.value)

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
            # A disk read is an access: record it so eviction keeps hot
            # entries.  (In-process LRU hits never touch the filesystem and
            # are deliberately not journaled.)
            self._journal_record(path.parent, key)
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
        self._journal_record(path.parent, key)
        self._account_store(len(text))
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
    # Access journal (per shard, append-only)
    # ------------------------------------------------------------------
    def _journal_record(self, shard_dir: Path, key: str) -> None:
        """Append one access record (best effort; a lost line only ages the key).

        A record is one ``key\\n`` line — far below ``PIPE_BUF``, so
        concurrent ``O_APPEND`` writers never interleave within a line.  The
        handle position after the append is the file size, which makes the
        compaction check free.
        """
        try:
            with (shard_dir / JOURNAL_NAME).open("a") as handle:
                handle.write(key + "\n")
                size = handle.tell()
        except OSError:
            return
        if size > JOURNAL_COMPACT_BYTES:
            self._compact_journal(shard_dir)

    @staticmethod
    def _journal_order(shard_dir: Path) -> Dict[str, int]:
        """``{key: index of its last access line}`` of one shard's journal.

        Larger index = more recently used.  Unreadable journals (or shards
        that never had one) yield an empty order — their entries rank
        coldest.
        """
        order: Dict[str, int] = {}
        try:
            with (shard_dir / JOURNAL_NAME).open() as handle:
                for index, line in enumerate(handle):
                    token = line.strip()
                    if token:
                        order[token] = index
        except OSError:
            pass
        return order

    def _compact_journal(self, shard_dir: Path) -> None:
        """Rewrite a shard journal keeping one line per live key, LRU-ordered.

        Atomic via temp file + ``os.replace``.  An access appended by a
        concurrent process between the read and the replace is lost, which
        merely makes that key look slightly colder — the journal is an
        eviction-ordering aid, not a ledger.
        """
        live = self._shard_keys(shard_dir)
        order = self._journal_order(shard_dir)
        keys = sorted((index, key) for key, index in order.items() if key in live)
        try:
            fd, tmp = tempfile.mkstemp(dir=shard_dir, prefix=".tmp-", suffix=".journal")
        except OSError:
            return
        try:
            with os.fdopen(fd, "w") as handle:
                for _, key in keys:
                    handle.write(key + "\n")
            os.replace(tmp, shard_dir / JOURNAL_NAME)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    @staticmethod
    def _shard_keys(shard_dir: Path) -> set:
        """Keys of the committed entries of one shard directory."""
        try:
            return {
                path.stem
                for path in shard_dir.iterdir()
                if path.suffix == ".json" and not path.name.startswith(".tmp-")
            }
        except OSError:
            return set()

    # ------------------------------------------------------------------
    # Size-bounded eviction
    # ------------------------------------------------------------------
    def _account_store(self, entry_bytes: int) -> None:
        """Update the disk-usage estimate after a store; evict when over budget.

        The estimate deliberately over-counts (an overwritten key is counted
        again): over-counting triggers an eviction pass that recomputes the
        truth from disk, while under-counting could let the directory grow
        past the budget unnoticed.
        """
        if self.max_disk_bytes is None and self.max_disk_entries is None:
            return
        if self._disk_usage is None:
            on_disk = self.disk_stats()
            self._disk_usage = (on_disk["entries"], on_disk["bytes"])
        else:
            entries, total = self._disk_usage
            self._disk_usage = (entries + 1, total + entry_bytes)
        entries, total = self._disk_usage
        over_bytes = self.max_disk_bytes is not None and total > self.max_disk_bytes
        over_entries = self.max_disk_entries is not None and entries > self.max_disk_entries
        if over_bytes or over_entries:
            self.evict()

    def evict(
        self,
        *,
        max_bytes: Optional[int] = None,
        max_entries: Optional[int] = None,
        dry_run: bool = False,
    ) -> Dict[str, int]:
        """Delete least-recently-used entries until the cache fits the budget.

        ``max_bytes`` / ``max_entries`` default to the instance budgets.
        Entries are ranked by their last access recorded in the per-shard
        journals (journal position is scaled to the shard's journal length so
        shards of different traffic compare; entries with no journal record
        rank coldest, ties break on the key — deterministic across runs).
        Unlinks are best effort: an entry another process already evicted is
        simply skipped.  With ``dry_run`` nothing is deleted and the report
        shows what would happen.  Shard journals are compacted afterwards.

        Returns a report dict: ``scanned_entries`` / ``scanned_bytes`` /
        ``evicted_entries`` / ``evicted_bytes`` / ``remaining_entries`` /
        ``remaining_bytes``.
        """
        if max_bytes is None:
            max_bytes = self.max_disk_bytes
        if max_entries is None:
            max_entries = self.max_disk_entries

        ranked: List[Tuple[float, str, Path, int]] = []
        touched_shards: List[Path] = []
        try:
            shard_dirs = sorted(p for p in self.root.iterdir() if p.is_dir())
        except OSError:
            shard_dirs = []
        for shard in shard_dirs:
            order = self._journal_order(shard)
            span = float(max(len(order), 1))
            try:
                paths = sorted(shard.iterdir())
            except OSError:
                continue
            saw_entry = False
            for path in paths:
                if path.suffix != ".json" or path.name.startswith(".tmp-"):
                    continue
                try:
                    size = path.stat().st_size
                except OSError:
                    continue  # concurrently evicted/replaced
                key = path.stem
                last = order.get(key)
                recency = -1.0 if last is None else (last + 1) / span
                ranked.append((recency, key, path, size))
                saw_entry = True
            if saw_entry:
                touched_shards.append(shard)

        total_entries = len(ranked)
        total_bytes = sum(size for _, _, _, size in ranked)
        scanned_entries, scanned_bytes = total_entries, total_bytes
        ranked.sort(key=lambda item: (item[0], item[1]))

        evicted_entries = 0
        evicted_bytes = 0
        for _, _, path, size in ranked:
            over_bytes = max_bytes is not None and total_bytes > max_bytes
            over_entries = max_entries is not None and total_entries > max_entries
            if not (over_bytes or over_entries):
                break
            if total_entries <= 1 and not over_entries:
                break  # a byte budget never evicts the sole (newest) entry
            if not dry_run:
                try:
                    os.unlink(path)
                except OSError:
                    pass  # already gone: still leaves the directory smaller
            total_entries -= 1
            total_bytes -= size
            evicted_entries += 1
            evicted_bytes += size

        if not dry_run:
            for shard in touched_shards:
                self._compact_journal(shard)
            self._evictions.inc(evicted_entries)
            self._disk_usage = (total_entries, total_bytes)
        return {
            "scanned_entries": scanned_entries,
            "scanned_bytes": scanned_bytes,
            "evicted_entries": evicted_entries,
            "evicted_bytes": evicted_bytes,
            "remaining_entries": total_entries,
            "remaining_bytes": total_bytes,
        }

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
            "evictions": self.evictions,
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
                        continue  # concurrently evicted/replaced
                    shard_entries += 1
            except OSError:
                continue
            entries += shard_entries
            if shard_entries:
                shards += 1
        return {"entries": entries, "bytes": total_bytes, "shards": shards}

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"SolutionCache(root={str(self.root)!r}, {self.stats()})"
