"""Concurrent access to one SolutionCache directory.

The serve daemon's workers, parallel batch runners and any number of other
processes may share a single cache directory.  The atomic-write contract
(temp file + ``os.replace``) promises that under arbitrary write/read
contention:

* a reader never observes a torn payload — every committed ``*.json`` file
  is complete, valid JSON at all times,
* a warm hit is byte-identical to the originally stored result,
* concurrent writers of the *same* key converge on one intact entry.

These tests hammer a shared directory from several processes and verify
exactly that.  Workers are module-level functions so they survive any
multiprocessing start method.
"""

import json
import multiprocessing
import threading

from repro.api import solve, to_solve_result
from repro.experiments.runner import WorkItem, execute_work_item_tolerant
from repro.portfolio.cache import CACHE_FORMAT_VERSION, SolutionCache
from repro.portfolio.features import instance_signature
from repro.spec import DagSpec, MachineSpec, ProblemSpec, SolveRequest

KEYS = 4  # distinct (instance, scheduler) keys the processes fight over
ROUNDS = 25


def request_for(seed: int) -> SolveRequest:
    return SolveRequest(
        spec=ProblemSpec(
            dag=DagSpec.generator("spmv", n=8, q=0.3, seed=seed),
            machine=MachineSpec(P=2, g=2, l=3),
        ),
        scheduler="etf",
    )


def solved_entry(seed: int):
    """(signature, spec, result, schedule) of one deterministic solve."""
    item = WorkItem.from_request(request_for(seed), keep_schedule=True)
    outcome = execute_work_item_tolerant(item)
    assert outcome.valid and outcome.schedule is not None
    return (
        instance_signature(item.dag, item.machine),
        item.scheduler,
        to_solve_result(item, outcome),
        outcome.schedule,
    )


def _writer_reader_storm(root: str, worker_seed: int) -> dict:
    """One process: interleave puts and gets over all shared keys."""
    cache = SolutionCache(root, max_memory_entries=2)  # tiny LRU: force disk reads
    entries = [solved_entry(seed) for seed in range(KEYS)]
    expected = {signature: result.to_json() for signature, _, result, _ in entries}
    observed = {"hits": 0, "misses": 0, "mismatches": 0}
    for round_no in range(ROUNDS):
        signature, spec, result, schedule = entries[(round_no + worker_seed) % KEYS]
        cache.put(signature, spec, None, result, schedule)
        for signature, spec, result, _ in entries:
            entry = cache.get(signature, spec, None)
            if entry is None:
                observed["misses"] += 1
            else:
                observed["hits"] += 1
                if entry.result is None or entry.result.to_json() != expected[signature]:
                    observed["mismatches"] += 1
    return observed


def _raw_file_scanner(root: str, _seed: int) -> dict:
    """One process: raw-read every committed entry file, flag torn JSON.

    Scans while the writer storm runs: polls until it has observed entries
    (the writers need a moment to solve their instances first), then keeps
    re-reading for a fixed number of passes looking for partial writes.
    """
    import time

    cache = SolutionCache(root)
    torn = 0
    scanned = 0
    deadline = time.monotonic() + 60.0
    passes_after_first_entry = 0
    while passes_after_first_entry < ROUNDS * 4 and time.monotonic() < deadline:
        saw_entry = False
        for shard in sorted(p for p in cache.root.glob("*") if p.is_dir()):
            for path in shard.glob("*.json"):
                if path.name.startswith(".tmp-"):
                    continue
                try:
                    payload = json.loads(path.read_text())
                except FileNotFoundError:
                    continue  # replaced mid-scan; os.replace keeps it atomic
                except json.JSONDecodeError:
                    torn += 1
                    continue
                saw_entry = True
                scanned += 1
                if payload.get("format") != CACHE_FORMAT_VERSION:
                    torn += 1
        if saw_entry:
            passes_after_first_entry += 1
        else:
            time.sleep(0.01)
    return {"torn": torn, "scanned": scanned}


class TestConcurrentCacheAccess:
    def test_multiprocess_storm_no_torn_payloads(self, tmp_path):
        root = str(tmp_path / "cache")
        with multiprocessing.Pool(4) as pool:
            writers = [
                pool.apply_async(_writer_reader_storm, (root, seed)) for seed in range(3)
            ]
            scanner = pool.apply_async(_raw_file_scanner, (root, 0))
            writer_stats = [w.get(timeout=300) for w in writers]
            scan_stats = scanner.get(timeout=300)
        assert scan_stats["torn"] == 0, "a reader observed a partially written entry"
        assert scan_stats["scanned"] > 0, "the scanner must have seen committed entries"
        for stats in writer_stats:
            assert stats["mismatches"] == 0, "a warm hit diverged from the stored result"
            assert stats["hits"] > 0
        # The storm converges on exactly one intact entry per key.
        cache = SolutionCache(root)
        assert cache.disk_stats()["entries"] == KEYS
        assert not list(cache.root.glob("*/.tmp-*")), "no temp files may survive"

    def test_warm_hits_byte_identical_after_contention(self, tmp_path):
        root = str(tmp_path / "cache")
        with multiprocessing.Pool(3) as pool:
            for result in [
                pool.apply_async(_writer_reader_storm, (root, seed)) for seed in range(3)
            ]:
                result.get(timeout=300)
        cache = SolutionCache(root)
        for seed in range(KEYS):
            signature, spec, result, _ = solved_entry(seed)
            entry = cache.get(signature, spec, None)
            assert entry is not None, "every fought-over key must end up cached"
            assert entry.result is not None
            assert entry.result.to_json() == result.to_json()
            assert entry.result.to_json() == solve(request_for(seed)).to_json()
            assert not entry.schedule.validation_errors()

    def test_threaded_storm_shares_one_lru(self, tmp_path):
        """Thread-level contention (the daemon's worker pool shape)."""
        cache = SolutionCache(tmp_path / "cache", max_memory_entries=8)
        entries = [solved_entry(seed) for seed in range(KEYS)]
        failures = []

        def storm(worker_seed: int) -> None:
            try:
                for round_no in range(ROUNDS):
                    signature, spec, result, schedule = entries[
                        (round_no + worker_seed) % KEYS
                    ]
                    cache.put(signature, spec, None, result, schedule)
                    entry = cache.get(signature, spec, None)
                    if entry is None or entry.result is None:
                        failures.append("miss directly after put")
                    elif entry.result.to_json() != result.to_json():
                        failures.append("hit diverged from stored result")
            except Exception as exc:  # pragma: no cover - surfaced via failures
                failures.append(repr(exc))

        threads = [threading.Thread(target=storm, args=(k,)) for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not failures, failures[:5]
        assert cache.disk_stats()["entries"] == KEYS
