"""The on-disk tier of the SolutionCache: what ``disk_stats`` counts, and
directories written by older cache versions.

Older versions kept a per-shard ``.journal`` access log next to the entries.
Such a directory must still serve its entries as byte-identical hits, and
the log must never count as an entry.
"""

import pytest

from repro.api import to_solve_result
from repro.experiments.runner import WorkItem, execute_work_item_tolerant
from repro.portfolio.cache import SolutionCache
from repro.portfolio.features import instance_signature
from repro.spec import DagSpec, MachineSpec, ProblemSpec, SolveRequest


@pytest.fixture(scope="module")
def solved():
    """One deterministic solved instance: (signature, result, schedule)."""
    request = SolveRequest(
        spec=ProblemSpec(
            dag=DagSpec.generator("spmv", n=8, q=0.3, seed=5),
            machine=MachineSpec(P=2, g=2, l=3),
        ),
        scheduler="etf",
    )
    item = WorkItem.from_request(request, keep_schedule=True)
    outcome = execute_work_item_tolerant(item)
    assert outcome.valid and outcome.schedule is not None
    return (
        instance_signature(item.dag, item.machine),
        to_solve_result(item, outcome),
        outcome.schedule,
    )


def fill(cache, solved, specs):
    """Store one entry per scheduler-spec string (distinct keys, one shard)."""
    sig, result, schedule = solved
    for spec in specs:
        cache.put(sig, spec, None, result, schedule)
    return sig


class TestDiskStats:
    def test_stray_directories_do_not_count_as_shards(self, tmp_path, solved):
        """Regression: ``shards`` counted every subdirectory, committed
        entries or not, so editor droppings inflated ``repro cache-stats``."""
        cache = SolutionCache(tmp_path / "cache")
        fill(cache, solved, ["etf"])
        (cache.root / "stray").mkdir()  # empty non-shard directory
        noise = cache.root / "zz"
        noise.mkdir()
        (noise / "README.txt").write_text("not a cache entry")
        stats = cache.disk_stats()
        assert stats == {"entries": 1, "bytes": stats["bytes"], "shards": 1}
        assert stats["bytes"] > 0

    def test_legacy_journal_directory_serves_identical_hits(self, tmp_path, solved):
        sig, result, _ = solved
        writer = SolutionCache(tmp_path / "cache")
        fill(writer, solved, ["a", "b"])
        shard = writer.root / sig[:2]
        entry_bytes = sum(path.stat().st_size for path in shard.glob("*.json"))
        keys = [writer.key(sig, spec, None) for spec in ("a", "b", "a")]
        (shard / ".journal").write_text("".join(key + "\n" for key in keys))

        # A fresh instance with no memory tier reads every hit from disk.
        reader = SolutionCache(tmp_path / "cache", max_memory_entries=0)
        for spec in ("a", "b"):
            entry = reader.get(sig, spec, None)
            assert entry is not None and entry.result is not None
            assert entry.result.to_json() == result.to_json()
        assert (reader.hits, reader.misses) == (2, 0)
        assert reader.disk_stats() == {"entries": 2, "bytes": entry_bytes, "shards": 1}
