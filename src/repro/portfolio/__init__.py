"""Portfolio scheduling: per-instance algorithm selection plus solution caching.

The paper's evaluation shows that no single scheduler dominates across
instance families, size tiers and machine models.  This subsystem turns that
finding into an operational scheduler:

* :mod:`repro.portfolio.features` — a deterministic instance featurizer and
  the canonical content signature of a (DAG, machine) pair,
* :mod:`repro.portfolio.selector` — rule-based selection seeded from the
  paper's table winners, budget-aware successive-halving racing, the
  :class:`PortfolioScheduler` tying both to the registry, and the
  :class:`AdaptiveScheduler` rule (``adaptive(ccr_threshold, margin)``)
  racing the framework against the multilevel scheduler by effective CCR,
* :mod:`repro.portfolio.cache` — a content-addressed on-disk solution cache
  (atomic writes, versioned format, in-process LRU) serving identical
  re-solves without re-running any scheduler.

The subsystem is reachable as the registry entry ``portfolio(...)``::

    from repro import solve, SolveRequest, ProblemSpec, DagSpec, MachineSpec

    spec = ProblemSpec(dag=DagSpec.generator("spmv", n=20, q=0.25, seed=1),
                       machine=MachineSpec(P=4, g=2, l=5))
    solve(SolveRequest(spec=spec, scheduler="portfolio(cache='/tmp/repro-cache')"))
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".cache": (
        "CACHE_FORMAT_VERSION",
        "CacheEntry",
        "SolutionCache",
        "default_cache_dir",
        "set_default_cache_dir",
    ),
    ".features": ("InstanceFeatures", "extract_features", "instance_signature"),
    ".selector": (
        "AdaptiveScheduler",
        "DEFAULT_RACE_CANDIDATES",
        "PortfolioScheduler",
        "RaceOutcome",
        "SelectionRule",
        "RULES",
        "race",
        "select_scheduler",
    ),
})
