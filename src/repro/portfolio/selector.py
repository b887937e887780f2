"""Portfolio selection: feature rules, budget-aware racing, and the schedulers.

Two selection modes back the ``portfolio(...)`` registry entry:

``rules``
    A deterministic decision list mapping feature regions to registry spec
    strings, seeded from the paper's table-level winners: memory-bounded
    machines need the memory-aware greedy/HC family, communication-dominated
    NUMA instances favour communication-aware local search (HCcs), tiny
    instances afford full hill climbing, huge instances only the cheap list
    schedulers, and coarse database DAGs (few nodes, heavy weights) go to
    the ETF list scheduler that handles their wide weight spread well.

``race``
    Successive halving over an explicit candidate list under a wall-clock
    budget: every candidate solves the instance with a slice of the budget,
    the better half survives into the next rung with twice the per-candidate
    budget, until one candidate (or the budget) remains.  Candidates run
    through :class:`~repro.experiments.runner.ParallelRunner`, so ``jobs > 1``
    races concurrently; invalid or failing candidates are eliminated instead
    of failing the race.

:class:`PortfolioScheduler` wraps both modes behind the ordinary
:class:`~repro.scheduler.Scheduler` interface and adds the content-addressed
solution cache: with a ``cache`` directory every solved instance is stored
under ``(instance signature, portfolio spec, seed)`` and an identical
re-solve returns the stored schedule without invoking any underlying
scheduler.

:class:`AdaptiveScheduler` backs the ``adaptive(ccr_threshold, margin)``
entry, the automatic choice between the paper's framework and its multilevel
scheduler that Appendix A.5 suggests: one effective-CCR rule picks the
framework, the multilevel scheduler, or (near the threshold) both, and
:func:`race` keeps the cheapest schedule.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..graphs.analysis import communication_to_computation_ratio
from ..graphs.dag import ComputationalDAG
from ..model.machine import BspMachine
from ..model.schedule import BspSchedule
from ..pipeline.config import MultilevelConfig
from ..scheduler import Scheduler, SchedulingError
from .cache import SolutionCache, default_cache_dir
from .features import InstanceFeatures, extract_features, instance_signature

__all__ = [
    "AdaptiveScheduler",
    "DEFAULT_RACE_CANDIDATES",
    "SelectionRule",
    "RULES",
    "PortfolioScheduler",
    "RaceOutcome",
    "race",
    "select_scheduler",
]


# ----------------------------------------------------------------------
# Rule-based selection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SelectionRule:
    """One row of the decision list: a predicate over features and a spec."""

    name: str
    description: str
    spec: str
    #: Predicate deciding whether this rule fires for a feature vector.
    predicate: object

    def matches(self, features: InstanceFeatures) -> bool:
        return bool(self.predicate(features))


#: Size-tier boundaries (node counts) used by the rules, matching the
#: paper's dataset tiers at reduced scale.
_TINY_MAX = 80
_LARGE_MIN = 1500

#: Effective-CCR threshold above which an instance counts as
#: communication-dominated (the multilevel/HCcs regime, Appendix A.5); the
#: ``comm-heavy-numa`` rule and :class:`AdaptiveScheduler` both test it.
_COMM_HEAVY_CCR = 8.0

#: The decision list of ``mode=rules``, evaluated top to bottom; the first
#: matching rule wins.  Every spec on the right-hand side is deterministic,
#: so rules-mode portfolio runs are reproducible end to end.
RULES: Tuple[SelectionRule, ...] = (
    SelectionRule(
        name="memory-bounded-tiny",
        description="memory-bounded machine, tiny instance: memory-aware greedy "
        "placement is already near-optimal and always feasible",
        spec="greedy-mem",
        predicate=lambda f: f.memory_bound_min > 0 and f.num_nodes <= 40,
    ),
    SelectionRule(
        name="memory-bounded",
        description="memory-bounded machine: hill climbing on a memory-aware "
        "greedy start (moves filtered to the feasible region)",
        spec="hc(init=greedy-mem)",
        predicate=lambda f: f.memory_bound_min > 0,
    ),
    SelectionRule(
        name="huge",
        description="huge instance: only the near-linear-time list schedulers "
        "are affordable; BL-EST handles NUMA coefficients",
        spec="bl-est",
        predicate=lambda f: f.num_nodes >= _LARGE_MIN,
    ),
    SelectionRule(
        name="coarse-database",
        description="coarse database DAG (few nodes, heavy per-node weights, "
        "wide weight spread): ETF places the dominant nodes earliest",
        spec="etf",
        predicate=lambda f: f.num_nodes <= 120 and f.avg_work >= 50.0,
    ),
    SelectionRule(
        name="comm-heavy-numa",
        description="communication-dominated NUMA instance: "
        "communication-schedule hill climbing exploits the lambda matrix",
        spec="hccs(init=bspg)",
        predicate=lambda f: not f.numa_uniform and f.effective_ccr >= _COMM_HEAVY_CCR,
    ),
    SelectionRule(
        name="source-rich",
        description="source-heavy DAG (wide independent first layer, the "
        "spmv/exp/cg/kNN shape): the source-partition initializer seeds "
        "hill climbing better than BSPg",
        spec="hc(init=source)",
        predicate=lambda f: f.num_nodes > 0 and f.num_sources >= 0.1 * f.num_nodes,
    ),
    SelectionRule(
        name="deep-chain",
        description="deep, narrow DAG: the source-partition initializer tracks "
        "the chain structure; HC cleans up",
        spec="hc(init=source)",
        predicate=lambda f: f.depth > 0 and f.avg_width < 2.0,
    ),
    SelectionRule(
        name="tiny",
        description="tiny instance: full hill climbing over a BSPg start is "
        "affordable and beats every one-shot baseline",
        spec="hc(init=bspg)",
        predicate=lambda f: f.num_nodes <= _TINY_MAX,
    ),
    SelectionRule(
        name="default",
        description="default regime (small .. large, compute-dominated): hill "
        "climbing on the BSPg greedy initialization",
        spec="hc(init=bspg)",
        predicate=lambda f: True,
    ),
)


def _allowed_rules(candidates: Optional[Sequence[str]]) -> List[SelectionRule]:
    """The rules whose spec is in ``candidates`` (all rules without them)."""
    allowed = None if candidates is None else {c.strip().lower() for c in candidates}
    return [rule for rule in RULES if allowed is None or rule.spec.lower() in allowed]


def select_scheduler(
    features: InstanceFeatures,
    *,
    candidates: Optional[Sequence[str]] = None,
) -> Tuple[str, SelectionRule]:
    """The registry spec the rules choose for a feature vector.

    With ``candidates`` the decision list is restricted to rules whose spec
    is in the candidate set (the last rule's spec falls back to the first
    candidate if no rule survives the restriction).  Returns the chosen spec
    and the rule that fired.
    """
    for rule in _allowed_rules(candidates):
        if rule.matches(features):
            return rule.spec, rule
    if not candidates:
        raise ValueError("select_scheduler needs a non-empty candidate set")
    fallback = SelectionRule(
        name="candidate-fallback",
        description="no rule spec is in the candidate set; first candidate wins",
        spec=tuple(candidates)[0],
        predicate=lambda f: True,
    )
    return fallback.spec, fallback


# ----------------------------------------------------------------------
# Budget-aware racing (successive halving)
# ----------------------------------------------------------------------
#: Default candidate set of ``mode=race`` — the deterministic spread of the
#: registry: cheap list schedulers, the level-set baseline, and the two
#: local-search families on a greedy start.
DEFAULT_RACE_CANDIDATES: Tuple[str, ...] = (
    "bl-est",
    "etf",
    "hdagg",
    "hc(init=bspg)",
    "hccs(init=bspg)",
)


@dataclass
class RaceOutcome:
    """Result of one race: the winner plus the full elimination history."""

    winner: str
    schedule: BspSchedule
    cost: float
    #: Best observed cost per candidate spec (``inf`` for failed candidates).
    costs: Dict[str, float]
    #: Candidate specs in elimination order (losers first, winner last).
    elimination_order: List[str]
    rounds: int


def _race_candidates_once(
    dag: ComputationalDAG,
    machine: BspMachine,
    specs: Sequence[str],
    *,
    time_limit: Optional[float],
    jobs: Optional[int],
) -> Dict[str, Tuple[float, Optional[BspSchedule]]]:
    """Run each candidate once (optionally wall-clock limited), tolerantly.

    Returns ``spec -> (cost, schedule)``; a candidate that raises or returns
    an invalid schedule gets ``(inf, None)`` instead of ending the race.
    """
    from ..experiments.runner import ParallelRunner, spec_items

    items = spec_items(dag, machine, specs, time_budget=time_limit, keep_schedule=True)
    # Default to serial execution (not the engine-wide REPRO_JOBS default):
    # a race may itself be running inside a ParallelRunner worker process,
    # which must not spawn a nested pool.  ``portfolio(jobs=N)`` opts in.
    runner = ParallelRunner(jobs if jobs is not None else 1, tolerant=True)
    results = runner.execute(items)
    outcome: Dict[str, Tuple[float, Optional[BspSchedule]]] = {}
    for spec, result in zip(specs, results):
        if not result.valid or result.schedule is None:
            outcome[spec] = (float("inf"), None)
        else:
            # The engine already costed the checked schedule; reuse it.
            outcome[spec] = (result.breakdown["total_cost"], result.schedule)
    return outcome


def race(
    dag: ComputationalDAG,
    machine: BspMachine,
    candidates: Sequence[str] = DEFAULT_RACE_CANDIDATES,
    *,
    budget: Optional[float] = None,
    jobs: Optional[int] = None,
) -> RaceOutcome:
    """Successive-halving race over ``candidates``; best valid schedule wins.

    The wall-clock ``budget`` (seconds) is split across halving rungs: rung
    0 runs every candidate with an equal slice, then the better half
    advances with a doubled per-candidate slice, until one candidate is left
    or the budget is exhausted (whichever comes first; without a budget the
    race is a single unlimited rung).  Candidates whose schedulers do not
    accept a ``time_limit`` run unbounded and are simply not re-run on later
    rungs — their cost cannot improve.
    """
    from ..registry import scheduler_info

    specs = list(dict.fromkeys(candidates))
    if not specs:
        raise ValueError("race needs at least one candidate scheduler spec")

    start = time.perf_counter()
    best: Dict[str, Tuple[float, Optional[BspSchedule]]] = {}
    elimination: List[str] = []
    rounds = 0

    if budget is None:
        best = _race_candidates_once(dag, machine, specs, time_limit=None, jobs=jobs)
        survivors = sorted(specs, key=lambda s: best[s][0])
        elimination = list(reversed(survivors[1:]))
        rounds = 1
    else:
        survivors = specs
        per_candidate = max(float(budget) / max(len(specs) * 2, 1), 0.05)
        while len(survivors) > 1:
            remaining = float(budget) - (time.perf_counter() - start)
            if rounds > 0 and remaining <= 0:
                break
            rung_limit = min(per_candidate, max(remaining, 0.05)) if rounds > 0 else per_candidate
            # Only wall-clock-limitable candidates benefit from a re-run
            # with a larger slice; the rest keep their rung-0 result.
            to_run = [
                s
                for s in survivors
                if s not in best or scheduler_info(s).accepts("time_limit")
            ]
            if to_run:
                outcome = _race_candidates_once(
                    dag, machine, to_run, time_limit=rung_limit, jobs=jobs
                )
                for spec, (cost, schedule) in outcome.items():
                    prev = best.get(spec)
                    if prev is None or cost < prev[0]:
                        best[spec] = (cost, schedule)
            rounds += 1
            ranked = sorted(survivors, key=lambda s: best[s][0])
            keep = max(1, len(ranked) // 2)
            eliminated = ranked[keep:]
            elimination.extend(reversed(eliminated))
            survivors = ranked[:keep]
            per_candidate *= 2.0
        if len(survivors) == 1 and survivors[0] not in best:
            # A single-candidate race still honours the budget: whatever
            # wall-clock remains is the candidate's limit.
            remaining = max(float(budget) - (time.perf_counter() - start), 0.05)
            best[survivors[0]] = _race_candidates_once(
                dag, machine, survivors, time_limit=remaining, jobs=jobs
            )[survivors[0]]
            rounds += 1

    winner = min(best, key=lambda s: best[s][0])
    cost, schedule = best[winner]
    if schedule is None:
        raise SchedulingError(
            "no race candidate produced a valid schedule "
            f"(candidates: {', '.join(specs)})"
        )
    # A budget can expire with several survivors left: record the
    # non-winning ones too (costliest first), so the elimination order
    # always lists every raced candidate with the winner last.
    leftovers = [s for s in best if s != winner and s not in elimination]
    elimination.extend(sorted(leftovers, key=lambda s: -best[s][0]))
    elimination.append(winner)
    return RaceOutcome(
        winner=winner,
        schedule=schedule,
        cost=cost,
        costs={spec: result[0] for spec, result in best.items()},
        elimination_order=elimination,
        rounds=rounds,
    )


# ----------------------------------------------------------------------
# The portfolio scheduler
# ----------------------------------------------------------------------
class PortfolioScheduler(Scheduler):
    """Per-instance scheduler selection with an optional solution cache.

    ``mode="rules"`` picks a registry spec from the feature-based decision
    list; ``mode="race"`` races the ``candidates`` under ``budget`` seconds.
    With a ``cache`` directory (or a process default, see
    :func:`repro.portfolio.cache.set_default_cache_dir`), solved instances
    are stored content-addressed and an identical re-solve is served from
    the cache without invoking any underlying scheduler.
    """

    name = "portfolio"

    def __init__(
        self,
        mode: str = "rules",
        budget: Optional[float] = None,
        candidates: Optional[Sequence[str]] = None,
        cache: Optional[Union[str, SolutionCache]] = None,
        seed: Optional[int] = None,
        jobs: Optional[int] = None,
    ) -> None:
        mode = str(mode).strip().lower()
        if mode not in ("rules", "race"):
            raise ValueError(f"unknown portfolio mode {mode!r}; expected 'rules' or 'race'")
        self.mode = mode
        self.budget = float(budget) if budget is not None else None
        if candidates is not None and not tuple(candidates):
            raise ValueError(
                "portfolio candidates must be non-empty when given "
                "(omit the parameter to use the defaults)"
            )
        self.candidates = tuple(candidates) if candidates is not None else None
        self.seed = int(seed) if seed is not None else None
        self.jobs = jobs
        if isinstance(cache, SolutionCache):
            self._cache: Optional[SolutionCache] = cache
            self.cache_dir: Optional[str] = str(cache.root)
        else:
            root = str(cache) if cache is not None else default_cache_dir()
            self.cache_dir = root
            self._cache = SolutionCache(root) if root else None
        #: The spec / rule / race outcome of the most recent schedule() call
        #: (introspection surface of ``repro portfolio-explain``).
        self.last_chosen: Optional[str] = None
        self.last_rule: Optional[SelectionRule] = None
        self.last_race: Optional[RaceOutcome] = None
        self.last_cache_hit: bool = False
        #: The full cache entry of the most recent hit (stored SolveResult
        #: + chosen spec), for explain/introspection consumers.
        self.last_cache_entry = None

    # ------------------------------------------------------------------
    @property
    def cache(self) -> Optional[SolutionCache]:
        return self._cache

    def spec_string(self) -> str:
        """Canonical registry spec of this portfolio configuration.

        This is the scheduler part of the cache key: two portfolio instances
        with the same configuration address the same cached solutions (the
        cache directory itself is deliberately not part of the key).
        """
        from ..registry import format_scheduler_spec

        kwargs: Dict[str, object] = {}
        if self.mode != "rules":
            kwargs["mode"] = self.mode
        if self.budget is not None:
            kwargs["budget"] = self.budget
        if self.candidates is not None:
            kwargs["candidates"] = tuple(self.candidates)
        if self.seed is not None:
            kwargs["seed"] = self.seed
        return format_scheduler_spec("portfolio", kwargs)

    # ------------------------------------------------------------------
    def choose(
        self, dag: ComputationalDAG, machine: BspMachine
    ) -> Tuple[str, InstanceFeatures, Optional[SelectionRule]]:
        """Rules-mode choice for an instance (no solving, no cache).

        Returns ``(spec, features, rule)``; for ``mode="race"`` the returned
        spec is the race's candidate list description and ``rule`` is
        ``None`` (the choice is made by racing, not by features).
        """
        features = extract_features(dag, machine)
        if self.mode == "race":
            return "race(" + ", ".join(self._race_candidates()) + ")", features, None
        spec, rule = select_scheduler(features, candidates=self.candidates)
        return spec, features, rule

    @property
    def deterministic(self) -> bool:
        if self.mode != "rules" or self.budget is not None:
            return False
        from ..registry import make_scheduler

        # Every spec it may choose: allowed rules plus the first-candidate fallback.
        choices = [rule.spec for rule in _allowed_rules(self.candidates)]
        choices += list(self.candidates or ())[:1]
        return all(make_scheduler(spec).deterministic for spec in choices)

    def _race_candidates(self) -> Sequence[str]:
        return self.candidates if self.candidates else DEFAULT_RACE_CANDIDATES

    # ------------------------------------------------------------------
    def schedule(self, dag: ComputationalDAG, machine: BspMachine) -> BspSchedule:
        self.last_chosen = None
        self.last_rule = None
        self.last_race = None
        self.last_cache_hit = False
        self.last_cache_entry = None

        # The content hash is only the cache's address — without a cache,
        # skip the O(n+m) hashing entirely.
        signature = None
        if self._cache is not None:
            signature = instance_signature(dag, machine)
            entry = self._cache.get(signature, self.spec_string(), self.seed)
            if entry is not None:
                try:
                    schedule = entry.schedule
                except ValueError:  # undecodable: a miss, re-solved and overwritten
                    self._cache.demote_hit()
                else:
                    self.last_cache_hit = True
                    self.last_cache_entry = entry
                    self.last_chosen = entry.chosen or None
                    return schedule

        if self.mode == "race":
            outcome = race(
                dag,
                machine,
                self._race_candidates(),
                budget=self.budget,
                jobs=self.jobs,
            )
            self.last_race = outcome
            self.last_chosen = outcome.winner
            schedule = outcome.schedule
        else:
            from ..registry import canonical_scheduler_spec, make_scheduler

            features = extract_features(dag, machine)
            chosen, rule = select_scheduler(features, candidates=self.candidates)
            if self.budget is not None:
                # A rules-mode budget is a wall-clock limit on the delegate:
                # merged into its time_limit parameter when it accepts one
                # (the HC/HCcs family does), a no-op for one-shot baselines.
                chosen = canonical_scheduler_spec(chosen, time_budget=self.budget)
            self.last_chosen = chosen
            self.last_rule = rule
            schedule = make_scheduler(chosen).schedule_checked(dag, machine)

        if self._cache is not None:
            self._cache.put(
                signature,
                self.spec_string(),
                self.seed,
                self._result_for_cache(dag, machine, schedule),
                schedule,
                chosen=self.last_chosen or "",
            )
        return schedule

    # ------------------------------------------------------------------
    def _result_for_cache(
        self, dag: ComputationalDAG, machine: BspMachine, schedule: BspSchedule
    ) -> "SolveResult":
        """The deterministic SolveResult stored alongside the schedule."""
        from ..spec import MachineSpec, SolveResult

        breakdown = schedule.cost_breakdown()
        return SolveResult(
            scheduler=self.spec_string(),
            dag_name=dag.name,
            num_nodes=int(dag.n),
            machine=MachineSpec.from_machine(machine),
            total_cost=float(breakdown.total),
            work_cost=float(breakdown.work_cost),
            comm_cost=float(breakdown.comm_cost),
            latency_cost=float(breakdown.latency_cost),
            num_supersteps=int(breakdown.num_supersteps),
            valid=True,
            scheduler_description=f"portfolio[{self.last_chosen}]",
            deterministic=self.deterministic,
        )


# ----------------------------------------------------------------------
# CCR-based choice between the framework and the multilevel scheduler
# ----------------------------------------------------------------------
class AdaptiveScheduler(Scheduler):
    """Race the framework, the multilevel scheduler, or both, by CCR.

    Below ``ccr_threshold * (1 - margin)`` only the framework runs, above
    ``ccr_threshold * (1 + margin)`` only the multilevel scheduler; in the
    band between, both run in one unbudgeted :func:`race` and the cheaper
    valid schedule wins (the framework on ties).  DAGs too small to coarsen
    always go to the framework.  Both use their registry defaults.
    """

    name = "Adaptive"

    def __init__(self, ccr_threshold: float = _COMM_HEAVY_CCR, margin: float = 0.5) -> None:
        if ccr_threshold <= 0:
            raise ValueError("ccr_threshold must be positive")
        if margin < 0:
            raise ValueError("margin must be non-negative")
        self.ccr_threshold = float(ccr_threshold)
        self.margin = float(margin)
        #: The race of the most recent schedule() call.
        self.last_race: Optional[RaceOutcome] = None

    @property
    def deterministic(self) -> bool:
        from ..registry import make_scheduler

        return all(make_scheduler(s).deterministic for s in ("framework", "multilevel"))

    def candidates(self, ccr: float, num_nodes: int) -> Tuple[str, ...]:
        """The registry specs raced for an instance of this CCR and size."""
        too_small = num_nodes <= MultilevelConfig.min_coarse_nodes
        if too_small or ccr < self.ccr_threshold * (1.0 - self.margin):
            return ("framework",)
        if ccr > self.ccr_threshold * (1.0 + self.margin):
            return ("multilevel",)
        return ("framework", "multilevel")

    def schedule(self, dag: ComputationalDAG, machine: BspMachine) -> BspSchedule:
        ccr = communication_to_computation_ratio(dag, machine)
        self.last_race = race(dag, machine, self.candidates(ccr, dag.n))
        return self.last_race.schedule
