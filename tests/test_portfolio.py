"""Tests for the portfolio subsystem: features, rules, racing, caching."""

import json

import numpy as np
import pytest

from repro.graphs.fine import cg_dag, spmv_dag
from repro.model.machine import BspMachine
from repro.portfolio import (
    DEFAULT_RACE_CANDIDATES,
    InstanceFeatures,
    PortfolioScheduler,
    SolutionCache,
    extract_features,
    instance_signature,
    race,
    select_scheduler,
)
from repro.portfolio.cache import CACHE_FORMAT_VERSION, default_cache_dir, set_default_cache_dir
from repro.registry import make_scheduler, parse_scheduler_spec
from repro.scheduler import SchedulingError


@pytest.fixture
def instance():
    dag = spmv_dag(8, q=0.3, seed=3)
    machine = BspMachine(P=4, g=2.0, l=5.0)
    return dag, machine


class TestFeatures:
    def test_feature_vector_matches_instance(self, instance):
        dag, machine = instance
        f = extract_features(dag, machine)
        assert f.num_nodes == dag.n
        assert f.num_edges == dag.num_edges
        assert f.P == 4 and f.g == 2.0 and f.l == 5.0
        assert f.total_work == dag.total_work()
        assert f.numa_uniform is True
        assert f.memory_pressure == 0.0 and f.memory_bound_min == 0.0
        assert f.avg_width == pytest.approx(dag.n / dag.depth())

    def test_features_json_round_trip(self, instance):
        f = extract_features(*instance)
        data = json.loads(json.dumps(f.to_dict()))
        assert InstanceFeatures.from_dict(data) == f

    def test_features_deterministic(self, instance):
        dag, machine = instance
        assert extract_features(dag, machine) == extract_features(dag, machine)

    def test_memory_pressure_against_bound(self, instance):
        dag, machine = instance
        bounded = machine.with_memory_bound(100.0)
        f = extract_features(dag, bounded)
        assert f.memory_bound_min == 100.0
        assert f.memory_pressure == pytest.approx(dag.total_memory() / 400.0)

    def test_numa_summary(self):
        dag = spmv_dag(6, q=0.3, seed=0)
        machine = BspMachine.hierarchical(P=4, delta=3.0, g=1, l=5)
        f = extract_features(dag, machine)
        assert not f.numa_uniform
        assert f.numa_max == 3.0
        assert 1.0 < f.numa_mean < 3.0


class TestSignature:
    def test_signature_stable_and_content_addressed(self, instance):
        dag, machine = instance
        sig = instance_signature(dag, machine)
        assert sig == instance_signature(dag, machine)
        # Any observable difference must change the signature.
        other_machine = BspMachine(P=4, g=3.0, l=5.0)
        assert sig != instance_signature(dag, other_machine)
        other_dag = spmv_dag(8, q=0.3, seed=4)
        assert sig != instance_signature(other_dag, machine)
        assert sig != instance_signature(dag, machine.with_memory_bound(50))

    def test_signature_sensitive_to_weights(self, instance):
        dag, machine = instance
        sig = instance_signature(dag, machine)
        heavier = spmv_dag(8, q=0.3, seed=3)
        heavier.work = np.asarray(heavier.work) * 2
        assert instance_signature(heavier, machine) != sig

    def test_signature_sensitive_to_dtype(self):
        """Regression: arrays with identical bytes but different dtypes must
        not alias (an all-zero int64 and float64 array share a byte pattern,
        but schedulers see different values)."""
        from types import SimpleNamespace

        def fake_instance(weight_dtype):
            dag = SimpleNamespace(
                name="alias",
                n=4,
                edge_sources=np.array([0, 1], dtype=np.int64),
                edge_targets=np.array([1, 2], dtype=np.int64),
                work=np.zeros(4, dtype=weight_dtype),
                comm=np.zeros(4, dtype=np.int64),
                memory=np.zeros(4, dtype=np.int64),
            )
            machine = SimpleNamespace(
                P=2, g=1.0, l=2.0, numa=np.ones((2, 2)), memory_bounds=None
            )
            return dag, machine

        int_dag, int_machine = fake_instance(np.int64)
        float_dag, float_machine = fake_instance(np.float64)
        assert int_dag.work.tobytes() == float_dag.work.tobytes()  # the trap
        assert instance_signature(int_dag, int_machine) != instance_signature(
            float_dag, float_machine
        )
        # Same dtype still hashes stably.
        assert instance_signature(int_dag, int_machine) == instance_signature(
            *fake_instance(np.int64)
        )


class TestRules:
    def test_memory_bounded_instances_get_memory_aware_scheduler(self, instance):
        dag, machine = instance
        f = extract_features(dag, machine.with_memory_bound(1000.0))
        spec, rule = select_scheduler(f)
        assert "greedy-mem" in spec
        assert rule.name.startswith("memory-bounded")

    def test_huge_instances_get_list_scheduler(self, instance):
        f = extract_features(*instance)
        huge = InstanceFeatures.from_dict({**f.to_dict(), "num_nodes": 50_000})
        spec, rule = select_scheduler(huge)
        assert spec == "bl-est" and rule.name == "huge"

    def test_candidate_restriction(self, instance):
        f = extract_features(*instance)
        spec, rule = select_scheduler(f, candidates=["etf", "bl-est"])
        assert spec in ("etf", "bl-est")

    def test_candidate_fallback_when_no_rule_matches(self, instance):
        f = extract_features(*instance)
        spec, rule = select_scheduler(f, candidates=["cilk"])
        assert spec == "cilk" and rule.name == "candidate-fallback"

    def test_every_rule_spec_is_registered(self):
        from repro.portfolio.selector import RULES
        from repro.registry import make_scheduler

        for rule in RULES:
            scheduler = make_scheduler(rule.spec)  # raises on unknown specs
            assert scheduler.deterministic, f"rules must stay deterministic: {rule.name}"


class TestRace:
    def test_race_returns_best_candidate(self, instance):
        dag, machine = instance
        outcome = race(dag, machine, ["trivial", "bl-est", "etf"])
        assert outcome.winner in ("trivial", "bl-est", "etf")
        assert outcome.cost == min(outcome.costs.values())
        schedule = outcome.schedule
        assert schedule.is_valid()
        assert schedule.cost() == outcome.cost

    def test_race_with_budget_eliminates_candidates(self, instance):
        dag, machine = instance
        outcome = race(dag, machine, list(DEFAULT_RACE_CANDIDATES), budget=3.0)
        assert outcome.winner == outcome.elimination_order[-1]
        assert set(outcome.elimination_order) == set(DEFAULT_RACE_CANDIDATES)
        assert outcome.rounds >= 1

    def test_race_tolerates_failing_candidates(self, instance):
        dag, machine = instance
        # Feasible bound (4 * bound > total memory) that the trivial
        # scheduler (everything on one processor) necessarily violates.
        bound = float(dag.total_memory()) / 2.0
        outcome = race(dag, machine.with_memory_bound(bound), ["trivial", "greedy-mem"])
        assert outcome.winner == "greedy-mem"
        assert outcome.costs["trivial"] == float("inf")

    def test_race_all_failing_raises(self, instance):
        dag, machine = instance
        # 4 * 3.0 < total memory: no feasible schedule exists for anyone.
        bounded = machine.with_memory_bound(3.0)
        with pytest.raises(SchedulingError):
            race(dag, bounded, ["cilk", "etf"])

    def test_race_costs_each_candidate_once(self, instance, monkeypatch):
        """The race reads each candidate's cost from the engine's result
        instead of evaluating the schedule a second time."""
        from repro.model import cost as cost_module

        calls = []
        real = cost_module.evaluate

        def counting(schedule):
            calls.append(schedule)
            return real(schedule)

        monkeypatch.setattr(cost_module, "evaluate", counting)
        outcome = race(*instance, ["cilk", "source"])
        assert set(outcome.costs) == {"cilk", "source"}
        assert len(calls) == 2

    def test_race_requires_candidates(self, instance):
        with pytest.raises(ValueError):
            race(*instance, [])

    def test_single_candidate_race_honours_budget(self, instance, monkeypatch):
        import repro.portfolio.selector as selector_module

        dag, machine = instance
        captured = []
        original = selector_module._race_candidates_once

        def spy(dag, machine, specs, *, time_limit, jobs):
            captured.append(time_limit)
            return original(dag, machine, specs, time_limit=time_limit, jobs=jobs)

        monkeypatch.setattr(selector_module, "_race_candidates_once", spy)
        outcome = race(dag, machine, ["hc(init=bspg)"], budget=0.5)
        assert outcome.winner == "hc(init=bspg)"
        # The lone candidate must run under the remaining budget, not unbounded.
        assert captured and captured[0] is not None and captured[0] <= 0.5


class TestSolutionCache:
    def test_put_get_round_trip(self, instance, tmp_path):
        dag, machine = instance
        portfolio = PortfolioScheduler(cache=str(tmp_path))
        schedule = portfolio.schedule_checked(dag, machine)
        sig = instance_signature(dag, machine)
        entry = portfolio.cache.get(sig, portfolio.spec_string(), None)
        assert entry is not None
        assert entry.chosen == portfolio.last_chosen
        assert np.array_equal(entry.schedule.proc, schedule.proc)
        assert np.array_equal(entry.schedule.step, schedule.step)
        assert entry.result.total_cost == schedule.cost()

    def test_version_mismatch_is_a_miss(self, instance, tmp_path):
        dag, machine = instance
        portfolio = PortfolioScheduler(cache=str(tmp_path))
        portfolio.schedule_checked(dag, machine)
        sig = instance_signature(dag, machine)
        path = portfolio.cache.entry_path(sig, portfolio.spec_string(), None)
        payload = json.loads(path.read_text())
        payload["format"] = CACHE_FORMAT_VERSION + 1
        path.write_text(json.dumps(payload))
        fresh = SolutionCache(tmp_path)
        assert fresh.get(sig, portfolio.spec_string(), None) is None
        assert fresh.misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = SolutionCache(tmp_path)
        path = cache.entry_path("ab" * 32, "portfolio", None)
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert cache.get("ab" * 32, "portfolio", None) is None

    def test_undecodable_schedule_is_a_miss_for_the_portfolio(self, instance, tmp_path):
        dag, machine = instance
        solved = PortfolioScheduler(cache=str(tmp_path)).schedule_checked(dag, machine)
        sig = instance_signature(dag, machine)
        portfolio = PortfolioScheduler(cache=str(tmp_path))
        path = portfolio.cache.entry_path(sig, portfolio.spec_string(), None)
        payload = json.loads(path.read_text())
        del payload["schedule"]["proc"]  # valid JSON and result, broken schedule
        path.write_text(json.dumps(payload))
        probe = SolutionCache(tmp_path).get(sig, portfolio.spec_string(), None)
        assert probe is not None and probe.result is not None
        with pytest.raises(ValueError, match="undecodable"):
            _ = probe.schedule
        schedule = portfolio.schedule_checked(dag, machine)
        assert portfolio.last_cache_hit is False
        assert np.array_equal(schedule.proc, solved.proc)
        cache = portfolio.cache
        assert (cache.hits, cache.misses, cache.stores) == (0, 1, 1)
        # The re-solve overwrote the entry: the next lookup replays it.
        again = PortfolioScheduler(cache=str(tmp_path))
        assert np.array_equal(again.schedule_checked(dag, machine).step, solved.step)
        assert again.last_cache_hit is True

    def test_each_hit_gets_its_own_schedule(self, instance, tmp_path):
        dag, machine = instance
        portfolio = PortfolioScheduler(cache=str(tmp_path))
        portfolio.schedule_checked(dag, machine)
        first = portfolio.schedule_checked(dag, machine)
        second = portfolio.schedule_checked(dag, machine)
        assert portfolio.last_cache_hit is True
        assert first is not second and first.proc is not second.proc
        assert portfolio.last_cache_entry.schedule is second

    def test_lru_serves_repeated_hits(self, instance, tmp_path):
        dag, machine = instance
        portfolio = PortfolioScheduler(cache=str(tmp_path))
        portfolio.schedule_checked(dag, machine)
        sig = instance_signature(dag, machine)
        cache = portfolio.cache
        assert cache.get(sig, portfolio.spec_string(), None) is not None
        # Second get must come from the LRU layer even if the file vanishes.
        path = cache.entry_path(sig, portfolio.spec_string(), None)
        path.unlink()
        assert cache.get(sig, portfolio.spec_string(), None) is not None

    def test_seed_and_spec_separate_keys(self, tmp_path):
        cache = SolutionCache(tmp_path)
        sig = "ab" * 32
        assert cache.key(sig, "portfolio", 0) != cache.key(sig, "portfolio", 1)
        assert cache.key(sig, "portfolio", 0) != cache.key(sig, "portfolio(mode=race)", 0)

    def test_default_cache_dir_hook(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        set_default_cache_dir(None)
        assert default_cache_dir() is None
        try:
            set_default_cache_dir(tmp_path)
            assert default_cache_dir() == str(tmp_path)
            portfolio = PortfolioScheduler()
            assert portfolio.cache is not None
            assert str(portfolio.cache.root) == str(tmp_path)
        finally:
            set_default_cache_dir(None)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert default_cache_dir() == str(tmp_path / "env")


class TestPortfolioScheduler:
    def test_rules_mode_schedules_validly(self, instance):
        dag, machine = instance
        portfolio = PortfolioScheduler()
        schedule = portfolio.schedule_checked(dag, machine)
        assert schedule.is_valid()
        assert portfolio.last_chosen is not None
        assert portfolio.last_rule is not None

    def test_memory_bounded_instance_is_feasible(self, instance):
        dag, machine = instance
        bounded = machine.with_memory_bound(float(dag.total_memory()))
        portfolio = PortfolioScheduler()
        schedule = portfolio.schedule_checked(dag, bounded)
        assert schedule.is_valid()
        assert "greedy-mem" in portfolio.last_chosen

    def test_cache_hit_skips_underlying_scheduler(self, instance, tmp_path, monkeypatch):
        dag, machine = instance
        portfolio = PortfolioScheduler(cache=str(tmp_path))
        first = portfolio.schedule_checked(dag, machine)
        import repro.registry as registry

        def explode(spec):
            raise AssertionError(f"cache hit must not build scheduler {spec!r}")

        monkeypatch.setattr(registry, "make_scheduler", explode)
        again = PortfolioScheduler(cache=str(tmp_path))
        second = again.schedule_checked(dag, machine)
        assert again.last_cache_hit
        assert np.array_equal(first.proc, second.proc)
        assert np.array_equal(first.step, second.step)
        assert second.cost() == first.cost()

    def test_race_mode_end_to_end(self, instance):
        dag, machine = instance
        portfolio = PortfolioScheduler(mode="race", candidates=("bl-est", "etf"))
        schedule = portfolio.schedule_checked(dag, machine)
        assert schedule.is_valid()
        assert portfolio.last_race is not None
        assert portfolio.last_chosen in ("bl-est", "etf")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            PortfolioScheduler(mode="magic")

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            PortfolioScheduler(candidates=())
        with pytest.raises(ValueError):
            make_scheduler("portfolio(candidates=[])")

    def test_rules_budget_limits_delegate(self, instance):
        dag, machine = instance
        portfolio = PortfolioScheduler(budget=5.0)
        portfolio.schedule_checked(dag, machine)
        # The budget must reach the delegate as its wall-clock limit.
        assert "time_limit=5.0" in portfolio.last_chosen

    def test_spec_string_canonical_and_cache_independent(self, tmp_path):
        a = PortfolioScheduler(mode="race", budget=1.0, candidates=("etf", "bl-est"))
        b = PortfolioScheduler(
            mode="race", budget=1.0, candidates=("etf", "bl-est"), cache=str(tmp_path)
        )
        assert a.spec_string() == b.spec_string()
        name, kwargs = parse_scheduler_spec(a.spec_string())
        assert name == "portfolio"
        assert kwargs["mode"] == "race" and kwargs["budget"] == 1.0


class TestRegistryIntegration:
    def test_constructible_from_spec_string(self):
        scheduler = make_scheduler("portfolio")
        assert isinstance(scheduler, PortfolioScheduler)
        scheduler = make_scheduler(
            "portfolio(mode=race, budget=1.5, candidates=[bl-est, etf, hc(init=bspg)])"
        )
        assert scheduler.mode == "race"
        assert scheduler.budget == 1.5
        assert scheduler.candidates == ("bl-est", "etf", "hc(init=bspg)")

    def test_cache_parameter_from_spec_string(self, tmp_path):
        scheduler = make_scheduler(f"portfolio(cache='{tmp_path}')")
        assert scheduler.cache is not None
        assert str(scheduler.cache.root) == str(tmp_path)

    def test_time_budget_maps_to_budget(self):
        from repro.registry import canonical_scheduler_spec

        spec = canonical_scheduler_spec("portfolio(mode=race)", time_budget=2.0)
        name, kwargs = parse_scheduler_spec(spec)
        assert kwargs["budget"] == 2.0

    def test_portfolio_on_larger_cg_instance(self):
        dag = cg_dag(6, k=2, q=0.3, seed=1)
        machine = BspMachine.hierarchical(P=4, delta=2.0, g=2, l=5)
        schedule = make_scheduler("portfolio").schedule_checked(dag, machine)
        assert schedule.is_valid()
