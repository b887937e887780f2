"""Tests for the scheduler registry."""

import re
from pathlib import Path

import pytest

from repro.model.machine import BspMachine
from repro.registry import (
    TABLE_LABELS,
    available_schedulers,
    make_scheduler,
    parse_scheduler_spec,
    register_scheduler,
    registry_name_for_label,
    scheduler_for_label,
    scheduler_info,
    split_scheduler_list,
)
from repro.scheduler import Scheduler


class TestRegistry:
    def test_available_schedulers_sorted_and_complete(self):
        names = available_schedulers()
        assert names == sorted(names)
        for expected in ("cilk", "hdagg", "etf", "bl-est", "bspg", "source", "framework", "multilevel"):
            assert expected in names

    def test_every_builder_returns_a_scheduler(self):
        for name in available_schedulers():
            scheduler = make_scheduler(name)
            assert isinstance(scheduler, Scheduler), name
            assert scheduler.name

    def test_lookup_is_case_insensitive(self):
        assert type(make_scheduler("HDagg")) is type(make_scheduler("hdagg"))

    def test_unknown_name_raises_with_suggestions(self):
        with pytest.raises(ValueError) as excinfo:
            make_scheduler("heft")
        assert "cilk" in str(excinfo.value)

    def test_factories_produce_fresh_instances(self):
        a = make_scheduler("framework")
        b = make_scheduler("framework")
        assert a is not b

    @pytest.mark.parametrize(
        "name", ["cilk", "hdagg", "bspg", "source", "level-rr", "trivial", "hc", "hccs", "sa"]
    )
    def test_cheap_schedulers_run_end_to_end(self, name, diamond_dag):
        machine = BspMachine(P=2, g=1, l=1)
        schedule = make_scheduler(name).schedule_checked(diamond_dag, machine)
        assert schedule.cost() > 0

    def test_readme_specs_build(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        specs = re.findall(r'make_scheduler\("([^"]+)"\)', readme)
        assert specs
        for spec in specs:
            assert make_scheduler(spec).name, spec


class TestSpecStrings:
    def test_parse_plain_name(self):
        assert parse_scheduler_spec("CILK") == ("cilk", {})

    def test_parse_values(self):
        name, kwargs = parse_scheduler_spec(
            "x(a=1, b=2.5, c=true, d=false, e=none, f=hello, g='quo ted', h=[1, 2])"
        )
        assert name == "x"
        assert kwargs == {
            "a": 1, "b": 2.5, "c": True, "d": False, "e": None,
            "f": "hello", "g": "quo ted", "h": (1, 2),
        }

    def test_parameterized_construction(self):
        scheduler = make_scheduler("hdagg(aggregation_factor=3.5)")
        assert scheduler.aggregation_factor == 3.5

    def test_duplicate_argument_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_scheduler_spec("cilk(seed=1, seed=2)")

    def test_malformed_spec_rejected(self):
        for bad in ("", "a b", "cilk(seed)", "cilk(=3)", "cilk(seed=1"):
            with pytest.raises(ValueError):
                make_scheduler(bad)

    def test_nested_spec_values_stack_improvers(self, diamond_dag):
        scheduler = make_scheduler("hc(max_moves=5, init=hccs(max_moves=3, init=source))")
        assert scheduler.init == "hccs(max_moves=3, init=source)"
        machine = BspMachine(P=2, g=1, l=1)
        assert scheduler.schedule_checked(diamond_dag, machine).cost() > 0

    def test_split_scheduler_list_respects_parens(self):
        parts = split_scheduler_list("hc(max_moves=5, init=source),cilk, sa(steps=3)")
        assert parts == ["hc(max_moves=5, init=source)", "cilk", "sa(steps=3)"]

    def test_scheduler_info_metadata(self):
        info = scheduler_info("cilk")
        assert make_scheduler("cilk").deterministic and not info.numa_aware
        assert "seed" in info.parameters

    def test_register_scheduler_decorator_rejects_duplicates(self):
        with pytest.raises(ValueError, match="already registered"):
            @register_scheduler("cilk")
            def _dup():  # pragma: no cover - never called
                raise AssertionError


class TestTableLabels:
    def test_label_lookup_is_case_insensitive(self):
        assert registry_name_for_label("Cilk") == "cilk"
        assert registry_name_for_label("CILK") == "cilk"
        assert registry_name_for_label("bl-est") == "bl-est"
        assert registry_name_for_label(" hdagg ") == "hdagg"

    def test_every_table_label_resolves_and_builds(self):
        for label in TABLE_LABELS:
            assert isinstance(scheduler_for_label(label.upper()), Scheduler)

    def test_unknown_label_raises(self):
        with pytest.raises(ValueError, match="unknown table label"):
            registry_name_for_label("Framework")
