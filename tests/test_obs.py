"""Tests for the observability layer (repro.obs): tracing + metrics.

The load-bearing guarantees:

* tracing must never perturb results — solves are byte-identical with the
  tracer installed and without it, and the disabled path allocates nothing
  (one shared no-op span singleton);
* every emitted trace satisfies the ``repro-trace/1`` contract checked by
  ``validate_trace`` (header first, unique ids, resolving parents,
  contained child intervals) — including traces of arbitrary random
  nesting structure (hypothesis);
* instruments are individually thread-safe and the histogram window is
  bounded;
* the pieces compose end to end: ``--trace`` on the CLI produces a file
  ``repro trace-view`` accepts, and a live daemon answers the ``metrics``
  wire op with scrape-able Prometheus text.
"""

import doctest
import io
import json
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.baselines.cilk import CilkScheduler
from repro.baselines.trivial import LevelRoundRobinScheduler
from repro.graphs.fine import exp_dag
from repro.localsearch.annealing import simulated_annealing
from repro.localsearch.comm_hill_climbing import comm_hill_climb
from repro.localsearch.hill_climbing import hill_climb
from repro.obs import trace as trace_mod
from repro.obs.metrics import (
    DEFAULT_WINDOW,
    Counter,
    Gauge,
    Histogram,
    Metrics,
    render_prometheus,
)
from repro.obs.trace import (
    NOOP_SPAN,
    TRACE_SCHEMA,
    Tracer,
    read_trace,
    tracing,
    validate_trace,
)
from repro.obs.traceview import render_trace_summary, summarize_trace
from repro.spec import DagSpec, MachineSpec, ProblemSpec, SolveRequest


@pytest.fixture(autouse=True)
def no_leaked_tracer():
    """Every test starts and ends with tracing disabled."""
    trace_mod.uninstall()
    yield
    trace_mod.uninstall()


def solve_request(seed: int = 0, scheduler: str = "hc") -> SolveRequest:
    return SolveRequest(
        spec=ProblemSpec(
            dag=DagSpec.generator("spmv", n=7, q=0.3, seed=seed),
            machine=MachineSpec(P=2, g=2, l=3),
        ),
        scheduler=scheduler,
        seed=3,
    )


def write_and_read(tracer: Tracer):
    buffer = io.StringIO()
    tracer.write(buffer)
    return read_trace(io.StringIO(buffer.getvalue()))


# ----------------------------------------------------------------------
# Metrics primitives
# ----------------------------------------------------------------------
class TestInstruments:
    def test_counter_inc_and_negative_undo(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(5)
        counter.inc(-1)  # the serve pool's lost-respond-race undo
        assert counter.value == 5

    def test_gauge_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value == 7

    def test_histogram_window_is_bounded(self):
        hist = Histogram("h", window=8)
        for k in range(100):
            hist.observe(float(k))
        assert hist.values() == [float(k) for k in range(92, 100)]
        assert hist.count == 100  # lifetime count is not window-bounded
        assert hist.sum == sum(range(100))
        assert hist.recent(3) == [97.0, 98.0, 99.0]

    def test_histogram_default_window_matches_pool_history(self):
        assert Histogram("h").window == DEFAULT_WINDOW == 2048

    def test_histogram_rejects_empty_window(self):
        with pytest.raises(ValueError):
            Histogram("h", window=0)

    def test_instruments_are_thread_safe(self):
        counter = Counter("c")
        hist = Histogram("h", window=64)
        threads = [
            threading.Thread(
                target=lambda: [(counter.inc(), hist.observe(1.0)) for _ in range(500)]
            )
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8 * 500
        assert hist.count == 8 * 500
        assert len(hist.values()) == 64


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        metrics = Metrics()
        assert metrics.counter("a") is metrics.counter("a")
        assert metrics.histogram("h") is metrics.histogram("h")

    def test_kind_clash_raises(self):
        metrics = Metrics()
        metrics.counter("a")
        with pytest.raises(ValueError):
            metrics.gauge("a")
        with pytest.raises(ValueError):
            metrics.histogram("a")

    def test_labels_distinguish_instruments(self):
        metrics = Metrics()
        ok = metrics.counter("errors", labels={"code": "ok"})
        bad = metrics.counter("errors", labels={"code": "bad"})
        assert ok is not bad
        ok.inc()
        assert bad.value == 0

    def test_registry_concurrent_get_or_create(self):
        metrics = Metrics()
        seen = []

        def worker():
            c = metrics.counter("shared")
            seen.append(c)
            for _ in range(200):
                c.inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(c) for c in seen}) == 1
        assert metrics.counter("shared").value == 8 * 200

    def test_prometheus_rendering(self):
        metrics = Metrics()
        metrics.counter("repro_test_total", help="a counter").inc(3)
        metrics.counter("repro_errors_total", labels={"code": "oops"}).inc()
        metrics.gauge("repro_depth").set(2)
        hist = metrics.histogram("repro_latency_seconds", window=16)
        for value in (1.0, 2.0, 3.0, 4.0):
            hist.observe(value)
        text = metrics.to_prometheus()
        assert "# HELP repro_test_total a counter\n# TYPE repro_test_total counter" in text
        assert "repro_test_total 3" in text
        assert 'repro_errors_total{code="oops"} 1' in text
        assert "# TYPE repro_depth gauge" in text
        assert "# TYPE repro_latency_seconds summary" in text
        assert 'repro_latency_seconds{quantile="0.5"} 2.0' in text
        assert "repro_latency_seconds_sum 10.0" in text
        assert "repro_latency_seconds_count 4" in text
        assert text.endswith("\n")

    def test_shared_name_renders_one_family_header(self):
        a = Counter("family_total", help="fam", labels={"k": "a"})
        b = Counter("family_total", labels={"k": "b"})
        text = render_prometheus([a, b])
        assert text.count("# HELP family_total") == 1
        assert text.count("# TYPE family_total") == 1


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestDisabledTracer:
    def test_span_returns_shared_noop_singleton(self):
        # The disabled path must not allocate: every call yields the one
        # module-level no-op object.
        assert trace_mod.span("a") is trace_mod.span("b") is NOOP_SPAN
        assert not trace_mod.enabled()
        assert trace_mod.active() is None

    def test_noop_span_supports_full_surface(self):
        with trace_mod.span("a") as span:
            assert span.annotate(k=1) is span
            assert span.event("e", x=2) is span

    def test_module_hooks_are_noops_when_disabled(self):
        trace_mod.annotate(k=1)
        trace_mod.event("e")


class TestEnabledTracer:
    def test_nesting_parent_child_ids(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("sibling"):
                pass
        records = {r["name"]: r for r in tracer.records()}
        assert records["root"]["parent_id" if False else "parent"] is None
        assert records["child"]["parent"] == records["root"]["id"]
        assert records["grandchild"]["parent"] == records["child"]["id"]
        assert records["sibling"]["parent"] == records["root"]["id"]

    def test_threads_nest_independently(self):
        tracer = Tracer()

        def worker(name):
            with tracer.span(name):
                with tracer.span(f"{name}-inner"):
                    pass

        with tracer.span("main-root"):
            threads = [
                threading.Thread(target=worker, args=(f"t{k}",), name=f"T{k}")
                for k in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        by_name = {r["name"]: r for r in tracer.records()}
        for k in range(4):
            # Worker roots are parentless (fresh thread => fresh stack) and
            # their inner spans nest under them, not under main-root.
            assert by_name[f"t{k}"]["parent"] is None
            assert by_name[f"t{k}-inner"]["parent"] == by_name[f"t{k}"]["id"]
            assert by_name[f"t{k}-inner"]["thread"] == f"T{k}"

    def test_exception_unwinds_and_records_error(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("root"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        by_name = {r["name"]: r for r in tracer.records()}
        assert by_name["inner"]["attrs"]["error"] == "RuntimeError"
        assert by_name["root"]["attrs"]["error"] == "RuntimeError"
        assert tracer.current() is None  # the stack fully unwound

    def test_tracing_contextmanager_restores_previous(self):
        outer = Tracer()
        trace_mod.install(outer)
        with tracing("root") as inner:
            assert trace_mod.active() is inner
        assert trace_mod.active() is outer

    def test_write_is_deterministic_and_ordered(self, tmp_path):
        tracer = Tracer()
        with tracer.span("root", k=1):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        first = io.StringIO()
        second = io.StringIO()
        assert tracer.write(first) == 3
        assert tracer.write(second) == 3
        assert first.getvalue() == second.getvalue()
        lines = first.getvalue().splitlines()
        header = json.loads(lines[0])
        assert header == {"schema": TRACE_SCHEMA, "type": "header"}
        ids = [json.loads(line)["id"] for line in lines[1:]]
        assert ids == sorted(ids)
        path = tmp_path / "trace.jsonl"
        tracer.write(path)
        assert path.read_text() == first.getvalue()


class TestTraceValidation:
    def test_round_trip_validates(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child") as span:
                span.event("sample", cost=1.0)
        records = write_and_read(tracer)
        assert validate_trace(records) == []

    def test_empty_and_headerless_traces_rejected(self):
        assert validate_trace([]) == ["empty trace (no header line)"]
        problems = validate_trace([{"type": "span"}])
        assert any("header" in p for p in problems)

    def test_structural_problems_detected(self):
        header = {"schema": TRACE_SCHEMA, "type": "header"}

        def span(id, parent=None, t0=0.0, t1=1.0, thread="MainThread", events=()):
            return {
                "type": "span", "id": id, "parent": parent, "name": f"s{id}",
                "thread": thread, "t0": t0, "t1": t1, "attrs": {},
                "events": list(events),
            }

        assert any(
            "duplicate span id" in p
            for p in validate_trace([header, span(1), span(1)])
        )
        assert any(
            "unknown parent" in p
            for p in validate_trace([header, span(2, parent=1)])
        )
        assert any(
            "ends before it starts" in p
            for p in validate_trace([header, span(1, t0=2.0, t1=1.0)])
        )
        assert any(
            "timestamped outside" in p
            for p in validate_trace(
                [header, span(1, events=[{"name": "e", "t": 5.0}])]
            )
        )
        assert any(
            "not contained" in p
            for p in validate_trace(
                [header, span(1, t0=0.0, t1=1.0), span(2, parent=1, t0=0.5, t1=2.0)]
            )
        )

    @settings(max_examples=40, deadline=None)
    @given(
        tree=st.recursive(
            st.just([]), lambda children: st.lists(children, max_size=3), max_leaves=12
        )
    )
    def test_random_nesting_is_always_well_formed(self, tree):
        tracer = Tracer()

        def run(subtrees):
            for index, subtree in enumerate(subtrees):
                with tracer.span(f"s{index}") as span:
                    span.event("tick", depth=index)
                    run(subtree)

        with tracer.span("root"):
            run(tree)
        records = write_and_read(tracer)
        assert validate_trace(records) == []


# ----------------------------------------------------------------------
# Tracing must never perturb results
# ----------------------------------------------------------------------
class TestByteIdentity:
    @pytest.mark.parametrize("scheduler", ["hc", "sa", "multilevel"])
    def test_solve_results_identical_with_and_without_tracing(self, scheduler):
        baseline = api.solve(solve_request(scheduler=scheduler))
        with tracing("solve") as tracer:
            traced = api.solve(solve_request(scheduler=scheduler))
        untraced_again = api.solve(solve_request(scheduler=scheduler))
        assert traced.to_json() == baseline.to_json()
        assert untraced_again.to_json() == baseline.to_json()
        assert len(tracer.records()) > 0  # the traced run did record spans

    def test_no_timing_keys_in_deterministic_dict(self):
        with tracing("solve"):
            result = api.solve(solve_request())
        payload = result.to_dict()
        assert "wall_seconds" not in payload
        assert not any("time" in key or "_s" == key[-2:] for key in payload)

    def test_hill_climb_deterministic_under_tracing(self, layered_dag, machine4):
        initial = LevelRoundRobinScheduler().schedule(layered_dag, machine4)
        bare = hill_climb(initial, max_passes=4)
        with tracing("hc"):
            traced = hill_climb(initial, max_passes=4)
        assert traced.final_cost == bare.final_cost
        assert traced.moves_applied == bare.moves_applied
        assert (traced.schedule.proc == bare.schedule.proc).all()
        assert (traced.schedule.step == bare.schedule.step).all()

    def test_annealing_rng_stream_unaffected(self, layered_dag, machine4):
        initial = LevelRoundRobinScheduler().schedule(layered_dag, machine4)
        bare = simulated_annealing(initial, steps=200, seed=11)
        with tracing("sa"):
            traced = simulated_annealing(initial, steps=200, seed=11)
        assert traced.final_cost == bare.final_cost
        assert traced.moves_evaluated == bare.moves_evaluated
        assert traced.moves_accepted == bare.moves_accepted


# ----------------------------------------------------------------------
# Convergence telemetry
# ----------------------------------------------------------------------
class TestConvergenceTelemetry:
    def test_hill_climb_records_passes_and_final_cost(self, layered_dag, machine4):
        initial = LevelRoundRobinScheduler().schedule(layered_dag, machine4)
        with tracing() as tracer:
            result = hill_climb(initial, max_passes=4)
        [span] = [r for r in tracer.records() if r["name"] == "hill_climb"]
        assert span["attrs"]["final_cost"] == result.final_cost
        assert span["attrs"]["initial_cost"] == result.initial_cost
        assert span["attrs"]["moves"] == result.moves_applied
        passes = [e for e in span["events"] if e["name"] == "pass"]
        assert len(passes) == span["attrs"]["passes"]
        costs = [e["cost"] for e in passes]
        assert costs == sorted(costs, reverse=True)  # HC is monotone

    def test_hill_climb_probe_waste_is_deterministic_and_low(self, numa_machine):
        """Probe counters repeat exactly, and few prefetched probes are wasted.

        On this instance (exp DAG, 129 nodes, Cilk start, P=8 NUMA) a fixed
        batch of 16 probed 706 nodes and discarded 328 results (46%); the
        slow-start batches probe 446 and discard 68 (15%).
        """
        initial = CilkScheduler(seed=0).schedule(exp_dag(10, k=2, q=0.3, seed=5), numa_machine)
        counts = []
        for _ in range(2):
            with tracing() as tracer:
                hill_climb(initial)
            [span] = [r for r in tracer.records() if r["name"] == "hill_climb"]
            counts.append((span["attrs"]["probes"], span["attrs"]["probes_discarded"]))
        assert counts[0] == counts[1]
        probes, discarded = counts[0]
        assert probes > 0
        assert discarded / probes < 0.3

    @pytest.mark.parametrize(
        "search, span_name, applied",
        [
            (lambda s: hill_climb(s), "hill_climb", "moves"),
            (lambda s: simulated_annealing(s, steps=500, seed=0), "simulated_annealing", "accepted"),
            (lambda s: comm_hill_climb(s, max_moves=50), "comm_hill_climb", "moves"),
        ],
        ids=["hc", "sa", "hccs"],
    )
    def test_comm_hill_climb_reports_engine_transactions(
        self, layered_dag, machine4, search, span_name, applied
    ):
        """Every applied move is one engine transaction, in every local search."""
        initial = CilkScheduler(seed=0).schedule(layered_dag, machine4)
        with tracing() as tracer:
            search(initial)
        [span] = [r for r in tracer.records() if r["name"] == span_name]
        assert span["attrs"][applied] > 0
        assert span["attrs"]["engine_transactions"] == span["attrs"][applied]
        if span_name == "comm_hill_climb":
            for event in span["events"]:
                assert event["name"] == "pass"
                assert "h_cost" in event

    def test_annealing_samples_improvements(self, layered_dag, machine4):
        initial = LevelRoundRobinScheduler().schedule(layered_dag, machine4)
        with tracing() as tracer:
            result = simulated_annealing(initial, steps=500, seed=0)
        [span] = [r for r in tracer.records() if r["name"] == "simulated_annealing"]
        assert span["attrs"]["evaluated"] == result.moves_evaluated
        improvements = [e for e in span["events"] if e["name"] == "improvement"]
        costs = [e["cost"] for e in improvements]
        assert costs == sorted(costs, reverse=True)  # best-seen only improves


# ----------------------------------------------------------------------
# trace-view summarizer
# ----------------------------------------------------------------------
class TestTraceView:
    def traced_solve(self):
        with tracing("schedule") as tracer:
            api.solve(solve_request(scheduler="multilevel"))
        return write_and_read(tracer)

    def test_summary_aggregates_stages(self):
        records = self.traced_solve()
        assert validate_trace(records) == []
        summary = summarize_trace(records)
        assert summary["spans"] == len(records) - 1
        stages = summary["stages"]
        for expected in ("schedule", "solve", "multilevel", "pipeline", "hill_climb"):
            assert expected in stages, f"missing stage {expected}: {sorted(stages)}"
        for stage in stages.values():
            assert 0.0 <= stage["self_s"] <= stage["total_s"] + 1e-9
        # Total time of the root stage bounds the wall clock estimate.
        assert summary["wall_s"] == pytest.approx(stages["schedule"]["total_s"], rel=1e-6)

    def test_render_mentions_breakdown_and_slowest(self):
        text = render_trace_summary(self.traced_solve(), top=3)
        assert "per-stage breakdown" in text
        assert "slowest 3 span(s):" in text
        assert "schedule" in text

    def test_cache_attribution_counts_events_and_attrs(self):
        header = {"schema": TRACE_SCHEMA, "type": "header"}
        spans = [
            {
                "type": "span", "id": 1, "parent": None, "name": "a",
                "thread": "T", "t0": 0.0, "t1": 1.0,
                "attrs": {"cached": True},
                "events": [{"name": "cache", "t": 0.5, "hit": False}],
            },
        ]
        summary = summarize_trace([header] + spans)
        assert summary["cache_hits"] == 1
        assert summary["cache_misses"] == 1


# ----------------------------------------------------------------------
# End-to-end: serve metrics op, worker stats, CLI
# ----------------------------------------------------------------------
class TestServeMetricsOp:
    def test_daemon_answers_metrics_in_prometheus_format(self, tmp_path):
        from repro.serve.client import connect
        from repro.serve.server import ServeConfig, SolveServer

        config = ServeConfig(port=0, jobs=1, cache_dir=str(tmp_path / "cache"))
        with SolveServer(config) as server:
            with connect(server.address) as client:
                client.solve(solve_request(scheduler="hdagg"))
                text = client.metrics()
        assert "# TYPE repro_serve_requests_received_total counter" in text
        assert "repro_serve_requests_received_total 1" in text
        assert "repro_serve_requests_served_total 1" in text
        assert "# TYPE repro_serve_request_latency_seconds summary" in text
        assert "repro_serve_request_latency_seconds_count 1" in text
        assert "repro_cache_misses_total 1" in text
        assert "repro_serve_uptime_seconds" in text

    def test_metrics_cli_scrapes_a_live_daemon(self, tmp_path, capsys):
        from repro.cli import main
        from repro.serve.server import ServeConfig, SolveServer

        with SolveServer(ServeConfig(port=0, jobs=1, cache_dir="")) as server:
            host, port = server.address
            assert main(["metrics", "--addr", f"{host}:{port}"]) == 0
        out = capsys.readouterr().out
        assert "repro_serve_requests_received_total 0" in out


class TestWorkerStatsMetrics:
    def test_notes_drive_counters_and_errors(self):
        from repro.distrib.worker import WorkerStats

        stats = WorkerStats()
        stats.scans += 1
        stats.solved += 1
        stats.invalid += 1
        stats.retried += 1
        stats.dead_lettered += 3
        stats.errors += ["E1", "E2"]
        assert (stats.scans, stats.solved, stats.invalid) == (1, 1, 1)
        assert stats.answered == 2
        assert stats.retried == 1
        assert stats.dead_lettered == 3
        assert stats.errors == ["E1", "E2"]
        assert WorkerStats().errors is not WorkerStats().errors


class TestCliTracing:
    def test_schedule_trace_round_trips_through_trace_view(self, tmp_path, capsys):
        from repro.cli import main

        trace_file = tmp_path / "trace.jsonl"
        code = main([
            "schedule", "--kind", "spmv", "--size", "6", "--seed", "2",
            "-P", "2", "--scheduler", "hdagg", "--trace", str(trace_file),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert f"wrote trace of" in captured.err
        records = read_trace(trace_file)
        assert validate_trace(records) == []
        names = {r["name"] for r in records if r.get("type") == "span"}
        assert {"schedule", "solve"} <= names
        assert main(["trace-view", str(trace_file)]) == 0
        assert "per-stage breakdown" in capsys.readouterr().out

    def test_schedule_output_bytes_identical_with_tracing(self, tmp_path, capsys):
        from repro.cli import main

        argv = ["schedule", "--kind", "spmv", "--size", "6",
                "-P", "2", "--scheduler", "hdagg"]
        assert main(argv) == 0
        bare = capsys.readouterr().out
        assert main(argv + ["--trace", str(tmp_path / "t.jsonl")]) == 0
        traced = capsys.readouterr()
        assert traced.out == bare  # stdout untouched; the note goes to stderr

    def test_batch_trace_keeps_stdout_and_roots_at_batch(self, tmp_path, capsys):
        from repro.cli import main

        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            "".join(solve_request(scheduler=s).to_json() + "\n" for s in ("etf", "hdagg"))
        )
        assert main(["batch", str(requests)]) == 0
        bare = capsys.readouterr().out
        trace_file = tmp_path / "batch.jsonl"
        assert main(["batch", str(requests), "--trace", str(trace_file)]) == 0
        assert capsys.readouterr().out == bare
        records = read_trace(trace_file)
        assert validate_trace(records) == []
        roots = [r["name"] for r in records if r.get("type") == "span" and r["parent"] is None]
        assert roots == ["batch"]

    def test_trace_view_rejects_garbage(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "span"}\n')
        assert main(["trace-view", str(bad)]) == 1
        assert "invalid trace" in capsys.readouterr().err


def test_cli_docstring_subcommand_inventory_doctest():
    """The docstring's subcommand listing is enforced by its doctest."""
    import repro.cli

    results = doctest.testmod(repro.cli)
    assert results.attempted >= 2
    assert results.failed == 0
