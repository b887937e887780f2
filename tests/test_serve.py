"""Tests for the solve daemon: protocol, worker pool, server, client, CLI.

The server under test runs in-process (ephemeral port, threads), so test
schedulers registered here are visible to its workers.  Coverage:

* wire protocol framing and error-response shapes,
* byte-identity of served results with ``repro.api.solve``,
* warm-cache hits (counters increase, results identical),
* structured backpressure (``queue-full`` + ``retry_after``) and per-request
  timeouts — never a dropped connection,
* graceful drain: everything accepted before shutdown is answered,
* the thin client's retry/reassembly logic and the CLI subcommands.
"""

import io
import json
import socket
import time

import pytest

from repro import api
from repro.cli import main
from repro.obs.metrics import percentiles
from repro.registry import available_schedulers, make_scheduler, register_scheduler
from repro.scheduler import Scheduler, SchedulingError
from repro.serve import protocol
from repro.serve.client import (
    ServeError,
    ServiceClient,
    ServiceUnavailable,
    connect,
    parse_address,
)
from repro.serve.pool import Ticket, WorkerPool
from repro.serve.server import ServeConfig, SolveServer
from repro.spec import DagSpec, MachineSpec, ProblemSpec, SolveRequest, SolveResult

#: The paper's pipeline with every wall-clock limit off: deterministic, so cached.
WORK_LIMITED_FRAMEWORK = "framework(preset=heuristics, hc_time_limit=none, hccs_time_limit=none)"


# ----------------------------------------------------------------------
# Test-only schedulers (registered once; the registry is process-global)
# ----------------------------------------------------------------------
if "test-sleepy" not in available_schedulers():

    @register_scheduler(
        "test-sleepy",
        description="test-only: sleeps, then delegates to etf",
        numa_aware=False,
    )
    def _make_sleepy(delay: float = 0.2) -> Scheduler:
        class Sleepy(Scheduler):
            name = "test-sleepy"
            deterministic = False

            def schedule(self, dag, machine):
                time.sleep(delay)
                return make_scheduler("etf").schedule(dag, machine)

        return Sleepy()

    @register_scheduler(
        "test-explode",
        description="test-only: always raises SchedulingError",
        numa_aware=False,
    )
    def _make_explode() -> Scheduler:
        class Explode(Scheduler):
            name = "test-explode"

            def schedule(self, dag, machine):
                raise SchedulingError("test scheduler always fails")

        return Explode()


def request_for(seed: int = 0, scheduler: str = "etf", n: int = 8) -> SolveRequest:
    return SolveRequest(
        spec=ProblemSpec(
            dag=DagSpec.generator("spmv", n=n, q=0.3, seed=seed),
            machine=MachineSpec(P=2, g=2, l=3),
        ),
        scheduler=scheduler,
    )


@pytest.fixture
def server(tmp_path):
    config = ServeConfig(port=0, jobs=2, cache_dir=str(tmp_path / "cache"))
    with SolveServer(config) as srv:
        yield srv


@pytest.fixture
def client(server):
    with connect(server.address) as c:
        yield c


class RawConnection:
    """Raw NDJSON socket for tests that need to send malformed lines."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=30.0)
        self.rfile = self.sock.makefile("rb")

    def send_line(self, data: bytes) -> None:
        self.sock.sendall(data)

    def send(self, message) -> None:
        self.send_line(protocol.encode(message))

    def recv(self):
        return protocol.decode(self.rfile.readline())

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


# ----------------------------------------------------------------------
# Protocol framing
# ----------------------------------------------------------------------
class TestProtocol:
    def test_encode_decode_round_trip(self):
        message = protocol.solve_message({"a": 1}, id=7, timeout=2.5)
        line = protocol.encode(message)
        assert line.endswith(b"\n") and b"\n" not in line[:-1]
        assert protocol.decode(line) == message

    def test_encode_is_deterministic(self):
        a = protocol.encode({"b": 1, "a": 2})
        b = protocol.encode({"a": 2, "b": 1})
        assert a == b  # sorted keys: pipelined framing never depends on dict order

    def test_decode_rejects_garbage(self):
        for bad in (b"", b"   \n", b"not json\n", b"[1, 2]\n", b'"string"\n'):
            with pytest.raises(protocol.ProtocolError):
                protocol.decode(bad)

    def test_decode_rejects_non_utf8(self):
        with pytest.raises(protocol.ProtocolError, match="UTF-8"):
            protocol.decode(b"\xff\xfe{}\n")

    def test_decode_rejects_oversized_line(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 16)
        with pytest.raises(protocol.ProtocolError, match="exceeds"):
            protocol.decode(b'{"op": "solve", "id": 1, "request": {}}\n')

    def test_read_messages_until_eof(self):
        stream = io.BytesIO(
            protocol.encode({"op": "health", "id": 1})
            + protocol.encode({"op": "stats", "id": 2})
        )
        ops = [m["op"] for m in protocol.read_messages(stream)]
        assert ops == ["health", "stats"]

    def test_error_response_shape(self):
        response = protocol.error_response(
            3, protocol.E_QUEUE_FULL, "full", retry_after=0.25
        )
        assert response == {
            "id": 3,
            "ok": False,
            "error": {"code": "queue-full", "message": "full", "retry_after": 0.25},
        }

    def test_error_response_embeds_result(self):
        response = protocol.error_response(
            1, protocol.E_SCHEDULER, "boom", result={"valid": False}
        )
        assert response["error"]["result"] == {"valid": False}

    def test_queue_full_is_the_only_retryable_code(self):
        assert protocol.RETRYABLE_CODES == {protocol.E_QUEUE_FULL}

    def test_percentiles_nearest_rank(self):
        assert percentiles([]) == {"p50": 0.0, "p90": 0.0, "p99": 0.0}
        values = [float(k) for k in range(1, 101)]
        stats = percentiles(values)
        assert stats["p50"] == 50.0
        assert stats["p90"] == 90.0
        assert stats["p99"] == 99.0


class TestTicket:
    def test_responds_exactly_once(self):
        sent = []
        ticket = Ticket(request_for(), rid=1, send=sent.append)
        assert ticket.respond({"id": 1}) is True
        assert ticket.respond({"id": 1, "late": True}) is False
        assert sent == [{"id": 1}]
        assert ticket.done.is_set()

    def test_submit_before_start_is_refused(self):
        pool = WorkerPool(jobs=1, queue_size=1)
        ticket = Ticket(request_for(), rid=1, send=lambda m: None)
        assert pool.submit(ticket) == "stopped"


# ----------------------------------------------------------------------
# Server basics: health, stats, solving
# ----------------------------------------------------------------------
class TestServerBasics:
    def test_health(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["protocol"] == protocol.PROTOCOL
        assert health["workers"] == 2

    def test_stats_shape(self, client):
        stats = client.stats(disk=True)
        assert stats["workers"] == 2
        assert stats["queue_size"] == 64
        assert stats["draining"] is False
        assert set(stats["requests"]) == {"received", "served", "cache_hits", "abandoned"}
        assert {"p50_ms", "p90_ms", "p99_ms", "mean_ms", "count"} <= set(stats["latency"])
        # disk=True folds the on-disk totals into the cache section.
        assert {"hits", "misses", "stores", "entries", "bytes", "shards"} <= set(
            stats["cache"]
        )

    def test_solve_matches_api_bytewise(self, client):
        request = request_for(seed=3)
        served = client.solve(request)
        local = api.solve(request)
        assert served.to_json() == local.to_json()

    def test_solve_many_matches_api_and_preserves_order(self, client):
        requests = [request_for(seed=s, scheduler=spec) for s, spec in
                    enumerate(["etf", "bl-est", "hdagg", "etf"])]
        served = client.solve_many(requests)
        local = api.solve_many(requests)
        assert [r.to_json() for r in served] == [r.to_json() for r in local]

    def test_solve_many_streams_results_via_on_result(self, client):
        requests = [request_for(seed=s) for s in range(5)]
        seen = []
        results = client.solve_many(requests, on_result=lambda k, r: seen.append(k))
        assert sorted(seen) == list(range(5))
        assert len(results) == 5

    def test_warm_cache_serves_repeats(self, server, client):
        requests = [request_for(seed=s) for s in range(3)]
        cold = client.solve_many(requests)
        warm = client.solve_many(requests)
        assert [r.to_json() for r in cold] == [r.to_json() for r in warm]
        stats = client.stats()
        assert stats["requests"]["cache_hits"] >= 3
        assert stats["cache"]["stores"] == 3
        assert stats["cache"]["hits"] >= 3

    def test_nondeterministic_schedulers_are_not_cached(self, client):
        request = request_for(scheduler="test-sleepy(delay=0.01)")
        client.solve(request)
        client.solve(request)
        stats = client.stats()
        assert stats["requests"]["cache_hits"] == 0
        assert stats["cache"]["stores"] == 0

    def test_work_limited_framework_is_served_from_cache(self, server):
        request = request_for(scheduler=WORK_LIMITED_FRAMEWORK)
        conn = RawConnection(server.address)
        try:
            responses = []
            for rid in (1, 2):
                conn.send(protocol.solve_message(request.to_dict(), id=rid))
                responses.append(conn.recv())
        finally:
            conn.close()
        assert [r["cached"] for r in responses] == [False, True]
        cold, warm = (SolveResult.from_dict(r["result"]) for r in responses)
        assert cold.deterministic
        assert warm.to_json() == cold.to_json() == api.solve(request).to_json()

    def test_nested_wall_clock_limit_is_never_stored(self, client):
        request = request_for(scheduler="hc(init=ilp-full)", n=2)
        client.solve(request)
        assert client.solve(request).deterministic is False
        stats = client.stats()
        assert stats["requests"]["cache_hits"] == 0
        assert stats["cache"]["stores"] == 0

    def test_cache_disabled_with_empty_dir(self):
        with SolveServer(ServeConfig(port=0, jobs=1, cache_dir="")) as srv:
            assert srv.cache is None
            with connect(srv.address) as c:
                c.solve(request_for())
                assert "cache" not in c.stats()


# ----------------------------------------------------------------------
# Structured errors
# ----------------------------------------------------------------------
class TestStructuredErrors:
    def test_unknown_scheduler_is_invalid_spec(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.solve(request_for(scheduler="no-such-scheduler"))
        assert excinfo.value.code == protocol.E_INVALID_SPEC

    def test_scheduler_failure_embeds_invalid_result(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.solve(request_for(scheduler="test-explode"))
        assert excinfo.value.code == protocol.E_SCHEDULER
        assert excinfo.value.result is not None
        assert excinfo.value.result["valid"] is False

    def test_unknown_init_embeds_invalid_result(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.solve(request_for(scheduler="hc(init=nosuch)"))
        assert excinfo.value.code == protocol.E_SCHEDULER
        assert excinfo.value.result["valid"] is False
        assert "unknown scheduler 'nosuch'" in excinfo.value.result["scheduler_description"]

    def test_tolerant_solve_many_matches_tolerant_batch(self, client):
        requests = [
            request_for(seed=1),
            request_for(scheduler="test-explode"),
            request_for(seed=2),
        ]
        served = client.solve_many(requests, tolerant=True)
        local = api.solve_many(requests, tolerant=True)
        assert [r.to_json() for r in served] == [r.to_json() for r in local]
        assert [r.valid for r in served] == [True, False, True]

    def test_malformed_line_gets_invalid_request_not_a_hangup(self, server):
        conn = RawConnection(server.address)
        try:
            conn.send_line(b"this is not json\n")
            response = conn.recv()
            assert response["ok"] is False
            assert response["error"]["code"] == protocol.E_INVALID_REQUEST
            assert response["id"] is None
            # The connection survives: a well-formed message still works.
            conn.send(protocol.health_message(id=2))
            assert conn.recv()["ok"] is True
        finally:
            conn.close()

    def test_unknown_op_and_missing_request_object(self, server):
        conn = RawConnection(server.address)
        try:
            conn.send({"op": "dance", "id": 1})
            assert conn.recv()["error"]["code"] == protocol.E_INVALID_REQUEST
            conn.send({"op": "solve", "id": 2})
            assert conn.recv()["error"]["code"] == protocol.E_INVALID_REQUEST
            conn.send({"op": "solve", "id": 3, "request": {"bogus": True}})
            assert conn.recv()["error"]["code"] == protocol.E_INVALID_SPEC
        finally:
            conn.close()

    def test_bad_timeout_is_invalid_request(self, server):
        conn = RawConnection(server.address)
        try:
            message = protocol.solve_message(request_for().to_dict(), id=4)
            message["timeout"] = "soon"
            conn.send(message)
            assert conn.recv()["error"]["code"] == protocol.E_INVALID_REQUEST
        finally:
            conn.close()


# ----------------------------------------------------------------------
# Backpressure and timeouts
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_queue_full_is_a_structured_error_with_retry_hint(self, tmp_path):
        config = ServeConfig(port=0, jobs=1, queue_size=1, cache_dir="")
        with SolveServer(config) as srv:
            conn = RawConnection(srv.address)
            try:
                payload = request_for(scheduler="test-sleepy(delay=0.4)").to_dict()
                for rid in range(6):
                    conn.send(protocol.solve_message(payload, id=rid))
                responses = [conn.recv() for _ in range(6)]
            finally:
                conn.close()
            rejected = [r for r in responses if not r["ok"]]
            accepted = [r for r in responses if r["ok"]]
            assert rejected, "a 1-deep queue with 6 pipelined requests must bounce some"
            for response in rejected:
                assert response["error"]["code"] == protocol.E_QUEUE_FULL
                assert response["error"]["retry_after"] > 0
            assert accepted, "the accepted requests must still be answered"
            stats = srv.stats()
            assert stats["errors"][protocol.E_QUEUE_FULL] == len(rejected)

    def test_client_retries_queue_full_to_completion(self, tmp_path):
        config = ServeConfig(port=0, jobs=1, queue_size=1, cache_dir="")
        with SolveServer(config) as srv:
            requests = [
                request_for(seed=s, scheduler="test-sleepy(delay=0.05)") for s in range(8)
            ]
            with connect(srv.address, retries=10) as c:
                results = c.solve_many(requests)
            assert len(results) == 8
            assert all(r.valid for r in results)

    def test_timeout_is_a_structured_error(self, tmp_path):
        config = ServeConfig(port=0, jobs=1, queue_size=4, cache_dir="")
        with SolveServer(config) as srv:
            with connect(srv.address) as c:
                with pytest.raises(ServeError) as excinfo:
                    c.solve(
                        request_for(scheduler="test-sleepy(delay=2.0)"), timeout=0.1
                    )
                assert excinfo.value.code == protocol.E_TIMEOUT
            assert srv.stats()["errors"][protocol.E_TIMEOUT] == 1

    def test_default_timeout_from_config(self):
        config = ServeConfig(port=0, jobs=1, queue_size=4, cache_dir="", timeout=0.1)
        with SolveServer(config) as srv:
            with connect(srv.address) as c:
                with pytest.raises(ServeError) as excinfo:
                    c.solve(request_for(scheduler="test-sleepy(delay=2.0)"))
                assert excinfo.value.code == protocol.E_TIMEOUT


# ----------------------------------------------------------------------
# Shutdown and drain
# ----------------------------------------------------------------------
class TestShutdownDrain:
    def test_drain_answers_everything_accepted(self, tmp_path):
        config = ServeConfig(port=0, jobs=2, queue_size=16, cache_dir="")
        srv = SolveServer(config)
        srv.start()
        conn = RawConnection(srv.address)
        try:
            payload = request_for(scheduler="test-sleepy(delay=0.2)").to_dict()
            for rid in range(4):
                conn.send(protocol.solve_message(payload, id=rid))
            conn.send(protocol.shutdown_message(id=99, drain=True))
            responses = [conn.recv() for _ in range(5)]
        finally:
            conn.close()
        by_id = {r["id"]: r for r in responses}
        for rid in range(4):
            assert by_id[rid]["ok"] is True, "accepted work must be answered, not dropped"
        assert by_id[99]["ok"] is True
        assert by_id[99]["data"]["drain"] is True

    def test_new_work_during_drain_is_refused(self, server, client):
        server._draining = True
        with pytest.raises(ServeError) as excinfo:
            client.solve(request_for())
        assert excinfo.value.code == protocol.E_SHUTTING_DOWN
        assert client.health()["status"] == "draining"

    def test_close_is_idempotent(self, tmp_path):
        srv = SolveServer(ServeConfig(port=0, jobs=1, cache_dir=""))
        srv.start()
        srv.close()
        srv.close()  # second close must be a no-op, not a hang

    def test_close_without_start_does_not_hang(self):
        srv = SolveServer(ServeConfig(port=0, jobs=1, cache_dir=""))
        srv.close()


# ----------------------------------------------------------------------
# Thin client
# ----------------------------------------------------------------------
class TestClient:
    def test_parse_address(self):
        assert parse_address("127.0.0.1:7464") == ("127.0.0.1", 7464)
        assert parse_address(":7464") == ("127.0.0.1", 7464)
        assert parse_address("7464") == ("127.0.0.1", 7464)
        assert parse_address(("localhost", 80)) == ("localhost", 80)
        with pytest.raises(ValueError, match="bad service address"):
            parse_address("nope")

    def test_unreachable_service_raises_service_unavailable(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        with pytest.raises(ServiceUnavailable):
            connect(("127.0.0.1", free_port), retries=1, backoff=0.01)

    def test_backoff_grows_and_caps(self):
        client = ServiceClient("127.0.0.1:1", backoff=0.1, max_backoff=0.5)
        delays = [client._sleep_for(k) for k in range(5)]
        assert delays == sorted(delays)
        assert delays[-1] == 0.5

    def test_reconnects_after_server_side_reset(self, server):
        with connect(server.address) as c:
            c.solve(request_for())
            c._reset()  # simulate a dropped connection
            assert c.solve(request_for(seed=1)).valid


# ----------------------------------------------------------------------
# CLI: submit and cache-stats against an in-process daemon
# ----------------------------------------------------------------------
class TestCli:
    @pytest.fixture
    def requests_file(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        lines = [
            json.dumps(request_for(seed=s).to_dict()) for s in range(3)
        ]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_submit_output_matches_batch(self, server, requests_file, tmp_path, capsys):
        addr = "%s:%d" % server.address
        out_submit = tmp_path / "submit.jsonl"
        out_batch = tmp_path / "batch.jsonl"
        assert main(["submit", str(requests_file), "--addr", addr,
                     "--out", str(out_submit)]) == 0
        assert main(["batch", str(requests_file), "--out", str(out_batch)]) == 0
        assert out_submit.read_bytes() == out_batch.read_bytes()

    def test_submit_exit_status_reflects_failures(self, server, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps(request_for(scheduler="test-explode").to_dict()) + "\n"
        )
        addr = "%s:%d" % server.address
        assert main(["submit", str(path), "--addr", addr]) == 1
        captured = capsys.readouterr()
        assert "0/1 ok, 1 invalid" in captured.err

    def test_submit_unreachable_daemon_fails_cleanly(self, requests_file):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        with pytest.raises(SystemExit, match="cannot reach"):
            main(["submit", str(requests_file), "--addr", f"127.0.0.1:{free_port}"])

    def test_cache_stats_against_daemon(self, server, client, requests_file, capsys):
        client.solve_many(api.load_requests(requests_file))
        addr = "%s:%d" % server.address
        assert main(["cache-stats", "--addr", addr]) == 0
        captured = capsys.readouterr()
        assert "stores" in captured.out
        assert "entries" in captured.out

    def test_cache_stats_against_directory(self, server, client, requests_file, capsys):
        client.solve_many(api.load_requests(requests_file))
        assert main(["cache-stats", "--cache-dir", str(server.cache.root)]) == 0
        captured = capsys.readouterr()
        assert "entries      : 3" in captured.out

    def test_cache_stats_without_a_target_errors(self, monkeypatch):
        import repro.portfolio.cache as cache_module

        # Neutralize both halves of the process-wide default (other tests
        # may have called set_default_cache_dir without clearing it).
        monkeypatch.setattr(cache_module, "_DEFAULT_CACHE_DIR", None)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        with pytest.raises(SystemExit, match="no cache directory"):
            main(["cache-stats"])


# ----------------------------------------------------------------------
# Warm hits: memoized signatures and lazily decoded schedules
# ----------------------------------------------------------------------
def _serve_raw(address, requests):
    """Send requests one at a time on one connection; the raw responses."""
    conn = RawConnection(address)
    try:
        responses = []
        for rid, request in enumerate(requests):
            conn.send(protocol.solve_message(request.to_dict(), id=rid))
            responses.append(conn.recv())
        return responses
    finally:
        conn.close()


@pytest.fixture
def dag_builds(monkeypatch):
    """Every DAG a ``DagSpec.build`` call returns, in call order."""
    built = []
    build = DagSpec.build

    def recording(self):
        dag = build(self)
        built.append(dag)
        return dag

    monkeypatch.setattr(DagSpec, "build", recording)
    return built


class TestWarmHits:
    MACHINE = MachineSpec(P=2, g=2, l=3)

    @pytest.mark.parametrize(
        "dag_spec",
        [
            DagSpec.generator("spmv", n=8, q=0.3, seed=5),
            DagSpec.generator("pagerank", iterations=3),
            DagSpec(source="inline", n=4, edges=((0, 1), (0, 2), (1, 3), (2, 3)), work=(1, 2, 3, 4)),
        ],
        ids=["seeded", "coarse", "inline"],
    )
    def test_pure_problem_is_built_once(self, server, dag_builds, dag_spec):
        request = SolveRequest(spec=ProblemSpec(dag=dag_spec, machine=self.MACHINE), scheduler="etf")
        responses = _serve_raw(server.address, [request] * 4)
        assert len(dag_builds) == 1
        # Another scheduler on the memoized problem misses once, builds, then hits.
        other = SolveRequest(spec=request.spec, scheduler="cilk")
        others = _serve_raw(server.address, [other] * 2)
        assert len(dag_builds) == 2
        assert [r["cached"] for r in responses + others] == [False, True, True, True, False, True]
        for answers, solved in ((responses, request), (others, other)):
            expected = json.dumps(api.solve(solved).to_dict(), sort_keys=True)
            assert {json.dumps(r["result"], sort_keys=True) for r in answers} == {expected}

    def test_seedless_generator_is_rebuilt_and_never_answered_from_another_draw(
        self, server, dag_builds
    ):
        from repro.portfolio.features import instance_signature

        request = SolveRequest(
            spec=ProblemSpec(dag=DagSpec.generator("spmv", n=8, q=0.3), machine=self.MACHINE),
            scheduler="etf",
        )
        responses = _serve_raw(server.address, [request] * 3)
        assert len(dag_builds) == 3
        machine = self.MACHINE.build()
        seen = set()
        for dag, response in zip(dag_builds, responses):
            # Each answer is the solve of that request's own draw; it may
            # only come from the cache when an earlier draw was identical.
            own = SolveRequest(spec=ProblemSpec.from_instance(dag, machine), scheduler="etf")
            assert response["result"] == api.solve(own).to_dict()
            signature = instance_signature(dag, machine)
            assert response["cached"] == (signature in seen)
            seen.add(signature)

    def test_rewritten_hyperdag_file_is_answered_for_the_new_file(self, server, tmp_path):
        from repro.graphs.fine import spmv_dag
        from repro.graphs.hyperdag import write_hyperdag

        path = tmp_path / "problem.hdag"
        request = SolveRequest(
            spec=ProblemSpec(dag=DagSpec.hyperdag(path), machine=self.MACHINE), scheduler="etf"
        )
        answers = []
        for seed, n in ((1, 6), (2, 9)):
            write_hyperdag(spmv_dag(n, q=0.3, seed=seed), path)
            (response,) = _serve_raw(server.address, [request])
            assert response["cached"] is False
            assert response["result"] == api.solve(request).to_dict()
            answers.append(response["result"])
        assert answers[0]["num_nodes"] != answers[1]["num_nodes"]

    def test_hits_never_decode_the_schedule(self, tmp_path, monkeypatch):
        import repro.experiments.persistence as persistence

        decoded = []
        decode = persistence.schedule_from_dict
        monkeypatch.setattr(
            persistence, "schedule_from_dict", lambda data: decoded.append(1) or decode(data)
        )
        requests = [request_for(seed=s) for s in range(3)]
        config = ServeConfig(port=0, jobs=1, cache_dir=str(tmp_path / "cache"))
        with SolveServer(config) as srv:
            cold = _serve_raw(srv.address, requests)
            memory = _serve_raw(srv.address, requests)
        # A restarted daemon: an empty LRU and signature memo, so disk hits.
        with SolveServer(config) as srv:
            disk = _serve_raw(srv.address, requests)
            stats = srv.pool.stats()
        assert [r["cached"] for r in cold + memory + disk] == [False] * 3 + [True] * 6
        assert [r["result"] for r in memory] == [r["result"] for r in disk] == [r["result"] for r in cold]
        assert stats["cache"]["hits"] == 3 and stats["cache"]["stores"] == 0
        assert decoded == []

    def test_memo_under_concurrent_workers(self, tmp_path):
        import sys

        from repro.portfolio.cache import SolutionCache
        from repro.portfolio.features import instance_signature

        requests = [request_for(seed=s) for s in range(6)]
        expected = [api.solve(r).to_dict() for r in requests]
        pool = WorkerPool(jobs=4, queue_size=128, cache=SolutionCache(tmp_path))
        pool.SIGNATURE_MEMO = 3  # smaller than the problem set: evictions race lookups
        tickets = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pool.start()
            for k in range(96):
                sent = []
                ticket = Ticket(requests[k % 6], rid=k, send=sent.append)
                assert pool.submit(ticket) == "ok"
                tickets.append((k % 6, ticket, sent))
            for _, ticket, _ in tickets:
                assert ticket.done.wait(60.0)
        finally:
            pool.drain(timeout=30.0)
            sys.setswitchinterval(interval)
        for problem, _, sent in tickets:
            assert sent[0]["ok"] and sent[0]["result"] == expected[problem]
        assert len(pool._signatures) <= 3
        signatures = {
            pool._problem_key(r): instance_signature(r.spec.build_dag(), r.spec.build_machine())
            for r in requests
        }
        assert all(signatures[key] == sig for key, sig in pool._signatures.items())
