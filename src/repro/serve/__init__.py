"""Scheduling as a service: a persistent solve daemon and its thin client.

Every other entry point of the package (the CLI, :mod:`repro.api`) is
one-shot: each invocation pays interpreter start, registry build, and a cold
solution cache.  This package keeps all of that warm in one long-running
process:

* :mod:`repro.serve.protocol` — the line-delimited JSON wire format
  (requests, responses, the structured error codes);
* :mod:`repro.serve.pool` — the bounded request queue and worker pool that
  executes :class:`~repro.experiments.runner.WorkItem`\\ s against one shared
  :class:`~repro.portfolio.cache.SolutionCache`;
* :mod:`repro.serve.server` — the TCP daemon (``repro serve``): connection
  handling, backpressure, per-request timeouts, stats/health, graceful
  drain on shutdown;
* :mod:`repro.serve.client` — the thin client (``repro submit``):
  :func:`~repro.serve.client.connect` / ``solve`` / ``solve_many`` /
  ``stats`` with retry-with-backoff on transient failures.

Quick start::

    # terminal 1
    python -m repro serve --port 7464 --jobs 4 --cache-dir .cache

    # terminal 2 (or any process)
    from repro.serve import connect
    from repro.spec import DagSpec, MachineSpec, ProblemSpec, SolveRequest

    client = connect("127.0.0.1:7464")
    spec = ProblemSpec(dag=DagSpec.generator("spmv", n=12, q=0.25, seed=42),
                       machine=MachineSpec(P=4, g=3, l=5))
    result = client.solve(SolveRequest(spec=spec, scheduler="hc"))
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".protocol": (
        "PROTOCOL",
        "ERROR_CODES",
        "E_INTERNAL",
        "E_INVALID_REQUEST",
        "E_INVALID_SPEC",
        "E_QUEUE_FULL",
        "E_SCHEDULER",
        "E_SHUTTING_DOWN",
        "E_TIMEOUT",
        "ProtocolError",
    ),
    ".server": ("ServeConfig", "SolveServer"),
    ".client": ("ServeError", "ServiceClient", "connect"),
})
