"""Project-specific static analysis: the ``repro check`` lint suite.

The repo's central promise — byte-identical reproduction of the paper's
results across ``solve``, ``solve_many``, the batch CLI and the serve
daemon — is enforced dynamically by the equivalence tests, but those only
sample a few instances.  This package enforces the underlying *invariants*
statically, over every file, on every CI run:

``determinism``
    no unseeded RNG, no wall-clock ``time.time()`` outside timing modules,
    no iteration over unsorted ``set``/``os.listdir`` in result-producing
    code (see :mod:`repro.checks.rules.determinism`);

``lock-discipline``
    in :mod:`repro.serve`, instance attributes mutated from more than one
    method of a thread-spawning class must be mutated under a lock
    (:mod:`repro.checks.rules.lock_discipline`);

``registry-contract``
    ``@register_scheduler`` metadata must match the factory's real
    signature (:mod:`repro.checks.rules.registry_contract`);

``frozen-spec-mutation``
    no attribute assignment on frozen spec instances outside their
    defining module (:mod:`repro.checks.rules.frozen_spec`);

``protocol-contract``
    error codes constructed in ``serve/`` and the registry in
    ``protocol.py`` must agree both ways
    (:mod:`repro.checks.rules.protocol_contract`).

Findings carry ``path:line`` and a rule id; a line can opt out with a
justified ``# repro-check: disable=<rule>`` pragma, and a committed
baseline file can grandfather known findings.  Entry points: the
``repro check`` CLI subcommand and :func:`repro.checks.runner.run_checks`.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".core": ("BaselineError", "Finding", "Project", "Rule", "SourceModule"),
    ".runner": ("CheckReport", "all_rules", "main", "run_checks"),
})
