"""Pull-based distributed batch running over a shared-filesystem queue.

The missing half of ROADMAP item 5: ``solve_many`` batches and sweeps can
fan out across hosts by sharing a directory queue (claim via atomic rename,
retry counter, dead-letter) and one solution cache.  See
:mod:`repro.distrib.queue` for the on-disk protocol and
:mod:`repro.distrib.worker` for the worker loop; the CLI surface is
``repro enqueue`` / ``repro worker`` / ``repro collect``, and
:func:`repro.api.solve_many` takes a ``queue_dir=`` to run a whole batch
through the queue (participating inline, accelerated by any extra workers).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".queue": (
        "DEFAULT_MAX_ATTEMPTS",
        "ENVELOPE_FORMAT_VERSION",
        "DirectoryQueue",
        "Envelope",
        "QueueError",
    ),
    ".worker": ("WorkerStats", "run_worker", "solve_envelope"),
})
