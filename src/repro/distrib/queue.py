"""Filesystem-backed work queue for the distributed batch runner.

The queue is a directory shared by any number of producer and worker
processes — typically over NFS or another shared filesystem, so several
hosts can drain one batch against one shared solution cache.  Everything is
plain files and atomic rename, no daemon and no locking service:

.. code-block:: text

    <queue>/
      pending/    <id>.json    work waiting for a worker (one request each)
      claimed/    <id>.json    work a worker has claimed (os.rename from pending)
      results/    <id>.json    answered work (written via temp + os.replace)
      failed/     <id>.json    dead-lettered work (gave up after max attempts)
      manifests/  <name>.json  batch manifests (ordered id lists, see enqueue)

Claiming is the only coordination point: a worker claims a task by renaming
``pending/<id>.json`` to ``claimed/<id>.json``.  ``os.rename`` within one
filesystem is atomic, so exactly one of any number of racing workers wins;
the losers see ``FileNotFoundError`` and move on.  A worker that finishes
writes ``results/<id>.json`` (temp file + ``os.replace``, same torn-write
protection as the solution cache) and only then removes the claim — a crash
between the two leaves a claim that :func:`recover_claimed` can requeue, and
re-answering an id is idempotent because results are keyed by id.

Each task file is an *envelope*: the serialized
:class:`~repro.spec.SolveRequest` plus the queue bookkeeping (id, attempt
counter).  A task whose envelope cannot even be parsed — or that fails
unexpectedly inside the worker machinery — is retried up to
``max_attempts`` times and then dead-lettered to ``failed/`` with the error
attached.  A request whose *scheduler* fails is not retried: tolerant
execution answers it with an invalid result, exactly like ``repro batch``.
"""

from __future__ import annotations

import json
import os
import tempfile
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..spec import SolveRequest, SolveResult, SpecError

__all__ = [
    "DEFAULT_MAX_ATTEMPTS",
    "ENVELOPE_FORMAT_VERSION",
    "DirectoryQueue",
    "Envelope",
    "QueueError",
]

#: Version header of the envelope format; a worker refuses (dead-letters)
#: envelopes written by an incompatible producer instead of guessing.
ENVELOPE_FORMAT_VERSION = 1

#: Attempts before a task is dead-lettered (the first run counts as one).
DEFAULT_MAX_ATTEMPTS = 3

PathLike = Union[str, Path]

_SUBDIRS = ("pending", "claimed", "results", "failed", "manifests")


class QueueError(RuntimeError):
    """Raised for malformed queue directories and unanswerable batches."""


@dataclass(frozen=True)
class Envelope:
    """One task in flight: a solve request plus queue bookkeeping."""

    id: str
    request: Dict[str, object]
    attempts: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "format": ENVELOPE_FORMAT_VERSION,
            "id": self.id,
            "attempts": self.attempts,
            "request": self.request,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Envelope":
        if not isinstance(data, dict) or data.get("format") != ENVELOPE_FORMAT_VERSION:
            raise QueueError(f"unsupported task envelope: {data!r:.120}")
        try:
            return cls(
                id=str(data["id"]),
                request=dict(data["request"]),  # type: ignore[call-overload]
                attempts=int(data.get("attempts", 0)),  # type: ignore[arg-type]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise QueueError(f"malformed task envelope: {exc}") from exc

    def build_request(self) -> SolveRequest:
        """The embedded :class:`~repro.spec.SolveRequest` (raises SpecError)."""
        return SolveRequest.from_dict(self.request)


def _atomic_write_json(path: Path, payload: dict) -> None:
    """Write ``payload`` to ``path`` via temp file + ``os.replace``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, sort_keys=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class DirectoryQueue:
    """One shared work-queue directory (see module docstring for layout)."""

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)
        #: Envelopes this instance dead-lettered because they could not even
        #: be parsed (poisoned files).  A worker folds this into its exit
        #: report — such tasks never surface as claims, so the drain loop
        #: cannot count them itself.
        self.raw_dead_letters = 0

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    @property
    def pending_dir(self) -> Path:
        return self.root / "pending"

    @property
    def claimed_dir(self) -> Path:
        return self.root / "claimed"

    @property
    def results_dir(self) -> Path:
        return self.root / "results"

    @property
    def failed_dir(self) -> Path:
        return self.root / "failed"

    @property
    def manifests_dir(self) -> Path:
        return self.root / "manifests"

    def ensure_layout(self) -> None:
        """Create the queue subdirectories (idempotent, race-safe)."""
        for name in _SUBDIRS:
            (self.root / name).mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Producing
    # ------------------------------------------------------------------
    def enqueue(
        self,
        requests: Sequence[SolveRequest],
        *,
        manifest: Optional[str] = None,
    ) -> List[str]:
        """Enqueue a batch; returns the task ids in request order.

        Every request becomes one ``pending/<id>.json`` envelope.  Ids embed
        a fresh batch token, so enqueueing the same JSONL twice queues (and
        answers) it twice — the queue deduplicates *claims*, not content.
        With ``manifest`` the ordered id list is also written to
        ``manifests/<manifest>.json`` so a collector (``repro collect``) can
        reassemble results in request order later.
        """
        self.ensure_layout()
        batch = uuid.uuid4().hex[:12]
        ids: List[str] = []
        for index, request in enumerate(requests):
            task_id = f"{batch}-{index:06d}"
            envelope = Envelope(id=task_id, request=request.to_dict())
            _atomic_write_json(self.pending_dir / f"{task_id}.json", envelope.to_dict())
            ids.append(task_id)
        if manifest is not None:
            self.write_manifest(manifest, ids)
        return ids

    def write_manifest(self, name: str, ids: Sequence[str]) -> Path:
        path = self.manifests_dir / f"{name}.json"
        _atomic_write_json(path, {"format": ENVELOPE_FORMAT_VERSION, "ids": list(ids)})
        return path

    def read_manifest(self, name: str) -> List[str]:
        path = self.manifests_dir / f"{name}.json"
        try:
            data = json.loads(path.read_text())
            return [str(i) for i in data["ids"]]
        except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
            raise QueueError(f"cannot read manifest {path}: {exc}") from exc

    # ------------------------------------------------------------------
    # Claiming (the workers' side)
    # ------------------------------------------------------------------
    def pending_ids(self) -> List[str]:
        """Ids currently waiting, sorted (deterministic claim order)."""
        try:
            names = sorted(p.stem for p in self.pending_dir.iterdir() if p.suffix == ".json")
        except OSError:
            return []
        return names

    def claim(self, task_id: str) -> Optional[Envelope]:
        """Atomically claim one pending task; ``None`` if another worker won.

        The claim is a single ``os.rename`` of the pending file into
        ``claimed/`` — on one filesystem exactly one racing claimant
        succeeds.  A claimed envelope that does not parse is dead-lettered
        immediately (raising would wedge the queue on one poisoned file).
        """
        source = self.pending_dir / f"{task_id}.json"
        target = self.claimed_dir / f"{task_id}.json"
        self.claimed_dir.mkdir(parents=True, exist_ok=True)
        try:
            os.rename(source, target)
        except OSError:
            return None  # lost the race (or the file vanished): not ours
        try:
            envelope = Envelope.from_dict(json.loads(target.read_text()))
        except (OSError, json.JSONDecodeError, QueueError) as exc:
            self._dead_letter_raw(task_id, target, f"unreadable envelope: {exc}")
            return None
        if envelope.id != task_id:
            self._dead_letter_raw(task_id, target, "envelope id does not match filename")
            return None
        return envelope

    def claim_next(self) -> Optional[Envelope]:
        """Claim the first available pending task (scan, race, repeat)."""
        for task_id in self.pending_ids():
            envelope = self.claim(task_id)
            if envelope is not None:
                return envelope
        return None

    # ------------------------------------------------------------------
    # Answering
    # ------------------------------------------------------------------
    def complete(self, envelope: Envelope, result: SolveResult) -> Path:
        """Answer a claimed task: write the result, then release the claim.

        The result is committed *before* the claim is removed, so a crash in
        between leaves a claim whose re-execution (after
        :func:`recover_claimed`) just overwrites ``results/<id>.json`` with
        the same id — answered exactly once as far as any collector sees.
        """
        path = self.results_dir / f"{envelope.id}.json"
        _atomic_write_json(
            path,
            {
                "format": ENVELOPE_FORMAT_VERSION,
                "id": envelope.id,
                "attempts": envelope.attempts + 1,
                "result": result.to_dict(),
            },
        )
        self._release_claim(envelope.id)
        return path

    def retry_or_fail(
        self, envelope: Envelope, error: str, *, max_attempts: int = DEFAULT_MAX_ATTEMPTS
    ) -> bool:
        """Requeue a failed claim, or dead-letter it after ``max_attempts``.

        Returns ``True`` when the task was requeued for another attempt.
        """
        attempts = envelope.attempts + 1
        if attempts >= max_attempts:
            self._dead_letter(envelope, attempts, error)
            return False
        # Bump the attempt counter inside the *claimed* file, then rename it
        # back to pending: the task is in exactly one place at every instant
        # (a crash in between leaves a recoverable claim), and no pending
        # copy ever coexists with the claim for another worker to grab.
        bumped = Envelope(id=envelope.id, request=envelope.request, attempts=attempts)
        claimed = self.claimed_dir / f"{envelope.id}.json"
        _atomic_write_json(claimed, bumped.to_dict())
        self.pending_dir.mkdir(parents=True, exist_ok=True)
        try:
            os.rename(claimed, self.pending_dir / f"{envelope.id}.json")
        except OSError:
            return False  # claim vanished (operator intervention): give up
        return True

    def _dead_letter(self, envelope: Envelope, attempts: int, error: str) -> None:
        _atomic_write_json(
            self.failed_dir / f"{envelope.id}.json",
            {
                "format": ENVELOPE_FORMAT_VERSION,
                "id": envelope.id,
                "attempts": attempts,
                "error": error,
                "request": envelope.request,
            },
        )
        self._release_claim(envelope.id)

    def _dead_letter_raw(self, task_id: str, claimed_path: Path, error: str) -> None:
        """Dead-letter a claim whose envelope cannot be parsed at all."""
        self.raw_dead_letters += 1
        try:
            raw = claimed_path.read_text()
        except OSError:
            raw = ""
        _atomic_write_json(
            self.failed_dir / f"{task_id}.json",
            {
                "format": ENVELOPE_FORMAT_VERSION,
                "id": task_id,
                "attempts": DEFAULT_MAX_ATTEMPTS,
                "error": error,
                "raw": raw,
            },
        )
        self._release_claim(task_id)

    def _release_claim(self, task_id: str) -> None:
        try:
            os.unlink(self.claimed_dir / f"{task_id}.json")
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Reading results / recovery
    # ------------------------------------------------------------------
    def load_result(self, task_id: str) -> Optional[SolveResult]:
        """The answered result of a task, or ``None`` while unanswered."""
        path = self.results_dir / f"{task_id}.json"
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        try:
            return SolveResult.from_dict(data["result"])
        except (SpecError, KeyError, TypeError, ValueError):
            return None

    def load_failure(self, task_id: str) -> Optional[str]:
        """The dead-letter error of a task, or ``None`` if not dead-lettered."""
        path = self.failed_dir / f"{task_id}.json"
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        return str(data.get("error", "dead-lettered"))

    def poll_answers(
        self,
        task_ids: Sequence[str],
        results: Dict[str, SolveResult],
        failures: Dict[str, str],
    ) -> bool:
        """One scan for answers to ``task_ids``, in order.

        Each task not yet in ``results`` or ``failures`` is looked up: an
        answered result goes into ``results``, a dead-letter error into
        ``failures``.  Returns ``True`` when the scan recorded anything new.
        """
        progressed = False
        for task_id in task_ids:
            if task_id in results or task_id in failures:
                continue
            result = self.load_result(task_id)
            if result is not None:
                results[task_id] = result
                progressed = True
                continue
            error = self.load_failure(task_id)
            if error is not None:
                failures[task_id] = error
                progressed = True
        return progressed

    def recover_claimed(self) -> List[str]:
        """Move every claimed task back to pending (crash recovery).

        Only safe when no worker is currently processing the claims — run it
        from an operator command (``repro worker --recover-claimed``) after
        a worker host died, not concurrently with live workers.
        """
        recovered: List[str] = []
        try:
            names = sorted(p.name for p in self.claimed_dir.iterdir() if p.suffix == ".json")
        except OSError:
            return recovered
        self.pending_dir.mkdir(parents=True, exist_ok=True)
        for name in names:
            try:
                os.rename(self.claimed_dir / name, self.pending_dir / name)
            except OSError:
                continue
            recovered.append(Path(name).stem)
        return recovered

    def counts(self) -> Dict[str, int]:
        """``{pending, claimed, results, failed}`` file counts (telemetry)."""
        out: Dict[str, int] = {}
        for name in ("pending", "claimed", "results", "failed"):
            try:
                out[name] = sum(
                    1 for p in (self.root / name).iterdir() if p.suffix == ".json"
                )
            except OSError:
                out[name] = 0
        return out
