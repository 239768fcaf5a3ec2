"""JSONL checkpoint store: interrupted campaigns resume where they stopped.

Every completed work unit is appended to the checkpoint file as one JSON
line the moment it finishes, so a run killed mid-lot loses at most the
units that were in flight.  Reopening the same path later (the CLI's
``--resume`` flag, or passing the store back into an executor) loads the
completed results and the executor skips those units entirely — no
re-measurement, same merged output.

File format (one JSON object per line):

* line 1 — header: ``{"schema": 1, "kind": "repro.farm.checkpoint",
  "campaign": "<id>"}``.  The campaign id ties a checkpoint to the run
  configuration that produced it; resuming under a different id raises
  :class:`CheckpointMismatch` instead of silently merging foreign results.
* following lines — one completed unit each: the unit key, execution
  metadata, and the pickled result value (base64), e.g.
  ``{"unit": "die/0003", "index": 3, "measurements": 412, "attempts": 1,
  "elapsed_s": 0.21, "rtp": 31.55, "value_b64": "..."}``.

A truncated final line (the process died mid-write), or any other line
that is not a decodable result, is dropped on load and counted;
everything else is kept.
"""

from __future__ import annotations

import base64
import json
import logging
import pickle
from pathlib import Path
from typing import Dict, Optional, Union

from repro.ioutil import durable_append_line, iter_jsonl
from repro.farm.workunit import WorkResult
from repro.obs.events import FarmCheckpointDropped
from repro.obs.runtime import OBS

logger = logging.getLogger("repro.farm")

_SCHEMA = 1
_KIND = "repro.farm.checkpoint"


class CheckpointMismatch(RuntimeError):
    """The checkpoint on disk belongs to a different campaign."""


class CheckpointStore:
    """Append-only JSONL store of completed work-unit results.

    Parameters
    ----------
    path:
        Checkpoint file; created (with its header) on the first
        :meth:`record` if absent.
    campaign:
        Identity of the producing run (seed, die count, ...).  ``""``
        skips the header consistency check — any checkpoint is accepted.
    """

    def __init__(self, path: Union[str, Path], campaign: str = "") -> None:
        self.path = Path(path)
        self.campaign = campaign
        self._handle = None

    # -- loading -----------------------------------------------------------------
    def load(self) -> Dict[str, WorkResult]:
        """Completed results on disk, keyed by unit key.

        Corrupt, truncated or non-object lines are skipped with a
        warning — and, with telemetry enabled, counted on the
        ``farm.checkpoint.dropped_lines`` counter and announced by one
        :class:`~repro.obs.events.FarmCheckpointDropped` event, so a
        resume that silently lost results is visible in the trace.  A
        campaign header that does not match raises
        :class:`CheckpointMismatch`.
        """
        results: Dict[str, WorkResult] = {}
        if not self.path.exists():
            return results
        dropped = 0
        for number, payload in iter_jsonl(self.path):
            payload = payload or {}
            if payload.get("kind") == _KIND:
                self._check_header(payload)
                continue
            result = self._decode(payload, number)
            if result is not None:
                results[result.unit_key] = result
            else:
                dropped += 1
        if dropped and OBS.enabled:
            OBS.metrics.counter("farm.checkpoint.dropped_lines").inc(dropped)
            OBS.bus.emit(
                FarmCheckpointDropped(path=str(self.path), lines=dropped)
            )
        return results

    def completed_keys(self) -> "set[str]":
        """Unit keys already recorded in the checkpoint."""
        return set(self.load())

    def _check_header(self, header: Dict[str, object]) -> None:
        recorded = str(header.get("campaign", ""))
        if self.campaign and recorded and recorded != self.campaign:
            raise CheckpointMismatch(
                f"checkpoint {self.path} was written by campaign "
                f"{recorded!r}, refusing to resume campaign "
                f"{self.campaign!r}"
            )

    def _decode(
        self, payload: Dict[str, object], number: int
    ) -> Optional[WorkResult]:
        try:
            value = pickle.loads(base64.b64decode(str(payload["value_b64"])))
            return WorkResult(
                unit_key=str(payload["unit"]),
                index=int(payload["index"]),
                value=value,
                measurements=int(payload.get("measurements", 0)),
                rtp=payload.get("rtp"),  # type: ignore[arg-type]
                attempts=int(payload.get("attempts", 1)),
                elapsed_s=float(payload.get("elapsed_s", 0.0)),
                worker=str(payload.get("worker", "")),
                from_checkpoint=True,
            )
        except Exception:  # noqa: BLE001 — any undecodable line is dropped
            # pickle/base64 raise a zoo of types (EOFError, binascii.Error,
            # UnpicklingError, attribute lookups...); the tolerant-load
            # contract is the same for all of them.
            logger.warning(
                "checkpoint %s: dropping undecodable line %d",
                self.path, number,
            )
            return None

    # -- recording ---------------------------------------------------------------
    def record(self, result: WorkResult) -> None:
        """Append one completed unit, flushed immediately."""
        handle = self._open_for_append()
        payload = {
            "unit": result.unit_key,
            "index": result.index,
            "measurements": result.measurements,
            "attempts": result.attempts,
            "elapsed_s": round(result.elapsed_s, 6),
            "worker": result.worker,
            "rtp": result.rtp,
            "value_b64": base64.b64encode(
                pickle.dumps(result.value)
            ).decode("ascii"),
        }
        # flush + fsync: a unit the executor believes is checkpointed
        # must survive a crash — a torn line here would silently re-run
        # (or drop) the unit on resume.
        durable_append_line(handle, json.dumps(payload, sort_keys=True))

    def _open_for_append(self):
        if self._handle is None or self._handle.closed:
            is_new = not self.path.exists() or self.path.stat().st_size == 0
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a")
            if is_new:
                header = {
                    "schema": _SCHEMA,
                    "kind": _KIND,
                    "campaign": self.campaign,
                }
                durable_append_line(
                    self._handle, json.dumps(header, sort_keys=True)
                )
        return self._handle

    def close(self) -> None:
        """Close the append handle (idempotent; loading stays possible)."""
        if self._handle is not None and not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "CheckpointStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
