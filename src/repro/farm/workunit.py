"""Deterministic, serializable units of characterization work.

A tester farm splits a campaign into :class:`WorkUnit`\\ s — one die and its
test set, one environmental-grid cell, one wafer site — that are complete
descriptions of the measurement they stand for: every unit carries its own
payload (device instance, tests, search configuration) plus a **derived
seed**.  Seeds come from :func:`derive_seed`, a stable hash of
``(campaign_seed, unit_key)``, so the noise stream a unit sees depends only
on its identity — never on which worker ran it, in which order, or how many
workers the farm had.  That is what makes a farm run bit-identical to a
serial run.

Units are plain picklable dataclasses: a :class:`~repro.farm.executor.
ParallelExecutor` hands its batch of them to each worker process once and
then dispatches indices into it, and a :class:`~repro.farm.checkpoint.
CheckpointStore` writes their results to disk for resume.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional

#: Mask keeping derived seeds inside the non-negative 63-bit range every
#: seedable RNG in the stack (``numpy.random.default_rng``) accepts.
_SEED_MASK = (1 << 63) - 1


def derive_seed(campaign_seed: int, unit_key: str) -> int:
    """Stable per-unit seed from the campaign seed and the unit's key.

    The derivation is a SHA-256 of ``"<campaign_seed>:<unit_key>"`` reduced
    to 63 bits — stable across processes, platforms and Python versions
    (unlike ``hash()``, which is salted per process).  Two units of the
    same campaign never share a seed unless they share a key.
    """
    digest = hashlib.sha256(
        f"{campaign_seed}:{unit_key}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") & _SEED_MASK


@dataclass(frozen=True)
class WorkUnit:
    """One shard of a characterization campaign.

    Attributes
    ----------
    key:
        Unique identity within the campaign (e.g. ``"die/0007"``,
        ``"cell/v02/t01"``).  The checkpoint store and the deterministic
        seed both hang off this string.
    kind:
        Work-unit family (``"lot_die"``, ``"env_cell"``, ``"shmoo_test"``,
        ...); selects the runner and groups farm metrics.
    payload:
        Everything the runner needs to execute the unit, as picklable
        values.
    seed:
        Per-unit RNG seed, normally :func:`derive_seed` of the campaign
        seed and :attr:`key`.
    index:
        Submission position; results are merged back in this order no
        matter how the farm scheduled the units.
    cost_hint:
        Static relative cost estimate (e.g. total cycles of the unit's
        tests); executors dispatch the largest first.  It orders work
        only and never changes a result.
    rtp_hint:
        Reference trip point broadcast by an earlier unit (section 4):
        the runner may bootstrap its SUTP walk from it instead of paying
        a full-range search.  ``None`` means bootstrap conventionally.
    """

    key: str
    kind: str
    payload: Dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    index: int = 0
    cost_hint: float = 1.0
    rtp_hint: Optional[float] = None

    def with_rtp_hint(self, rtp: Optional[float]) -> "WorkUnit":
        """Copy carrying a broadcast reference trip point."""
        if rtp is None:
            return self
        return replace(self, rtp_hint=float(rtp))


@dataclass(frozen=True)
class UnitOutcome:
    """What a unit runner returns from the (possibly remote) worker.

    Attributes
    ----------
    value:
        The unit's domain result (a ``DieResult``, a grid-cell tuple, a
        shmoo row, ...); must be picklable.
    measurements:
        Tester measurements the unit charged (cost accounting survives
        the process boundary through this field — worker-side telemetry
        is off).
    rtp:
        The reference trip point the unit established, offered to the
        farm's RTP broadcast for units dispatched later.
    """

    value: Any
    measurements: int = 0
    rtp: Optional[float] = None


@dataclass(frozen=True)
class WorkResult:
    """A completed unit: the outcome plus farm-side execution metadata.

    ``value``/``measurements``/``rtp`` mirror :class:`UnitOutcome`;
    ``attempts`` counts dispatches (1 = first try succeeded), and
    ``elapsed_s``/``worker`` describe where and how long the unit actually
    ran — diagnostic only, deliberately excluded from determinism
    guarantees.
    """

    unit_key: str
    index: int
    value: Any
    measurements: int = 0
    rtp: Optional[float] = None
    attempts: int = 1
    elapsed_s: float = 0.0
    worker: str = ""
    from_checkpoint: bool = False
