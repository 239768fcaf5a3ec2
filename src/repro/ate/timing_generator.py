"""Tester timing generator: programmable strobe edges with finite resolution.

A real tester places timing edges on a quantized grid; the paper's linear
search "steps through a specified resolution", and all searches ultimately
bottom out at the tester's edge-placement resolution.  The
:class:`TimingGenerator` models the programmable range and the quantization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TimingGenerator:
    """Programmable timing edge source.

    Attributes
    ----------
    resolution_ns:
        Edge placement grid (typical mid-2000s testers: tens of ps; we use
        0.05 ns by default).
    min_edge_ns, max_edge_ns:
        Programmable edge range.
    """

    resolution_ns: float = 0.05
    min_edge_ns: float = 0.0
    max_edge_ns: float = 200.0

    def __post_init__(self) -> None:
        if self.resolution_ns <= 0:
            raise ValueError("resolution must be positive")
        if self.min_edge_ns >= self.max_edge_ns:
            raise ValueError("edge range must satisfy min < max")

    def quantize(self, edge_ns: float) -> float:
        """Snap an edge request to the placement grid, clamped to range.

        The clamp is ``min(max(...))``, not ``np.clip``: on one Python float
        numpy's dispatch costs more than the rest of the call, and the two
        agree on every input (a NaN passes both unchanged and ``round``
        rejects it).
        """
        clamped = min(max(edge_ns, self.min_edge_ns), self.max_edge_ns)
        steps = round(clamped / self.resolution_ns)
        return float(steps * self.resolution_ns)

    def quantize_many(self, edges_ns) -> np.ndarray:
        """Vectorized :meth:`quantize`; element-for-element identical.

        ``np.rint`` rounds half to even, matching Python's ``round`` in the
        scalar path, so each element is bit-identical to a scalar
        ``quantize`` of the same request.
        """
        clamped = np.clip(
            np.asarray(edges_ns, dtype=float), self.min_edge_ns, self.max_edge_ns
        )
        steps = np.rint(clamped / self.resolution_ns)
        return steps * self.resolution_ns

    def is_programmable(self, edge_ns: float) -> bool:
        """True if the request lies inside the programmable range."""
        return self.min_edge_ns <= edge_ns <= self.max_edge_ns

    def grid(self, start_ns: float, stop_ns: float) -> np.ndarray:
        """All programmable edges in ``[start, stop]`` (shmoo sweep axis)."""
        start_q = self.quantize(start_ns)
        stop_q = self.quantize(stop_ns)
        if stop_q < start_q:
            raise ValueError("stop must not precede start")
        count = int(round((stop_q - start_q) / self.resolution_ns)) + 1
        return start_q + np.arange(count) * self.resolution_ns
