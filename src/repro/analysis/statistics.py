"""Distribution statistics for measured trip-point sets."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class SummaryStats:
    """Summary of one sample of measurements."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    p05: float
    p50: float
    p95: float
    ci95: Tuple[float, float]

    @property
    def spread(self) -> float:
        """Max - min (the paper's trip-point variation)."""
        return self.maximum - self.minimum

    def describe(self, unit: str = "") -> str:
        """One-line human-readable summary."""
        suffix = f" {unit}" if unit else ""
        return (
            f"n={self.count} mean={self.mean:.3f}{suffix} "
            f"std={self.std:.3f} min={self.minimum:.3f} "
            f"max={self.maximum:.3f} spread={self.spread:.3f}{suffix}"
        )


def _linear_quantiles(values: Sequence[float], qs: Sequence[float]) -> List[float]:
    """numpy's default ("linear") quantiles of a sample, bit for bit.

    The float operations of ``numpy.quantile(values, q)`` on one sort of the
    sample as Python floats: virtual index ``(n - 1) * q``, and numpy's
    two-sided lerp, which steps from the nearer neighbour.  At or past the
    last index numpy lerps the last element with itself at weight
    ``index + 1``; that is kept, so an infinite maximum gives NaN and a
    ``-0.0`` sign survives exactly as numpy's does.  A sample holding a NaN
    gives NaN.  Pure Python, so a farm worker summarizing a die imports
    nothing (``numpy.percentile`` pulls in ``numpy.ma`` lazily).
    """
    ordered = sorted(values)
    if any(map(math.isnan, ordered)):
        return [math.nan] * len(qs)
    last = len(ordered) - 1
    result: List[float] = []
    for q in qs:
        index = last * q
        if index >= last:
            a = b = ordered[-1]
            gamma = index + 1  # numpy's index - (-1)
        else:
            lo = int(index)
            a, b = ordered[lo], ordered[lo + 1]
            gamma = index - lo
        d = b - a
        result.append(b - d * (1 - gamma) if gamma >= 0.5 else a + d * gamma)
    return result


def summarize(values: Sequence[float]) -> SummaryStats:
    """Compute :class:`SummaryStats` of a non-empty sample.

    The 95% confidence interval on the mean uses the normal approximation
    (adequate at characterization sample sizes; exact small-sample
    inference is not the point of these reports).
    """
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        raise ValueError("cannot summarize an empty sample")
    mean = float(np.mean(data))
    std = float(np.std(data, ddof=1)) if data.size > 1 else 0.0
    half_width = 1.96 * std / np.sqrt(data.size) if data.size > 1 else 0.0
    p05, p50, p95 = _linear_quantiles(data.tolist(), (0.05, 0.5, 0.95))
    return SummaryStats(
        count=int(data.size),
        mean=mean,
        std=std,
        minimum=float(np.min(data)),
        maximum=float(np.max(data)),
        p05=p05,
        p50=p50,
        p95=p95,
        ci95=(mean - half_width, mean + half_width),
    )


def ascii_histogram(
    values: Sequence[float],
    bins: int = 12,
    width: int = 40,
    unit: str = "",
) -> str:
    """Text histogram of a sample (engineering-notebook style)."""
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        raise ValueError("cannot plot an empty sample")
    if bins < 1 or width < 1:
        raise ValueError("bins and width must be positive")
    counts, edges = np.histogram(data, bins=bins)
    peak = max(1, counts.max())
    lines: List[str] = []
    for i, count in enumerate(counts):
        bar = "#" * int(round(width * count / peak))
        lines.append(
            f"{edges[i]:9.3f}..{edges[i + 1]:9.3f} {unit:>3} |{bar:<{width}}| {count}"
        )
    return "\n".join(lines)
