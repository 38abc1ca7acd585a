"""Order statistics used by the benchmark: quartiles and quantile estimates."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median with first and third quartile, as statistics.quantiles gives
    them (exclusive method); a single sample is its own quartiles."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def harrell_davis(values: Sequence[float], p: float, steps: int = 8) -> float:
    """Harrell-Davis estimate of the p-quantile, 0 < p < 1.

    A weighted mean of all order statistics: the i-th of n gets the mass
    that Beta((n+1)p, (n+1)(1-p)) puts on ((i-1)/n, i/n), here by the
    midpoint rule with ``steps`` points per interval.  A single order
    statistic jumps when the sample shifts by one rank across a step in
    the distribution (the latencies of a request stream have such steps);
    this estimate moves by a fraction of the step.
    """
    if not values:
        raise ValueError("quantile of an empty sample")
    if not 0 < p < 1:
        raise ValueError(f"quantile {p} outside (0, 1)")
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    points = n * steps
    logs = []
    for j in range(points):
        x = (j + 0.5) / points
        logs.append((a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
    top = max(logs)  # scale so that large samples do not underflow
    weights = [0.0] * n
    for j, log in enumerate(logs):
        weights[j // steps] += math.exp(log - top)
    total = sum(weights)
    return sum(w * v for w, v in zip(weights, ordered)) / total
