"""Statistical reductions used by the characterization (section IV-B).

The paper's injector validation rests on three quantitative claims:
strong linear correlation between PERIOD and measured latency, a
near-constant bandwidth-delay product, and equal bandwidth division
under borrower-side contention.  Each has a function here.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "linear_correlation",
    "bandwidth_delay_product",
    "bdp_constancy",
    "jain_fairness",
]


def linear_correlation(x, y) -> float:
    """Pearson correlation coefficient between *x* and *y*.

    The paper reports a "strong linear correlation between PERIOD and
    application-level latency measurements" (section III-B).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.size < 2:
        raise ValueError("linear_correlation requires two equal-length series (n >= 2)")
    xc = x - x.mean()
    yc = y - y.mean()
    # Scale each centred series to unit max-magnitude so the squared sums
    # neither underflow (tiny inputs) nor overflow (huge ones); r is
    # scale-invariant, so this changes nothing but the rounding.
    xs = np.abs(xc).max()
    ys = np.abs(yc).max()
    if xs == 0 or ys == 0:
        return float("nan")
    xc = xc / xs
    yc = yc / ys
    denom = np.sqrt((xc * xc).sum()) * np.sqrt((yc * yc).sum())
    return float(np.clip((xc * yc).sum() / denom, -1.0, 1.0))


def bandwidth_delay_product(bandwidth_bytes_per_s, latency_ps) -> np.ndarray:
    """Element-wise BDP in bytes from bandwidth and latency arrays."""
    bw = np.asarray(bandwidth_bytes_per_s, dtype=np.float64)
    lat = np.asarray(latency_ps, dtype=np.float64)
    return bw * lat / 1e12


def bdp_constancy(bandwidth_bytes_per_s, latency_ps) -> tuple[float, float]:
    """Mean BDP and its max relative deviation across a sweep.

    Returns ``(mean_bdp_bytes, max_relative_deviation)``; the paper
    observes the product "remains roughly constant across all the delay
    injections with a value equal to ~16.5 kB" (section IV-B).
    """
    bdp = bandwidth_delay_product(bandwidth_bytes_per_s, latency_ps)
    mean = float(bdp.mean())
    if mean == 0:
        return 0.0, float("inf")
    deviation = float(np.abs(bdp - mean).max() / mean)
    return mean, deviation


def jain_fairness(allocations) -> float:
    """Jain's fairness index of a bandwidth division (1.0 = equal).

    Used to check the MCBN observation of "an equal division of
    bandwidth amongst the competing STREAM instances" (section IV-E).
    """
    x = np.asarray(allocations, dtype=np.float64)
    if x.size == 0:
        raise ValueError("jain_fairness requires at least one allocation")
    denom = x.size * (x * x).sum()
    if denom == 0:
        return float("nan")
    return float(x.sum() ** 2 / denom)
