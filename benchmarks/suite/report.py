"""Statistics, host fingerprint, printing and ``compare`` for the suite."""

from __future__ import annotations

import os
import platform
import statistics
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import spec


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: Iterable[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))  # ceil
    return ordered[int(rank) - 1]


def quantile(values: Sequence[float], q: float) -> float:
    """Linear interpolation between the order statistics (``q`` in [0, 1])."""
    ordered = sorted(values)
    at = q * (len(ordered) - 1)
    low = int(at)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (at - low)


def sliced(values: Sequence[float], unit: str, better: str,
           fast: float = spec.TYPICAL_QUANTILE) -> Dict[str, Any]:
    """A timing taken over many slices: its typical value and its spread.

    The value is the quantile ``fast`` from the fast end, not the median.
    Every slice of a run does the same kind of work, so what makes one
    slower than another is mostly the host: on a shared machine stolen
    time and a busy sibling core only ever add, they add to most slices
    while a neighbour is busy, and the median then follows the
    neighbour (measured: medians of back-to-back runs 1.5x apart where
    the fast deciles were 1.1x apart).  A decile still needs a tenth of
    the run to be undisturbed, which the fastest slice would not, and it
    does not rest on one lucky sample.  The median and the quartiles are
    kept beside it.
    """
    q1, median, q3 = quartiles(values)
    if better == "higher":
        fast = 1.0 - fast
    return {"value": quantile(values, fast), "unit": unit,
            "median": median, "q1": q1, "q3": q3, "n": len(values)}


def plain(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def spread(entry: Dict[str, Any]) -> Optional[float]:
    """Slice IQR ÷ median, or ``None`` for a metric without slices."""
    if "q1" not in entry or not entry["median"]:
        return None
    return (entry["q3"] - entry["q1"]) / abs(entry["median"])


def host_fingerprint() -> Dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "loadavg_1m": os.getloadavg()[0],
    }


METRICS: Dict[str, spec.Metric] = {
    m.name: m for m in spec.END_TO_END + spec.SUITE_ONLY + spec.PER_LAYER
}


def median_error(entry: Dict[str, Any]) -> Optional[float]:
    """Two standard errors of the slice median, as a share of it.

    The slices of one run differ in the work they hold (Poisson query
    arrivals, churn events), so their quartiles overstate timing noise;
    what two runs compare is the median, whose standard error for n
    roughly normal slices is 1.2533·σ/√n with σ ≈ IQR/1.349.
    """
    s = spread(entry)
    if s is None:
        return None
    return 2.0 * 1.2533 * (s / 1.349) / entry["n"] ** 0.5


def unresolved(name: str, entry: Dict[str, Any]) -> bool:
    """Noise guard: the median is less certain than the metric's own bound."""
    metric = METRICS[name]
    error = median_error(entry)
    return (error is not None and metric.bound is not None and not metric.absolute
            and error > metric.bound)


def print_metrics(metrics: Dict[str, Dict[str, Any]], header: str) -> None:
    print(header)
    for name, entry in metrics.items():
        value, unit = entry["value"], entry["unit"]
        text = f"{value:.6g}"
        s = spread(entry)
        if s is not None:
            text += f"  (slices n={entry['n']} q1={entry['q1']:.6g} q3={entry['q3']:.6g})"
            if unresolved(name, entry):
                text = (f"unresolved: median uncertain by {median_error(entry):.3f} of "
                        f"itself, more than the bound; median {value:.6g}")
        print(f"  {name:36s} {text} {unit}")


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def verdict(metric: spec.Metric, a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[str, float]:
    """(better / same / worse / unresolved, B ÷ A) for one metric."""
    va, vb = float(a["value"]), float(b["value"])
    ratio = vb / va if va else float("inf") if vb else 1.0
    if unresolved(metric.name, a) or unresolved(metric.name, b):
        return "unresolved", ratio
    gain = (vb - va) if metric.better == "higher" else (va - vb)
    limit = metric.bound if metric.absolute else metric.bound * abs(va)
    if gain < -limit:
        return "worse", ratio
    if gain > limit:
        return "better", ratio
    return "same", ratio


def compare(doc_a: Dict[str, Any], doc_b: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per workload × end-to-end metric present in both documents."""
    rows: List[Dict[str, Any]] = []
    for workload in spec.WORKLOAD_NAMES:
        a = doc_a.get("workloads", {}).get(workload, {}).get("end_to_end")
        b = doc_b.get("workloads", {}).get(workload, {}).get("end_to_end")
        if not a or not b:
            continue
        for metric in spec.END_TO_END + spec.SUITE_ONLY:
            if metric.name not in a or metric.name not in b:
                continue
            outcome, ratio = verdict(metric, a[metric.name], b[metric.name])
            rows.append({
                "workload": workload,
                "metric": metric.name,
                "unit": metric.unit,
                "a": a[metric.name]["value"],
                "b": b[metric.name]["value"],
                "ratio_b_over_a": ratio,
                "bound": metric.bound,
                "absolute": metric.absolute,
                "verdict": outcome,
            })
    return rows


def print_compare(rows: List[Dict[str, Any]]) -> None:
    print(f"{'workload':18s} {'metric':26s} {'A':>12s} {'B':>12s} {'B/A':>8s} {'bound':>8s}  verdict")
    for r in rows:
        bound = f"{r['bound']:g}{'abs' if r['absolute'] else 'x'}"
        print(f"{r['workload']:18s} {r['metric']:26s} {r['a']:12.6g} {r['b']:12.6g} "
              f"{r['ratio_b_over_a']:8.4f} {bound:>8s}  {r['verdict']}")
