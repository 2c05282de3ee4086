"""Sec. IV-A — distributed index vs centralized vs flooding strawmen.

Quantifies the design argument of the paper's Sec. IV-A on identical
workloads:

* **centralized** concentrates the system's entire message load on one
  node (bottleneck + single point of failure);
* **flooding** makes stream updates free but pays N-1 messages per
  query;
* the **content-routed distributed index** keeps the hottest node's
  load within a small factor of the mean and touches only the ~r·N
  nodes of the query range.
"""

import numpy as np

from repro.baselines import CentralizedIndexSystem, FloodingIndexSystem
from repro.bench import format_series
from repro.core import KIND

from conftest import BENCH_CONFIG

NS = (50, 100, 200)
MEASURE_MS = 10_000.0


def run_baseline(cls, n, seed=0):
    system = cls(n, BENCH_CONFIG, seed=seed)
    system.attach_random_walk_streams()
    # a Poisson-like query load: one query per second posted round-robin
    rng = system.rngs.get("bench-queries")
    from repro.core import SimilarityQuery

    def post_queries():
        for i in range(10):
            app = system.app(int(rng.integers(n)))
            donor = system.app(int(rng.integers(n)))
            src = next(iter(donor.sources.values()))
            if not src.extractor.ready:
                continue
            pattern = src.extractor.window.values()
            app.post_similarity_query(
                SimilarityQuery(pattern=pattern, radius=0.1, lifespan_ms=8_000.0),
            )

    system.warmup()
    system.reset_stats()
    post_queries()
    system.run(MEASURE_MS)
    return system


def run_distributed(sweep, n):
    return sweep.run(n)


def imbalance(per_node_loads):
    arr = np.array(sorted(per_node_loads))
    return float(arr.max() / max(1e-9, arr.mean()))


def test_baseline_comparison(benchmark, sweep, save_result):
    def compute():
        rows = {
            "distributed max/mean load": [],
            "centralized max/mean load": [],
            "flooding max/mean load": [],
            "distributed query span msgs": [],
            "centralized query span msgs": [],
            "flooding query span msgs": [],
            "distributed MBR msgs/update": [],
            "centralized MBR msgs/update": [],
            "flooding MBR msgs/update": [],
        }
        for n in NS:
            dist_run = run_distributed(sweep, n)
            cent = run_baseline(CentralizedIndexSystem, n)
            flood = run_baseline(FloodingIndexSystem, n)

            rows["distributed max/mean load"].append(
                imbalance(dist_run.metrics.load_distribution())
            )
            rows["centralized max/mean load"].append(
                imbalance(list(cent.network.stats.load_by_node().values()))
            )
            rows["flooding max/mean load"].append(
                imbalance(list(flood.network.stats.load_by_node().values()))
            )

            def span_per_query(stats):
                q = stats.originations.get(KIND.QUERY, 0)
                return stats.sends_by_kind.get(KIND.QUERY_SPAN, 0) / max(1, q)

            rows["distributed query span msgs"].append(
                span_per_query(dist_run.system.network.stats)
            )
            rows["centralized query span msgs"].append(
                span_per_query(cent.network.stats)
            )
            rows["flooding query span msgs"].append(
                span_per_query(flood.network.stats)
            )

            def mbr_msgs_per_update(stats):
                events = max(1, stats.originations.get(KIND.MBR, 0))
                total = sum(
                    stats.sends_by_kind.get(k, 0)
                    for k in (KIND.MBR, KIND.MBR_SPAN, KIND.MBR_TRANSIT)
                )
                return total / events

            rows["distributed MBR msgs/update"].append(
                mbr_msgs_per_update(dist_run.system.network.stats)
            )
            rows["centralized MBR msgs/update"].append(
                mbr_msgs_per_update(cent.network.stats)
            )
            rows["flooding MBR msgs/update"].append(
                mbr_msgs_per_update(flood.network.stats)
            )
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    save_result(
        "baseline_comparison",
        format_series(
            "Sec. IV-A: distributed index vs centralized vs flooding",
            "N",
            NS,
            rows,
        ),
    )

    for i, n in enumerate(NS):
        # centralized concentrates load: its hottest node is far above
        # the mean, and far above the distributed design's hottest node
        assert rows["centralized max/mean load"][i] > 0.2 * n
        assert (
            rows["distributed max/mean load"][i]
            < rows["centralized max/mean load"][i] / 3
        )
        # flooding pays ~N messages per query; the distributed range
        # costs ~r*N, centralized ~1
        assert rows["flooding query span msgs"][i] > 0.9 * (n - 2)
        assert (
            rows["distributed query span msgs"][i]
            < rows["flooding query span msgs"][i] / 2
        )
        assert rows["centralized query span msgs"][i] == 0.0
        # flooding's updates are free; centralized pays exactly 1
        assert rows["flooding MBR msgs/update"][i] == 0.0
        assert rows["centralized MBR msgs/update"][i] <= 1.0

    # centralized bottleneck worsens with N (the non-scalability claim)
    cent = rows["centralized max/mean load"]
    assert cent[-1] > cent[0] * 2.0
