"""Sec. VI-B — the leader hierarchy against the flat range, end to end.

The flat design's weak spot (Figs. 7/8): a query's key range covers
~r·N nodes, so a wide query is installed on most of the system.  With
``MiddlewareConfig(hierarchy=True)`` every data center also runs the
hierarchy role: summaries climb a chain of cluster leaders (widened,
with update suppression), and a query wider than the threshold is
answered by a short leader climb instead — a one-shot snapshot rather
than a continuous subscription.

:func:`measure` runs one deployment under the paper's Poisson query
workload and reports what the comparison needs: messages per node per
second *including* the upward updates, the max/mean per-node load
(the Fig. 6(b) metric), the root leader's load against the mean, and
recall against the raw windows.  The pytest bench runs one seed at
N = 64; ``python benchmarks/bench_hierarchy.py`` runs the EXPERIMENTS.md
sweep (5 seeds, N ∈ {64, 256}, r ∈ {0.3, 0.5, 1.0}; ~5 min on a 2-core VM).
"""

from __future__ import annotations

import sys
from statistics import median

import numpy as np

from repro.bench import format_series
from repro.core import KIND, MiddlewareConfig, StreamIndexSystem, WorkloadConfig
from repro.streams.normalize import unit_normalize, z_normalize
from repro.workload import QueryWorkload

RADII = (0.3, 0.5, 1.0)
#: simulated seconds of Poisson query arrivals after warm-up
MEASURE_MS = 20_000.0
#: quiet time before answers are read, so that a query posted in the
#: last instant has been answered too: a full-range flat subscription
#: at N = 256 walks ~128 hops (6.4 s) before the detect tick, the
#: report, the aggregator's push tick and the response (~11 s in all)
DRAIN_MS = 20_000.0
#: the kinds a query's own installation or climb is sent under
QUERY_KINDS = (KIND.QUERY, KIND.QUERY_SPAN, KIND.QUERY_TRANSIT, KIND.HIER_QUERY)
NORMALIZE = {"z": z_normalize, "unit": unit_normalize, "none": np.asarray}


def measure(n_nodes: int, radius: float, seed: int, hierarchy: bool) -> dict:
    """One run: 2 q/s at ``radius`` for :data:`MEASURE_MS` after warm-up."""
    cfg = MiddlewareConfig(
        window_size=64,
        batch_size=2,
        hierarchy=hierarchy,
        workload=WorkloadConfig(qrate_per_s=0.0),
    )
    system = StreamIndexSystem(n_nodes, cfg, seed=seed)
    system.attach_random_walk_streams()
    system.warmup()
    system.reset_stats()
    workload = QueryWorkload(system, radius=radius, rate_per_s=2.0)
    normalize = NORMALIZE[cfg.normalization]
    end = system.sim.now + MEASURE_MS
    posted = []  # (client app, query id, raw-window truth at post time)

    def arrival() -> None:
        if system.sim.now >= end:
            return
        app = system.app(int(workload.rng.integers(system.n_nodes)))
        query = workload.make_query()
        target = normalize(query.pattern)
        truth = {
            sid
            for a in system.all_apps
            for sid, src in a.sources.items()
            if src.extractor.ready
            and np.linalg.norm(normalize(src.extractor.window.values()) - target)
            <= radius
        }
        posted.append((app, app.post_similarity_query(query), truth))
        system.sim.schedule(float(workload.rng.exponential(500.0)), arrival)

    system.sim.schedule(float(workload.rng.exponential(500.0)), arrival)
    system.run(MEASURE_MS)
    stats = system.network.stats
    sends = sum(stats.sends_by_kind.values())
    updates = stats.sends_by_kind.get(KIND.HIER_UPDATE, 0)
    query_msgs = sum(stats.sends_by_kind.get(kind, 0) for kind in QUERY_KINDS)
    load = system.physical_load()
    mean_load = sum(load.values()) / n_nodes
    root = system.ring.node(system.ring.node_ids[0])
    system.run(DRAIN_MS)
    expected = hit = 0
    for app, qid, truth in posted:
        found = {m.stream_id for m in app.similarity_results.get(qid, [])}
        expected += len(truth)
        hit += len(truth & found)
    return {
        "msgs_per_node_s": sends / n_nodes / (MEASURE_MS / 1000.0),
        "update_share": updates / sends,
        "query_msgs_per_query": query_msgs / max(1, len(posted)),
        "max_mean_load": max(load.values()) / mean_load,
        "root_load_x_mean": load.get(root.physical_name, 0) / mean_load,
        "recall": hit / expected if expected else float("nan"),
        "true_per_query": expected / max(1, len(posted)),
        "queries": len(posted),
    }


def sweep(n_values, seeds, radii=RADII) -> dict:
    """Per (N, r, mode): the median of each metric over ``seeds``."""
    rows = {}
    for n in n_values:
        for r in radii:
            for mode in (False, True):
                runs = [measure(n, r, seed, mode) for seed in seeds]
                rows[(n, r, "hierarchy" if mode else "flat")] = {
                    key: median(run[key] for run in runs) for key in runs[0]
                }
    return rows


def render(rows: dict) -> str:
    head = (
        "| N | r | mode | msgs/node/s | hier_update share | query msgs/query "
        "| max/mean load | root load / mean | true matches/query | recall |\n"
        "|---|---|---|---|---|---|---|---|---|---|"
    )
    lines = [head]
    for (n, r, mode), m in rows.items():
        lines.append(
            f"| {n} | {r} | {mode} | {m['msgs_per_node_s']:.1f} "
            f"| {m['update_share']:.0%} | {m['query_msgs_per_query']:.1f} "
            f"| {m['max_mean_load']:.2f} "
            f"| {m['root_load_x_mean']:.2f} | {m['true_per_query']:.1f} "
            f"| {m['recall']:.3f} |"
        )
    return "\n".join(lines)


def test_hierarchy_against_flat_range(benchmark, save_result):
    n = 64
    rows = benchmark.pedantic(lambda: sweep([n], [0]), rounds=1, iterations=1)
    series = {
        f"{metric} ({mode})": [rows[(n, r, mode)][metric] for r in RADII]
        for metric in ("msgs_per_node_s", "max_mean_load", "root_load_x_mean", "recall")
        for mode in ("flat", "hierarchy")
    }
    save_result(
        "hierarchy_vs_flat",
        format_series(
            f"Sec. VI-B: hierarchy vs flat range, 2 q/s (N={n}, seed 0)",
            "radius",
            RADII,
            series,
        ),
    )
    for r in RADII:
        hier = rows[(n, r, "hierarchy")]
        # the upward updates are paid for: the total bill counts them
        assert hier["update_share"] > 0.1
        # the root leader carries more than the mean, the price of the climb
        assert hier["root_load_x_mean"] > 1.5
    # a full-range query costs less through the hierarchy, updates included
    assert rows[(n, 1.0, "hierarchy")]["msgs_per_node_s"] < rows[(n, 1.0, "flat")][
        "msgs_per_node_s"
    ]


if __name__ == "__main__":
    seeds = range(int(sys.argv[1]) if len(sys.argv) > 1 else 5)
    print(render(sweep([64, 256], seeds)))
