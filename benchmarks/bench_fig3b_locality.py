"""Figure 3(b) — "Fourier locality" of consecutive stream summaries.

The paper plots the trajectory of (X1, Re X2, Im X2) for summaries of a
CMU Host Load trace: consecutive feature vectors stay close, which is
what makes MBR batching effective.  We regenerate the statistic on the
synthetic host-load substitute: the mean displacement between
*consecutive* feature vectors must be far smaller than the spread of
the whole feature cloud (and than the distance between features of
unrelated streams).
"""

import numpy as np

from repro.bench import format_table
from repro.streams import IncrementalFeatureExtractor, synthetic_host_load


def feature_trajectory(trace, n=64, k=2):
    fx = IncrementalFeatureExtractor(n, k, mode="z")
    out = []
    for v in trace:
        f = fx.push(v)  # a one-row block once the window is full
        if f is not None:
            out.append(f[0])
    return np.array(out)


def test_fig3b_consecutive_feature_locality(benchmark, save_result):
    traces = synthetic_host_load(n_hosts=4, length=3000, seed=7)

    def compute():
        rows = []
        all_stats = []
        for host, trace in traces.items():
            traj = feature_trajectory(trace)
            steps = np.linalg.norm(np.diff(traj, axis=0), axis=1)
            spread = np.linalg.norm(traj - traj.mean(axis=0), axis=1)
            ratio = float(steps.mean() / spread.mean())
            rows.append(
                [host, float(steps.mean()), float(spread.mean()), ratio]
            )
            all_stats.append(ratio)
        return rows, all_stats

    rows, ratios = benchmark.pedantic(compute, rounds=1, iterations=1)

    text = format_table(
        "Figure 3(b): locality of summaries on (synthetic) Host Load traces",
        ["host", "mean consecutive step", "mean spread", "step/spread"],
        rows,
    )
    save_result("fig3b_locality", text)

    # Locality: consecutive summaries move a small fraction of the
    # overall cloud spread — the property Fig. 3(b) demonstrates.
    assert all(r < 0.35 for r in ratios), ratios

    # Cross-stream sanity: features of unrelated hosts are far further
    # apart than consecutive features of the same host.
    names = list(traces)
    t0 = feature_trajectory(traces[names[0]])
    t1 = feature_trajectory(traces[names[1]])
    m = min(len(t0), len(t1))
    cross = np.linalg.norm(t0[:m] - t1[:m], axis=1).mean()
    own_step = np.linalg.norm(np.diff(t0, axis=0), axis=1).mean()
    assert own_step < cross
