"""Scaling under skew — the §13 load-balancing levers under a hot key band.

The paper's Fig. 6(b) uniformity argument assumes routing coordinates
spread over the value range; a Zipf-skewed stream population breaks it
(see ``repro.workload.hotkey``): a hot cohort of shape-correlated
streams maps into one narrow key band, and the few holders owning that
band absorb the Zipf head's publish rate.  This bench regenerates the
max/mean per-physical-node load ratio under that adversarial workload
at ``v ∈ {1, 4, 16}`` virtual nodes and asserts the §13 claim:

* the ratio improves **monotonically** with ``v`` (more, thinner arcs
  inside the hot band → more physical owners sharing it);
* at ``v = 16`` the skew is under half its ``v = 1`` value.

CI runs this bench in its ``bench-smoke`` job; EXPERIMENTS.md discusses
the expected curves and how adaptive remapping and admission control
compose with the vnode lever.
"""

from repro.bench import format_table
from repro.core import MiddlewareConfig, StreamIndexSystem, WorkloadConfig
from repro.workload import attach_zipf_hotkey_streams

N_PHYSICAL = 16
MEASURE_MS = 16_000.0
VNODE_LEVELS = (1, 4, 16)


def _hotkey_config(v: int) -> MiddlewareConfig:
    return MiddlewareConfig(
        m=16,
        window_size=16,
        k=2,
        batch_size=2,
        virtual_nodes=v,
        workload=WorkloadConfig(
            pmin_ms=100.0,
            pmax_ms=1_000.0,
            bspan_ms=8_000.0,
            qrate_per_s=0.0,
            nper_ms=500.0,
        ),
    )


def _run_level(v: int, seed: int = 2) -> dict:
    system = StreamIndexSystem(N_PHYSICAL, _hotkey_config(v), seed=seed)
    workload = attach_zipf_hotkey_streams(
        system, flash_crowd=8, flash_at_ms=MEASURE_MS / 2.0
    )
    system.warmup()
    system.reset_stats()
    system.run(MEASURE_MS)
    load = system.physical_load()
    mean = sum(load.values()) / len(load)
    return {
        "v": v,
        "tokens": len(system.ring),
        "streams": workload.n_streams,
        "ratio": system.load_skew_ratio(),
        "max": max(load.values()),
        "mean": mean,
    }


def test_zipf_hotkey_vnode_scaling(benchmark, save_result):
    rows = []
    by_v = {}

    def run_all():
        for v in VNODE_LEVELS:
            by_v[v] = _run_level(v)
        return by_v

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    for v in VNODE_LEVELS:
        r = by_v[v]
        rows.append(
            [
                r["v"],
                r["tokens"],
                f"{r['max']:.0f}",
                f"{r['mean']:.1f}",
                f"{r['ratio']:.3f}",
            ]
        )
    save_result(
        "zipf_hotkey",
        format_table(
            f"Scaling under skew: Zipf hot-key workload, {N_PHYSICAL} physical "
            f"nodes, flash crowd of 8 (max/mean per-physical msg load)",
            ["v", "tokens", "max", "mean", "max/mean"],
            rows,
        ),
    )

    ratios = [by_v[v]["ratio"] for v in VNODE_LEVELS]
    # the hot band skews v=1 badly; every vnode increase must help
    assert ratios[0] > 2.0
    assert ratios[0] > ratios[1] > ratios[2]
    # and 16 tokens per node at least halve the skew
    assert ratios[2] < 0.5 * ratios[0]
