"""Sec. III-C micro-benchmark — incremental DFT update vs recomputation.

The paper's cost argument: computing coefficients from scratch on every
arrival is prohibitive (O(n log n) per item), while the Eq. 5 update is
O(k) independent of the window length.  This bench times both per-item
paths and asserts the incremental update (a) wins at the paper-scale
window and (b) does not degrade as the window grows.
"""

import numpy as np
import pytest

from repro.streams import SlidingDFT, truncated_dft

K = 3
N_ITEMS = 2_000


def data(n):
    return np.random.default_rng(0).normal(size=n + N_ITEMS)


@pytest.mark.parametrize("n", [128, 1024])
def test_incremental_update(benchmark, n):
    xs = data(n)
    sd = SlidingDFT(n, K)
    sd.initialize(xs[:n])
    state = {"t": n}

    def step():
        t = state["t"]
        sd.update((xs[t],), (xs[t - n],))
        state["t"] = n + (t + 1 - n) % N_ITEMS

    benchmark(step)


@pytest.mark.parametrize("n", [128, 1024])
def test_full_recompute(benchmark, n):
    xs = data(n)
    state = {"t": n}

    def step():
        t = state["t"]
        truncated_dft(xs[t - n : t], K)
        state["t"] = n + (t + 1 - n) % N_ITEMS

    benchmark(step)


def test_incremental_beats_recompute_and_is_window_independent(benchmark, save_result):
    import timeit

    def time_incremental(n):
        xs = data(n)
        sd = SlidingDFT(n, K)
        sd.initialize(xs[:n])
        return (
            timeit.timeit(
                "sd.update((1.0,), (0.5,))", globals={"sd": sd}, number=20_000
            )
            / 20_000
        )

    def time_recompute(n):
        xs = data(n)[:n]
        return (
            timeit.timeit(
                "truncated_dft(xs, K)",
                globals={"truncated_dft": truncated_dft, "xs": xs, "K": K},
                number=2_000,
            )
            / 2_000
        )

    def measure_all():
        return (
            time_incremental(128),
            time_incremental(4096),
            time_recompute(128),
            time_recompute(4096),
        )

    inc_small, inc_big, rec_small, rec_big = benchmark.pedantic(
        measure_all, rounds=1, iterations=1
    )
    text = (
        "Sec. III-C: per-item summary maintenance cost (seconds)\n"
        "========================================================\n"
        f"incremental Eq. 5, n=128 : {inc_small:.2e}\n"
        f"incremental Eq. 5, n=4096: {inc_big:.2e}\n"
        f"full recompute,   n=128 : {rec_small:.2e}\n"
        f"full recompute,   n=4096: {rec_big:.2e}"
    )
    save_result("incremental_dft", text)
    # incremental wins clearly at the bigger window ...
    assert inc_big < rec_big / 3
    # ... and its cost is window-size independent (O(k), not O(n log n))
    assert inc_big < inc_small * 3
    # recompute cost visibly grows with the window
    assert rec_big > rec_small * 3
