"""Shared fixtures for the figure-regeneration benchmarks.

Several figures are projections of the same measured sweep (Fig. 6(a)
load, Fig. 7 overhead, Fig. 8 hops), so one session-scoped
:class:`~repro.bench.SweepCache` backs them all.

Configuration note (see EXPERIMENTS.md for the full analysis): the
figure sweeps run with ``batch_size=1`` (each feature vector routed
individually).  With the synthetic random-walk workload, the sliding
DFT's per-slide phase rotation makes ``w``-feature MBRs span
``O(w·|X1|·N/n)`` nodes, which at the paper's w would drown every
figure in range-replication traffic the paper reports as negligible —
a regime its (smoother, lower-|X1|) trace data apparently avoided.
``bench_ablation_mbr_batching`` quantifies exactly that trade-off for
``w ∈ {1, 2, 5, 10, 20}``.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.bench import SweepCache
from repro.core import MiddlewareConfig

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: the configuration the scalability figures run at (Table I workload)
BENCH_CONFIG = MiddlewareConfig(batch_size=1)


def pytest_addoption(parser):
    parser.addoption(
        "--vnodes",
        type=int,
        default=1,
        metavar="V",
        help=(
            "virtual nodes per physical node for the figure runs "
            "(DESIGN.md §13).  Values > 1 re-run the affected figures "
            "fresh at that token multiplicity instead of reading the "
            "shared v=1 sweep cache."
        ),
    )


@pytest.fixture(scope="session")
def vnodes(request) -> int:
    """The ``--vnodes`` axis: tokens per physical node (§13)."""
    v = int(request.config.getoption("--vnodes"))
    if v < 1:
        raise pytest.UsageError(f"--vnodes must be >= 1, got {v}")
    return v


@pytest.fixture(scope="session")
def sweep() -> SweepCache:
    """The shared measured-run cache for all figure benches."""
    return SweepCache(config=BENCH_CONFIG, seed=0)


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    """Directory the paper-style tables are written to."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture()
def save_result(results_dir):
    """Persist a bench's rendered table and echo it to the log."""

    def _save(name: str, text: str) -> None:
        (results_dir / f"{name}.txt").write_text(text + "\n")
        print("\n" + text)

    return _save
