"""A stream clock ingests what one event per value would, at the same times.

:class:`~repro.sim.process.StreamClock` schedules one event per MBR
close and ingests the ticks in between lazily, whenever the source's
state is read.  The oracle here is the arrival process it replaced: a
:class:`~repro.sim.process.PeriodicProcess` whose every tick ingests
one value, as ``SourceService.on_stream_value`` did.  Both run the same
stream on their own simulator; every read between closes (window,
feature vector, raw coefficients, values ingested), every published
box, its ``created`` time and the time it left must agree to the bit.
"""

from typing import Any, Callable, List, Optional, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MBRBatcher
from repro.core.roles import SourceState
from repro.sim import PeriodicProcess, Simulator, StreamClock
from repro.streams import IncrementalFeatureExtractor

READS = ("window", "feature_vector", "raw_coefficients", "values_ingested")


def _stream(seed: int, flat_from: int) -> Callable[[], float]:
    """A random walk that turns constant at its ``flat_from``-th value."""
    rng = np.random.default_rng(seed)
    state = {"t": 0, "x": 0.0}

    def next_value() -> float:
        state["t"] += 1
        if state["t"] < flat_from:
            state["x"] += float(rng.normal())
        return state["x"]

    return next_value


def _read(fx: IncrementalFeatureExtractor, values: int, what: str) -> Any:
    if what == "values_ingested":
        return values
    if what == "window":
        return fx.window.values().tobytes()
    if not fx.ready:
        return None
    return getattr(fx, what)().tobytes()


def _box(mbr, now: float) -> Tuple[Any, ...]:
    return (now, mbr.stream_id, mbr.count, mbr.created, mbr.bounds.tobytes())


class _PerValue:
    """The oracle: one event per value, ingesting as the source used to."""

    def __init__(self, sim, period, phase, fx, batcher, generator) -> None:
        self.sim, self.fx, self.batcher, self.generator = sim, fx, batcher, generator
        self.values = 0
        self.opened = 0.0
        self.ticks: List[float] = []
        self.published: List[Tuple[Any, ...]] = []
        self.proc = PeriodicProcess(sim, period, self._on_value, phase=phase).start()

    def _on_value(self) -> None:
        value = self.generator()
        self.values += 1
        self.ticks.append(self.sim.now)
        if not self.fx.pending:
            self.opened = self.sim.now
        block = self.fx.push(value)
        if block is None:
            return
        mbr = self.batcher.add(block, now=self.opened)
        if mbr is not None:
            self.published.append(_box(mbr, self.sim.now))

    def read(self, what: str) -> Any:
        return _read(self.fx, self.values, what)

    def stop(self) -> None:
        self.proc.stop()


class _Clocked:
    """The source state driven by a stream clock, as the system attaches it."""

    def __init__(self, sim, period, phase, fx, batcher, generator) -> None:
        self.sim = sim
        self.src = SourceState("s", fx, batcher, generator)
        self.ticks: List[float] = []
        self.published: List[Tuple[Any, ...]] = []
        self.src.clock = StreamClock(
            sim, period, self._ingest, self.src.arrivals_to_close, phase=phase
        ).start()

    def _ingest(self, t: float) -> None:
        self.ticks.append(t)
        mbr = self.src.ingest(t)
        if mbr is not None:
            self.published.append(_box(mbr, self.sim.now))

    def read(self, what: str) -> Any:
        if what == "values_ingested":
            return self.src.values_ingested
        return _read(self.src.extractor, 0, what)

    def stop(self) -> None:
        assert self.src.clock is not None
        self.src.clock.stop()


def _run_both(
    *,
    n: int,
    k: int,
    batch: int,
    mode: str,
    refresh_every: int,
    period: float,
    phase: float,
    seed: int,
    flat_from: int,
    reads: List[Tuple[int, float, str]],
    stop: Optional[Tuple[int, float]],
    ticks: int,
) -> Tuple[_PerValue, _Clocked, Simulator]:
    """Run the oracle and the clock side by side; assert every read agrees.

    A read or stop at ``(i, f)`` happens ``f`` of a period after the
    ``i``-th tick, so never at a tick's own time (where the order of two
    events at one instant would decide what the read sees).
    """
    sims = (Simulator(), Simulator())
    sides = [
        cls(
            sim,
            period,
            phase,
            IncrementalFeatureExtractor(
                n, k, mode=mode, refresh_every=refresh_every, block=batch
            ),
            MBRBatcher("s", batch),
            _stream(seed, flat_from),
        )
        for cls, sim in zip((_PerValue, _Clocked), sims)
    ]
    seen: List[List[Any]] = [[], []]
    for side, sim, log in zip(sides, sims, seen):
        for i, f, what in reads:
            sim.schedule_at(
                phase + (i + f) * period,
                lambda side=side, log=log, what=what: log.append((what, side.read(what))),
            )
        if stop is not None:
            sim.schedule_at(phase + (stop[0] + stop[1]) * period, side.stop)
        sim.run(until=phase + (ticks + 0.5) * period)
    oracle, clocked = sides
    assert seen[0] == seen[1]
    assert clocked.read("values_ingested") == oracle.values
    assert clocked.ticks == oracle.ticks
    assert clocked.published == oracle.published
    return oracle, clocked, sims[1]


@given(
    n=st.integers(min_value=2, max_value=40),
    k=st.integers(min_value=1, max_value=4),
    batch=st.integers(min_value=1, max_value=30),
    mode=st.sampled_from(["z", "unit", "none"]),
    refresh_every=st.sampled_from([3, 17, 4096]),
    period=st.floats(min_value=0.5, max_value=300.0),
    phase_frac=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**16),
    flat_from=st.integers(min_value=1, max_value=400),
    reads=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=200),
            st.floats(min_value=0.05, max_value=0.95),
            st.sampled_from(READS),
        ),
        max_size=20,
    ),
    stop=st.one_of(
        st.none(),
        st.tuples(
            st.integers(min_value=0, max_value=200),
            st.floats(min_value=0.05, max_value=0.95),
        ),
    ),
)
@settings(max_examples=150, deadline=None)
def test_clock_matches_one_event_per_value(
    n, k, batch, mode, refresh_every, period, phase_frac, seed, flat_from, reads, stop
):
    _run_both(
        n=n,
        k=min(k, n - 1),
        batch=batch,
        mode=mode,
        refresh_every=refresh_every,
        period=period,
        phase=phase_frac * period,
        seed=seed,
        flat_from=flat_from,
        reads=reads,
        stop=stop,
        ticks=min(n + 4 * batch + 10, 200),
    )


def test_stop_between_two_closes_ingests_up_to_now_and_no_further():
    # window 8, batch 5: the first block closes at the 12th value
    # (tick 11), the second at the 17th (tick 16); stop after tick 13
    oracle, clocked, sim = _run_both(
        n=8,
        k=2,
        batch=5,
        mode="z",
        refresh_every=4096,
        period=10.0,
        phase=3.0,
        seed=4,
        flat_from=1000,
        reads=[(12, 0.5, "values_ingested"), (13, 0.2, "feature_vector"),
               (14, 0.5, "values_ingested"), (20, 0.5, "window")],
        stop=(13, 0.5),
        ticks=30,
    )
    assert oracle.values == clocked.src.values_ingested == 14
    assert len(oracle.published) == 1
    # one event for the close, four reads, one stop: no event per value
    assert sim.events_processed == 6


def test_a_read_at_the_closing_tick_leaves_that_tick_to_its_event():
    # window 8, batch 5: the second block closes at tick 16, t = 163.0
    # exactly.  A read scheduled before the run comes first at that
    # instant, in the oracle as with the clock: it sees 16 values, and
    # the close event ingests the 17th and publishes.
    oracle, clocked, _sim = _run_both(
        n=8,
        k=2,
        batch=5,
        mode="unit",
        refresh_every=4096,
        period=10.0,
        phase=3.0,
        seed=5,
        flat_from=1000,
        reads=[(16, 0.0, "values_ingested"), (16, 0.0, "raw_coefficients"),
               (16, 0.5, "values_ingested")],
        stop=None,
        ticks=20,
    )
    assert len(oracle.published) == 2
    assert clocked.published[1][0] == 163.0
