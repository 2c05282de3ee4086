"""Zipf-skewed hot-key workload (DESIGN.md §13, EXPERIMENTS.md).

The paper's Sec. V workload spreads routing coordinates over the value
range, which Eq. 6 maps to a tolerably even key distribution.  Real
stream populations are rarely that polite: popularity follows a power
law, and correlated streams (same sensor field, same market) share a
signal *shape* — so their z-normalized first DFT coordinates (Eq. 1)
coincide, and content-based routing funnels a disproportionate share
of publishes onto the few holders owning that coordinate band's keys.

:func:`attach_zipf_hotkey_streams` builds exactly that adversarial
load:

* a **hot cohort** of streams sharing one signal shape — an
  alternating (Nyquist-frequency) oscillation plus small noise, whose
  first-coefficient coordinate sits in a narrow band around 0 with
  width set by the noise-to-amplitude ratio — publishing at Zipf-law
  periods (rank-``i`` stream publishes at a rate ∝ ``1/(i+1)^s``), so
  the band's traffic is itself dominated by a few very fast streams;
* a **cold majority** of the paper's bounded random walks at Table I
  periods — the background the skew is measured against;
* an optional **flash crowd**: a cohort of additional hot streams that
  all start publishing at ``flash_at_ms``, modelling a sudden event
  that redirects traffic into the already-hot band.

The skew this produces is what virtual nodes dilute (more, thinner
arcs inside the hot band → more physical owners sharing it) and
admission control caps (hot holders shed the Zipf head back to its
sources) — the §13 levers, each measurable via
``StreamIndexSystem.load_skew_ratio``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from ..core.system import StreamIndexSystem
from ..streams.generators import RandomWalkGenerator

__all__ = ["HotkeyWorkload", "attach_zipf_hotkey_streams"]


@dataclass
class HotkeyWorkload:
    """What :func:`attach_zipf_hotkey_streams` attached, for reporting."""

    hot_streams: List[str]
    cold_streams: List[str]
    flash_streams: List[str]

    @property
    def n_streams(self) -> int:
        return (
            len(self.hot_streams) + len(self.cold_streams) + len(self.flash_streams)
        )


def _buzz_generator(
    rng: np.random.Generator,
    *,
    center: float = 50.0,
    amplitude: float = 5.0,
    noise: float = 1.0,
) -> Callable[[], float]:
    """A hot stream: alternating oscillation plus Gaussian noise.

    The alternation puts the window's energy at the Nyquist frequency,
    so the z-normalized first-coefficient routing coordinate is pinned
    near 0 (only the noise leaks into ``X_1``) — every buzz stream maps
    into the same narrow key band regardless of ``center``.
    """
    sign = 1.0
    def next_value() -> float:
        nonlocal sign
        sign = -sign
        return center + amplitude * sign + float(rng.normal(0.0, noise))

    return next_value


def attach_zipf_hotkey_streams(
    system: StreamIndexSystem,
    *,
    hot_fraction: float = 0.3,
    zipf_s: float = 1.1,
    flash_crowd: int = 0,
    flash_at_ms: float = 0.0,
) -> HotkeyWorkload:
    """Attach one Zipf-skewed stream per physical data center (plus crowd).

    The first ``hot_fraction`` of physical nodes (in ring order) source
    hot buzz streams; the rest source the paper's cold random walks.
    Hot periods follow the Zipf law over the hot ranks starting from
    PMIN; cold streams keep the Table I uniform draw.  ``flash_crowd``
    extra hot streams (spread round-robin over the physical nodes) all
    begin publishing at ``flash_at_ms``.
    """
    if not (0.0 < hot_fraction <= 1.0):
        raise ValueError(f"hot_fraction must be in (0, 1], got {hot_fraction}")
    wl = system.config.workload

    # one app per physical node, first token in ring order (the same
    # selection attach_random_walk_streams makes)
    phys_apps = []
    seen = set()
    for app in system._app_order:
        phys = app.node.physical_name
        if phys in seen:
            continue
        seen.add(phys)
        phys_apps.append(app)

    n_hot = max(1, round(hot_fraction * len(phys_apps)))
    out = HotkeyWorkload([], [], [])
    for idx, app in enumerate(phys_apps):
        rng = system.rngs.fork("hotkey-stream", idx)
        if idx < n_hot:
            sid = f"hot-{idx}"
            period = min(wl.pmax_ms, wl.pmin_ms * (idx + 1) ** zipf_s)
            system.attach_stream(app, sid, _buzz_generator(rng), period_ms=period)
            out.hot_streams.append(sid)
        else:
            sid = f"cold-{idx}"
            gen = RandomWalkGenerator(rng, step=1.0)
            system.attach_stream(app, sid, gen.next_value)
            out.cold_streams.append(sid)
    for j in range(flash_crowd):
        app = phys_apps[j % len(phys_apps)]
        rng = system.rngs.fork("hotkey-flash", j)
        sid = f"flash-{j}"
        system.attach_stream(
            app, sid, _buzz_generator(rng), period_ms=wl.pmin_ms, start_ms=flash_at_ms
        )
        out.flash_streams.append(sid)
    return out
