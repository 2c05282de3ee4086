"""Network fault injection: per-hop loss and duplication.

The paper's network is a perfect fabric — every hop takes a constant
50 ms and every message arrives exactly once.  Content-routed overlays
must survive loss and duplication, so this module makes the fabric
*faulty* in a fully deterministic, seedable way: a
:class:`FaultInjector` judges every physical hop against an RNG
substream (from :class:`repro.sim.rng.RngRegistry`) and decides how
many copies of it arrive — none (lost), one, or two (duplicated).
Every surviving copy still takes the network's constant hop delay.

:class:`repro.sim.network.Network` consults the injector on every
:meth:`~repro.sim.network.Network.hop`; drops and duplicates are
recorded per message kind in
:class:`~repro.sim.network.MessageStats`.  Because the injector draws
from a named substream of the root seed, two runs with the same seed
inject byte-identical fault sequences.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FaultInjector", "DROP_LOSS", "DROP_DEAD_DEST"]

#: drop-reason tags recorded alongside the message kind
DROP_LOSS = "loss"
DROP_DEAD_DEST = "dead_dest"


class FaultInjector:
    """Per-hop loss and duplication drawn from a deterministic RNG stream.

    Parameters
    ----------
    loss_rate:
        Probability in ``[0, 1)`` that a hop silently loses its message.
    duplicate_rate:
        Probability in ``[0, 1)`` that a surviving hop also delivers a
        second copy of the message.
    rng:
        A dedicated generator (use a named
        :class:`~repro.sim.rng.RngRegistry` substream so fault decisions
        do not perturb workload randomness).
    """

    def __init__(
        self, loss_rate: float, duplicate_rate: float, rng: np.random.Generator
    ) -> None:
        for name, rate in (("loss_rate", loss_rate), ("duplicate_rate", duplicate_rate)):
            if not (0.0 <= rate < 1.0):
                raise ValueError(f"{name} must be in [0, 1)")
        self.loss_rate = loss_rate
        self.duplicate_rate = duplicate_rate
        self.rng = rng

    def judge(self) -> int:
        """How many copies of one hop arrive: 0 (lost), 1, or 2 (duplicated).

        Draws once for loss when ``loss_rate > 0``, then, for a
        surviving hop, once for duplication when ``duplicate_rate > 0``.
        """
        if self.loss_rate > 0.0 and float(self.rng.random()) < self.loss_rate:
            return 0
        if self.duplicate_rate > 0.0 and float(self.rng.random()) < self.duplicate_rate:
            return 2
        return 1
