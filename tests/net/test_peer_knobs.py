"""A socket peer refuses the config knobs it cannot run.

The simulator runs every ``MiddlewareConfig`` knob; a peer runs fewer.
Where a peer would silently run something else — loss-free despite a
loss rate, one token despite ``virtual_nodes``, no answers under quorum
reads — :class:`~repro.net.peer.PeerNode` raises at construction, as it
does for ring identifiers wider than the wire's int64.
"""

import pytest

from repro.core import MiddlewareConfig
from repro.net.peer import PeerNode

REFUSED = {
    "m": 64,
    "loss_rate": 0.05,
    "duplicate_rate": 0.01,
    "virtual_nodes": 2,
    "consistency": "quorum",
}


@pytest.mark.parametrize("knob", sorted(REFUSED))
def test_peer_refuses_a_knob_it_cannot_run(knob):
    config = MiddlewareConfig(**{knob: REFUSED[knob]})
    with pytest.raises(ValueError):
        PeerNode("dc-0", "127.0.0.1", 0, config)


def test_peer_constructs_with_the_default_config():
    peer = PeerNode("dc-0", "127.0.0.1", 0, MiddlewareConfig())
    assert peer.config == MiddlewareConfig()
    assert [node.name for node in peer.ring] == ["dc-0"]
