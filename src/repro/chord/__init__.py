"""Chord content-based routing substrate.

A from-scratch implementation of the Chord protocol (Stoica et al.,
SIGCOMM 2001) as used by the paper: SHA-1 consistent hashing onto an
``m``-bit identifier circle, finger-table routing with O(log N) hops,
successor lists, and the stabilization protocol for dynamic membership.
The :class:`~repro.chord.dht.DhtOverlay` exposes the standard
join/leave/send/deliver interface the middleware builds on.
"""

from .analysis import ArcStats, FingerHealth, PathProfile, RingAnalyzer
from .dht import DhtApp, DhtOverlay
from .hashing import node_identifier, sha1_identifier, stream_identifier
from .idspace import IdSpace, circular_distance, in_half_open_interval, in_open_interval
from .node import ChordNode
from .ring import ChordRing, RingError
from .routing import LookupError_, find_successor, lookup_path
from .stabilize import Stabilizer
from .vnodes import max_mean_ratio, vnode_names

__all__ = [
    "ArcStats",
    "FingerHealth",
    "PathProfile",
    "RingAnalyzer",
    "DhtApp",
    "DhtOverlay",
    "node_identifier",
    "sha1_identifier",
    "stream_identifier",
    "IdSpace",
    "circular_distance",
    "in_half_open_interval",
    "in_open_interval",
    "ChordNode",
    "ChordRing",
    "RingError",
    "LookupError_",
    "find_successor",
    "lookup_path",
    "Stabilizer",
    "max_mean_ratio",
    "vnode_names",
]
