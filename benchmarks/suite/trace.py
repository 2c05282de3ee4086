"""Span tracing from outside: wrap each layer's entry points, un-wrap after.

Nothing under ``src/`` knows about this file.  :data:`TABLE` names, per
layer (= module name under ``repro``), the callables through which the
layer is entered: its public methods, plus the private continuations
the scheduler calls directly (``Network._arrive``, ``DhtOverlay._route_step``,
timer callbacks), because a layer entered from the event loop has no
public frame on the stack.  :meth:`Tracer.install` replaces each with a
wrapper that pushes a span on an in-memory stack; on exit the span's
duration is added to its name's inclusive time, its duration minus its
children's to the name's self time, and its whole duration to the
parent's child time.  Self time per layer is the sum over the layer's
names, so the layers partition the time under the outermost spans
(``Simulator.run`` in the simulator, frame and timer callbacks in a
peer).  :meth:`Tracer.uninstall` puts every original object back.

The table must be installed *before* the system under test is built:
``DispatchTable`` binds the role handlers when a node is constructed,
and a bound method keeps the function it was created from.

Callables much shorter than a wrapper (``MBR.mindist``,
``MessageStats.record_*``) are left alone; their time stays in the
caller's layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from types import FunctionType, ModuleType
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["TABLE", "Tracer", "layer_totals"]

#: first spans kept verbatim for ``--trace-out``
RAW_SPAN_CAP = 100_000

#: ``"*"`` = every public plain function in the class body
ALL_PUBLIC = "*"

#: (layer, "module:Class" or "module", attribute names[, result sizer])
TABLE: Tuple[Tuple[Any, ...], ...] = (
    ("sim.engine", "repro.sim.engine:Simulator", ("run", "step", "schedule", "schedule_at")),
    ("sim.engine", "repro.sim.process:PeriodicProcess", ("_tick",)),
    ("sim.engine", "repro.sim.process:Timer", ("_fire",)),
    ("sim.network", "repro.sim.network:Network", ("hop", "local", "_arrive")),
    ("sim.faults", "repro.sim.faults:FaultInjector", ("judge",)),
    ("chord.dht", "repro.chord.dht:DhtOverlay",
     ("route", "send_direct", "send_to_successor", "send_to_predecessor",
      "_route_step", "_direct_arrive")),
    ("chord.routing", "repro.chord.routing", ("next_hop", "lookup_path", "find_successor")),
    ("chord.ring", "repro.chord.ring:ChordRing",
     ("build", "add", "remove", "successor_of_key", "nodes_covering_range")),
    ("chord.stabilize", "repro.chord.stabilize:Stabilizer",
     (ALL_PUBLIC, "_maintain", "_maintain_cohort")),
    ("streams", "repro.streams.features:IncrementalFeatureExtractor", ("push",)),
    ("streams", "repro.streams.features", ("extract_feature_vector",)),
    ("core.mbr", "repro.core.mbr:MBRBatcher", ("add", "flush")),
    ("core.mapping", "repro.core.mapping:LinearKeyMapper", ("key_of", "key_range")),
    ("core.mapping", "repro.core.mapping:QuantileKeyMapper", ("key_of", "key_range")),
    ("core.mapping", "repro.core.mapping:AdaptiveQuantileMapper",
     ("key_of", "key_range", "refit")),
    ("core.multicast", "repro.core.multicast:RangeMulticast", ("disseminate", "continue_span")),
    ("core.runtime", "repro.core.runtime:NodeRuntime",
     ("deliver", "on_notification_tick", "on_refresh_tick",
      "reliable_route", "reliable_disseminate", "send_response")),
    ("core.roles", "repro.core.roles.source:SourceService", (ALL_PUBLIC, "_drain_publishes")),
    ("core.roles", "repro.core.roles.holder:IndexHolderService", (ALL_PUBLIC,)),
    ("core.roles", "repro.core.roles.aggregator:AggregatorService", (ALL_PUBLIC,)),
    ("core.roles", "repro.core.roles.client:ClientService", (ALL_PUBLIC,)),
    ("core.index", "repro.core.index:LocalIndex",
     ("add_mbr", "new_candidates", "probe", "purge", "take_mbrs",
      "add_similarity_sub", "add_inner_product_sub")),
    ("core.reliable", "repro.core.reliable:ReliableSender",
     ("track", "on_ack", "settle", "cancel_all", "_on_timeout")),
    ("core.replication", "repro.core.replication:ReplicationManager", (ALL_PUBLIC,)),
    ("net.wire", "repro.net.wire", ("encode_frame",), len),
    ("net.wire", "repro.net.wire", ("encode_message", "decode_message")),
    ("net.wire", "repro.net.wire:FrameDecoder", ("feed",), len),
    ("net.peer", "repro.net.peer:PeerNode",
     ("send_message", "send_control", "_on_frame", "_client_rpc",
      "_notification_tick", "_refresh_tick")),
    ("net.peer", "repro.net.peer:AsyncioTransport",
     ("schedule", "route", "send_direct", "disseminate", "continue_span", "deliver_local")),
    ("workload", "repro.workload.generator:QueryWorkload",
     ("post_one", "make_query", "_arrival")),
    ("workload", "repro.workload.churn:ChurnWorkload", ("_fire",)),
)


def _resolve(path: str) -> Any:
    module_name, _, attr = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    if attr:
        owner = getattr(owner, attr)
    return owner


def _attr_names(owner: Any, wanted: Sequence[str]) -> List[str]:
    names: List[str] = []
    for name in wanted:
        if name == ALL_PUBLIC:
            names.extend(
                n for n, v in vars(owner).items()
                if isinstance(v, FunctionType) and not n.startswith("_")
            )
        else:
            names.append(name)
    return names


class Tracer:
    """Aggregating span recorder; see the module docstring."""

    def __init__(self, raw_cap: int = RAW_SPAN_CAP) -> None:
        #: span name -> [inclusive ns, self ns, calls, result units]
        self.spans: Dict[str, List[int]] = {}
        #: total ns under outermost spans == sum of all self ns
        self._root = [0]
        #: child-ns accumulator and name of every open span
        self._child: List[int] = []
        self._open: List[str] = []
        self.raw: List[Tuple[str, int, int, Optional[str]]] = []
        self.raw_cap = raw_cap
        #: (owner, attribute, original object) for every replaced attribute
        self.patched: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def wrap(
        self, name: str, fn: Callable[..., Any], units: Optional[Callable[[Any], int]] = None
    ) -> Callable[..., Any]:
        """``fn`` recorded as a span called ``name`` (``layer:what``)."""
        acc = self.spans.setdefault(name, [0, 0, 0, 0])
        child, open_, root = self._child, self._open, self._root
        raw, cap = self.raw, self.raw_cap
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            child.append(0)
            open_.append(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if units is not None:
                    acc[3] += units(result)
                return result
            finally:
                end = clock()
                duration = end - start
                open_.pop()
                acc[0] += duration
                acc[1] += duration - child.pop()
                acc[2] += 1
                if child:
                    child[-1] += duration
                else:
                    root[0] += duration
                if len(raw) < cap:
                    raw.append((name, start, end, open_[-1] if open_ else None))

        return traced

    # ------------------------------------------------------------------
    def install(self, table: Sequence[Tuple[Any, ...]] = TABLE) -> None:
        """Replace every callable the table names with its traced wrapper."""
        if self.patched:
            raise RuntimeError("tracer already installed")
        for row in table:
            layer, path, wanted = row[0], row[1], row[2]
            units = row[3] if len(row) > 3 else None
            owner = _resolve(path)
            label = path.rpartition(":")[2] if ":" in path else path.rpartition(".")[2]
            for attr in _attr_names(owner, wanted):
                original = vars(owner)[attr]
                if not isinstance(original, FunctionType):
                    raise TypeError(f"{path}.{attr} is not a plain function")
                wrapper = self.wrap(f"{layer}:{label}.{attr}", original, units)
                if isinstance(owner, ModuleType):
                    # patch the name where it is looked up, not only
                    # where it is defined (``from .routing import next_hop``)
                    for module in list(sys.modules.values()):
                        if (
                            module is not None
                            and module.__name__.partition(".")[0] == "repro"
                            and vars(module).get(attr) is original
                        ):
                            self._patch(module, attr, original, wrapper)
                else:
                    self._patch(owner, attr, original, wrapper)

    def _patch(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        setattr(owner, attr, wrapper)
        self.patched.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every original object back (identity-preserving)."""
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        """Zero all accumulators (start of the measured interval)."""
        if self._child:
            raise RuntimeError("cannot reset inside an open span")
        for acc in self.spans.values():
            acc[:] = [0, 0, 0, 0]
        self._root[0] = 0
        del self.raw[:]

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """JSON-ready aggregates: root seconds and per-name totals."""
        return {
            "root_s": self._root[0] / 1e9,
            "spans": {
                name: {
                    "incl_s": acc[0] / 1e9,
                    "self_s": acc[1] / 1e9,
                    "calls": acc[2],
                    "units": acc[3],
                }
                for name, acc in sorted(self.spans.items())
                if acc[2]
            },
        }

    def dump_raw(self, path: str) -> None:
        """Write the first :data:`RAW_SPAN_CAP` spans for inspection."""
        rows = [
            {"name": name, "start_ns": start, "end_ns": end, "parent": parent}
            for name, start, end, parent in self.raw
        ]
        with open(path, "w") as fh:
            json.dump({"spans": rows, "truncated_at": self.raw_cap}, fh)


def layer_totals(spans: Dict[str, Dict[str, float]]) -> Dict[str, Tuple[float, int]]:
    """``{layer: (self seconds, calls)}`` from a :meth:`Tracer.summary` table."""
    out: Dict[str, Tuple[float, int]] = {}
    for name, row in spans.items():
        layer = name.partition(":")[0]
        self_s, calls = out.get(layer, (0.0, 0))
        out[layer] = (self_s + row["self_s"], calls + int(row["calls"]))
    return out
