"""The typed message-flow graph behind ``repro flow`` (DESIGN.md §11).

The graph is the static counterpart of the runtime protocol: its nodes
are ``role × payload`` *actions* — a role sending a payload type, or a
role handling one — and its edges are the two ways control crosses a
node boundary:

* **delivery edges** connect every send action of a payload to every
  handler action of the same payload (``send(r, P) -> handle(h, P)``):
  content routing decides the receiver at runtime, so statically any
  handler of ``P`` is reachable from any sender;
* **emit edges** connect a handler action to every send action its role
  performs (``handle(h, P) -> send(h, Q)``): role granularity is a
  deliberate over-approximation — a role that *can* send ``Q`` from any
  of its methods is assumed able to send it while reacting to ``P``.

Reachability over this graph is what the F004 response-path check walks,
and the node/edge sets are what ``repro flow --dot`` renders.  The raw
material (payload declarations, send sites, handler sites, post-
construction mutations) is extracted statically by
:mod:`repro.analysis.flow` — this module only holds the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

__all__ = [
    "PayloadDecl",
    "SendSite",
    "HandlerSite",
    "MutationSite",
    "FlowNode",
    "MessageFlowGraph",
]


@dataclass(frozen=True)
class PayloadDecl:
    """One ``@payload``-decorated class, as read from the AST.

    Mirrors :class:`repro.core.protocol.PayloadSpec` plus the source
    location of the declaration, so registry-level findings (F001,
    F003, F004) can be pinned to the class definition line.
    """

    name: str
    kind: str
    dedup: bool
    ack_on_delivery: bool
    ack_kinds: FrozenSet[str]
    senders: FrozenSet[str]
    response: Optional[str]
    flow: str
    path: str
    line: int


@dataclass(frozen=True)
class SendSite:
    """One statically attributed send of a concrete payload type.

    ``role`` is the sending role resolved from the enclosing class's
    ``role`` attribute or the module's ``FLOW_ROLE`` marker; ``None``
    when the site could not be attributed (such sites still count as
    send sites for F001, but are exempt from the F002 legality check).
    ``var`` is the local name the payload travelled under (empty for a
    constructor passed inline), used to pair sends with mutations.
    """

    payload: str
    role: Optional[str]
    path: str
    line: int
    col: int
    func: str
    var: str = ""


@dataclass(frozen=True)
class HandlerSite:
    """One ``@handles(P)`` registration inside a role class."""

    payload: str
    role: str
    path: str
    line: int
    col: int
    owner: str


@dataclass(frozen=True)
class MutationSite:
    """A payload field assigned after construction on a send path.

    Only recorded when the mutated local is *also* used at a send site
    in the same (outermost) function scope — a constructed payload that
    never reaches the wire may be freely adjusted.
    """

    payload: str
    var: str
    attr: str
    role: Optional[str]
    path: str
    line: int
    col: int
    func: str


#: one graph node: ``(action, role, payload)`` with action "send"/"handle"
FlowNode = Tuple[str, str, str]


@dataclass
class MessageFlowGraph:
    """The assembled whole-program protocol-flow graph."""

    payloads: Dict[str, PayloadDecl] = field(default_factory=dict)
    sends: List[SendSite] = field(default_factory=list)
    handlers: List[HandlerSite] = field(default_factory=list)
    #: post-construction mutations already paired with a send of the
    #: same local (the raw material of F005)
    mutations: List[MutationSite] = field(default_factory=list)

    # ------------------------------------------------------------------
    # per-payload accessors
    # ------------------------------------------------------------------
    def sends_of(self, payload: str) -> List[SendSite]:
        """Every send site attributed to ``payload``."""
        return [s for s in self.sends if s.payload == payload]

    def handlers_of(self, payload: str) -> List[HandlerSite]:
        """Every handler registration for ``payload``."""
        return [h for h in self.handlers if h.payload == payload]

    def send_roles(self, payload: str) -> List[str]:
        """Sorted roles observed sending ``payload`` (attributed only)."""
        return sorted(
            {s.role for s in self.sends_of(payload) if s.role is not None}
        )

    def handler_roles(self, payload: str) -> List[str]:
        """Sorted roles registering a handler for ``payload``."""
        return sorted({h.role for h in self.handlers_of(payload)})

    # ------------------------------------------------------------------
    # graph structure
    # ------------------------------------------------------------------
    def nodes(self) -> List[FlowNode]:
        """All role×payload action nodes, sorted."""
        out: Set[FlowNode] = set()
        for send in self.sends:
            if send.role is not None:
                out.add(("send", send.role, send.payload))
        for handler in self.handlers:
            out.add(("handle", handler.role, handler.payload))
        return sorted(out)

    def edges(self) -> List[Tuple[FlowNode, FlowNode]]:
        """Delivery plus emit edges, sorted (see module docstring)."""
        out: Set[Tuple[FlowNode, FlowNode]] = set()
        sends_by_role: Dict[str, Set[str]] = {}
        for send in self.sends:
            if send.role is not None:
                sends_by_role.setdefault(send.role, set()).add(send.payload)
        for name in self.payloads:
            send_nodes = [
                ("send", role, name) for role in self.send_roles(name)
            ]
            handle_nodes = [
                ("handle", role, name) for role in self.handler_roles(name)
            ]
            for src in send_nodes:
                for dst in handle_nodes:
                    out.add((src, dst))
        for handler in self.handlers:
            for emitted in sends_by_role.get(handler.role, ()):
                out.add(
                    (
                        ("handle", handler.role, handler.payload),
                        ("send", handler.role, emitted),
                    )
                )
        return sorted(out)

    def reachable_from(self, starts: Iterable[FlowNode]) -> Set[FlowNode]:
        """All nodes reachable from ``starts`` along graph edges."""
        adjacency: Dict[FlowNode, List[FlowNode]] = {}
        for src, dst in self.edges():
            adjacency.setdefault(src, []).append(dst)
        seen: Set[FlowNode] = set(starts)
        frontier: List[FlowNode] = list(seen)
        while frontier:
            node = frontier.pop()
            for nxt in adjacency.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def to_dot(self) -> str:
        """The graph in Graphviz DOT form (``repro flow --dot``)."""

        def node_id(node: FlowNode) -> str:
            action, role, name = node
            return f'"{action}:{role}:{name}"'

        lines = [
            "digraph message_flow {",
            "  rankdir=LR;",
            '  node [fontname="Helvetica"];',
        ]
        for node in self.nodes():
            action, role, name = node
            shape = "box" if action == "send" else "ellipse"
            label = f"{role}\\n{action} {name}"
            lines.append(
                f"  {node_id(node)} [shape={shape}, label=\"{label}\"];"
            )
        for src, dst in self.edges():
            style = "solid" if src[0] == "send" else "dashed"
            lines.append(
                f"  {node_id(src)} -> {node_id(dst)} [style={style}];"
            )
        lines.append("}")
        return "\n".join(lines) + "\n"
