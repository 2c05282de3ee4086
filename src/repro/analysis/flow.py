"""simflow: whole-program static protocol-flow analysis (DESIGN.md §11).

simlint (D001–D014) checks one file at a time; this module parses every
module of the package *once* and checks the protocol as a whole.  Three
extraction passes feed a :class:`~repro.analysis.flowgraph.
MessageFlowGraph`:

1. **registry pass** — every ``@payload``-decorated class, with its
   delivery policy and the flow metadata (``senders`` / ``response`` /
   ``flow``) read straight from the decorator AST (the analyzed code is
   never imported, so deliberately broken fixture trees can be tested);
2. **handler pass** — every ``@handles(P)`` method inside a class that
   declares a ``role``;
3. **send pass** — every call through a sending API
   (``reliable_route`` / ``reliable_disseminate`` / ``send_response`` /
   ``reliable.track`` / ``Message(payload=...)``), with intraprocedural
   constant propagation resolving which payload type each site puts on
   the wire and which role it belongs to (the enclosing class's
   ``role`` attribute, else the module's ``FLOW_ROLE`` marker).

The F-rule catalog checked over the graph:

====  ==============================================================
F001  every registered payload has ≥1 send site and ≥1 handler
      (``flow="ack"`` waives the handler — the dispatch layer consumes
      acks itself)
F002  no attributed send site sends a payload its role does not
      appear in the payload's declared ``senders``
F003  ack obligations are acyclic (an ack carrier must not itself be
      acknowledged) and every ``ack_on_delivery`` payload has an ack
      consumer (a registered ``flow="ack"`` payload)
F004  every payload declaring ``response=R`` reaches a send site of
      ``R`` from at least one of its handlers, walking delivery and
      emit edges
F005  no payload field is assigned after construction on a send path
      (a local that is both constructed and sent in one function)
====  ==============================================================

Findings are the linter's :class:`~repro.analysis.findings.Finding`
records, and files are read and parsed by the linter's
:func:`~repro.analysis.linter.parse_file`; ``python -m repro flow``
prints the graph and exits 1 on any finding.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from .findings import Finding
from .flowgraph import (
    HandlerSite,
    MessageFlowGraph,
    MutationSite,
    PayloadDecl,
    SendSite,
)
from .linter import collect_files, parse_file
from .rules import str_constants

__all__ = [
    "FLOW_RULES",
    "DEFAULT_EXCLUDES",
    "build_flow_graph",
    "check_flow",
    "analyze_flow",
    "render_flow_table",
]

PathLike = Union[str, Path]

#: rule code -> one-line title (the catalog is documented in DESIGN.md §11)
FLOW_RULES: Dict[str, str] = {
    "F001": "registered payload without a send site or handler",
    "F002": "send site in a role the payload does not declare",
    "F003": "ack obligations cyclic or without an ack consumer",
    "F004": "request payload without a reachable response path",
    "F005": "payload field mutated after construction on a send path",
}

#: package path segments excluded from whole-program analysis: test
#: trees are full of hand-built partial payloads
DEFAULT_EXCLUDES: Tuple[str, ...] = ("tests", "test")

#: sending APIs: callee attribute name -> positional index of the payload
_SEND_ARG_INDEX = {
    "reliable_route": 0,
    "reliable_disseminate": 0,
    "send_response": 1,
}


# ----------------------------------------------------------------------
# small AST helpers
# ----------------------------------------------------------------------
def _const_str(
    node: ast.AST, kind_map: Dict[str, str], consts: Dict[str, str]
) -> Optional[str]:
    """A string literal, ``KIND.X``, or a module-level string constant."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        if node.value.id == "KIND":
            return kind_map.get(node.attr, node.attr.lower())
    if isinstance(node, ast.Name):
        return consts.get(node.id)
    return None


def _const_str_tuple(
    node: ast.AST, kind_map: Dict[str, str], consts: Dict[str, str]
) -> Tuple[str, ...]:
    """A tuple/list of string literals / ``KIND.X`` / named constants."""
    if not isinstance(node, (ast.Tuple, ast.List)):
        return ()
    out: List[str] = []
    for elt in node.elts:
        value = _const_str(elt, kind_map, consts)
        if value is not None:
            out.append(value)
    return tuple(out)


def _annotation_name(node: Optional[ast.AST]) -> Optional[str]:
    """The plain class name of a ``x: P`` / ``x: "P"`` annotation."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.split(".")[-1].strip()
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _dict_value_annotation(node: Optional[ast.AST]) -> Optional[str]:
    """``P`` for a ``Dict[K, P]`` / ``dict[K, P]`` annotation."""
    if not isinstance(node, ast.Subscript):
        return None
    base = node.value
    if not (isinstance(base, ast.Name) and base.id in ("Dict", "dict")):
        return None
    inner = node.slice
    if isinstance(inner, ast.Tuple) and len(inner.elts) == 2:
        return _annotation_name(inner.elts[1])
    return None


# ----------------------------------------------------------------------
# pass 1: KIND maps + payload declarations
# ----------------------------------------------------------------------
def _collect_kind_map(tree: ast.Module) -> Dict[str, str]:
    """``ATTR -> value`` for every ``class KIND`` constant in a module."""
    out: Dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "KIND":
            out.update(str_constants(node.body))
    return out


def _payload_decorator(node: ast.ClassDef) -> Optional[ast.Call]:
    for deco in node.decorator_list:
        if (
            isinstance(deco, ast.Call)
            and isinstance(deco.func, ast.Name)
            and deco.func.id == "payload"
        ):
            return deco
    return None


def _collect_payload_decls(
    path: str, tree: ast.Module, kind_map: Dict[str, str]
) -> List[PayloadDecl]:
    consts = str_constants(tree.body)
    out: List[PayloadDecl] = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        deco = _payload_decorator(node)
        if deco is None:
            continue
        kind = ""
        dedup = False
        ack_on_delivery = False
        ack_kinds: Tuple[str, ...] = ()
        senders: Tuple[str, ...] = ()
        response: Optional[str] = None
        flow = "normal"
        for kw in deco.keywords:
            if kw.arg == "kind":
                kind = _const_str(kw.value, kind_map, consts) or ""
            elif kw.arg == "dedup":
                dedup = bool(
                    isinstance(kw.value, ast.Constant) and kw.value.value
                )
            elif kw.arg == "ack_on_delivery":
                ack_on_delivery = bool(
                    isinstance(kw.value, ast.Constant) and kw.value.value
                )
            elif kw.arg == "ack_kinds":
                ack_kinds = _const_str_tuple(kw.value, kind_map, consts)
            elif kw.arg == "senders":
                senders = _const_str_tuple(kw.value, kind_map, consts)
            elif kw.arg == "response":
                response = _const_str(kw.value, kind_map, consts)
            elif kw.arg == "flow":
                flow = _const_str(kw.value, kind_map, consts) or "normal"
        out.append(
            PayloadDecl(
                name=node.name,
                kind=kind,
                dedup=dedup,
                ack_on_delivery=ack_on_delivery,
                ack_kinds=frozenset(ack_kinds),
                senders=frozenset(senders),
                response=response,
                flow=flow,
                path=path,
                line=node.lineno,
            )
        )
    return out


# ----------------------------------------------------------------------
# pass 2/3: roles, handlers, send sites with constant propagation
# ----------------------------------------------------------------------
def _handles_payload(fn: ast.AST) -> Optional[Tuple[str, ast.AST]]:
    """``(payload name, decorator node)`` for an ``@handles(P)`` method."""
    if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return None
    for deco in fn.decorator_list:
        if (
            isinstance(deco, ast.Call)
            and isinstance(deco.func, ast.Name)
            and deco.func.id == "handles"
            and deco.args
            and isinstance(deco.args[0], ast.Name)
        ):
            return deco.args[0].id, deco
    return None


class _FunctionScanner:
    """Constant propagation + send/mutation discovery in one function.

    Tracks which locals are bound to instances of registered payload
    types — direct construction, ``dict.setdefault`` insertion,
    ``dataclasses.replace`` of a tracked local, annotated assignments
    and parameters, and iteration over ``.items()`` / ``.values()`` of
    a ``Dict[K, P]``-annotated local.  Nested functions inherit the
    enclosing bindings (closures send what the enclosing scope built).
    Statements are processed in source order, so a binding is visible
    to every later statement of the scope; branch-local rebindings are
    merged optimistically (last writer wins), which is precise enough
    for the straight-line send paths the role services use.
    """

    def __init__(
        self,
        extractor: "_ModuleExtractor",
        role: Optional[str],
        func: str,
        scope_key: Tuple[str, str],
        env: Dict[str, FrozenSet[str]],
        dict_ann: Dict[str, str],
        params: Set[str],
    ) -> None:
        self.x = extractor
        self.role = role
        self.func = func
        self.scope_key = scope_key
        #: local name -> payload types it *may* hold (may-analysis:
        #: bindings from both sides of a branch are unioned)
        self.env = env
        self.dict_ann = dict_ann
        #: parameter names seeded from annotations: they attribute sends
        #: but are exempt from F005 — the payload was constructed by the
        #: caller, so an assignment here (e.g. the runtime stamping
        #: ``payload.delivery_id`` in ``send_response``) is not a
        #: post-construction mutation in this scope
        self.params = params

    # -- payload-type resolution ---------------------------------------
    def resolve(self, node: Optional[ast.AST]) -> Tuple[FrozenSet[str], str]:
        """``(possible payload types, local name)`` of an expression."""
        if node is None:
            return frozenset(), ""
        if isinstance(node, ast.Name):
            return self.env.get(node.id, frozenset()), node.id
        if isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Name):
                if fn.id in self.x.payload_names:
                    return frozenset({fn.id}), ""
                if fn.id == "replace" and node.args:
                    resolved, _ = self.resolve(node.args[0])
                    return resolved, ""
            if isinstance(fn, ast.Attribute) and fn.attr == "setdefault":
                if len(node.args) >= 2:
                    resolved, _ = self.resolve(node.args[1])
                    return resolved, ""
        return frozenset(), ""

    # -- statement walk ------------------------------------------------
    def run(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self.statement(stmt)

    def statement(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.x.scan_function(
                stmt,
                role=self.role,
                qualprefix=self.func,
                scope_key=self.scope_key,
                outer_env=self.env,
                outer_dict_ann=self.dict_ann,
                outer_params=self.params,
            )
            return
        if isinstance(stmt, ast.ClassDef):
            return  # local classes: out of scope for role send paths
        # Compound statements: scan only their own expression parts,
        # then recurse into the nested bodies statement by statement —
        # scanning the whole subtree here would double-count calls.
        if isinstance(stmt, ast.If):
            self.scan_expr(stmt.test)
            before = dict(self.env)
            self.run(stmt.body)
            env_then = self.env
            self.env = dict(before)
            self.run(stmt.orelse)
            env_else = self.env
            merged: Dict[str, FrozenSet[str]] = {}
            for name in set(env_then) | set(env_else):
                union = env_then.get(name, frozenset()) | env_else.get(
                    name, frozenset()
                )
                if union:
                    merged[name] = union
            self.env = merged
            return
        if isinstance(stmt, ast.While):
            self.scan_expr(stmt.test)
            self.run(stmt.body)
            self.run(stmt.orelse)
            return
        if isinstance(stmt, ast.For):
            self.scan_expr(stmt.iter)
            self.handle_for(stmt)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.scan_expr(item.context_expr)
            self.run(stmt.body)
            return
        if isinstance(stmt, ast.Try):
            self.run(stmt.body)
            for handler in stmt.handlers:
                self.run(handler.body)
            self.run(stmt.orelse)
            self.run(stmt.finalbody)
            return
        # Simple statement: safe to scan the whole node for calls.
        self.scan_calls(stmt)
        if isinstance(stmt, ast.Assign):
            self.handle_assign(stmt)
        elif isinstance(stmt, ast.AugAssign):
            self.handle_mutation_target(stmt.target, stmt)
        elif isinstance(stmt, ast.AnnAssign):
            self.handle_ann_assign(stmt)

    def handle_assign(self, stmt: ast.Assign) -> None:
        resolved, _ = self.resolve(stmt.value)
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                self.params.discard(target.id)
                if resolved:
                    self.env[target.id] = resolved
                else:
                    self.env.pop(target.id, None)
            elif isinstance(target, ast.Attribute):
                self.handle_mutation_target(target, stmt)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for elt in target.elts:
                    if isinstance(elt, ast.Name):
                        self.env.pop(elt.id, None)

    def handle_mutation_target(self, target: ast.expr, stmt: ast.stmt) -> None:
        """Record ``local.field = ...`` on a payload-bound local."""
        if not (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
        ):
            return
        var = target.value.id
        if var in self.params:
            return
        for bound in sorted(self.env.get(var, frozenset())):
            self.x.record_mutation(
                payload=bound,
                var=var,
                attr=target.attr,
                role=self.role,
                line=stmt.lineno,
                col=stmt.col_offset,
                func=self.func,
                scope_key=self.scope_key,
            )

    def handle_ann_assign(self, stmt: ast.AnnAssign) -> None:
        if not isinstance(stmt.target, ast.Name):
            return
        name = stmt.target.id
        self.params.discard(name)
        ann = _annotation_name(stmt.annotation)
        if ann is not None and ann in self.x.payload_names:
            self.env[name] = frozenset({ann})
            return
        dict_value = _dict_value_annotation(stmt.annotation)
        if dict_value is not None and dict_value in self.x.payload_names:
            self.dict_ann[name] = dict_value
            self.env.pop(name, None)
            return
        resolved, _ = self.resolve(stmt.value)
        if resolved:
            self.env[name] = resolved
        else:
            self.env.pop(name, None)

    def handle_for(self, stmt: ast.For) -> None:
        bound = False
        it = stmt.iter
        if (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Attribute)
            and isinstance(it.func.value, ast.Name)
        ):
            value_type = self.dict_ann.get(it.func.value.id)
            if value_type is not None:
                if (
                    it.func.attr == "items"
                    and isinstance(stmt.target, ast.Tuple)
                    and len(stmt.target.elts) == 2
                    and isinstance(stmt.target.elts[1], ast.Name)
                ):
                    self.env[stmt.target.elts[1].id] = frozenset({value_type})
                    bound = True
                elif it.func.attr == "values" and isinstance(
                    stmt.target, ast.Name
                ):
                    self.env[stmt.target.id] = frozenset({value_type})
                    bound = True
        if not bound:
            for node in ast.walk(stmt.target):
                if isinstance(node, ast.Name):
                    self.env.pop(node.id, None)
        self.run(stmt.body)
        self.run(stmt.orelse)

    # -- send-site discovery -------------------------------------------
    def scan_calls(self, stmt: ast.stmt) -> None:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                self.check_send(node)

    def scan_expr(self, expr: Optional[ast.expr]) -> None:
        if expr is None:
            return
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                self.check_send(node)

    def check_send(self, call: ast.Call) -> None:
        fn = call.func
        payload_arg: Optional[ast.AST] = None
        if isinstance(fn, ast.Attribute):
            index = _SEND_ARG_INDEX.get(fn.attr)
            if index is not None and len(call.args) > index:
                payload_arg = call.args[index]
            elif (
                fn.attr == "track"
                and isinstance(fn.value, ast.Attribute)
                and fn.value.attr == "reliable"
                and call.args
            ):
                payload_arg = call.args[0]
        elif isinstance(fn, ast.Name) and fn.id == "Message":
            for kw in call.keywords:
                if kw.arg == "payload":
                    payload_arg = kw.value
                    break
        if payload_arg is None:
            return
        resolved, var = self.resolve(payload_arg)
        for payload in sorted(resolved):
            self.x.record_send(
                payload=payload,
                role=self.role,
                line=call.lineno,
                col=call.col_offset,
                func=self.func,
                var=var,
                scope_key=self.scope_key,
            )


class _ModuleExtractor:
    """Runs the handler and send passes over one parsed module."""

    def __init__(
        self, path: str, tree: ast.Module, payload_names: Set[str]
    ) -> None:
        self.path = path
        self.tree = tree
        self.payload_names = payload_names
        #: the module-level ``FLOW_ROLE = "..."`` marker, if present
        self.module_role = str_constants(tree.body).get("FLOW_ROLE")
        self.handlers: List[HandlerSite] = []
        self.raw_sends: List[SendSite] = []
        self.raw_mutations: List[MutationSite] = []
        #: scope key -> local names sent from that (outermost) scope
        self._sent_vars: Dict[Tuple[str, str], Set[str]] = {}

    # -- recording ------------------------------------------------------
    def record_send(
        self,
        *,
        payload: str,
        role: Optional[str],
        line: int,
        col: int,
        func: str,
        var: str,
        scope_key: Tuple[str, str],
    ) -> None:
        self.raw_sends.append(
            SendSite(
                payload=payload,
                role=role,
                path=self.path,
                line=line,
                col=col,
                func=func,
                var=var,
            )
        )
        if var:
            self._sent_vars.setdefault(scope_key, set()).add(var)

    def record_mutation(
        self,
        *,
        payload: str,
        var: str,
        attr: str,
        role: Optional[str],
        line: int,
        col: int,
        func: str,
        scope_key: Tuple[str, str],
    ) -> None:
        self.raw_mutations.append(
            MutationSite(
                payload=payload,
                var=var,
                attr=attr,
                role=role,
                path=self.path,
                line=line,
                col=col,
                func=func,
            )
        )

    def sent_mutations(self) -> List[MutationSite]:
        """Mutations whose local was also sent from the same scope."""
        out: List[MutationSite] = []
        for mutation in self.raw_mutations:
            scope_key = (self.path, mutation.func.split(".<locals>.")[0])
            if mutation.var in self._sent_vars.get(scope_key, set()):
                out.append(mutation)
        return out

    # -- traversal ------------------------------------------------------
    def run(self) -> None:
        for node in self.tree.body:
            if isinstance(node, ast.ClassDef):
                self.scan_class(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.scan_function(node, role=self.module_role)

    def scan_class(self, node: ast.ClassDef) -> None:
        # a class declares its role with a non-empty `role = "..."`
        role = str_constants(node.body).get("role") or self.module_role
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                handled = _handles_payload(stmt)
                if handled is not None and role is not None:
                    name, deco = handled
                    if name in self.payload_names:
                        self.handlers.append(
                            HandlerSite(
                                payload=name,
                                role=role,
                                path=self.path,
                                line=stmt.lineno,
                                col=stmt.col_offset,
                                owner=f"{node.name}.{stmt.name}",
                            )
                        )
                self.scan_function(stmt, role=role, qualprefix=node.name)
            elif isinstance(stmt, ast.ClassDef):
                self.scan_class(stmt)

    def scan_function(
        self,
        fn: Union[ast.FunctionDef, ast.AsyncFunctionDef],
        *,
        role: Optional[str],
        qualprefix: str = "",
        scope_key: Optional[Tuple[str, str]] = None,
        outer_env: Optional[Dict[str, FrozenSet[str]]] = None,
        outer_dict_ann: Optional[Dict[str, str]] = None,
        outer_params: Optional[Set[str]] = None,
    ) -> None:
        qualname = (
            f"{qualprefix}.<locals>.{fn.name}"
            if scope_key is not None
            else (f"{qualprefix}.{fn.name}" if qualprefix else fn.name)
        )
        key = scope_key or (self.path, qualname)
        env: Dict[str, FrozenSet[str]] = dict(outer_env or {})
        dict_ann: Dict[str, str] = dict(outer_dict_ann or {})
        params: Set[str] = set(outer_params or ())
        args = fn.args
        all_args = [
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
        ]
        for arg in all_args:
            ann = _annotation_name(arg.annotation)
            if ann is not None and ann in self.payload_names:
                env[arg.arg] = frozenset({ann})
                params.add(arg.arg)
            else:
                dict_value = _dict_value_annotation(arg.annotation)
                if dict_value is not None and dict_value in self.payload_names:
                    dict_ann[arg.arg] = dict_value
        scanner = _FunctionScanner(
            self, role=role, func=qualname, scope_key=key,
            env=env, dict_ann=dict_ann, params=params,
        )
        scanner.run(fn.body)


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def _flow_files(
    paths: Sequence[PathLike], excludes: Tuple[str, ...]
) -> List[Path]:
    out: List[Path] = []
    for path in collect_files(list(paths)):
        if any(part in excludes for part in path.parts):
            continue
        out.append(path)
    return out


def build_flow_graph(
    paths: Sequence[PathLike],
    *,
    excludes: Tuple[str, ...] = DEFAULT_EXCLUDES,
) -> Tuple[MessageFlowGraph, List[Finding]]:
    """Parse a source tree into its message-flow graph.

    Returns ``(graph, parse_findings)`` where the findings carry any
    unreadable / syntactically invalid files (rule ``E000``, matching
    the linter's convention).  The analyzed code is never imported.
    """
    parsed: List[Tuple[str, ast.Module]] = []
    findings: List[Finding] = []
    for path in _flow_files(paths, excludes):
        result = parse_file(path)
        if isinstance(result, Finding):
            findings.append(result)
        else:
            parsed.append((str(path), result[1]))

    kind_map: Dict[str, str] = {}
    for _, tree in parsed:
        kind_map.update(_collect_kind_map(tree))

    graph = MessageFlowGraph()
    for path_str, tree in parsed:
        for decl in _collect_payload_decls(path_str, tree, kind_map):
            graph.payloads[decl.name] = decl
    payload_names = set(graph.payloads)

    for path_str, tree in parsed:
        extractor = _ModuleExtractor(path_str, tree, payload_names)
        extractor.run()
        graph.handlers.extend(extractor.handlers)
        graph.sends.extend(extractor.raw_sends)
        graph.mutations.extend(extractor.sent_mutations())
    graph.sends.sort(key=lambda s: (s.path, s.line, s.col))
    graph.handlers.sort(key=lambda h: (h.path, h.line, h.col))
    graph.mutations.sort(key=lambda m: (m.path, m.line, m.col))
    return graph, findings


def _decl_finding(rule: str, decl: PayloadDecl, message: str) -> Finding:
    return Finding(
        rule=rule, path=decl.path, line=decl.line, col=0, message=message
    )


def check_flow(graph: MessageFlowGraph) -> List[Finding]:
    """Run the F001–F005 catalog over an assembled flow graph."""
    findings: List[Finding] = []
    ack_carriers = [
        d for d in graph.payloads.values() if d.flow == "ack"
    ]

    for name in sorted(graph.payloads):
        decl = graph.payloads[name]
        sends = graph.sends_of(name)
        handlers = graph.handlers_of(name)

        # F001 — liveness of the registry entry
        if not sends:
            findings.append(
                _decl_finding(
                    "F001",
                    decl,
                    f"payload {name} (kind {decl.kind!r}) has no "
                    "statically attributed send site",
                )
            )
        if decl.flow != "ack" and not handlers:
            findings.append(
                _decl_finding(
                    "F001",
                    decl,
                    f"payload {name} (kind {decl.kind!r}) has no "
                    "@handles handler in any role",
                )
            )

        # F002 — sender legality
        for send in sends:
            if send.role is None:
                continue
            if send.role not in decl.senders:
                declared = ", ".join(sorted(decl.senders)) or "(none)"
                findings.append(
                    Finding(
                        rule="F002",
                        path=send.path,
                        line=send.line,
                        col=send.col,
                        message=(
                            f"role {send.role!r} sends {name} but the "
                            f"payload declares senders ({declared})"
                        ),
                    )
                )

        # F003 — ack obligations
        if decl.flow == "ack" and (decl.ack_on_delivery or decl.ack_kinds):
            findings.append(
                _decl_finding(
                    "F003",
                    decl,
                    f"ack carrier {name} is itself acknowledged on "
                    "delivery — the ack graph must be acyclic",
                )
            )
        if (
            decl.flow != "ack"
            and decl.ack_on_delivery
            and not ack_carriers
        ):
            findings.append(
                _decl_finding(
                    "F003",
                    decl,
                    f"payload {name} requires acks on delivery but no "
                    'flow="ack" payload is registered to carry them',
                )
            )

        # F004 — reachable response path
        if decl.response is not None:
            findings.extend(_check_response_path(graph, decl))

    # F005 — post-construction mutation on a send path
    for mutation in graph.mutations:
        findings.append(
            Finding(
                rule="F005",
                path=mutation.path,
                line=mutation.line,
                col=mutation.col,
                message=(
                    f"field {mutation.attr!r} of {mutation.payload} "
                    f"(local {mutation.var!r}) is assigned after "
                    f"construction on a send path in {mutation.func}"
                ),
            )
        )

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def _check_response_path(
    graph: MessageFlowGraph, decl: PayloadDecl
) -> List[Finding]:
    response = decl.response
    assert response is not None
    if response not in graph.payloads:
        return [
            _decl_finding(
                "F004",
                decl,
                f"payload {decl.name} declares response {response!r}, "
                "which is not a registered payload",
            )
        ]
    handlers = graph.handlers_of(decl.name)
    if not handlers:
        return []  # F001 already reports the missing handler
    starts = [("handle", h.role, decl.name) for h in handlers]
    reachable = graph.reachable_from(starts)
    for node in reachable:
        if node[0] == "send" and node[2] == response:
            return []
    return [
        _decl_finding(
            "F004",
            decl,
            f"no send site of response {response} is statically "
            f"reachable from the handlers of {decl.name} "
            f"({', '.join(sorted(h.role for h in handlers))})",
        )
    ]


def analyze_flow(
    paths: Sequence[PathLike],
    *,
    excludes: Tuple[str, ...] = DEFAULT_EXCLUDES,
) -> Tuple[MessageFlowGraph, List[Finding]]:
    """Build the flow graph and run every F rule; the one-call API."""
    graph, findings = build_flow_graph(paths, excludes=excludes)
    findings = findings + check_flow(graph)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return graph, findings


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def render_flow_table(graph: MessageFlowGraph) -> str:
    """The role×kind table ``repro flow`` prints.

    One row per registered payload, in declaration order: accounting
    kind, flow discipline, declared senders, roles observed sending at
    attributed sites (with site counts), and the handler methods.
    """
    headers = ("PAYLOAD", "KIND", "FLOW", "SENDERS", "SEND SITES", "HANDLERS")
    rows: List[Tuple[str, ...]] = []
    for name, decl in graph.payloads.items():
        sends = graph.sends_of(name)
        by_role: Dict[str, int] = {}
        unattributed = 0
        for send in sends:
            if send.role is None:
                unattributed += 1
            else:
                by_role[send.role] = by_role.get(send.role, 0) + 1
        site_bits = [
            f"{role}×{count}" if count > 1 else role
            for role, count in sorted(by_role.items())
        ]
        if unattributed:
            site_bits.append(f"?×{unattributed}")
        handler_bits = [
            f"{h.role}:{h.owner}" for h in graph.handlers_of(name)
        ]
        rows.append(
            (
                name,
                decl.kind,
                decl.flow,
                ", ".join(sorted(decl.senders)) or "-",
                ", ".join(site_bits) or "-",
                ", ".join(sorted(handler_bits)) or "-",
            )
        )
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(headers[i].ljust(widths[i]) for i in range(len(headers))),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rows:
        lines.append(
            "  ".join(row[i].ljust(widths[i]) for i in range(len(headers)))
        )
    return "\n".join(lines)
