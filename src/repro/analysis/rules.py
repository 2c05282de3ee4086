"""The simlint rule catalog (D001–D014).

Each rule is an :class:`ast.NodeVisitor` with a code, a one-line title,
and a path scope.  Rules are registered in :data:`RULES`; the engine
(:mod:`repro.analysis.linter`) instantiates every applicable rule per
file and feeds it the parsed tree.

Seven rules only ban names: outside their scope, do not import, call or
assign them.  Those are the rows of :data:`BANS`, all read by the one
:class:`BanRule` visitor.  The other seven (D003–D007, D011, D014) hold
real logic and are classes of their own.  The catalog, with each rule's
scope and rationale, is documented in DESIGN.md §7.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import PurePosixPath
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Type

from .findings import Finding

__all__ = [
    "LintRule",
    "BanRule",
    "Ban",
    "BANS",
    "RULES",
    "register",
    "str_constants",
]

RULES: Dict[str, Type["LintRule"]] = {}


def register(cls: Type["LintRule"]) -> Type["LintRule"]:
    """Class decorator adding a rule to the :data:`RULES` registry."""
    if not cls.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if cls.code in RULES:
        raise ValueError(f"duplicate rule code {cls.code}")
    RULES[cls.code] = cls
    return cls


# ----------------------------------------------------------------------
# path scoping and AST helpers
# ----------------------------------------------------------------------
def _parts(path: str) -> Tuple[str, ...]:
    return PurePosixPath(path.replace("\\", "/")).parts


def is_test_path(path: str) -> bool:
    """Whether a file is test code (exempt from determinism rules)."""
    parts = _parts(path)
    if any(part in ("tests", "test") for part in parts[:-1]):
        return True
    name = parts[-1] if parts else ""
    return name.startswith("test_") or name == "conftest.py"


def _in_packages(path: str, packages: Tuple[str, ...]) -> bool:
    return any(part in packages for part in _parts(path)[:-1])


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    chain: List[str] = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        chain.append(node.id)
        return ".".join(reversed(chain))
    return None


def _has_suffix(dotted: str, suffixes: Tuple[str, ...]) -> bool:
    """Whether ``dotted`` is, or ends with ``.`` plus, one of ``suffixes``."""
    return any(dotted == s or dotted.endswith("." + s) for s in suffixes)


def str_constants(body: Sequence[ast.stmt]) -> Dict[str, str]:
    """``NAME -> value`` for every ``NAME = "literal"`` statement in ``body``.

    Shared by D005 (so ``Message(kind=NAME)`` resolves an aliased kind
    string) and simflow's registry pass (``KIND`` attributes, ``role``
    and ``FLOW_ROLE`` markers, named constants in ``@payload``).
    """
    out: Dict[str, str] = {}
    for stmt in body:
        if (
            isinstance(stmt, ast.Assign)
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str)
        ):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    out[target.id] = stmt.value.value
    return out


class LintRule(ast.NodeVisitor):
    """Base class for simlint rules.

    Subclasses set ``code``/``title``, override :meth:`applies_to` for
    their path scope, and call :meth:`report` from ``visit_*`` methods.
    """

    code = ""
    title = ""

    def __init__(self, path: str, source_lines: List[str]) -> None:
        self.path = path
        self._source_lines = source_lines
        self.findings: List[Finding] = []

    @classmethod
    def applies_to(cls, path: str) -> bool:
        """Whether this rule binds for the given file path."""
        return not is_test_path(path)

    def report(self, node: ast.AST, message: str) -> None:
        """Record a finding at ``node``'s location."""
        self.findings.append(
            Finding(
                rule=self.code,
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                message=message,
            )
        )

    def run(self, tree: ast.Module) -> Iterator[Finding]:
        """Visit the tree and yield this rule's findings."""
        self.visit(tree)
        return iter(self.findings)


# ----------------------------------------------------------------------
# D001, D002, D008, D009, D010, D012, D013 — the ban table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Ban:
    """One row of :data:`BANS`: names a path scope may not use."""

    code: str
    title: str
    #: the advice appended to every finding of the row
    hint: str
    #: packages the row binds in; empty binds everywhere outside tests
    packages: Tuple[str, ...] = ()
    exempt_packages: Tuple[str, ...] = ()
    #: path suffixes of exempt files, e.g. ``"sim/rng.py"``
    exempt_files: Tuple[str, ...] = ()
    #: top-level modules that may not be imported, nor imported from
    modules: Tuple[str, ...] = ()
    #: ``"M.name"`` for each banned ``from M import name``
    from_imports: Tuple[str, ...] = ()
    #: dotted-call suffixes: ``"os.fork"`` also bans ``x.os.fork()``
    calls: Tuple[str, ...] = ()
    #: attribute-write suffixes: ``"mapper"`` bans ``x.mapper = ...``
    writes: Tuple[str, ...] = ()


_SIM_WORLD = ("sim", "chord", "core")
_CLOCKS = (
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
)
_PERF_TIMERS = (
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
)
_FORKS = ("os.fork", "os.forkpty")

BANS: Tuple[Ban, ...] = (
    Ban(
        "D001",
        "raw RNG construction outside sim/rng.py",
        "draw from a named RngRegistry substream instead",
        exempt_files=("sim/rng.py",),
        modules=("random",),
        calls=(
            "np.random.seed",
            "np.random.default_rng",
            "np.random.RandomState",
            "numpy.random.seed",
            "numpy.random.default_rng",
            "numpy.random.RandomState",
            "random.seed",
        ),
    ),
    Ban(
        "D002",
        "wall-clock access in sim/chord/core",
        "simulated code must use Simulator.now",
        packages=_SIM_WORLD,
        from_imports=_CLOCKS,
        calls=_CLOCKS
        + ("datetime.now", "datetime.utcnow", "datetime.today", "date.today"),
    ),
    Ban(
        "D008",
        "perf timer outside repro/perf and benchmarks",
        "timing belongs in repro/perf or benchmarks/ (see PERFORMANCE.md)",
        # sim/chord/core are D002's: any wall clock, not just perf timers
        exempt_packages=_SIM_WORLD + ("perf", "benchmarks"),
        from_imports=_PERF_TIMERS,
        calls=_PERF_TIMERS,
    ),
    Ban(
        "D009",
        "process spawning in the single-process simulator",
        "the simulator is single-process; parallelise across runs in benchmarks/",
        exempt_packages=("benchmarks",),
        modules=("multiprocessing",),
        from_imports=_FORKS,
        calls=_FORKS,
    ),
    Ban(
        "D010",
        "raw network send outside the overlay/runtime layer",
        "it bypasses the reliable/dispatch path; route via "
        "NodeRuntime.reliable_route or the DhtOverlay primitives",
        packages=("chord", "core"),
        exempt_packages=("sim",),
        exempt_files=("core/runtime.py", "core/reliable.py", "chord/dht.py"),
        calls=("network.hop", "network.local"),
    ),
    Ban(
        "D012",
        "socket/asyncio/threading import outside repro/net",
        "role services and runtime code talk to the Transport seam "
        "(repro.net.transport.Transport); transport-specific code belongs "
        "under repro/net/",
        exempt_packages=("net",),
        modules=("socket", "asyncio", "threading"),
    ),
    Ban(
        "D013",
        "mapping-state mutation outside sanctioned remap entry points",
        "it re-keys the ring under already-stored MBRs; only core/mapping.py "
        "and core/system.py may change the mapping",
        packages=_SIM_WORLD,
        exempt_files=("core/mapping.py", "core/system.py"),
        calls=("refit",),
        writes=("mapper", "_epochs", "_edges"),
    ),
)


class BanRule(LintRule):
    """The one visitor behind every :data:`BANS` row."""

    ban: Ban

    @classmethod
    def applies_to(cls, path: str) -> bool:
        ban = cls.ban
        return (
            not is_test_path(path)
            and (not ban.packages or _in_packages(path, ban.packages))
            and not _in_packages(path, ban.exempt_packages)
            and not "/".join(_parts(path)).endswith(ban.exempt_files)
        )

    def _flag(self, node: ast.AST, what: str) -> None:
        self.report(node, f"{what}: {self.ban.hint}")

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name.split(".")[0] in self.ban.modules:
                self._flag(node, f"import of `{alias.name}`")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if module.split(".")[0] in self.ban.modules:
            self._flag(node, f"import from `{module}`")
        else:
            for alias in node.names:
                if f"{module}.{alias.name}" in self.ban.from_imports:
                    self._flag(node, f"import of `{module}.{alias.name}`")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        if dotted is not None and _has_suffix(dotted, self.ban.calls):
            self._flag(node, f"call to `{dotted}`")
        self.generic_visit(node)

    def _check_write(self, node: ast.stmt, target: ast.expr) -> None:
        if not isinstance(target, ast.Attribute):
            return
        dotted = _dotted_name(target)
        if dotted is not None and _has_suffix(dotted, self.ban.writes):
            self._flag(node, f"write to `{dotted}`")

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_write(node, target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_write(node, node.target)
        self.generic_visit(node)


def _ban_rule(row: Ban) -> Type[LintRule]:
    class Rule(BanRule):
        code = row.code
        title = row.title
        ban = row

    Rule.__name__ = Rule.__qualname__ = f"BanRule{row.code}"
    return Rule


for _row in BANS:
    register(_ban_rule(_row))


# ----------------------------------------------------------------------
# D003 — hash-order iteration in scheduling-adjacent code
# ----------------------------------------------------------------------
@register
class HashOrderIterationRule(LintRule):
    """Event ordering must never depend on set iteration order.

    Iterating a ``set``/``frozenset`` yields hash order, which for
    strings varies per process unless ``PYTHONHASHSEED`` is pinned;
    scheduling or sending messages in that order silently breaks
    reproducibility.  Wrap the iterable in ``sorted(...)`` (or keep a
    list/dict, which preserve insertion order).
    """

    code = "D003"
    title = "iteration over a set in scheduling-adjacent code"

    _SET_CALLS = {"set", "frozenset"}

    @classmethod
    def applies_to(cls, path: str) -> bool:
        return not is_test_path(path) and _in_packages(path, _SIM_WORLD)

    def __init__(self, path: str, source_lines: List[str]) -> None:
        super().__init__(path, source_lines)
        # name -> is a set, per lexical scope (crude single-pass inference)
        self._scopes: List[Dict[str, bool]] = [{}]

    # -- scope bookkeeping ---------------------------------------------
    def _enter_scope(self) -> None:
        self._scopes.append({})

    def _exit_scope(self) -> None:
        self._scopes.pop()

    def _mark(self, name: str, is_set: bool) -> None:
        self._scopes[-1][name] = is_set

    def _is_set_name(self, name: str) -> bool:
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        return False

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_scope()
        self.generic_visit(node)
        self._exit_scope()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_scope()
        self.generic_visit(node)
        self._exit_scope()

    # -- set-expression classification ---------------------------------
    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in self._SET_CALLS
        if isinstance(node, ast.Name):
            return self._is_set_name(node.id)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            # set algebra (| & - ^) keeps set-ness if either side is one
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        is_set = self._is_set_expr(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self._mark(target.id, is_set)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            ann = node.annotation
            ann_name = _dotted_name(ann) if not isinstance(ann, ast.Subscript) else (
                _dotted_name(ann.value)
            )
            by_annotation = ann_name is not None and ann_name.rsplit(".", 1)[
                -1
            ] in ("set", "Set", "frozenset", "FrozenSet")
            by_value = node.value is not None and self._is_set_expr(node.value)
            self._mark(node.target.id, by_annotation or by_value)
        self.generic_visit(node)

    # -- the actual checks ---------------------------------------------
    def _check_iterable(self, node: ast.AST, where: str) -> None:
        if self._is_set_expr(node):
            self.report(
                node,
                f"{where} iterates a set in hash order; wrap it in "
                "sorted(...) to fix the ordering",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter, "for loop")
        self.generic_visit(node)

    def _visit_comp(self, node: ast.AST) -> None:
        for gen in getattr(node, "generators", []):
            self._check_iterable(gen.iter, "comprehension")
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_GeneratorExp = _visit_comp
    visit_DictComp = _visit_comp

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # building a *new* set from a set is order-free; only flag when
        # the result is itself iterated (handled where it is consumed)
        self.generic_visit(node)


# ----------------------------------------------------------------------
# D004 — float equality in routing / index math
# ----------------------------------------------------------------------
@register
class FloatEqualityRule(LintRule):
    """``==``/``!=`` against float literals is a correctness smell.

    Key-range boundaries, distances and rates are accumulated floats;
    exact comparison makes behaviour depend on summation order and
    platform rounding.  Compare with a tolerance, or suppress inline
    when the literal is a genuine sentinel.
    """

    code = "D004"
    title = "float == / != comparison in chord/core"

    @classmethod
    def applies_to(cls, path: str) -> bool:
        return not is_test_path(path) and _in_packages(path, ("chord", "core"))

    @staticmethod
    def _is_float_literal(node: ast.AST) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return True
        if isinstance(node, ast.UnaryOp) and isinstance(
            node.op, (ast.USub, ast.UAdd)
        ):
            return FloatEqualityRule._is_float_literal(node.operand)
        return False

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for i, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if self._is_float_literal(operands[i]) or self._is_float_literal(
                operands[i + 1]
            ):
                self.report(
                    node,
                    "float equality comparison; use a tolerance or an "
                    "integer/sentinel representation",
                )
                break
        self.generic_visit(node)


# ----------------------------------------------------------------------
# D005 — message kinds must come from the protocol registry
# ----------------------------------------------------------------------
@register
class UnknownKindRule(LintRule):
    """Message kinds must be declared in ``core/protocol.py``.

    Every Fig. 6–8 metric is an aggregation over message *kinds*; an
    invented kind string would flow through :meth:`Network.hop` but fall
    outside every figure component — traffic silently escaping the
    paper's accounting.
    """

    code = "D005"
    title = "message kind not declared in the protocol registry"

    _KIND_KEYWORDS = ("kind", "transit_kind", "span_kind")

    @staticmethod
    def _known_kinds() -> Set[str]:
        from ..core.protocol import KNOWN_KINDS

        return set(KNOWN_KINDS)

    def visit_Module(self, node: ast.Module) -> None:
        # module-level constants, so `Message(kind=NAME)` resolves even
        # when the code aliases a kind string
        self._module_strs = str_constants(node.body)
        self.generic_visit(node)

    def _kind_value(self, node: ast.AST) -> Optional[Tuple[str, str]]:
        """``(kind, how)`` when the expression statically names a kind."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value, "literal"
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "KIND"
        ):
            from ..core.protocol import KIND

            value = getattr(KIND, node.attr, None)
            if isinstance(value, str):
                return value, "attribute"
            return f"KIND.{node.attr}", "missing-attribute"
        if isinstance(node, ast.Name) and node.id in self._module_strs:
            return self._module_strs[node.id], "constant"
        return None

    def _check_kind_expr(self, node: ast.AST) -> None:
        resolved = self._kind_value(node)
        if resolved is None:
            return
        kind, how = resolved
        if how == "missing-attribute":
            self.report(node, f"`{kind}` is not defined on the KIND registry")
            return
        if kind not in self._known_kinds():
            self.report(
                node,
                f"message kind {kind!r} is not declared in "
                "repro.core.protocol.KNOWN_KINDS; traffic under it would "
                "escape the paper's accounting",
            )

    def visit_Call(self, node: ast.Call) -> None:
        func_name = _dotted_name(node.func) or ""
        tail = func_name.rsplit(".", 1)[-1]
        if tail == "derive" and node.args:
            # Message.derive(kind, ...) takes the kind positionally
            self._check_kind_expr(node.args[0])
        for kw in node.keywords:
            if kw.arg in self._KIND_KEYWORDS:
                self._check_kind_expr(kw.value)
        self.generic_visit(node)


# ----------------------------------------------------------------------
# D006 — mutable defaults on payload dataclasses
# ----------------------------------------------------------------------
@register
class MutableDefaultRule(LintRule):
    """Dataclass fields must not share mutable default instances.

    ``dataclasses`` rejects plain ``list``/``dict``/``set`` defaults but
    happily shares a single ``deque()``, ``Counter()`` or ``np.zeros``
    instance across every payload — one receiver mutating its message
    then mutates everyone's.  Use ``field(default_factory=...)``.
    """

    code = "D006"
    title = "mutable default on a dataclass field"

    _IMMUTABLE_CALLS = {"float", "int", "str", "bool", "bytes", "tuple", "frozenset"}

    @staticmethod
    def _is_dataclass(node: ast.ClassDef) -> bool:
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            name = _dotted_name(target) or ""
            if name.rsplit(".", 1)[-1] == "dataclass":
                return True
        return False

    def _flag_default(self, stmt: ast.AnnAssign, value: ast.AST) -> None:
        if isinstance(value, (ast.List, ast.Dict, ast.Set)):
            self.report(stmt, "mutable literal default; use field(default_factory=...)")
            return
        if isinstance(value, ast.Call):
            name = _dotted_name(value.func) or ""
            tail = name.rsplit(".", 1)[-1]
            if tail == "field":
                for kw in value.keywords:
                    if kw.arg == "default" and (
                        isinstance(kw.value, (ast.List, ast.Dict, ast.Set, ast.Call))
                    ):
                        self.report(
                            stmt,
                            "field(default=...) with a mutable value; use "
                            "field(default_factory=...)",
                        )
                return
            if tail not in self._IMMUTABLE_CALLS:
                self.report(
                    stmt,
                    f"default constructed by `{name}()` is shared across "
                    "instances; use field(default_factory=...)",
                )

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._is_dataclass(node):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    self._flag_default(stmt, stmt.value)
        self.generic_visit(node)


# ----------------------------------------------------------------------
# D007 — protocol registry and @handles dispatch must stay in sync
# ----------------------------------------------------------------------
@register
class ProtocolRegistryRule(LintRule):
    """Payload metadata and handler registration must agree with the registry.

    Delivery policy (dedup, acks) lives on each payload type's
    ``@payload(...)`` registration in ``core/protocol.py``; the runtime,
    the invariant checker and the docs all read that one registry.  Two
    kinds of drift would silently undermine it:

    * a payload dataclass added to ``core/protocol.py`` without
      ``@payload(...)`` metadata — it would fall into the
      unknown-payload fallback with no declared policy;
    * an ``@handles(X)`` registration naming a class that is not a
      registered payload type — the handler could never fire (the
      runtime's handler map also rejects this at import; the rule
      catches it without importing anything).
    """

    code = "D007"
    title = "protocol registry / @handles dispatch drift"

    #: dataclasses in core/protocol.py that are not wire payloads
    _EXEMPT_DATACLASSES = {"PayloadSpec"}

    @staticmethod
    def _registered_payload_names() -> Set[str]:
        from ..core.protocol import PAYLOAD_REGISTRY

        return {cls.__name__ for cls in PAYLOAD_REGISTRY}

    def _is_protocol_module(self) -> bool:
        return self.path.replace("\\", "/").endswith("core/protocol.py")

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._is_protocol_module():
            deco_tails = set()
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                name = _dotted_name(target) or ""
                deco_tails.add(name.rsplit(".", 1)[-1])
            if (
                "dataclass" in deco_tails
                and "payload" not in deco_tails
                and node.name not in self._EXEMPT_DATACLASSES
            ):
                self.report(
                    node,
                    f"payload dataclass `{node.name}` declares no "
                    "@payload(...) registry metadata (kind / dedup / ack "
                    "policy)",
                )
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        for deco in node.decorator_list:
            if not isinstance(deco, ast.Call):
                continue
            name = _dotted_name(deco.func) or ""
            if name.rsplit(".", 1)[-1] != "handles":
                continue
            if not deco.args:
                self.report(deco, "@handles(...) names no payload type")
                continue
            arg_name = _dotted_name(deco.args[0])
            if arg_name is None:
                self.report(
                    deco,
                    "@handles argument must be a payload class name so the "
                    "registry link is statically checkable",
                )
                continue
            if arg_name.rsplit(".", 1)[-1] not in self._registered_payload_names():
                self.report(
                    deco,
                    f"@handles({arg_name}) references a type not registered "
                    "in the protocol registry",
                )
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]


# ----------------------------------------------------------------------
# D011 — silent exception swallowing inside the simulated world
# ----------------------------------------------------------------------
@register
class SilentExceptionRule(LintRule):
    """No bare ``except:`` or swallowed ``except Exception:`` in sim code.

    The simulated world is deterministic by construction, so an
    exception there is a *logic bug*, never an environmental hiccup to
    shrug off.  A bare ``except:`` (which also eats ``KeyboardInterrupt``
    and ``SystemExit``) or an ``except Exception: pass`` turns that bug
    into silently corrupted protocol state — messages half-applied,
    counters off by one — that surfaces runs later as an invariant
    violation nobody can trace.  Catch a *specific* exception, or handle
    the broad one visibly (re-raise, record, or repair state, as
    ``chord/stabilize.py`` does).
    """

    code = "D011"
    title = "silently swallowed exception in sim/chord/core"

    _BROAD_NAMES = {"Exception", "BaseException"}

    @classmethod
    def applies_to(cls, path: str) -> bool:
        return not is_test_path(path) and _in_packages(path, _SIM_WORLD)

    @staticmethod
    def _is_noop_body(body: List[ast.stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, ast.Pass):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, ast.Constant
            ):
                # bare `...` or a docstring-style literal — still a no-op
                continue
            return False
        return True

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(
                node,
                "bare `except:` swallows every exception including "
                "KeyboardInterrupt; catch a specific exception type",
            )
        else:
            name = _dotted_name(node.type) or ""
            if (
                name.rsplit(".", 1)[-1] in self._BROAD_NAMES
                and self._is_noop_body(node.body)
            ):
                self.report(
                    node,
                    f"`except {name}:` with a no-op body silently discards "
                    "a logic bug; handle it visibly or catch a specific "
                    "exception type",
                )
        self.generic_visit(node)


# ----------------------------------------------------------------------
# D014 — undocumented dict-state bound inside chord/
# ----------------------------------------------------------------------
@register
class UnboundedNodeDictRule(LintRule):
    """Dict state seeded in ``chord/`` must document what bounds it.

    Everything in ``chord/`` is instantiated once per node (or once per
    ring shared by every node), so a mapping whose key domain is
    workload-sized — keys looked up, messages seen, queries routed —
    multiplies by N and grows for the life of the run.  That is exactly
    how the old per-key routing memo came to dominate peak RSS at
    N = 5000: ~40 k entries *per node*, ~2 M total, for a cache that
    still missed 85 % of lookups (PERFORMANCE.md §11).  Dicts keyed by
    ring membership are fine — they cannot outgrow N — but the reader
    (and this rule) cannot tell the two apart from the seed expression
    alone.  So: every ``self.<attr>`` assignment that seeds a dict
    (``{}``, ``dict()``, ``defaultdict(...)``) must carry a comment on
    the same line or within the three lines above naming the bound —
    any comment containing "bounded" or "capped" satisfies the rule,
    e.g. ``#: bounded: one entry per live member node``.  State that
    cannot honestly claim a bound should be keyed by routing state
    (epoch-invalidated, like the arc memo) or evicted explicitly.
    """

    code = "D014"
    title = "undocumented dict-state bound inside chord/"

    _WITNESS = ("bounded", "capped")

    @classmethod
    def applies_to(cls, path: str) -> bool:
        return not is_test_path(path) and _in_packages(path, ("chord",))

    def _has_bound_witness(self, lineno: int) -> bool:
        lo = max(0, lineno - 4)  # the seed line plus three lines above
        for line in self._source_lines[lo:lineno]:
            if "#" in line:
                comment = line.split("#", 1)[1].lower()
                if any(word in comment for word in self._WITNESS):
                    return True
        return False

    def _seeds_dict(self, value: ast.expr) -> bool:
        for node in ast.walk(value):
            if isinstance(node, ast.Dict) and not node.keys:
                return True
            if isinstance(node, ast.Call):
                name = _dotted_name(node.func)
                if name == "dict" and not node.args and not node.keywords:
                    return True
                if name in ("defaultdict", "collections.defaultdict"):
                    return True
        return False

    def _check(self, node: ast.AST, target: ast.expr, value: ast.expr) -> None:
        if not isinstance(target, ast.Attribute):
            return
        if not (isinstance(target.value, ast.Name) and target.value.id == "self"):
            return
        if not self._seeds_dict(value):
            return
        if self._has_bound_witness(getattr(node, "lineno", 1)):
            return
        self.report(
            node,
            f"dict state `self.{target.attr}` has no documented bound; "
            "per-node mappings in chord/ multiply by N — add a comment "
            "naming the bound (\"bounded: ...\"/\"capped: ...\") or key "
            "it by epoch-invalidated routing state",
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check(node, target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check(node, node.target, node.value)
        self.generic_visit(node)
