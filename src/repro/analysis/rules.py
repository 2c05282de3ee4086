"""The simlint rule catalog (D001–D014).

Each rule is an :class:`ast.NodeVisitor` with a code, a one-line title,
and a path scope.  Rules are registered in :data:`RULES` by the
``@register`` decorator; the engine (:mod:`repro.analysis.linter`)
instantiates every applicable rule per file and feeds it the parsed
tree.  The catalog, with rationale and examples, is documented in
DESIGN.md §7.

Scopes follow the determinism contract rather than blanket coverage:
wall-clock and hash-order rules (D002/D003) only bind inside the
simulated world (``sim``/``chord``/``core``), float-equality (D004)
inside routing and index math (``chord``/``core``), while RNG hygiene
(D001), kind registration (D005), payload-default safety (D006) and
registry/dispatch coherence (D007) apply everywhere outside test code;
performance-timer containment (D008) applies everywhere except the
sanctioned measurement homes (``repro/perf`` and ``benchmarks``) and
process-spawn containment (D009) everywhere except ``benchmarks``, the
simulator being single-process; raw-send
containment (D010) binds inside ``chord``/``core`` outside the
overlay/runtime/reliable modules that *are* the sanctioned send path;
silent exception swallowing (D011) binds inside the simulated world
(``sim``/``chord``/``core``) where a dropped error means silently
corrupted protocol state rather than a visible crash; real-network
primitive containment (D012) bans ``socket``/``asyncio``/``threading``
imports everywhere except ``repro/net``, the transport seam's home;
mapping-mutation containment (D013) binds inside the simulated world
outside ``core/mapping.py``/``core/system.py``, the sanctioned remap
entry points (DESIGN.md §13); dict-state bound documentation (D014)
binds inside ``chord``, where per-node mappings multiply by N and an
undocumented key domain is how the N=5000 run once spent 60 % of its
RSS on a routing memo (PERFORMANCE.md §11).
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from typing import Dict, Iterator, List, Optional, Set, Tuple, Type

from .findings import Finding

__all__ = ["LintRule", "RULES", "register", "all_rule_codes"]

RULES: Dict[str, Type["LintRule"]] = {}


def register(cls: Type["LintRule"]) -> Type["LintRule"]:
    """Class decorator adding a rule to the :data:`RULES` registry."""
    if not cls.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if cls.code in RULES:
        raise ValueError(f"duplicate rule code {cls.code}")
    RULES[cls.code] = cls
    return cls


def all_rule_codes() -> List[str]:
    """Sorted codes of every registered rule."""
    return sorted(RULES)


# ----------------------------------------------------------------------
# path scoping helpers
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
        line = getattr(node, "lineno", 1)
        text = ""
        if 1 <= line <= len(self._source_lines):
            text = self._source_lines[line - 1].strip()
        self.findings.append(
            Finding(
                rule=self.code,
                path=self.path,
                line=line,
                col=getattr(node, "col_offset", 0),
                message=message,
                line_text=text,
            )
        )

    def run(self, tree: ast.Module) -> Iterator[Finding]:
        """Visit the tree and yield this rule's findings."""
        self.visit(tree)
        return iter(self.findings)


# ----------------------------------------------------------------------
# D001 — raw / global RNG use
# ----------------------------------------------------------------------
@register
class RawRngRule(LintRule):
    """Randomness must flow through named ``RngRegistry`` substreams.

    ``import random``, ``np.random.seed`` and ad-hoc
    ``np.random.default_rng(...)`` construction create streams outside
    the single-root-seed derivation, breaking the "a run is a pure
    function of (config, seed)" guarantee and the variance isolation
    the parameter sweeps rely on.  Only :mod:`repro.sim.rng` itself may
    construct generators.
    """

    code = "D001"
    title = "raw RNG construction outside sim/rng.py"

    _BANNED_SUFFIXES = (
        "np.random.seed",
        "np.random.default_rng",
        "np.random.RandomState",
        "numpy.random.seed",
        "numpy.random.default_rng",
        "numpy.random.RandomState",
        "random.seed",
    )

    @classmethod
    def applies_to(cls, path: str) -> bool:
        if is_test_path(path):
            return False
        # The registry itself is the one sanctioned construction site.
        return not path.replace("\\", "/").endswith("sim/rng.py")

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random" or alias.name.startswith("random."):
                self.report(
                    node,
                    "import of the global `random` module; draw from a "
                    "named RngRegistry substream instead",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            self.report(
                node,
                "import from the global `random` module; draw from a "
                "named RngRegistry substream instead",
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        if dotted is not None:
            for banned in self._BANNED_SUFFIXES:
                if dotted == banned or dotted.endswith("." + banned):
                    self.report(
                        node,
                        f"call to `{dotted}` constructs an unmanaged RNG; "
                        "use a named RngRegistry substream",
                    )
                    break
        self.generic_visit(node)


# ----------------------------------------------------------------------
# D002 — wall-clock access inside the simulated world
# ----------------------------------------------------------------------
@register
class WallClockRule(LintRule):
    """Simulated components must use ``Simulator.now``, never real time.

    A wall-clock read makes behaviour depend on host speed and run
    timing — the exact nondeterminism a discrete-event simulation
    exists to remove.
    """

    code = "D002"
    title = "wall-clock access in sim/chord/core"

    _BANNED_CALLS = (
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
    )
    _BANNED_FROM_IMPORTS = {
        "time": {
            "time",
            "time_ns",
            "monotonic",
            "monotonic_ns",
            "perf_counter",
            "perf_counter_ns",
            "process_time",
        },
    }

    @classmethod
    def applies_to(cls, path: str) -> bool:
        return not is_test_path(path) and _in_packages(
            path, ("sim", "chord", "core")
        )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        banned = self._BANNED_FROM_IMPORTS.get(node.module or "", set())
        for alias in node.names:
            if alias.name in banned:
                self.report(
                    node,
                    f"import of wall-clock `{node.module}.{alias.name}`; "
                    "simulated code must use Simulator.now",
                )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        if dotted is not None:
            for banned in self._BANNED_CALLS:
                if dotted == banned or dotted.endswith("." + banned):
                    self.report(
                        node,
                        f"wall-clock call `{dotted}`; simulated code must "
                        "use Simulator.now",
                    )
                    break
        self.generic_visit(node)


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
        return not is_test_path(path) and _in_packages(
            path, ("sim", "chord", "core")
        )

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

    def __init__(self, path: str, source_lines: List[str]) -> None:
        super().__init__(path, source_lines)
        self._module_strs: Dict[str, str] = {}

    @staticmethod
    def _known_kinds() -> Set[str]:
        from ..core.protocol import KNOWN_KINDS

        return set(KNOWN_KINDS)

    def visit_Module(self, node: ast.Module) -> None:
        # module-level NAME = "literal" constants, so `Message(kind=NAME)`
        # resolves even when the code aliases a kind string
        for stmt in node.body:
            if (
                isinstance(stmt, ast.Assign)
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)
            ):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self._module_strs[target.id] = stmt.value.value
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
      dispatch table also rejects this at construction; the rule
      catches it before anything runs).
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
# D008 — performance timers only in the perf layer and benchmarks
# ----------------------------------------------------------------------
@register
class PerfTimerContainmentRule(LintRule):
    """Wall-clock *performance* timers live in ``repro/perf`` and ``benchmarks``.

    D002 keeps wall clocks out of the simulated world (``sim`` / ``chord``
    / ``core``); this rule covers the rest of the tree.  Measurement code
    scattered through analysis or CLI layers drifts: numbers get produced
    outside the schema-versioned bench report and outside the regression
    gate.  ``time.perf_counter`` / ``time.process_time`` (and ``_ns``
    variants) are therefore contained to the two sanctioned homes — the
    :mod:`repro.perf` harness and the ``benchmarks/`` suite — so every
    timing claim in the repo flows through one measured, comparable path
    (PERFORMANCE.md).
    """

    code = "D008"
    title = "perf timer outside repro/perf and benchmarks"

    _BANNED_CALLS = (
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
    )
    _BANNED_FROM_TIME = {
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
    }

    @classmethod
    def applies_to(cls, path: str) -> bool:
        if is_test_path(path):
            return False
        # sim/chord/core are D002's territory (any wall clock, not just
        # perf timers); flagging them here too would double-report.
        if _in_packages(path, ("sim", "chord", "core")):
            return False
        return not _in_packages(path, ("perf", "benchmarks"))

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time":
            for alias in node.names:
                if alias.name in self._BANNED_FROM_TIME:
                    self.report(
                        node,
                        f"import of perf timer `time.{alias.name}`; timing "
                        "belongs in repro/perf or benchmarks/ "
                        "(see PERFORMANCE.md)",
                    )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        if dotted is not None:
            for banned in self._BANNED_CALLS:
                if dotted == banned or dotted.endswith("." + banned):
                    self.report(
                        node,
                        f"perf timer call `{dotted}` outside repro/perf and "
                        "benchmarks/; route measurement through "
                        "benchmarks/suite",
                    )
                    break
        self.generic_visit(node)


# ----------------------------------------------------------------------
# D009 — no process spawning in the source tree
# ----------------------------------------------------------------------
@register
class ProcessSpawnContainmentRule(LintRule):
    """The simulator is single-process: nothing under ``src/`` forks.

    Every figure is a message count from one deterministic event loop,
    and a serial run finishes in seconds, so there is nothing to gain
    from fanning one run out.  A ``multiprocessing`` import or
    ``os.fork`` would bring back exactly the nondeterminism this
    codebase exists to exclude — completion-order merges, shared-state
    mutation across forks, RNG streams split outside the per-run
    registries.  Parallelism belongs *across* runs, in ``benchmarks/``
    (and tests), which are the only exempt paths.
    """

    code = "D009"
    title = "process spawning in the single-process simulator"

    _BANNED_MODULES = {"multiprocessing"}
    _BANNED_CALLS = ("os.fork", "os.forkpty")
    _BANNED_OS_NAMES = {"fork", "forkpty"}
    _HINT = "the simulator is single-process; parallelise across runs in benchmarks/"

    @classmethod
    def applies_to(cls, path: str) -> bool:
        if is_test_path(path):
            return False
        return not _in_packages(path, ("benchmarks",))

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name.split(".")[0] in self._BANNED_MODULES:
                self.report(node, f"import of `{alias.name}`: {self._HINT}")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if module.split(".")[0] in self._BANNED_MODULES:
            self.report(node, f"import from `{module}`: {self._HINT}")
        elif module == "os":
            for alias in node.names:
                if alias.name in self._BANNED_OS_NAMES:
                    self.report(node, f"import of `os.{alias.name}`: {self._HINT}")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        if dotted is not None:
            for banned in self._BANNED_CALLS:
                if dotted == banned or dotted.endswith("." + banned):
                    self.report(node, f"process fork `{dotted}`: {self._HINT}")
                    break
        self.generic_visit(node)


# ----------------------------------------------------------------------
# D010 — raw network transmission outside the overlay/runtime layer
# ----------------------------------------------------------------------
@register
class RawNetworkSendRule(LintRule):
    """Physical sends go through the overlay / reliable / dispatch path.

    Every message the simulated fabric carries must be observable by
    the reliability layer (retransmission, dead-letter accounting) and
    the dispatch layer (dedup, acks) — that is what makes the
    availability figures trustworthy and the replication subsystem's
    at-most-once installs sound.  A direct ``*.network.hop(...)`` or
    ``*.network.local(...)`` call anywhere else creates traffic those
    layers never see.  Sanctioned homes: :mod:`repro.sim` (the fabric
    itself), :mod:`repro.chord.dht` (the overlay's routing primitives),
    :mod:`repro.core.runtime` and :mod:`repro.core.reliable` (dispatch
    and retry).  Anything else routes via
    ``NodeRuntime.reliable_route`` / ``DhtOverlay.route`` /
    ``DhtOverlay.send_direct``, or carries an inline justification.
    """

    code = "D010"
    title = "raw network send outside the overlay/runtime layer"

    _BANNED_SUFFIXES = ("network.hop", "network.local")
    _SANCTIONED = ("core/runtime.py", "core/reliable.py", "chord/dht.py")

    @classmethod
    def applies_to(cls, path: str) -> bool:
        if is_test_path(path):
            return False
        if not _in_packages(path, ("sim", "chord", "core")):
            return False
        if _in_packages(path, ("sim",)):
            return False  # the fabric's own implementation
        normalized = "/".join(_parts(path))
        return not any(normalized.endswith(s) for s in cls._SANCTIONED)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        if dotted is not None:
            for suffix in self._BANNED_SUFFIXES:
                if dotted == suffix or dotted.endswith("." + suffix):
                    self.report(
                        node,
                        f"raw network send `{dotted}(...)` bypasses the "
                        "reliable/dispatch path; route via "
                        "NodeRuntime.reliable_route or the DhtOverlay "
                        "primitives",
                    )
                    break
        self.generic_visit(node)


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
        return not is_test_path(path) and _in_packages(
            path, ("sim", "chord", "core")
        )

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
# D012 — real-network primitives only inside repro/net
# ----------------------------------------------------------------------
@register
class NetworkPrimitiveContainmentRule(LintRule):
    """``socket`` / ``asyncio`` / ``threading`` live in ``repro/net`` only.

    The transport seam (:mod:`repro.net.transport`) exists so that every
    role service, the reliable sender and the runtime are portable
    between the deterministic simulator and the asyncio peer runtime —
    which holds only if nothing outside :mod:`repro.net` touches real
    I/O or concurrency primitives.  A ``socket`` import in a role
    service would hard-wire it to one transport; an ``asyncio`` or
    ``threading`` import introduces wall-clock scheduling and
    interleaving the simulator cannot replay, silently voiding the
    byte-identity guarantee the sweep results rest on.  Talk to
    :class:`repro.net.transport.Transport` instead, or put genuinely
    transport-specific code under ``repro/net``.
    """

    code = "D012"
    title = "socket/asyncio/threading import outside repro/net"

    _BANNED_MODULES = {"socket", "asyncio", "threading"}

    @classmethod
    def applies_to(cls, path: str) -> bool:
        if is_test_path(path):
            return False
        return not _in_packages(path, ("net",))

    def _flag(self, node: ast.AST, module: str) -> None:
        self.report(
            node,
            f"import of `{module}` outside repro/net/; role services and "
            "runtime code talk to the Transport seam "
            "(repro.net.transport.Transport), transport-specific code "
            "belongs under repro/net/",
        )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name.split(".")[0] in self._BANNED_MODULES:
                self._flag(node, alias.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if module.split(".")[0] in self._BANNED_MODULES:
            self._flag(node, module)
        self.generic_visit(node)


# ----------------------------------------------------------------------
# D013 — mapping-state mutation outside sanctioned remap entry points
# ----------------------------------------------------------------------
@register
class MappingMutationRule(LintRule):
    """The key mapping is read-only outside its sanctioned homes.

    The mapping (DESIGN.md §13) is *shared routing state*: every
    source, client and holder derives keys from ``system.mapper``.  A
    rogue ``*.refit(...)`` call (``AdaptiveQuantileMapper``'s epoch
    bump) or a direct write to ``*.mapper`` / ``*._epochs`` /
    ``*._edges`` re-keys the ring under already-stored MBRs, so they
    silently become unreachable to new queries — routing still
    succeeds, it just lands somewhere the data isn't.  Sanctioned
    homes: :mod:`repro.core.mapping` (the mappers themselves) and
    :mod:`repro.core.system` (mapper construction).  Everything else
    treats the mapper as read-only.
    """

    code = "D013"
    title = "mapping-state mutation outside sanctioned remap entry points"

    _BANNED_CALL_SUFFIXES = ("refit",)
    _BANNED_TARGET_SUFFIXES = ("mapper", "_epochs", "_edges")
    _SANCTIONED = ("core/mapping.py", "core/system.py")

    @classmethod
    def applies_to(cls, path: str) -> bool:
        if is_test_path(path):
            return False
        if not _in_packages(path, ("sim", "chord", "core")):
            return False
        normalized = "/".join(_parts(path))
        return not any(normalized.endswith(s) for s in cls._SANCTIONED)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        if dotted is not None:
            for suffix in self._BANNED_CALL_SUFFIXES:
                if dotted == suffix or dotted.endswith("." + suffix):
                    self.report(
                        node,
                        f"direct remap `{dotted}(...)` re-keys the ring "
                        "under already-stored MBRs; only core/mapping.py "
                        "and core/system.py may change the mapping",
                    )
                    break
        self.generic_visit(node)

    def _check_target(self, node: ast.AST, target: ast.expr) -> None:
        if not isinstance(target, ast.Attribute):
            return
        dotted = _dotted_name(target)
        if dotted is None:
            return
        for suffix in self._BANNED_TARGET_SUFFIXES:
            if dotted.endswith("." + suffix):
                self.report(
                    node,
                    f"write to mapping state `{dotted}` outside the "
                    "sanctioned remap entry points (core/mapping.py, "
                    "core/system.py); the mapper is read-only shared "
                    "routing state everywhere else",
                )
                return

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(node, target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node, node.target)
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
