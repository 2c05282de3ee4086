"""Static analysis and runtime invariant checking.

Two halves, one contract (DESIGN.md §7):

* :mod:`repro.analysis.linter` — **simlint**, an AST-based linter that
  machine-checks the determinism and protocol conventions the
  reproduction's headline guarantees rest on, as rules D001–D014
  (:mod:`repro.analysis.rules`, DESIGN.md §7): randomness, wall clocks,
  perf timers, processes, raw sends, network primitives and mapping
  writes stay in their sanctioned homes; no hash-order iteration, float
  ``==``, unregistered message kinds, shared mutable defaults,
  registry / ``@handles`` drift, swallowed exceptions or unbounded
  per-node dicts.  **simflow** (:mod:`repro.analysis.flow`, DESIGN.md
  §11) checks the protocol across files as rules F001–F005.

* :mod:`repro.analysis.invariants` — assertable runtime predicates for
  Chord ring health, index-state placement, message conservation and
  registry-driven delivery policy, exposed as :func:`check_invariants`
  / :func:`assert_invariants`, the ``--check-invariants`` CLI flag and
  a pytest fixture.

Run them with ``python -m repro lint [paths]`` and ``python -m repro
flow [paths]``; both exit 1 on any finding.
"""

from .findings import Finding, format_finding
from .flow import (
    FLOW_RULES,
    analyze_flow,
    build_flow_graph,
    check_flow,
    render_flow_table,
)
from .flowgraph import (
    HandlerSite,
    MessageFlowGraph,
    MutationSite,
    PayloadDecl,
    SendSite,
)
from .invariants import (
    InvariantReport,
    Violation,
    assert_invariants,
    check_delivery_policy,
    check_index_placement,
    check_invariants,
    check_message_conservation,
    check_physical_ownership,
    check_ring,
)
from .linter import lint_paths
from .rules import RULES

__all__ = [
    "Finding",
    "format_finding",
    "lint_paths",
    "RULES",
    "FLOW_RULES",
    "analyze_flow",
    "build_flow_graph",
    "check_flow",
    "render_flow_table",
    "MessageFlowGraph",
    "PayloadDecl",
    "SendSite",
    "HandlerSite",
    "MutationSite",
    "Violation",
    "InvariantReport",
    "check_ring",
    "check_physical_ownership",
    "check_index_placement",
    "check_message_conservation",
    "check_delivery_policy",
    "check_invariants",
    "assert_invariants",
]
