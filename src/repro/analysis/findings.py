"""Finding records produced by simlint and simflow.

A finding pins a rule violation to a file and line.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Finding", "format_finding"]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Attributes
    ----------
    rule:
        The rule code, e.g. ``"D001"``.
    path:
        Path of the offending file, as given to the linter.
    line / col:
        1-based line and 0-based column of the flagged AST node.
    message:
        Human-readable explanation of the violation.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str


def format_finding(finding: Finding) -> str:
    """Render one finding in ``path:line:col: CODE message`` form."""
    return (
        f"{finding.path}:{finding.line}:{finding.col}: "
        f"{finding.rule} {finding.message}"
    )
