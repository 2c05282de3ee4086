"""The simlint engine: file collection, parsing, suppression, ordering.

The engine walks the requested paths, parses each ``.py`` file once,
runs every rule whose scope covers the file, drops findings silenced by
inline suppressions, and returns the remainder sorted by
``(path, line, col, rule)``.

Suppression syntax::

    x = msg.born == 0.0  # simlint: disable=D004 unset sentinel
    # simlint: disable-file=D001,D003   (anywhere at module top level)

A per-line comment silences the listed rules on that line only; a
``disable-file`` comment silences them for the whole file.  ``disable=all``
is accepted in both forms.  The comma-separated code list ends at the
first token that is neither a rule code nor ``all``, so commentary may
follow it.
"""

from __future__ import annotations

import ast
import re
import tokenize
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Set, Tuple, Union

from .findings import Finding
from .rules import RULES

__all__ = ["lint_paths", "lint_file", "parse_file", "collect_files"]

PathLike = Union[str, Path]

#: one suppressed code: a rule code such as ``D004``, or ``all``
_CODE = r"(?i:[a-z]\d{3}|all)\b"
_SUPPRESS_RE = re.compile(
    rf"#\s*simlint:\s*(disable(?:-file)?)\s*=\s*({_CODE}(?:\s*,\s*{_CODE})*)"
)


def collect_files(paths: Sequence[PathLike]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Hidden directories and ``__pycache__`` are skipped; explicit file
    arguments are taken as-is.
    """
    out: Set[Path] = set()
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            for child in p.rglob("*.py"):
                parts = child.relative_to(p).parts
                if any(
                    part == "__pycache__" or part.startswith(".")
                    for part in parts
                ):
                    continue
                out.add(child)
        elif p.suffix == ".py":
            out.add(p)
    return sorted(out)


def _parse_suppressions(
    source: str,
) -> Tuple[Dict[int, Set[str]], Set[str]]:
    """``(per-line, file-wide)`` suppressed rule codes.

    Comments are found with :mod:`tokenize` rather than substring search
    so that a suppression marker inside a string literal is inert.
    """
    per_line: Dict[int, Set[str]] = {}
    file_wide: Set[str] = set()
    try:
        tokens = tokenize.generate_tokens(iter(source.splitlines(True)).__next__)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if match is None:
                continue
            codes = {code.strip().upper() for code in match.group(2).split(",")}
            if match.group(1) == "disable-file":
                file_wide |= codes
            else:
                per_line.setdefault(tok.start[0], set()).update(codes)
    except tokenize.TokenError:
        pass  # a parse error will be reported by lint_file anyway
    return per_line, file_wide


def _is_suppressed(
    finding: Finding,
    per_line: Dict[int, Set[str]],
    file_wide: Set[str],
) -> bool:
    def covers(codes: Set[str]) -> bool:
        return finding.rule in codes or "ALL" in codes

    if covers(file_wide):
        return True
    return covers(per_line.get(finding.line, set()))


def parse_file(path: PathLike) -> Union[Tuple[str, ast.Module], Finding]:
    """``(source, tree)`` of one file, or the ``E000`` finding it earns.

    Shared by simlint and simflow: an unreadable or syntactically
    invalid file is reported, never raised.
    """
    path_str = str(path)
    try:
        source = Path(path).read_text()
        return source, ast.parse(source, filename=path_str)
    except OSError as exc:
        message, line, col = f"cannot read file: {exc}", 1, 0
    except SyntaxError as exc:
        message = f"syntax error: {exc.msg}"
        line, col = exc.lineno or 1, exc.offset or 0
    return Finding(rule="E000", path=path_str, line=line, col=col, message=message)


def lint_file(path: PathLike) -> List[Finding]:
    """Run every applicable rule over one file."""
    path_str = str(Path(path))
    parsed = parse_file(path_str)
    if isinstance(parsed, Finding):
        return [parsed]
    source, tree = parsed
    source_lines = source.splitlines()
    per_line, file_wide = _parse_suppressions(source)

    findings: List[Finding] = []
    for rule_cls in RULES.values():
        if not rule_cls.applies_to(path_str):
            continue
        rule = rule_cls(path_str, source_lines)
        for finding in rule.run(tree):
            if not _is_suppressed(finding, per_line, file_wide):
                findings.append(finding)
    return findings


def lint_paths(paths: Iterable[PathLike]) -> List[Finding]:
    """Lint files/directories; findings sorted by (path, line, col, rule)."""
    findings: List[Finding] = []
    for path in collect_files(list(paths)):
        findings.extend(lint_file(path))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
