"""Engine-level tests: suppressions and the lint CLI."""

import io
import textwrap
from pathlib import Path

from repro.analysis import lint_paths
from repro.analysis.linter import collect_files, lint_file
from repro.cli import main


def write(tmp_path, relpath, source):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


VIOLATION = "import numpy as np\nrng = np.random.default_rng(0)\n"


# ------------------------------------------------------------ engine
def test_collect_files_skips_caches(tmp_path):
    keep = write(tmp_path, "pkg/mod.py", "x = 1\n")
    write(tmp_path, "pkg/__pycache__/mod.cpython-312.py", "x = 1\n")
    write(tmp_path, "pkg/.hidden/secret.py", "x = 1\n")
    write(tmp_path, "pkg/data.txt", "not python\n")
    assert collect_files([tmp_path]) == [keep]


def test_syntax_error_reported_not_raised(tmp_path):
    path = write(tmp_path, "pkg/broken.py", "def f(:\n")
    findings = lint_file(path)
    assert [f.rule for f in findings] == ["E000"]
    assert "syntax error" in findings[0].message


def test_findings_sorted_across_files(tmp_path):
    write(tmp_path, "b/late.py", VIOLATION)
    write(tmp_path, "a/early.py", VIOLATION)
    findings = lint_paths([tmp_path])
    assert [f.path for f in findings] == sorted(f.path for f in findings)


# ------------------------------------------------------------ suppressions
def test_inline_suppression_silences_one_line(tmp_path):
    path = write(
        tmp_path,
        "pkg/mod.py",
        """\
        import numpy as np
        a = np.random.default_rng(0)  # simlint: disable=D001
        b = np.random.default_rng(1)
        """,
    )
    findings = lint_file(path)
    assert [f.line for f in findings] == [3]


def test_file_level_suppression(tmp_path):
    path = write(
        tmp_path,
        "pkg/mod.py",
        """\
        # simlint: disable-file=D001
        import numpy as np
        a = np.random.default_rng(0)
        b = np.random.default_rng(1)
        """,
    )
    assert lint_file(path) == []


def test_suppress_all_and_trailing_commentary(tmp_path):
    path = write(
        tmp_path,
        "core/mod.py",
        """\
        import numpy as np
        a = np.random.default_rng(0)  # simlint: disable=all
        b = np.random.default_rng(1)  # simlint: disable=D001 (vendored)
        c = a == 0.0  # simlint: disable=D004 sentinel value
        d = b != 0.0  # simlint: disable=D001, D004 both apply here
        """,
    )
    assert lint_file(path) == []


def test_suppression_marker_in_string_is_inert(tmp_path):
    path = write(
        tmp_path,
        "pkg/mod.py",
        '''\
        import numpy as np
        a = np.random.default_rng(0); s = "# simlint: disable=D001"
        ''',
    )
    assert [f.rule for f in lint_file(path)] == ["D001"]


def test_suppressing_other_rule_does_not_silence(tmp_path):
    # the code list ends at the first token that is not a code
    path = write(
        tmp_path,
        "core/mod.py",
        """\
        import numpy as np
        a = np.random.default_rng(0)  # simlint: disable=D004
        b = a == 0.0  # simlint: disable=D0045
        c = a == 0.0  # simlint: disable=sentinel D004
        d = a == 0.0  # simlint: disable=D001 D004
        """,
    )
    assert [f.rule for f in lint_file(path)] == ["D001", "D004", "D004", "D004"]


# ------------------------------------------------------------ CLI
def test_cli_lint_clean_exits_zero(tmp_path):
    write(tmp_path, "pkg/clean.py", "x = 1\n")
    out = io.StringIO()
    code = main(["lint", str(tmp_path / "pkg")], out=out)
    assert code == 0
    assert "clean" in out.getvalue()


def test_cli_lint_seeded_violation_exits_nonzero(tmp_path):
    write(tmp_path, "pkg/bad.py", VIOLATION)
    out = io.StringIO()
    code = main(["lint", str(tmp_path / "pkg")], out=out)
    assert code == 1
    assert "D001" in out.getvalue()
    assert "simlint: 1 finding(s)" in out.getvalue()


def test_repo_source_tree_is_clean():
    # Nothing is grandfathered: src/ must lint clean as-is.
    import repro

    src_root = repro.__file__.rsplit("/", 2)[0]
    assert lint_paths([src_root]) == []


def test_repo_source_tree_waives_no_d010():
    # Every send goes through the overlay, the runtime or reliable
    # delivery: with no D010 waiver left, the clean lint above means
    # network.hop / network.local appear only in D010's exempt files.
    import repro

    src_root = Path(repro.__file__).parent
    waived = [
        f"{path.relative_to(src_root)}:{lineno}"
        for path in sorted(src_root.rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if "simlint: disable=D010" in line
    ]
    assert waived == []
