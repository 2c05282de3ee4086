"""KNOBS.md's table of never-entered functions names only functions that exist."""

from . import reach

KNOBS = reach.ROOT / "KNOBS.md"
HEADER = "| why it stays | functions | lines |"


def table_names():
    """Every backticked name in the table's functions column, with its row."""
    lines = KNOBS.read_text().splitlines()
    start = lines.index(HEADER) + 2  # skip the |---| rule
    for line in lines[start:]:
        if not line.startswith("|"):
            return
        why, functions, _count = line.strip().strip("|").split("|")
        for name in functions.split("`")[1::2]:
            yield why.strip()[:40], name


def test_every_function_in_the_table_exists():
    defined = {
        name
        for path in reach.PACKAGE.rglob("*.py")
        for name, _first, _last in reach.functions(path)
    }
    names = list(table_names())
    assert len(names) > 100  # the table was found and read
    missing = [(why, name) for why, name in names if name not in defined]
    assert missing == []


def test_no_function_is_left_in_place_unexempt():
    # a function reached only by its own tests is deleted or exempted,
    # never parked in a "not exempt" row
    parked = [name for why, name in table_names() if "not exempt" in why]
    assert parked == []
