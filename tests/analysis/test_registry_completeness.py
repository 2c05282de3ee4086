"""Registry completeness: every ``@payload`` kind surfaces everywhere.

The protocol registry drives three operator-facing surfaces: the
``repro protocol`` table, its ``--json`` dump feeding the wire codec
docs, and the ``repro flow`` send/handle graph.  A payload that exists
in the registry but is missing from one of them is invisible to
operators — exactly the drift that new advisory kinds (such as
``LoadShed`` and ``Backpressure``) could introduce silently.  These
tests fail the build when:

* a registered payload (or its wire kind) is absent from the
  ``repro protocol`` table or JSON dump;
* a registered payload never makes it into the simflow graph at all
  (no send site *and* no handler — the analyzer cannot see it);
* any simflow finding appears on the real tree.
"""

import io
import json
from pathlib import Path

from repro.analysis import analyze_flow
from repro.analysis.flow import render_flow_table
from repro.cli import main
from repro.core.protocol import registry_items

REPO_ROOT = Path(__file__).resolve().parents[2]
REPO_SRC = REPO_ROOT / "src" / "repro"


def _registry():
    items = list(registry_items())
    assert items, "empty protocol registry"
    return items


def test_protocol_table_lists_every_payload_and_kind():
    out = io.StringIO()
    assert main(["protocol"], out=out) == 0
    text = out.getvalue()
    for payload_type, spec in _registry():
        name = payload_type.__name__
        assert name in text, f"{name} missing from `repro protocol` table"
        assert spec.kind in text, (
            f"kind {spec.kind!r} ({name}) missing from `repro protocol` table"
        )


def test_protocol_json_dump_lists_every_payload_and_kind():
    out = io.StringIO()
    assert main(["protocol", "--json"], out=out) == 0
    dump = json.loads(out.getvalue())
    names = {row["payload"] for row in dump["payloads"]}
    kinds = {row["kind"] for row in dump["payloads"]}
    for payload_type, spec in _registry():
        assert payload_type.__name__ in names
        assert spec.kind in kinds


def test_flow_graph_and_table_cover_every_payload():
    graph, _ = analyze_flow([REPO_SRC])
    table = render_flow_table(graph)
    for payload_type, _spec in _registry():
        name = payload_type.__name__
        assert name in graph.payloads, f"{name} missing from simflow graph"
        assert name in table, f"{name} missing from `repro flow` table"
        # the analyzer must see the payload participate in the protocol:
        # at least one attributed send site or one @handles handler
        # (Ack is runtime-internal and handled implicitly, but it is sent)
        assert graph.send_roles(name) or graph.handler_roles(name), (
            f"{name} has neither an attributed send site nor a handler"
        )


def test_flow_finds_nothing_in_real_tree():
    _, findings = analyze_flow([REPO_SRC])
    assert findings == [], [f"{f.rule}: {f.message}" for f in findings]
