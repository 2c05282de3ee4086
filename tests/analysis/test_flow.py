"""simflow: the whole-program protocol-flow analyzer (F001–F005).

Fixture trees are written to ``tmp_path`` and analyzed *without being
imported* — that is the point of the static analyzer, and it is what
lets these tests exercise deliberately broken protocols (missing
handlers, illegal senders, mutated payloads) that the runtime registry
would reject at import time.
"""

import shutil
import textwrap
from pathlib import Path

from repro.analysis.flow import (
    DEFAULT_EXCLUDES,
    FLOW_RULES,
    analyze_flow,
    build_flow_graph,
    check_flow,
    render_flow_table,
)

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def write(tmp_path, relpath, source):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def rules_of(findings):
    return sorted(f.rule for f in findings)


# A minimal, *complete* two-payload protocol: a client request with a
# declared response, answered by the source role.  Every rule test
# below perturbs one aspect of this tree.
CLEAN_PROTOCOL = """\
@payload(kind="ping", dedup=True, senders=("client",), response="Pong")
class Ping:
    delivery_id: int = 0


@payload(kind="pong", senders=("source",))
class Pong:
    delivery_id: int = 0
"""

CLEAN_ROLES = """\
class ClientService:
    role = "client"

    def ask(self):
        payload = Ping(delivery_id=1)
        self.runtime.reliable_route(payload, dest_key=1)

    @handles(Pong)
    def on_pong(self, message, payload):
        self.answers.append(payload)


class SourceService:
    role = "source"

    @handles(Ping)
    def on_ping(self, message, payload):
        reply = Pong()
        self.runtime.send_response(message, reply)
"""


def clean_tree(tmp_path):
    write(tmp_path, "proj/protocol.py", CLEAN_PROTOCOL)
    write(tmp_path, "proj/roles.py", CLEAN_ROLES)
    return tmp_path / "proj"


def test_rule_catalog_is_complete():
    assert sorted(FLOW_RULES) == ["F001", "F002", "F003", "F004", "F005"]
    assert all(FLOW_RULES.values())


def test_clean_fixture_tree_has_no_findings(tmp_path):
    graph, findings = analyze_flow([clean_tree(tmp_path)])
    assert findings == []
    assert sorted(graph.payloads) == ["Ping", "Pong"]
    assert graph.send_roles("Ping") == ["client"]
    assert graph.send_roles("Pong") == ["source"]
    assert graph.handler_roles("Ping") == ["source"]
    assert graph.handler_roles("Pong") == ["client"]


def test_graph_edges_link_send_handle_and_emit(tmp_path):
    graph, _ = analyze_flow([clean_tree(tmp_path)])
    edges = set(graph.edges())
    # delivery: client's Ping send reaches source's Ping handler
    assert (("send", "client", "Ping"), ("handle", "source", "Ping")) in edges
    # emit: handling Ping makes source send Pong
    assert (("handle", "source", "Ping"), ("send", "source", "Pong")) in edges


def test_dot_export_names_roles_and_payloads(tmp_path):
    graph, _ = analyze_flow([clean_tree(tmp_path)])
    dot = graph.to_dot()
    assert dot.startswith("digraph message_flow {")
    assert '"send:client:Ping"' in dot
    assert '"handle:source:Ping"' in dot
    assert "->" in dot


def test_table_lists_every_payload_row(tmp_path):
    graph, _ = analyze_flow([clean_tree(tmp_path)])
    table = render_flow_table(graph)
    assert "Ping" in table and "Pong" in table
    assert "client" in table and "source" in table


# ---------------------------------------------------------------- F001
def test_f001_flags_payload_without_send_site(tmp_path):
    write(
        tmp_path,
        "proj/protocol.py",
        """\
        @payload(kind="orphan", senders=("client",))
        class Orphan:
            delivery_id: int = 0
        """,
    )
    write(
        tmp_path,
        "proj/roles.py",
        """\
        class SourceService:
            role = "source"

            @handles(Orphan)
            def on_orphan(self, message, payload):
                pass
        """,
    )
    _, findings = analyze_flow([tmp_path / "proj"])
    assert rules_of(findings) == ["F001"]
    assert "no statically attributed send site" in findings[0].message


def test_f001_flags_payload_without_handler(tmp_path):
    write(
        tmp_path,
        "proj/protocol.py",
        """\
        @payload(kind="shout", senders=("client",))
        class Shout:
            delivery_id: int = 0
        """,
    )
    write(
        tmp_path,
        "proj/roles.py",
        """\
        class ClientService:
            role = "client"

            def yell(self):
                payload = Shout()
                self.runtime.reliable_route(payload, dest_key=0)
        """,
    )
    _, findings = analyze_flow([tmp_path / "proj"])
    assert rules_of(findings) == ["F001"]
    assert "no @handles handler" in findings[0].message


def test_f001_ack_flow_waives_the_handler(tmp_path):
    # ack carriers are consumed by the runtime before dispatch — no
    # @handles method exists, and that must not count as a gap
    write(
        tmp_path,
        "proj/protocol.py",
        """\
        @payload(kind="ack", senders=("(runtime)",), flow="ack")
        class Ack:
            delivery_id: int = 0
        """,
    )
    write(
        tmp_path,
        "proj/runtime.py",
        """\
        FLOW_ROLE = "(runtime)"


        def maybe_ack(runtime, message):
            ack = Ack()
            runtime.reliable_route(ack, dest_key=message.origin)
        """,
    )
    _, findings = analyze_flow([tmp_path / "proj"])
    assert findings == []


# ---------------------------------------------------------------- F002
def test_f002_flags_send_from_undeclared_role(tmp_path):
    clean_tree(tmp_path)
    write(
        tmp_path,
        "proj/rogue.py",
        """\
        class AggregatorService:
            role = "aggregator"

            def impersonate(self):
                payload = Ping()
                self.runtime.reliable_route(payload, dest_key=7)
        """,
    )
    _, findings = analyze_flow([tmp_path / "proj"])
    assert rules_of(findings) == ["F002"]
    assert "'aggregator' sends Ping" in findings[0].message
    assert "client" in findings[0].message


def test_f002_exempts_unattributed_sends(tmp_path):
    # a module-level helper with no FLOW_ROLE marker still counts as a
    # send site (F001) but cannot be checked for sender legality
    write(
        tmp_path,
        "proj/protocol.py",
        """\
        @payload(kind="ping", senders=("client",))
        class Ping:
            delivery_id: int = 0
        """,
    )
    write(
        tmp_path,
        "proj/helper.py",
        """\
        def fire(runtime):
            payload = Ping()
            runtime.reliable_route(payload, dest_key=0)


        class SourceService:
            role = "source"

            @handles(Ping)
            def on_ping(self, message, payload):
                pass
        """,
    )
    graph, findings = analyze_flow([tmp_path / "proj"])
    assert findings == []
    assert [s.role for s in graph.sends_of("Ping")] == [None]


# ---------------------------------------------------------------- F003
def test_f003_flags_acked_ack_carrier(tmp_path):
    write(
        tmp_path,
        "proj/protocol.py",
        """\
        @payload(kind="ack", ack_on_delivery=True,
                 senders=("(runtime)",), flow="ack")
        class Ack:
            delivery_id: int = 0
        """,
    )
    write(
        tmp_path,
        "proj/runtime.py",
        """\
        FLOW_ROLE = "(runtime)"


        def maybe_ack(runtime):
            ack = Ack()
            runtime.reliable_route(ack, dest_key=0)
        """,
    )
    _, findings = analyze_flow([tmp_path / "proj"])
    assert rules_of(findings) == ["F003"]
    assert "acyclic" in findings[0].message


def test_f003_flags_ack_obligation_without_carrier(tmp_path):
    write(
        tmp_path,
        "proj/protocol.py",
        """\
        @payload(kind="mbr", ack_on_delivery=True, senders=("source",))
        class MbrPublish:
            delivery_id: int = 0
        """,
    )
    write(
        tmp_path,
        "proj/roles.py",
        """\
        class SourceService:
            role = "source"

            def publish(self):
                payload = MbrPublish()
                self.runtime.reliable_route(payload, dest_key=0)


        class HolderService:
            role = "index-holder"

            @handles(MbrPublish)
            def on_mbr(self, message, payload):
                pass
        """,
    )
    _, findings = analyze_flow([tmp_path / "proj"])
    assert rules_of(findings) == ["F003"]
    assert 'no flow="ack" payload' in findings[0].message


# ---------------------------------------------------------------- F004
def test_f004_flags_unreachable_response(tmp_path):
    # the source handles Ping but never sends Pong; Pong is produced
    # only by a role the Ping handler cannot reach
    write(tmp_path, "proj/protocol.py", CLEAN_PROTOCOL)
    write(
        tmp_path,
        "proj/roles.py",
        """\
        class ClientService:
            role = "client"

            def ask(self):
                payload = Ping(delivery_id=1)
                self.runtime.reliable_route(payload, dest_key=1)

            @handles(Pong)
            def on_pong(self, message, payload):
                pass


        class SourceService:
            role = "source"

            @handles(Ping)
            def on_ping(self, message, payload):
                pass

            def unrelated_tick(self):
                reply = Pong()
                self.runtime.reliable_route(reply, dest_key=2)
        """,
    )
    _, findings = analyze_flow([tmp_path / "proj"])
    # NOTE: source *does* send Pong somewhere, so F001 is satisfied;
    # but at role granularity the emit edge handle(source, Ping) ->
    # send(source, Pong) exists, so this is reachable.  Tighten the
    # fixture: move the Pong send to a third role entirely.
    assert findings == []
    write(
        tmp_path,
        "proj/roles.py",
        """\
        class ClientService:
            role = "client"

            def ask(self):
                payload = Ping(delivery_id=1)
                self.runtime.reliable_route(payload, dest_key=1)

            @handles(Pong)
            def on_pong(self, message, payload):
                pass


        class SourceService:
            role = "source"

            @handles(Ping)
            def on_ping(self, message, payload):
                pass


        class AggregatorService:
            role = "aggregator"

            def push(self):
                reply = Pong()
                self.runtime.reliable_route(reply, dest_key=2)
        """,
    )
    _, findings = analyze_flow([tmp_path / "proj"])
    # aggregator is not a declared Pong sender (F002) and the response
    # is unreachable from Ping's handlers (F004)
    assert rules_of(findings) == ["F002", "F004"]
    f004 = [f for f in findings if f.rule == "F004"][0]
    assert "no send site of response Pong" in f004.message


def test_f004_flags_unregistered_response_name(tmp_path):
    write(
        tmp_path,
        "proj/protocol.py",
        """\
        @payload(kind="ping", senders=("client",), response="Nothing")
        class Ping:
            delivery_id: int = 0
        """,
    )
    write(
        tmp_path,
        "proj/roles.py",
        """\
        class ClientService:
            role = "client"

            def ask(self):
                payload = Ping()
                self.runtime.reliable_route(payload, dest_key=1)


        class SourceService:
            role = "source"

            @handles(Ping)
            def on_ping(self, message, payload):
                pass
        """,
    )
    _, findings = analyze_flow([tmp_path / "proj"])
    assert rules_of(findings) == ["F004"]
    assert "not a registered payload" in findings[0].message


# ---------------------------------------------------------------- F005
def test_f005_flags_mutation_after_construction_on_send_path(tmp_path):
    write(tmp_path, "proj/protocol.py", CLEAN_PROTOCOL)
    write(
        tmp_path,
        "proj/roles.py",
        """\
        class ClientService:
            role = "client"

            def ask(self):
                payload = Ping(delivery_id=1)
                payload.delivery_id = 99
                self.runtime.reliable_route(payload, dest_key=1)

            @handles(Pong)
            def on_pong(self, message, payload):
                pass


        class SourceService:
            role = "source"

            @handles(Ping)
            def on_ping(self, message, payload):
                reply = Pong()
                self.runtime.send_response(message, reply)
        """,
    )
    _, findings = analyze_flow([tmp_path / "proj"])
    assert rules_of(findings) == ["F005"]
    assert "'delivery_id'" in findings[0].message
    assert "Ping" in findings[0].message


def test_f005_ignores_mutation_of_received_parameters(tmp_path):
    # runtime-side stamping (send_response rewrites payload.delivery_id
    # on a *parameter*, not a locally constructed value) must stay legal
    write(tmp_path, "proj/protocol.py", CLEAN_PROTOCOL)
    write(
        tmp_path,
        "proj/roles.py",
        CLEAN_ROLES
        + textwrap.dedent(
            """\


            def send_response(runtime, message, payload: Pong):
                payload.delivery_id = 7
                runtime.reliable_route(payload, dest_key=message.origin)
            """
        ),
    )
    _, findings = analyze_flow([tmp_path / "proj"])
    assert findings == []


def test_f005_ignores_mutation_without_a_send(tmp_path):
    write(tmp_path, "proj/protocol.py", CLEAN_PROTOCOL)
    write(
        tmp_path,
        "proj/roles.py",
        CLEAN_ROLES
        + textwrap.dedent(
            """\


            class Recorder:
                role = "aggregator"

                def remember(self):
                    note = Pong()
                    note.delivery_id = 3
                    self.kept.append(note)
            """
        ),
    )
    _, findings = analyze_flow([tmp_path / "proj"])
    assert findings == []


# ------------------------------------------------ constant propagation
def test_branch_sensitive_binding_records_both_send_sites(tmp_path):
    # may-analysis: a local bound to different payload types in the two
    # arms of an `if` must produce a send site for each
    write(
        tmp_path,
        "proj/protocol.py",
        """\
        @payload(kind="ping", senders=("client",))
        class Ping:
            delivery_id: int = 0


        @payload(kind="pong", senders=("client",))
        class Pong:
            delivery_id: int = 0
        """,
    )
    write(
        tmp_path,
        "proj/roles.py",
        """\
        class ClientService:
            role = "client"

            def route(self, exact):
                if exact:
                    payload = Ping()
                else:
                    payload = Pong()
                self.runtime.reliable_route(payload, dest_key=0)


        class SourceService:
            role = "source"

            @handles(Ping)
            def on_ping(self, message, payload):
                pass

            @handles(Pong)
            def on_pong(self, message, payload):
                pass
        """,
    )
    graph, findings = analyze_flow([tmp_path / "proj"])
    assert findings == []
    assert graph.send_roles("Ping") == ["client"]
    assert graph.send_roles("Pong") == ["client"]


def test_syntax_error_reports_e000_not_a_crash(tmp_path):
    write(tmp_path, "proj/broken.py", "def oops(:\n")
    _, findings = build_flow_graph([tmp_path / "proj"])
    assert rules_of(findings) == ["E000"]
    assert "syntax error" in findings[0].message


def test_default_excludes_skip_tests(tmp_path):
    clean_tree(tmp_path)
    # a test tree full of hand-built partial payloads must not pollute
    # the whole-program analysis
    write(
        tmp_path,
        "proj/tests/test_fake.py",
        """\
        def test_fake(runtime):
            payload = Pong()
            payload.delivery_id = 1
            runtime.reliable_route(payload, dest_key=0)
        """,
    )
    _, findings = analyze_flow([tmp_path / "proj"])
    assert findings == []
    assert DEFAULT_EXCLUDES == ("tests", "test")


# ------------------------------------------------------- the real tree
def test_real_tree_is_flow_clean():
    graph, findings = analyze_flow([REPO_SRC])
    assert findings == []
    # all sixteen registered payloads are present with sites attributed
    assert len(graph.payloads) >= 16
    assert graph.send_roles("MbrPublish") == ["source"]
    assert graph.handler_roles("MbrPublish") == ["index-holder"]


def _copy_src(tmp_path):
    dest = tmp_path / "repro"
    shutil.copytree(REPO_SRC, dest)
    return dest


def test_deleting_a_handler_registration_is_caught(tmp_path):
    dest = _copy_src(tmp_path)
    holder = dest / "core" / "roles" / "holder.py"
    text = holder.read_text()
    assert "@handles(HintedHandoff)" in text
    holder.write_text(text.replace("@handles(HintedHandoff)", "# pruned"))
    _, findings = analyze_flow([dest])
    assert [f.rule for f in findings] == ["F001"]
    assert "HintedHandoff" in findings[0].message
    assert "no @handles handler" in findings[0].message


def test_deleting_a_send_site_is_caught(tmp_path):
    dest = _copy_src(tmp_path)
    source = dest / "core" / "roles" / "source.py"
    text = source.read_text()
    assert "payload = RegisterStream(" in text
    # sever the constructor binding: the reliable_route call below it
    # can no longer be attributed to RegisterStream
    source.write_text(
        text.replace("payload = RegisterStream(", "payload = _opaque(")
    )
    _, findings = analyze_flow([dest])
    assert [f.rule for f in findings] == ["F001"]
    assert "RegisterStream" in findings[0].message
    assert "no statically attributed send site" in findings[0].message


# ------------------------------------------------------------- the CLI
def _run_cli(*argv):
    import io

    from repro.cli import main

    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_cli_flow_prints_table_and_is_clean(tmp_path):
    code, text = _run_cli("flow", str(REPO_SRC))
    assert code == 0
    assert "PAYLOAD" in text and "HANDLERS" in text
    assert "MbrPublish" in text
    assert "simflow: clean" in text


def test_cli_flow_check_gates_on_findings(tmp_path):
    proj = clean_tree(tmp_path)
    # break the protocol: drop the Pong handler so F001 fires
    write(
        tmp_path,
        "proj/roles.py",
        CLEAN_ROLES.replace("@handles(Pong)", "# pruned"),
    )
    code, text = _run_cli("flow", str(proj))
    assert code == 1
    assert "F001" in text
    assert "simflow: 1 finding(s)" in text


def test_cli_flow_writes_dot_artifact(tmp_path):
    proj = clean_tree(tmp_path)
    dot_path = tmp_path / "graph.dot"
    code, text = _run_cli("flow", str(proj), "--dot", str(dot_path))
    assert code == 0
    assert f"wrote flow graph to {dot_path}" in text
    assert dot_path.read_text().startswith("digraph message_flow {")


# -------------------------------------- agreement with the live registry
def test_static_decls_agree_with_live_registry_kind_for_kind():
    """The `repro protocol` table and `repro flow` read the same truth.

    The CLI table iterates the *live* ``registry_items()`` accessor; the
    flow analyzer re-derives the same declarations statically from
    ``core/protocol.py`` without importing it.  Any divergence means one
    of the two views of the protocol is lying.
    """
    from repro.core.protocol import registry_items

    graph, _ = build_flow_graph([REPO_SRC / "core" / "protocol.py"])
    live = {cls.__name__: spec for cls, spec in registry_items()}
    assert set(graph.payloads) == set(live)
    for name, decl in graph.payloads.items():
        spec = live[name]
        assert decl.kind == spec.kind, name
        assert decl.dedup == spec.dedup, name
        assert decl.ack_on_delivery == spec.ack_on_delivery, name
        assert decl.ack_kinds == frozenset(spec.ack_kinds), name
        assert decl.senders == spec.senders, name
        assert decl.response == spec.response, name
        assert decl.flow == spec.flow, name
