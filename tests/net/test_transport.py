"""The Transport seam: SimTransport delegation and the schema pin.

SimTransport must be a *zero-logic* adapter — any behaviour of its own
would break the byte-identity guarantee the sim holds across the seam
refactor — so these tests check pure delegation plus the two properties
the rest of the stack leans on: the clock/stats are live views, and the
``repro protocol --json`` dump agrees with the wire codec table.
"""

import json

from repro.cli import main, protocol_registry_dump
from repro.core import MiddlewareConfig, StreamIndexSystem, WorkloadConfig
from repro.core.protocol import KIND, Ack
from repro.net import wire
from repro.net.transport import SimTransport, Transport, TransportHandle
from repro.sim.network import Message


def make_system(n=4, seed=7):
    cfg = MiddlewareConfig(
        m=16,
        window_size=16,
        k=2,
        batch_size=4,
        workload=WorkloadConfig(qrate_per_s=0.0, nper_ms=500.0),
    )
    return StreamIndexSystem(n, cfg, seed=seed)


def test_system_exposes_transport_protocol():
    system = make_system()
    assert isinstance(system.transport, SimTransport)
    assert isinstance(system.transport, Transport)


def test_clock_is_live_view_of_sim():
    system = make_system()
    t = system.transport
    assert t.now == system.sim.now
    system.sim.schedule(125.0, lambda: None)
    system.run(125.0)
    assert t.now == system.sim.now == 125.0


def test_schedule_delegates_and_handle_cancels():
    system = make_system()
    fired = []
    handle = system.transport.schedule(10.0, fired.append, "a")
    victim = system.transport.schedule(20.0, fired.append, "b")
    assert isinstance(handle, TransportHandle)
    victim.cancel()
    system.run(50.0)
    assert fired == ["a"]


def test_stats_is_live_across_reset():
    # StreamIndexSystem.reset_stats swaps the Network's stats object;
    # the seam must expose the *new* one, not a captured reference.
    system = make_system()
    before = system.transport.stats
    assert before is system.network.stats
    system.reset_stats()
    assert system.transport.stats is system.network.stats
    assert system.transport.stats is not before


def test_tracer_is_live_view():
    system = make_system()
    assert system.transport.tracer is system.network.tracer


def test_route_counts_like_overlay_route():
    system = make_system()
    app = system.all_apps[0]
    msg = Message(
        kind=KIND.ACK,
        payload=Ack(delivery_id=1, acker_id=app.node_id),
        origin=app.node_id,
        dest_key=system.all_apps[1].node_id,
    )
    system.transport.route(app.node, msg, transit_kind=KIND.ACK_TRANSIT)
    system.run(1_000.0)
    stats = system.transport.stats
    assert sum(stats.sends.values()) >= 1
    assert any(kind == KIND.ACK for (_, kind) in stats.receives)


def test_runtime_and_roles_reach_seam():
    system = make_system()
    for app in system.all_apps:
        runtime = app.runtime
        assert runtime.transport is system.transport
        for service in runtime.dispatch.services:
            assert service.transport is system.transport


# ---------------------------------------------------------------------
# schema pin: protocol --json vs the wire codec table
# ---------------------------------------------------------------------
def test_protocol_dump_matches_wire_codec_table():
    rows = {row["payload"]: row for row in protocol_registry_dump()}
    table = wire.codec_table()
    assert set(rows) == set(table)
    for tag, entry in table.items():
        assert rows[tag]["kind"] == entry.kind
        assert tuple(rows[tag]["fields"]) == entry.fields
        assert tuple(rows[tag]["codecs"]) == entry.codecs
        assert len(entry.codecs) == len(entry.fields)
    # the binary layout itself: changing one of these is a WIRE_VERSION bump
    assert rows["MbrPublish"]["codecs"] == ["mbr", "i64", "i64", "i64", "f64", "i64"]
    assert rows["SimilarityReport"]["codecs"] == [
        "i64", "i64", "dict[i64,list[tuple[str,f64]]]", "dict[str,f64]", "i64"
    ]
    assert rows["LocateRequest"]["codecs"][0] == (
        "InnerProductQuery(str,ndarray,ndarray,f64,i64)"
    )
    assert rows["Ack"]["codecs"] == ["i64", "i64", "str"]


def test_protocol_json_cli_is_machine_readable(capsys):
    assert main(["protocol", "--json"]) == 0
    dump = json.loads(capsys.readouterr().out)
    assert dump["wire_version"] == wire.WIRE_VERSION
    assert {row["payload"] for row in dump["payloads"]} == {
        cls.__name__ for cls in wire.codec_table().values() for cls in [cls.cls]
    }
