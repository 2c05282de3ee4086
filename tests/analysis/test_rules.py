"""Positive and negative cases for every simlint rule (D001–D014)."""

import textwrap

import pytest

from repro.analysis.linter import lint_file
from repro.analysis.rules import RULES, all_rule_codes, is_test_path


def run_lint(tmp_path, relpath, source):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return lint_file(path)


def codes(findings):
    return sorted(f.rule for f in findings)


def test_registry_is_complete():
    assert all_rule_codes() == [
        "D001", "D002", "D003", "D004", "D005", "D006", "D007", "D008",
        "D009", "D010", "D011", "D012", "D013", "D014",
    ]
    assert set(RULES) == set(all_rule_codes())


def test_test_path_detection():
    assert is_test_path("tests/sim/test_engine.py")
    assert is_test_path("pkg/test_foo.py")
    assert is_test_path("tests/conftest.py")
    assert not is_test_path("src/repro/sim/engine.py")
    assert not is_test_path("src/repro/analysis/contest.py")


# ---------------------------------------------------------------- D001
def test_d001_flags_raw_rng(tmp_path):
    findings = run_lint(
        tmp_path,
        "streams/gen.py",
        """\
        import random
        import numpy as np
        rng = np.random.default_rng(3)
        np.random.seed(0)
        """,
    )
    assert codes(findings) == ["D001", "D001", "D001"]


def test_d001_allows_registry_and_tests(tmp_path):
    clean = """\
        from repro.sim.rng import RngRegistry
        rng = RngRegistry(0).get("queries")
        """
    assert run_lint(tmp_path, "streams/clean.py", clean) == []
    raw = "import numpy as np\nrng = np.random.default_rng(0)\n"
    # the registry module itself and test code may construct generators
    assert run_lint(tmp_path, "sim/rng.py", raw) == []
    assert run_lint(tmp_path, "tests/test_thing.py", raw) == []


# ---------------------------------------------------------------- D002
def test_d002_flags_wall_clock(tmp_path):
    findings = run_lint(
        tmp_path,
        "sim/engine.py",
        """\
        import time
        from time import perf_counter
        t = time.time()
        """,
    )
    assert codes(findings) == ["D002", "D002"]  # the import-from and the call


def test_d002_scoped_to_simulated_world(tmp_path):
    source = "import time\nt = time.time()\n"
    assert codes(run_lint(tmp_path, "chord/x.py", source)) == ["D002"]
    # bench/tooling code may time itself
    assert run_lint(tmp_path, "bench/x.py", source) == []
    assert run_lint(tmp_path, "sim/now.py", "def f(sim):\n    return sim.now\n") == []


# ---------------------------------------------------------------- D003
def test_d003_flags_set_iteration(tmp_path):
    findings = run_lint(
        tmp_path,
        "core/sched.py",
        """\
        def f(items):
            pending = {1, 2, 3}
            for x in pending:
                pass
            return [y for y in set(items)]
        """,
    )
    assert codes(findings) == ["D003", "D003"]


def test_d003_allows_sorted_and_lists(tmp_path):
    assert (
        run_lint(
            tmp_path,
            "core/sched.py",
            """\
            def f(items):
                pending = {1, 2, 3}
                for x in sorted(pending):
                    pass
                for y in list(items):
                    pass
            """,
        )
        == []
    )


# ---------------------------------------------------------------- D004
def test_d004_flags_float_equality(tmp_path):
    findings = run_lint(
        tmp_path,
        "chord/route.py",
        """\
        def f(x):
            if x == 0.5 or x != -1.5:
                return True
            return 0.5 == x != 2.5
        """,
    )
    # one finding per Compare node: two in the BoolOp, one for the chain
    assert codes(findings) == ["D004", "D004", "D004"]


def test_d004_allows_int_and_tolerance(tmp_path):
    assert (
        run_lint(
            tmp_path,
            "core/math.py",
            """\
            def f(x):
                return x == 0 or abs(x - 0.5) < 1e-9
            """,
        )
        == []
    )
    # out of scope: float equality in analysis/report code
    assert (
        run_lint(tmp_path, "bench/report.py", "ok = 1.0 == 1.0\n") != []
    ) is False


# ---------------------------------------------------------------- D005
def test_d005_flags_unregistered_kind(tmp_path):
    findings = run_lint(
        tmp_path,
        "core/thing.py",
        """\
        BOGUS = "made_up_kind"

        def f(Message, msg):
            a = Message(kind="another_fake", payload=None, origin=0, dest_key=0)
            b = msg.derive("rogue_kind")
            c = Message(kind=BOGUS, payload=None, origin=0, dest_key=0)
            return a, b, c
        """,
    )
    assert codes(findings) == ["D005", "D005", "D005"]


def test_d005_allows_registered_and_dynamic_kinds(tmp_path):
    assert (
        run_lint(
            tmp_path,
            "core/thing.py",
            """\
            from repro.core.protocol import KIND

            def f(Message, msg, dynamic):
                a = Message(kind="mbr", payload=None, origin=0, dest_key=0)
                b = Message(kind=KIND.QUERY, payload=None, origin=0, dest_key=0)
                c = msg.derive(KIND.MBR_SPAN)
                d = Message(kind=dynamic, payload=None, origin=0, dest_key=0)
                return a, b, c, d
            """,
        )
        == []
    )


def test_d005_flags_missing_kind_attribute(tmp_path):
    findings = run_lint(
        tmp_path,
        "core/thing.py",
        """\
        from repro.core.protocol import KIND

        def f(Message):
            return Message(kind=KIND.NO_SUCH_KIND, payload=None, origin=0, dest_key=0)
        """,
    )
    assert codes(findings) == ["D005"]


# ---------------------------------------------------------------- D006
def test_d006_flags_shared_mutable_defaults(tmp_path):
    findings = run_lint(
        tmp_path,
        "core/payloads.py",
        """\
        from collections import deque
        from dataclasses import dataclass, field

        @dataclass
        class Payload:
            history: object = deque()
            tags: list = []
            pinned: object = field(default=[])
        """,
    )
    assert codes(findings) == ["D006", "D006", "D006"]


def test_d006_allows_factories_and_immutables(tmp_path):
    assert (
        run_lint(
            tmp_path,
            "core/payloads.py",
            """\
            from dataclasses import dataclass, field

            @dataclass
            class Payload:
                value: float = float("nan")
                name: str = ""
                items: list = field(default_factory=list)
                pair: tuple = tuple()

            class NotADataclass:
                shared = []
            """,
        )
        == []
    )


# ---------------------------------------------------------------- D007
def test_d007_flags_unregistered_payload_dataclass(tmp_path):
    findings = run_lint(
        tmp_path,
        "core/protocol.py",
        """\
        from dataclasses import dataclass

        @dataclass
        class Orphan:
            value: int = 0
        """,
    )
    assert codes(findings) == ["D007"]


def test_d007_allows_registered_payloads_and_spec(tmp_path):
    assert (
        run_lint(
            tmp_path,
            "core/protocol.py",
            """\
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class PayloadSpec:
                kind: str = ""

            @payload(kind="mbr", dedup=True)
            @dataclass
            class Registered:
                value: int = 0

            class NotADataclass:
                pass
            """,
        )
        == []
    )


def test_d007_ignores_dataclasses_outside_protocol_module(tmp_path):
    assert (
        run_lint(
            tmp_path,
            "core/other.py",
            """\
            from dataclasses import dataclass

            @dataclass
            class PlainState:
                value: int = 0
            """,
        )
        == []
    )


def test_d007_flags_handles_of_unregistered_type(tmp_path):
    findings = run_lint(
        tmp_path,
        "core/roles/thing.py",
        """\
        from repro.core.roles.base import RoleService, handles

        class Svc(RoleService):
            @handles(NotARealPayload)
            def on_bogus(self, message, payload):
                pass

            @handles()
            def on_empty(self, message, payload):
                pass
        """,
    )
    assert codes(findings) == ["D007", "D007"]


def test_d007_allows_handles_of_registered_payloads(tmp_path):
    assert (
        run_lint(
            tmp_path,
            "core/roles/thing.py",
            """\
            from repro.core.protocol import MbrPublish, ResponsePush
            from repro.core.roles.base import RoleService, handles

            class Svc(RoleService):
                @handles(MbrPublish)
                def on_mbr(self, message, payload):
                    pass

                @handles(ResponsePush)
                def on_response(self, message, payload):
                    pass
            """,
        )
        == []
    )


# ---------------------------------------------------------------- D008
def test_d008_flags_perf_timer_outside_sanctioned_homes(tmp_path):
    source = """\
    import time
    from time import perf_counter

    def measure():
        t0 = time.perf_counter()
        time.process_time_ns()
        return perf_counter() - t0
    """
    findings = run_lint(tmp_path, "analysis/timing.py", source)
    # one from-import + two calls (the bare perf_counter() name is not
    # resolvable as a dotted time.* chain, but its import is flagged)
    assert codes(findings) == ["D008", "D008", "D008"]


def test_d008_allows_perf_package_benchmarks_and_tests(tmp_path):
    source = "import time\nt = time.perf_counter()\n"
    assert run_lint(tmp_path, "perf/harness.py", source) == []
    assert run_lint(tmp_path, "benchmarks/bench_x.py", source) == []
    assert run_lint(tmp_path, "tests/test_speed.py", source) == []


def test_d008_does_not_flag_simulated_time(tmp_path):
    clean = """\
    def tick(sim):
        return sim.now + 50.0
    """
    assert run_lint(tmp_path, "workload/scenario.py", clean) == []


# ---------------------------------------------------------------- D009
def test_d009_flags_process_spawning_outside_sanctioned_homes(tmp_path):
    source = """\
    import multiprocessing
    import multiprocessing.pool
    from multiprocessing import Pool
    import os
    from os import fork

    def fan_out():
        os.fork()
    """
    findings = run_lint(tmp_path, "workload/fanout.py", source)
    # two imports + one from-import + `from os import fork` + one call
    # (`import os` alone is fine)
    assert codes(findings) == ["D009"] * 5


def test_d009_allows_only_benchmarks_and_tests(tmp_path):
    source = "import multiprocessing\np = multiprocessing.get_context('fork')\n"
    # the perf package is part of the single-process simulator too
    assert codes(run_lint(tmp_path, "perf/counters.py", source)) == ["D009"]
    assert run_lint(tmp_path, "benchmarks/bench_x.py", source) == []
    assert run_lint(tmp_path, "tests/test_pool.py", source) == []


def test_d009_does_not_flag_plain_os_use(tmp_path):
    clean = """\
    import os

    def cpu_budget():
        return os.cpu_count() or 1
    """
    assert run_lint(tmp_path, "analysis/report.py", clean) == []


# ---------------------------------------------------------------- D010
def test_d010_flags_raw_network_sends_in_simulated_world(tmp_path):
    source = """\
    def leak(self, msg):
        self.system.network.hop(1, 2, msg, None)
        self.network.local(3, msg)
    """
    findings = run_lint(tmp_path, "core/roles/rogue.py", source)
    assert codes(findings) == ["D010", "D010"]
    findings = run_lint(tmp_path, "chord/shortcut.py", source)
    assert codes(findings) == ["D010", "D010"]


def test_d010_allows_sanctioned_send_paths(tmp_path):
    source = "def f(net, msg):\n    net.network.hop(1, 2, msg, None)\n"
    # the fabric itself, the overlay primitives, dispatch and retry
    assert run_lint(tmp_path, "sim/network.py", source) == []
    assert run_lint(tmp_path, "chord/dht.py", source) == []
    assert run_lint(tmp_path, "core/runtime.py", source) == []
    assert run_lint(tmp_path, "core/reliable.py", source) == []
    # test code and packages outside the simulated world are out of scope
    assert run_lint(tmp_path, "tests/test_net.py", source) == []
    assert run_lint(tmp_path, "baselines/base.py", source) == []


def test_d010_does_not_flag_other_network_attributes(tmp_path):
    clean = """\
    def stats_of(self):
        return self.system.network.stats, self.network.in_flight
    """
    assert run_lint(tmp_path, "core/metrics_helper.py", clean) == []


def test_d010_inline_suppression(tmp_path):
    source = (
        "def f(self, msg):\n"
        "    self.network.hop(  # simlint: disable=D010 (substrate)\n"
        "        1, 2, msg, None\n"
        "    )\n"
    )
    assert run_lint(tmp_path, "core/hierarchy.py", source) == []


# ---------------------------------------------------------------- D011
def test_d011_flags_bare_except(tmp_path):
    source = """\
    def risky(self):
        try:
            self.step()
        except:
            self.recover()
    """
    findings = run_lint(tmp_path, "core/roles/sloppy.py", source)
    assert codes(findings) == ["D011"]
    assert "bare `except:`" in findings[0].message


def test_d011_flags_swallowed_broad_except(tmp_path):
    source = """\
    def risky(self):
        try:
            self.step()
        except Exception:
            pass
        try:
            self.step()
        except BaseException:
            ...
    """
    findings = run_lint(tmp_path, "chord/sloppy.py", source)
    assert codes(findings) == ["D011", "D011"]


def test_d011_allows_handled_and_specific_excepts(tmp_path):
    source = """\
    def careful(self, log):
        try:
            self.step()
        except KeyError:
            pass
        try:
            self.step()
        except Exception:
            self.repaired = None
        try:
            self.step()
        except Exception as exc:
            log.append(exc)
            raise
    """
    assert run_lint(tmp_path, "core/roles/careful.py", source) == []


def test_d011_scoped_to_simulated_world(tmp_path):
    source = """\
    def risky(self):
        try:
            self.step()
        except Exception:
            pass
    """
    # CLI / perf / test code may legitimately shield the user from crashes
    assert run_lint(tmp_path, "perf/harness.py", source) == []
    assert run_lint(tmp_path, "tests/test_risky.py", source) == []
    findings = run_lint(tmp_path, "sim/engine_ext.py", source)
    assert codes(findings) == ["D011"]


# ---------------------------------------------------------------- D012
def test_d012_flags_network_primitives_outside_net(tmp_path):
    source = """\
    import socket
    import asyncio
    from threading import Thread
    """
    findings = run_lint(tmp_path, "core/roles/rogue.py", source)
    assert codes(findings) == ["D012", "D012", "D012"]


def test_d012_flags_submodule_imports(tmp_path):
    source = """\
    import asyncio.streams
    from socket import AF_INET
    """
    findings = run_lint(tmp_path, "sim/engine_ext.py", source)
    assert codes(findings) == ["D012", "D012"]


def test_d012_allows_net_package_and_tests(tmp_path):
    source = """\
    import asyncio
    import socket
    import threading
    """
    assert run_lint(tmp_path, "net/peer.py", source) == []
    assert run_lint(tmp_path, "src/repro/net/transport.py", source) == []
    assert run_lint(tmp_path, "tests/net/test_loopback.py", source) == []


def test_d012_ignores_unrelated_imports(tmp_path):
    source = """\
    import json
    from collections import deque
    """
    assert run_lint(tmp_path, "core/roles/fine.py", source) == []


# ---------------------------------------------------------------- D013
def test_d013_flags_rogue_refit_and_mapper_writes(tmp_path):
    source = """\
    def rebalance(self):
        self.system.mapper.refit(self.key_density.drain())

    def hijack(self, system, mapper):
        system.mapper = mapper
        mapper._epochs = {}
        mapper._edges = [0.0, 1.0]
    """
    findings = run_lint(tmp_path, "core/roles/rogue.py", source)
    assert codes(findings) == ["D013", "D013", "D013", "D013"]


def test_d013_flags_augmented_epoch_writes(tmp_path):
    source = """\
    def bump(mapper):
        mapper._edges += [2.0]
    """
    findings = run_lint(tmp_path, "chord/rogue.py", source)
    assert codes(findings) == ["D013"]


def test_d013_allows_sanctioned_homes_and_reads(tmp_path):
    mutation = """\
    def refit_round(self):
        self.mapper.refit(self.merged_counts)
    """
    # the remap entry points themselves may mutate mapping state
    assert run_lint(tmp_path, "core/system.py", mutation) == []
    assert run_lint(tmp_path, "core/mapping.py", mutation) == []
    # tests and tooling outside the simulated world are unconstrained
    assert run_lint(tmp_path, "tests/core/test_mapping.py", mutation) == []
    assert run_lint(tmp_path, "perf/harness.py", mutation) == []
    # reads of mapping state are fine anywhere
    reads = """\
    def place(self, system, value):
        return system.mapper.key_of(value)

    def span(self, system, low, high):
        return system.mapper.key_range(low, high)
    """
    assert run_lint(tmp_path, "core/roles/fine.py", reads) == []
    # local variables named `mapper` are not mapping state
    local = """\
    def build(space, sample):
        mapper = object()
        return mapper
    """
    assert run_lint(tmp_path, "core/roles/local.py", local) == []


# ---------------------------------------------------------------- D014
def test_d014_flags_undocumented_dict_seeds_in_chord(tmp_path):
    source = """\
    from collections import defaultdict

    class Node:
        def __init__(self):
            self._memo = {}
            self._routes: dict = dict()
            self._by_key = defaultdict(list)
    """
    findings = run_lint(tmp_path, "chord/memo.py", source)
    assert codes(findings) == ["D014", "D014", "D014"]


def test_d014_accepts_bound_witness_comments(tmp_path):
    source = """\
    class Node:
        def __init__(self):
            self._apps = {}  # bounded: one entry per live node
            #: capped at dedup_seen_limit entries
            self._seen: dict = {}
            #: cohort members, keyed by node id
            #: (bounded by ring membership)
            self._members = [{} for _ in range(4)]
    """
    assert run_lint(tmp_path, "chord/fine.py", source) == []


def test_d014_scope_is_chord_only_and_skips_non_dict_state(tmp_path):
    source = """\
    class Node:
        def __init__(self):
            self._memo = {}
    """
    # outside chord/ the rule does not bind
    assert run_lint(tmp_path, "core/roles/holder2.py", source) == []
    assert run_lint(tmp_path, "tests/chord/test_memo.py", source) == []
    # non-dict seeds and local variables are not per-node dict state
    clean = """\
    class Node:
        def __init__(self):
            self._ids = []
            self._arcs = None

        def table(self):
            groups = {}
            return groups
    """
    assert run_lint(tmp_path, "chord/clean.py", clean) == []


# ------------------------------------------------ the seven ban rules
# Every banned name of D001, D002, D008, D009, D010, D012 and D013, each
# flagged exactly once inside the rule's scope and not at all in the
# rule's exempt paths: ``(code, in-scope path, exempt paths, sources)``.
BANNED = [
    ("D001", "streams/gen.py", ("sim/rng.py",), [
        "import random",
        "import random as rnd",
        "from random import choice",
        "np.random.seed(0)",
        "np.random.default_rng(0)",
        "np.random.RandomState(0)",
        "numpy.random.seed(0)",
        "numpy.random.default_rng(0)",
        "numpy.random.RandomState(0)",
        "random.seed(0)",
    ]),
    ("D002", "sim/clock.py", ("perf/clock.py",), [
        "from time import time",
        "from time import time_ns",
        "from time import monotonic",
        "from time import monotonic_ns",
        "from time import perf_counter",
        "from time import perf_counter_ns",
        "from time import process_time",
        "time.time()",
        "time.time_ns()",
        "time.monotonic()",
        "time.monotonic_ns()",
        "time.perf_counter()",
        "time.perf_counter_ns()",
        "time.process_time()",
        "datetime.now()",
        "datetime.datetime.now()",
        "datetime.utcnow()",
        "datetime.today()",
        "date.today()",
    ]),
    ("D008", "analysis/timing.py", ("perf/harness.py", "benchmarks/bench_x.py"), [
        "from time import perf_counter",
        "from time import perf_counter_ns",
        "from time import process_time",
        "from time import process_time_ns",
        "time.perf_counter()",
        "time.perf_counter_ns()",
        "time.process_time()",
        "time.process_time_ns()",
    ]),
    ("D009", "workload/fanout.py", ("benchmarks/bench_x.py",), [
        "import multiprocessing",
        "import multiprocessing.pool",
        "from multiprocessing import Pool",
        "from multiprocessing.pool import ThreadPool",
        "from os import fork",
        "from os import forkpty",
        "os.fork()",
        "os.forkpty()",
    ]),
    ("D010", "core/roles/rogue.py", (
        "sim/network.py", "chord/dht.py", "core/runtime.py",
        "core/reliable.py", "workload/x.py",
    ), [
        "self.system.network.hop(1, 2, msg, None)",
        "self.network.local(3, msg)",
        "network.hop(1, 2, msg, None)",
    ]),
    ("D012", "core/roles/rogue.py", ("net/peer.py",), [
        "import socket",
        "import asyncio",
        "import threading",
        "import asyncio.streams",
        "from asyncio import sleep",
        "from socket import AF_INET",
        "from threading import Thread",
    ]),
    ("D013", "core/roles/rogue.py", (
        "core/mapping.py", "core/system.py", "perf/harness.py",
    ), [
        "self.system.mapper.refit(counts)",
        "system.mapper = mapper",
        "obj._epochs = {}",
        "obj._edges = [0.0, 1.0]",
        "obj._edges += [2.0]",
        "x.mapper += 1",
    ]),
]

BAN_CASES = [
    (code, path, exempt, source)
    for code, path, exempt, sources in BANNED
    for source in sources
]


@pytest.mark.parametrize(
    "code,path,exempt,source",
    BAN_CASES,
    ids=[f"{case[0]}:{case[3]}" for case in BAN_CASES],
)
def test_banned_name_flagged_once_in_scope_and_never_when_exempt(
    tmp_path, code, path, exempt, source
):
    assert codes(run_lint(tmp_path, path, source + "\n")) == [code]
    for exempt_path in exempt:
        assert run_lint(tmp_path, exempt_path, source + "\n") == []
