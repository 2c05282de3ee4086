"""Tests for the CSV dump of message accounting."""


def test_stats_csv_covers_every_messagestats_counter():
    """Audit guard: a new MessageStats field must show up in the CSV dump.

    `stats_to_csv_string` is the byte-identity witness for the
    determinism regression tests; a counter added to MessageStats but
    not to the dump would silently escape that comparison.
    """
    from repro.bench.export import stats_to_csv_string
    from repro.sim.network import MessageStats

    stats = MessageStats()
    dumped = set()
    for line in stats_to_csv_string(stats).splitlines()[1:]:
        dumped.add(line.split(",", 1)[0])
    # every public data attribute of a fresh MessageStats is either a
    # counter (dumped under its own name) or scalar metadata (meta row)
    for name, value in vars(stats).items():
        if name.startswith("_"):
            continue
        expected = "meta" if isinstance(value, (int, float)) else name
        counter_names = {
            "sends", "receives", "sends_by_kind", "hops_by_kind",
            "latency_by_kind", "originations", "drops_per_kind",
            "duplicates_by_kind", "duplicates_suppressed",
            "retransmissions", "dead_letters", "reliable_sends",
            "reliable_acked", "reliable_cancelled", "unknown_payloads",
            "read_repairs", "handoffs_enqueued", "handoffs_drained",
            "publishes_shed", "backpressure_signals", "source_throttles",
        }
        assert expected == "meta" or expected in counter_names, (
            f"MessageStats.{name} is not covered by stats_to_csv_string; "
            "add it to the export (and to this list)"
        )
