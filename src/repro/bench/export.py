"""CSV dump of a run's message accounting.

:func:`stats_to_csv_string` writes every
:class:`~repro.sim.network.MessageStats` counter in a canonical order,
the byte-identity witness of the determinism tests.
"""

from __future__ import annotations

import csv
import io

__all__ = ["stats_to_csv_string"]


def stats_to_csv_string(stats) -> str:
    """Dump every :class:`~repro.sim.network.MessageStats` counter as CSV.

    Rows are ``counter,key,value`` with keys sorted, so two runs produce
    byte-identical output exactly when their message accounting is
    identical — the comparison the determinism regression test makes.
    Float values are written with ``repr`` (shortest exact form), so
    even latency sums must match bit-for-bit.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["counter", "key", "value"])

    counters = [
        ("sends", stats.sends),
        ("receives", stats.receives),
        ("sends_by_kind", stats.sends_by_kind),
        ("originations", stats.originations),
        ("drops_per_kind", stats.drops_per_kind),
        ("duplicates_by_kind", stats.duplicates_by_kind),
        ("duplicates_suppressed", stats.duplicates_suppressed),
        ("retransmissions", stats.retransmissions),
        ("dead_letters", stats.dead_letters),
        ("reliable_sends", stats.reliable_sends),
        ("reliable_acked", stats.reliable_acked),
        ("reliable_cancelled", stats.reliable_cancelled),
        ("unknown_payloads", stats.unknown_payloads),
        ("read_repairs", stats.read_repairs),
        ("handoffs_enqueued", stats.handoffs_enqueued),
        ("handoffs_drained", stats.handoffs_drained),
        ("publishes_shed", stats.publishes_shed),
        ("backpressure_signals", stats.backpressure_signals),
        ("source_throttles", stats.source_throttles),
    ]
    for name, counter in counters:
        for key in sorted(counter, key=repr):
            writer.writerow([name, repr(key), counter[key]])
    for name, table in (
        ("hops_by_kind", stats.hops_by_kind),
        ("latency_by_kind", stats.latency_by_kind),
    ):
        for kind in sorted(table):
            total, count = table[kind]
            writer.writerow([name, kind, f"{total!r}/{count!r}"])
    writer.writerow(["meta", "in_flight_at_reset", stats.in_flight_at_reset])
    return buf.getvalue()
