"""Beyond the paper — quantifying the adaptivity claim under churn.

The paper asserts the system absorbs "data center failures ... and
addition of new data centers as well as new streams, without the need
to temporarily block the normal system operation", but its evaluation
is churn-free.  This bench drives sustained Poisson crash/join churn at
increasing rates and measures what the claim actually buys:

* **update availability** — MBR originations per node per second keep
  flowing (surviving sources are unaffected);
* **query availability** — a long-lived similarity query on a protected
  donor keeps receiving responses;
* the failure/join counts actually realised.

A second sweep holds churn fixed and raises the per-hop loss rate with
the reliability layer (acks + retries) and soft-state refresh enabled,
measuring the delivery ratio the ack/retry machinery actually achieves
on a lossy fabric.

``churn_system`` is shared with ``bench_replication_availability``.
"""

from repro.bench import format_series
from repro.core import KIND, MiddlewareConfig, SimilarityQuery, StreamIndexSystem, WorkloadConfig
from repro.workload import ChurnWorkload

N_NODES = 24
MEASURE_MS = 25_000.0
CHURN_RATES = (0.0, 0.1, 0.3)  # events/s, each for failures AND joins
LOSS_RATES = (0.0, 0.02, 0.05, 0.10)  # per-hop loss, at fixed 0.1/s churn


def churn_system(n_nodes, seed, config, rate, measure_ms):
    """N nodes, one stream each, Poisson crash/join churn, one long query.

    The client (node 0) and the donor whose stream the query copies
    (node 4) are protected from churn.  The query is posted at stats
    reset and lives past the ``measure_ms`` window that is then run.
    """
    system = StreamIndexSystem(n_nodes, config, seed=seed, with_stabilizer=True)
    system.attach_random_walk_streams()
    system.warmup()

    client = system.app(0)
    donor_app = system.app(4)
    donor = next(iter(donor_app.sources.values()))
    churn = ChurnWorkload(
        system,
        fail_rate_per_s=rate,
        join_rate_per_s=rate,
        protect=[client.node_id, donor_app.node_id],
    ).start()

    system.reset_stats()
    query = SimilarityQuery(
        pattern=donor.extractor.window.values(),
        radius=0.4,
        lifespan_ms=measure_ms + 5_000.0,
    )
    qid = client.post_similarity_query(query)
    system.run(measure_ms)
    churn.stop()
    return system, client, churn, qid, query


def run_at(rate, seed=7):
    """Update and query availability at one churn rate."""
    config = MiddlewareConfig(
        window_size=64,
        batch_size=2,
        workload=WorkloadConfig(qrate_per_s=0.0),
    )
    system, client, churn, qid, _ = churn_system(N_NODES, seed, config, rate, MEASURE_MS)
    stats = system.network.stats
    seconds = MEASURE_MS / 1000.0
    live = sum(1 for a in system.all_apps if a.node.alive)
    return {
        "mbr rate /node/s": stats.originations[KIND.MBR] / live / seconds,
        "responses received": len(client.similarity_results[qid]) and 1.0 or 0.0,
        "matches": float(len(client.similarity_results[qid])),
        "failures": float(churn.failures),
        "joins": float(churn.joins),
    }


def run_lossy(loss, seed=7):
    """Delivery at one per-hop loss rate, under 0.1/s churn."""
    config = MiddlewareConfig(
        window_size=64,
        batch_size=2,
        reliable_delivery=True,
        refresh_period_ms=2_000.0,
        loss_rate=loss,
        duplicate_rate=0.01,
        workload=WorkloadConfig(qrate_per_s=0.0),
    )
    system, client, _, qid, _ = churn_system(N_NODES, seed, config, 0.1, MEASURE_MS)
    stats = system.network.stats
    return {
        "delivery ratio": stats.delivery_ratio(),
        "eventual delivery": system.eventual_delivery_ratio(),
        "retransmissions": float(sum(stats.retransmissions.values())),
        "dead letters": float(sum(stats.dead_letters.values())),
        "drops": float(stats.total_drops()),
        "matches": float(len(client.similarity_results[qid])),
    }


def merge_series(rows):
    """Column-major merge of per-x value dicts, in x order."""
    series = {}
    for row in rows:
        for key, value in row.items():
            series.setdefault(key, []).append(value)
    return series


def test_availability_under_churn(benchmark, save_result):
    def compute():
        return merge_series(run_at(rate) for rate in CHURN_RATES)

    series = benchmark.pedantic(compute, rounds=1, iterations=1)
    save_result(
        "churn_availability",
        format_series(
            f"Adaptivity under churn (N={N_NODES}, {MEASURE_MS/1000:.0f}s window)",
            "churn rate (fail+join /s)",
            CHURN_RATES,
            series,
        ),
    )

    # churn actually happened at the non-zero rates
    assert series["failures"][1] >= 1 and series["failures"][2] >= 3
    assert series["joins"][2] >= 3
    # the query was answered at EVERY churn rate (availability)
    assert all(v == 1.0 for v in series["responses received"])
    assert all(m >= 1 for m in series["matches"])
    # update flow stays within 2x of the churn-free rate
    base = series["mbr rate /node/s"][0]
    for rate_val in series["mbr rate /node/s"][1:]:
        assert rate_val > 0.3 * base


def test_availability_under_loss(benchmark, save_result):
    def compute():
        return merge_series(run_lossy(loss) for loss in LOSS_RATES)

    series = benchmark.pedantic(compute, rounds=1, iterations=1)
    save_result(
        "loss_availability",
        format_series(
            f"Delivery under loss (N={N_NODES}, churn 0.1/s, acks+retries+refresh)",
            "per-hop loss rate",
            LOSS_RATES,
            series,
        ),
    )

    # loss actually bites at the non-zero rates and retries answer it
    assert all(d > 0 for d in series["drops"][1:])
    assert all(r > 0 for r in series["retransmissions"][1:])
    # ... and delivery stays effectively complete once settled
    assert all(e >= 0.99 for e in series["eventual delivery"])
    # the query finds matches at every loss rate
    assert all(m >= 1 for m in series["matches"])
