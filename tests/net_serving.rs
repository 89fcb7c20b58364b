//! Networked-serving differential suite: the socket scatter-gather path
//! ([`x100_distributed::net`]) must be **bit-identical** to the in-process
//! [`SimulatedCluster::search_scatter`] oracle — same docids, same
//! `f32::to_bits` scores, same tie-breaks — for every strategy of the
//! Table 2 ladder, and must stay that way under injected node faults
//! (kill, stall, garbage frames, worker panics) as long as a replica
//! survives. When no replica survives, the failure must surface as a
//! typed [`NetError`], never a panic reaching the coordinator.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use x100_corpus::{CollectionConfig, SyntheticCollection};
use x100_distributed::{
    run_closed_loop, CoordinatorConfig, Fault, NetCluster, NetError, NetSearchOutcome, ServeConfig,
    SimulatedCluster,
};
use x100_ir::{IndexConfig, SearchStrategy};

const TOP_N: usize = 15;

fn fixture(partitions: usize) -> (Vec<Vec<u32>>, SimulatedCluster) {
    let c = SyntheticCollection::generate(&CollectionConfig::tiny());
    // Materialized-Q8 runs all six strategies of the ladder.
    let cluster = SimulatedCluster::build(&c, partitions, &IndexConfig::materialized_q8());
    let mut queries: Vec<Vec<u32>> = c.eval_queries.iter().map(|q| q.terms.clone()).collect();
    queries.extend(c.efficiency_log.iter().take(10).cloned());
    (queries, cluster)
}

/// A config with a short hedge delay so stall tests complete quickly,
/// but a generous deadline so slow CI machines never time out a healthy
/// query.
fn test_config() -> CoordinatorConfig {
    CoordinatorConfig {
        deadline: Duration::from_secs(10),
        hedge_after: Duration::from_millis(40),
        hedge_min_samples: u64::MAX, // keep the hedge delay deterministic
        connect_timeout: Duration::from_millis(500),
    }
}

/// Asserts the networked outcome is bit-identical to the in-process
/// scatter for one query.
fn assert_bit_identical(
    cluster: &SimulatedCluster,
    net: &NetSearchOutcome,
    terms: &[u32],
    strategy: SearchStrategy,
) {
    let oracle = cluster.search_scatter(terms, strategy, TOP_N);
    assert!(oracle.failures.is_empty());
    assert_eq!(
        net.hits.len(),
        oracle.results.len(),
        "{strategy:?}: networked and in-process hit counts differ"
    );
    for (i, (got, want)) in net.hits.iter().zip(&oracle.results).enumerate() {
        assert_eq!(
            (got.0, got.1.to_bits()),
            (want.docid, want.score.to_bits()),
            "{strategy:?}: rank {i} differs from the in-process oracle"
        );
    }
}

#[test]
fn networked_results_bit_identical_across_all_strategies() {
    let (queries, cluster) = fixture(3);
    let net = NetCluster::serve(&cluster, 1, test_config()).expect("spawn servers");
    // Merged hits per wire tag, one entry per query.
    let mut by_tag = Vec::new();
    for strategy in SearchStrategy::ALL {
        let mut merged = Vec::new();
        for terms in &queries {
            let outcome = net
                .coordinator()
                .search(terms, strategy, TOP_N)
                .expect("healthy cluster serves");
            assert_bit_identical(&cluster, &outcome, terms, strategy);
            merged.push(
                outcome
                    .hits
                    .iter()
                    .map(|h| (h.0, h.1.to_bits()))
                    .collect::<Vec<_>>(),
            );
        }
        assert_eq!(strategy.wire_tag() as usize, by_tag.len());
        by_tag.push(merged);
    }
    // An old client that still sends tag 6 or 7 gets tag 2's or 4's answer.
    assert_eq!(by_tag[6], by_tag[2]);
    assert_eq!(by_tag[7], by_tag[4]);
    let stats = net.coordinator().stats();
    assert_eq!(stats.unavailable, 0);
    assert_eq!(stats.failed_over, 0);
}

/// A deadline too large for an `Instant` (here `Duration::MAX`) puts no
/// timeout on the sockets; it must not overflow, and the answers stay
/// bit-identical.
#[test]
fn unbounded_deadline_serves_bit_identically() {
    let (queries, cluster) = fixture(2);
    let config = CoordinatorConfig {
        deadline: Duration::MAX,
        ..test_config()
    };
    let net = NetCluster::serve(&cluster, 1, config).expect("spawn servers");
    for terms in queries.iter().take(5) {
        let outcome = net
            .coordinator()
            .search(terms, SearchStrategy::Bm25, TOP_N)
            .expect("healthy cluster serves");
        assert_bit_identical(&cluster, &outcome, terms, SearchStrategy::Bm25);
    }
}

#[test]
fn killed_server_fails_over_bit_identically() {
    let (queries, cluster) = fixture(3);
    let net = NetCluster::serve(&cluster, 2, test_config()).expect("spawn servers");

    // Warm every partition (and replica 0's connection pools) first, so
    // the kill hits live pooled connections, not a cold coordinator.
    let warm = net
        .coordinator()
        .search(&queries[0], SearchStrategy::Bm25, TOP_N)
        .expect("healthy cluster serves");
    assert_bit_identical(&cluster, &warm, &queries[0], SearchStrategy::Bm25);

    // Kill partition 1's replica 0 outright: existing connections reset,
    // new ones are refused.
    net.kill_server(1, 0);

    for strategy in SearchStrategy::ALL {
        for terms in &queries {
            let outcome = net
                .coordinator()
                .search(terms, strategy, TOP_N)
                .expect("replica must absorb the killed server");
            assert_bit_identical(&cluster, &outcome, terms, strategy);
        }
    }

    let stats = net.coordinator().stats();
    assert_eq!(stats.unavailable, 0, "failover must hide the dead server");
    let p1 = &stats.partitions[1];
    assert!(
        p1.failed_over >= 1 || p1.hedged >= 1,
        "partition 1 must have taken the failover path: {p1:?}"
    );
    assert!(
        p1.served_by_replica[1] > 0,
        "partition 1's surviving replica must have served"
    );
    assert!(p1.replicas_down[0], "the killed replica is marked down");
    assert!(!p1.replicas_down[1], "the serving replica stays healthy");
}

/// The in-flight case of the test above: the replica dies while a worker
/// pool has queries on its connections, not between sequential queries.
#[test]
fn replica_killed_with_queries_in_flight_fails_over_bit_identically() {
    let (queries, cluster) = fixture(3);
    let net = NetCluster::serve(&cluster, 2, test_config()).expect("spawn servers");
    let config = ServeConfig {
        queue_depth: 4,
        ..ServeConfig::new(3)
    };
    let oracle: Vec<Vec<(u32, u32)>> = queries
        .iter()
        .map(|terms| {
            let scatter = cluster.search_scatter(terms, config.strategy, config.top_n);
            assert!(scatter.failures.is_empty());
            scatter
                .results
                .iter()
                .map(|r| (r.docid, r.score.to_bits()))
                .collect()
        })
        .collect();
    let bits = |hits: &[(u32, f32)]| -> Vec<(u32, u32)> {
        hits.iter().map(|h| (h.0, h.1.to_bits())).collect()
    };
    // The fixture log many times over, so the pool is still busy long
    // after the kill lands.
    let log: Vec<Vec<u32>> = queries
        .iter()
        .cycle()
        .take(queries.len() * 160)
        .cloned()
        .collect();

    let (report, requests_after_kill) = std::thread::scope(|s| {
        // Triggered by the coordinator's own request counter, not a timer.
        let killer = s.spawn(|| {
            let requests = || net.coordinator().stats().partitions[0].requests;
            while requests() < (log.len() / 4) as u64 {
                std::thread::yield_now();
            }
            net.kill_server(0, 0);
            requests()
        });
        let report = run_closed_loop(net.coordinator(), &config, &log);
        (report, killer.join().expect("killer thread"))
    });
    // Queries reached partition 0 after its replica 0 was gone, so the
    // failover asserted below is implied, not a matter of timing.
    assert!(
        requests_after_kill < log.len() as u64,
        "the kill landed after the run ({requests_after_kill} of {} requests)",
        log.len()
    );

    assert_eq!(report.completed, log.len());
    for outcome in &report.outcomes {
        assert_eq!(
            bits(&outcome.hits),
            oracle[outcome.id % queries.len()],
            "query {} differs from the in-process oracle",
            outcome.id
        );
    }
    let stats = net.coordinator().stats();
    assert_eq!(stats.unavailable, 0, "failover must hide the dead server");
    assert!(
        stats.hedged + stats.failed_over >= 1,
        "the kill must be visible as hedges or failovers: {stats:?}"
    );
    assert!(stats.partitions[0].replicas_down[0]);

    // The survivor keeps serving after the run.
    for (terms, want) in queries.iter().zip(&oracle) {
        let outcome = net
            .coordinator()
            .search(terms, config.strategy, config.top_n)
            .expect("the surviving replica serves");
        assert_eq!(&bits(&outcome.hits), want);
        assert_eq!(outcome.partitions[0].replica, 1);
    }
}

/// Runs 4 threads × at least 200 queries through one coordinator, each
/// thread with its own strategy, and checks every answer against the
/// in-process oracle. With `kill`, that replica is killed once partition 0
/// has taken a quarter of the queries, and every thread runs 50 more
/// queries after the kill has landed.
fn concurrent_queries_bit_identical(kill: Option<(usize, usize)>) -> NetCluster {
    const THREADS: usize = 4;
    const QUERIES: usize = 200;
    let (queries, cluster) = fixture(3);
    let net = NetCluster::serve(&cluster, 2, test_config()).expect("spawn servers");
    let strategies: Vec<SearchStrategy> = SearchStrategy::ALL.into_iter().take(THREADS).collect();
    let bits = |hits: &[(u32, f32)]| -> Vec<(u32, u32)> {
        hits.iter().map(|h| (h.0, h.1.to_bits())).collect()
    };
    let oracle: Vec<Vec<Vec<(u32, u32)>>> = strategies
        .iter()
        .map(|&strategy| {
            let scatter = |terms: &Vec<u32>| cluster.search_scatter(terms, strategy, TOP_N);
            let hits = |r: &x100_distributed::ScatterResponse| {
                r.results
                    .iter()
                    .map(|h| (h.docid, h.score.to_bits()))
                    .collect()
            };
            queries.iter().map(|terms| hits(&scatter(terms))).collect()
        })
        .collect();
    let killed = AtomicBool::new(kill.is_none());
    let ran = AtomicU64::new(0);
    std::thread::scope(|s| {
        for (t, &strategy) in strategies.iter().enumerate() {
            let (net, queries, oracle, killed, ran) = (&net, &queries, &oracle[t], &killed, &ran);
            s.spawn(move || {
                let mut after_kill = 0;
                for i in 0.. {
                    after_kill += usize::from(killed.load(Ordering::SeqCst));
                    if i >= QUERIES && after_kill > QUERIES / 4 {
                        break;
                    }
                    let q = (i * THREADS + t) % queries.len();
                    let outcome = net
                        .coordinator()
                        .search(&queries[q], strategy, TOP_N)
                        .expect("a replica of every partition serves");
                    assert_eq!(bits(&outcome.hits), oracle[q], "{strategy:?} query {q}");
                    ran.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        if let Some((partition, replica)) = kill {
            let requests = || net.coordinator().stats().partitions[partition].requests;
            while requests() < (THREADS * QUERIES / 4) as u64 {
                std::thread::yield_now();
            }
            net.kill_server(partition, replica);
            killed.store(true, Ordering::SeqCst);
        }
    });
    let stats = net.coordinator().stats();
    assert_eq!(stats.unavailable, 0);
    for p in &stats.partitions {
        assert_eq!(p.requests, ran.load(Ordering::SeqCst));
        assert_eq!(p.served_by_replica.iter().sum::<u64>(), p.requests);
    }
    net
}

/// Concurrent queries share the replicas' idle pools and each run a poll
/// set of their own.
#[test]
fn concurrent_queries_through_one_coordinator_are_bit_identical() {
    let net = concurrent_queries_bit_identical(None);
    assert_eq!(net.coordinator().stats().failed_over, 0);
}

#[test]
fn concurrent_queries_survive_a_replica_killed_partway() {
    let net = concurrent_queries_bit_identical(Some((0, 0)));
    let stats = net.coordinator().stats();
    assert!(stats.hedged + stats.failed_over >= 1, "{stats:?}");
    assert!(stats.partitions[0].replicas_down[0]);
}

/// A request larger than a socket's send buffer is written over several
/// ready events, and the node reads it over several reads.
#[test]
fn a_request_larger_than_the_send_buffer_is_answered_bit_identically() {
    let (queries, cluster) = fixture(2);
    let net = NetCluster::serve(&cluster, 1, test_config()).expect("spawn servers");
    // A real query and 4 MiB of term ids past every vocabulary, which the
    // nodes skip as unknown.
    let mut terms = queries[0].clone();
    terms.extend(u32::MAX - (1 << 20)..u32::MAX);
    let oracle = cluster.search_scatter(&terms, SearchStrategy::Bm25, TOP_N);
    let outcome = net
        .coordinator()
        .search(&terms, SearchStrategy::Bm25, TOP_N);
    match (outcome, oracle.failures.first()) {
        (Ok(outcome), None) => {
            assert_bit_identical(&cluster, &outcome, &terms, SearchStrategy::Bm25)
        }
        (Err(NetError::Remote(msg)), Some(e)) => assert_eq!(msg, e.to_string()),
        (outcome, failure) => panic!("{outcome:?} where the oracle saw {failure:?}"),
    }
}

#[test]
fn stalled_server_is_hedged_around_bit_identically() {
    let (queries, cluster) = fixture(2);
    let net = NetCluster::serve(&cluster, 2, test_config()).expect("spawn servers");

    // Replica 0 of partition 0 accepts requests but never answers; the
    // hedge must fire and replica 1's answer must win, bit-identically.
    net.server(0, 0).set_fault(Fault::Stall);

    for (i, terms) in queries.iter().take(4).enumerate() {
        let strategy = SearchStrategy::ALL[i % SearchStrategy::ALL.len()];
        let outcome = net
            .coordinator()
            .search(terms, strategy, TOP_N)
            .expect("hedge must rescue the stalled partition");
        assert_bit_identical(&cluster, &outcome, terms, strategy);
    }

    let stats = net.coordinator().stats();
    assert_eq!(stats.unavailable, 0);
    assert!(
        stats.partitions[0].hedged >= 1,
        "the stall must be visible as hedged queries: {stats:?}"
    );
    // The healthy partition never needed help.
    assert_eq!(stats.partitions[1].hedged, 0);
    assert_eq!(stats.partitions[1].failed_over, 0);
    // One winner per served request: a hedge loser that answers after its
    // winner is dropped, not counted.
    for p in &stats.partitions {
        assert_eq!(
            p.served_by_replica.iter().sum::<u64>(),
            p.requests - p.unavailable,
            "partition {}: {p:?}",
            p.partition
        );
    }
}

#[test]
fn fully_stalled_partition_is_unavailable_at_the_deadline() {
    let (queries, cluster) = fixture(3);
    let deadline = Duration::from_millis(300);
    let config = CoordinatorConfig {
        deadline,
        ..test_config()
    };
    let net = NetCluster::serve(&cluster, 2, config).expect("spawn servers");
    // Both replicas of partition 1 accept and never answer: the hedge
    // fires, then the shared deadline ends the partition.
    net.server(1, 0).set_fault(Fault::Stall);
    net.server(1, 1).set_fault(Fault::Stall);

    let started = Instant::now();
    let result = net
        .coordinator()
        .search(&queries[0], SearchStrategy::Bm25, TOP_N);
    let elapsed = started.elapsed();
    match result {
        Err(NetError::PartitionUnavailable {
            partition,
            attempts,
        }) => {
            assert_eq!(partition, 1);
            assert_eq!(attempts, 2, "the hedge must have tried the second replica");
        }
        other => panic!("expected PartitionUnavailable, got {other:?}"),
    }
    assert!(
        elapsed >= deadline,
        "returned before the deadline: {elapsed:?}"
    );
    assert!(
        elapsed < deadline + Duration::from_secs(2),
        "the deadline must bound the query: {elapsed:?}"
    );
    let stats = net.coordinator().stats();
    assert_eq!(stats.partitions[1].unavailable, 1);
    assert_eq!(stats.partitions[1].hedged, 1);
    for p in stats.partitions.iter().filter(|p| p.partition != 1) {
        assert_eq!(p.unavailable, 0, "partition {} served: {p:?}", p.partition);
        assert_eq!(p.served_by_replica.iter().sum::<u64>(), 1);
    }
}

#[test]
fn with_two_partitions_down_the_error_names_the_lower_one() {
    let (queries, cluster) = fixture(3);
    let net = NetCluster::serve(&cluster, 2, test_config()).expect("spawn servers");
    for partition in [2, 1] {
        net.kill_server(partition, 0);
        net.kill_server(partition, 1);
    }

    match net
        .coordinator()
        .search(&queries[0], SearchStrategy::Bm25, TOP_N)
    {
        Err(NetError::PartitionUnavailable {
            partition,
            attempts,
        }) => {
            assert_eq!(partition, 1, "the first failure in partition order");
            assert_eq!(attempts, 2);
        }
        other => panic!("expected PartitionUnavailable, got {other:?}"),
    }
    // Every partition resolved before the query returned.
    let stats = net.coordinator().stats();
    let unavailable: Vec<u64> = stats.partitions.iter().map(|p| p.unavailable).collect();
    assert_eq!(unavailable, [0, 1, 1]);
    assert_eq!(stats.partitions[0].served_by_replica.iter().sum::<u64>(), 1);
}

#[test]
fn garbage_frames_fail_over_bit_identically() {
    let (queries, cluster) = fixture(2);
    let net = NetCluster::serve(&cluster, 2, test_config()).expect("spawn servers");

    // Replica 0 of partition 1 answers every request with a frame whose
    // checksum is wrong: the client must reject it (never decode garbage
    // hits) and fail over.
    net.server(1, 0).set_fault(Fault::Garbage);

    for (i, terms) in queries.iter().take(4).enumerate() {
        let strategy = SearchStrategy::ALL[i % SearchStrategy::ALL.len()];
        let outcome = net
            .coordinator()
            .search(terms, strategy, TOP_N)
            .expect("failover must absorb the corrupting replica");
        assert_bit_identical(&cluster, &outcome, terms, strategy);
    }

    let stats = net.coordinator().stats();
    assert_eq!(stats.unavailable, 0);
    assert!(
        stats.partitions[1].failed_over >= 1,
        "checksum rejection must surface as failovers: {stats:?}"
    );

    // Clearing the fault lets the replica re-enter rotation: the next
    // successful exchange marks it back up.
    net.server(1, 0).set_fault(Fault::None);
    for terms in queries.iter().take(8) {
        let outcome = net
            .coordinator()
            .search(terms, SearchStrategy::Bm25, TOP_N)
            .expect("recovered cluster serves");
        assert_bit_identical(&cluster, &outcome, terms, SearchStrategy::Bm25);
    }
}

#[test]
fn exhausted_replicas_yield_typed_error_not_panic() {
    let (queries, cluster) = fixture(2);
    let config = CoordinatorConfig {
        // Tight deadline: every attempt is an instant connection refusal,
        // so nothing in this test actually needs the budget.
        deadline: Duration::from_secs(2),
        ..test_config()
    };
    let net = NetCluster::serve(&cluster, 2, config).expect("spawn servers");

    // Kill *both* replicas of partition 0.
    net.kill_server(0, 0);
    net.kill_server(0, 1);

    match net
        .coordinator()
        .search(&queries[0], SearchStrategy::Bm25, TOP_N)
    {
        Err(NetError::PartitionUnavailable {
            partition,
            attempts,
        }) => {
            assert_eq!(partition, 0);
            assert_eq!(attempts, 2, "both replicas must have been tried");
        }
        other => panic!("expected PartitionUnavailable, got {other:?}"),
    }
    let stats = net.coordinator().stats();
    assert!(stats.unavailable >= 1);
    // The healthy partition's state is untouched by its neighbor's death.
    assert_eq!(stats.partitions[1].unavailable, 0);
}

#[test]
fn worker_panic_is_contained_to_a_typed_error() {
    // A panic inside the node's search (the injected data-level fault)
    // kills the connection worker on *every* replica — they share the
    // partition's node state, so failover cannot mask a data fault. The
    // coordinator must report the partition as unavailable through the
    // typed path; no panic may cross the sockets.
    let (queries, cluster) = fixture(3);
    let net = NetCluster::serve(&cluster, 2, test_config()).expect("spawn servers");

    cluster.nodes()[2].inject_search_panic_for_tests(true);
    match net
        .coordinator()
        .search(&queries[0], SearchStrategy::Bm25, TOP_N)
    {
        Err(NetError::PartitionUnavailable {
            partition,
            attempts,
        }) => {
            assert_eq!(partition, 2);
            assert_eq!(attempts, 2);
        }
        other => panic!("expected PartitionUnavailable, got {other:?}"),
    }

    // Disarming heals the partition: replicas re-enter rotation on their
    // next success and results are bit-identical again.
    cluster.nodes()[2].inject_search_panic_for_tests(false);
    for strategy in SearchStrategy::ALL {
        let outcome = net
            .coordinator()
            .search(&queries[0], strategy, TOP_N)
            .expect("recovered partition serves");
        assert_bit_identical(&cluster, &outcome, &queries[0], strategy);
    }
    let down = &net.coordinator().stats().partitions[2].replicas_down;
    assert!(!down[0], "first replica healed by its success");
}

#[test]
fn remote_planning_errors_propagate_as_typed_remote() {
    // A strategy the index cannot plan (materialized scoring on a
    // non-materialized index) is a deterministic remote refusal: it must
    // come back as NetError::Remote — not a panic, and not a futile
    // failover (every replica would refuse identically).
    let c = SyntheticCollection::generate(&CollectionConfig::tiny());
    let cluster = SimulatedCluster::build(&c, 2, &IndexConfig::compressed());
    let net = NetCluster::serve(&cluster, 2, test_config()).expect("spawn servers");
    let terms = c.eval_queries[0].terms.clone();

    match net
        .coordinator()
        .search(&terms, SearchStrategy::Bm25Materialized, TOP_N)
    {
        Err(NetError::Remote(msg)) => {
            assert!(
                !msg.is_empty(),
                "remote error must carry the node's message"
            );
        }
        other => panic!("expected Remote error, got {other:?}"),
    }
    let stats = net.coordinator().stats();
    assert_eq!(
        stats.failed_over, 0,
        "deterministic refusals must not trigger failover"
    );
    assert!(
        stats
            .partitions
            .iter()
            .all(|p| p.replicas_down.iter().all(|&d| !d)),
        "a planning refusal is a healthy transport; nothing goes down"
    );
}
