//! Property tests for the discrete-event scheduler.

use std::time::Duration;

use proptest::prelude::*;
use x100_distributed::{simulate_run, JitterModel, RunConfig};

fn compute_matrix() -> impl Strategy<Value = Vec<Vec<Duration>>> {
    (1usize..40, 1usize..9).prop_flat_map(|(queries, partitions)| {
        prop::collection::vec(
            prop::collection::vec((1u64..5000).prop_map(Duration::from_micros), partitions),
            queries,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn scheduler_is_deterministic(compute in compute_matrix(), streams in 1usize..6) {
        let servers = compute[0].len();
        let cfg = RunConfig::streams(servers, streams);
        prop_assert_eq!(simulate_run(&compute, &cfg), simulate_run(&compute, &cfg));
    }

    #[test]
    fn latency_bounds_hold(compute in compute_matrix()) {
        let servers = compute[0].len();
        let stats = simulate_run(&compute, &RunConfig::servers(servers));
        // Per-query latency >= the largest single-server work of any query
        // (a query cannot finish before its slowest server computes).
        prop_assert!(stats.server_max >= stats.server_avg);
        prop_assert!(stats.server_avg >= stats.server_min);
        prop_assert!(stats.avg_latency >= stats.server_max);
        prop_assert!(stats.makespan >= stats.avg_latency);
        prop_assert_eq!(stats.amortized, stats.makespan / stats.queries as u32);
    }

    #[test]
    fn more_streams_never_hurt_throughput_without_jitter(
        compute in compute_matrix(),
    ) {
        let servers = compute[0].len();
        let no_jitter = JitterModel {
            base: Duration::from_micros(500),
            sigma: 0.0,
            seed: 1,
        };
        let mut prev_makespan = None;
        for streams in [1usize, 2, 4] {
            let mut cfg = RunConfig::streams(servers, streams);
            cfg.jitter = no_jitter;
            let stats = simulate_run(&compute, &cfg);
            if let Some(prev) = prev_makespan {
                // Pipelining more streams can only shrink (or keep) the
                // makespan when overheads are deterministic.
                prop_assert!(
                    stats.makespan <= prev,
                    "streams {} makespan {:?} > previous {:?}",
                    streams, stats.makespan, prev
                );
            }
            prev_makespan = Some(stats.makespan);
        }
    }

    #[test]
    fn fewer_servers_never_less_total_work(compute in compute_matrix()) {
        // With jitter off, per-query server_max with 1 server equals the
        // query's total compute plus one dispatch: the serial bound.
        let servers = compute[0].len();
        let no_jitter = JitterModel {
            base: Duration::ZERO,
            sigma: 0.0,
            seed: 1,
        };
        let mut one = RunConfig::servers(1);
        one.jitter = no_jitter;
        one.merge_overhead = Duration::ZERO;
        let mut all = RunConfig::servers(servers);
        all.jitter = no_jitter;
        all.merge_overhead = Duration::ZERO;
        let s1 = simulate_run(&compute, &one);
        let sn = simulate_run(&compute, &all);
        prop_assert!(sn.server_max <= s1.server_max);
    }
}
