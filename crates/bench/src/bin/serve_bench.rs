//! **Serving trajectory** — concurrent query serving through the worker
//! pool, swept over worker counts, with results pinned bit-identical to
//! sequential execution and the trajectory recorded to `BENCH_serve.json`.
//!
//! The setup reproduces the paper's serving condition at one node: a
//! materialized-score index (the Table 2 ladder's fastest run) served by a
//! pool of workers that clone one [`x100_ir::QueryExecutor`] over a shared
//! lock-striped buffer pool. The pool runs **cold** with a capacity far
//! below the index size and *enacted* miss latency
//! ([`x100_storage::BufferManager::with_simulated_miss_latency`]): every
//! miss sleeps its simulated disk cost inside the query that triggered it,
//! so added workers overlap I/O waits exactly as a real server overlaps
//! outstanding disk requests — which is where the 1 → N throughput scaling
//! comes from even on a single-core harness (on multicore, CPU overlap
//! adds on top).
//!
//! For every worker count the run asserts, in process, that each query's
//! `(docid, score)` hits are **bit-identical** to the single-threaded
//! reference — concurrency must never change results. At `--scale medium`
//! and above, the sweep additionally asserts the ≥ 2.5× closed-loop QPS
//! gain from 1 to 4 workers that the serving subsystem exists to deliver.
//! A final open-loop run at ~60 % of peak capacity records p50/p95/p99
//! under a fixed arrival rate.
//!
//! With `--segment <path>` the index is not built at all: a segment file
//! written by `scale_pipeline --persist` is reopened **cold in this
//! process** — every buffer-pool miss is then a *real* `pread` from the
//! segment (the simulated disk cost stays on top as the timing overlay),
//! so the sweep measures the true disk-backed serving path. The
//! bit-identity assertion is unchanged: a reopened segment must serve
//! exactly what the in-memory index served.
//!
//! With `--nodes N` the single executor is replaced by the **networked
//! scatter-gather path**: the collection is partitioned over N real
//! [`x100_distributed::NodeServer`]s (each a TCP endpoint, `--replicas R`
//! serving endpoints per partition) and every worker-pool query runs
//! through the [`x100_distributed::Coordinator`]'s deadline/hedge/failover
//! machinery. Bit-identity is then asserted against the in-process
//! `search_scatter` oracle, and the trajectory gains per-node tail-latency
//! attribution plus `hedged` / `failed_over` counters. `--kill-node`
//! additionally kills one replica of partition 0 *mid-sweep* — with
//! `--replicas >= 2` every query must still complete bit-identically via
//! failover.
//!
//! With `--mixed` the query log becomes the **two-class workload**: short
//! (1–2 term) and long (8-term disjunctive) Zipfian queries interleaved
//! 1:1. The run serves it through the **two-lane admission queue** (short
//! queries ride the priority lane, the long lane is served at least every
//! 4th dequeue), and the report breaks latency out per class — the
//! short-query p99 is the number the two-lane queue exists to protect.
//!
//! Usage: `serve_bench [--scale tiny|small|medium|large|xlarge] [--workers 1,2,4]
//! [--queries N] [--seed N] [--segment path] [--mixed]
//! [--nodes N [--replicas R] [--kill-node]]`
//! (defaults: medium, sweep 1,2,4, 500 queries, seed 0xC0FFEE, replicas 2)

use std::sync::Arc;
use std::time::{Duration, Instant};

use x100_bench::{
    take_flag_value, take_scale_flag_or_exit, take_usize_flag_or_exit, write_trajectory, Json,
    TablePrinter,
};
use x100_corpus::{CollectionStream, QueryLogConfig, QueryLogGenerator, Scale};
use x100_distributed::{
    run_closed_loop, run_open_loop, Coordinator, CoordinatorConfig, LatencyHistogram, NetCluster,
    ServeConfig, ServeReport, SimulatedCluster,
};
use x100_ir::{build_index_streaming, IndexConfig, InvertedIndex, QueryExecutor, SearchStrategy};
use x100_storage::{BufferManager, BufferMode, DiskModel};

const TOP_N: usize = 20;
/// `--mixed` class boundary: queries with at most this many terms are
/// "short" and ride the priority lane.
const SHORT_MAX_TERMS: usize = 2;
/// Term count of the long disjunctive class in `--mixed`.
const LONG_QUERY_TERMS: usize = 8;

fn take_workers_flag(args: &mut Vec<String>) -> Vec<usize> {
    let Some(spec) = take_flag_value(args, "--workers") else {
        return vec![1, 2, 4];
    };
    let parsed: Result<Vec<usize>, _> = spec.split(',').map(str::parse).collect();
    match parsed {
        Ok(list) if !list.is_empty() && list.iter().all(|&w| w > 0) => list,
        _ => {
            eprintln!("error: --workers expects a comma-separated list of positive integers");
            std::process::exit(2);
        }
    }
}

/// Total compressed bytes of the index's posting columns — what a fully
/// resident pool would hold. Uses the columns' own accounting, which for
/// disk-backed columns comes from the segment's block directory without
/// faulting a single block in.
fn index_compressed_bytes(index: &InvertedIndex) -> usize {
    ["docid", "tf", "score"]
        .iter()
        .filter_map(|name| index.td().column(name).ok())
        .map(|col| col.compressed_bytes())
        .sum()
}

/// A fresh cold executor over its own pool — each sweep point starts from
/// an identical buffer state. The disk is the paper's *per-node* storage
/// (one commodity disk, §3.4), not the 12-disk RAID: a serving node's
/// queries are I/O-bound, which is exactly the regime where worker
/// concurrency pays.
/// `sleep_io` additionally enacts each miss's simulated disk cost as a
/// real sleep on the touching thread (off for the sequential reference,
/// whose results do not depend on timing).
fn cold_executor(index: &Arc<InvertedIndex>, capacity: usize, sleep_io: bool) -> QueryExecutor {
    let mut pool = BufferManager::with_mode(DiskModel::single_disk(), BufferMode::Cold, capacity);
    if sleep_io {
        pool = pool.with_simulated_miss_latency();
    }
    QueryExecutor::with_buffer_manager(index.clone(), Arc::new(pool))
}

fn percentiles_json(report: &ServeReport) -> Vec<(&'static str, Json)> {
    let ms = |d: std::time::Duration| Json::Num(d.as_secs_f64() * 1e3);
    vec![
        ("qps", Json::Num(report.qps)),
        ("wall_s", Json::Num(report.wall.as_secs_f64())),
        ("latency_p50_ms", ms(report.latency.p50())),
        ("latency_p95_ms", ms(report.latency.p95())),
        ("latency_p99_ms", ms(report.latency.p99())),
        ("latency_mean_ms", ms(report.latency.mean())),
        ("queue_wait_p95_ms", ms(report.queue_wait.p95())),
        ("service_p50_ms", ms(report.service.p50())),
        ("io_reads", Json::Num(report.io.reads as f64)),
        ("io_bytes", Json::Num(report.io.bytes as f64)),
        (
            "io_sim_ms",
            Json::Num(report.io.sim_time.as_secs_f64() * 1e3),
        ),
    ]
}

/// The `--mixed` workload: short (1–2 term) and long (8-term disjunctive)
/// Zipfian queries interleaved 1:1 — the traffic shape where size-aware
/// two-lane admission pays, because a short lookup otherwise queues behind
/// multi-list disjunctions. Deterministic in `seed` like the plain log.
fn mixed_query_log(base: &QueryLogConfig, vocab_size: usize, seed: u64, n: usize) -> Vec<Vec<u32>> {
    let short_cfg = QueryLogConfig {
        avg_terms: 1.5,
        max_terms: SHORT_MAX_TERMS,
        ..base.clone()
    };
    let long_cfg = QueryLogConfig {
        avg_terms: LONG_QUERY_TERMS as f64,
        max_terms: LONG_QUERY_TERMS,
        ..base.clone()
    };
    let target_long = LONG_QUERY_TERMS.min(vocab_size);
    let mut short_gen = QueryLogGenerator::new(short_cfg, vocab_size, seed);
    let mut long_gen = QueryLogGenerator::new(long_cfg, vocab_size, seed ^ 0x9E37_79B9);
    (0..n)
        .map(|i| {
            if i % 2 == 0 {
                short_gen.next().expect("generator is endless")
            } else {
                // The generator's geometric length draw tops out below 8;
                // merge draws until the query has its full distinct-term
                // complement.
                let mut terms = long_gen.next().expect("generator is endless");
                terms.truncate(target_long);
                while terms.len() < target_long {
                    for t in long_gen.next().expect("generator is endless") {
                        if !terms.contains(&t) {
                            terms.push(t);
                            if terms.len() == target_long {
                                break;
                            }
                        }
                    }
                }
                terms
            }
        })
        .collect()
}

/// Splits a report's end-to-end latencies by query class, `(short, long)`.
fn class_histograms(
    report: &ServeReport,
    queries: &[Vec<u32>],
) -> (LatencyHistogram, LatencyHistogram) {
    let mut short = LatencyHistogram::new();
    let mut long = LatencyHistogram::new();
    for o in &report.outcomes {
        if queries[o.id].len() <= SHORT_MAX_TERMS {
            short.record(o.latency);
        } else {
            long.record(o.latency);
        }
    }
    (short, long)
}

fn class_json(label: &'static str, h: &LatencyHistogram) -> (&'static str, Json) {
    (
        label,
        Json::obj(vec![
            ("count", Json::Num(h.count() as f64)),
            ("latency_p50_ms", Json::Num(h.p50().as_secs_f64() * 1e3)),
            ("latency_p99_ms", Json::Num(h.p99().as_secs_f64() * 1e3)),
        ]),
    )
}

/// Removes a boolean flag from `args`, returning whether it was present.
fn take_bool_flag(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let scale = take_scale_flag_or_exit(&mut args).unwrap_or(Scale::Medium);
    let workers_sweep = take_workers_flag(&mut args);
    let num_queries = take_usize_flag_or_exit(&mut args, "--queries", 500);
    let seed = take_usize_flag_or_exit(&mut args, "--seed", 0xC0FFEE) as u64;
    let segment_path = take_flag_value(&mut args, "--segment");
    let nodes_flag = take_flag_value(&mut args, "--nodes");
    let replicas = take_usize_flag_or_exit(&mut args, "--replicas", 2);
    let kill_node = take_bool_flag(&mut args, "--kill-node");
    let mixed = take_bool_flag(&mut args, "--mixed");
    if mixed && nodes_flag.is_some() {
        eprintln!("error: --mixed is a single-node workload; drop --nodes");
        std::process::exit(2);
    }
    if let Some(unknown) = args.first() {
        eprintln!("error: unknown argument {unknown:?}");
        std::process::exit(2);
    }

    if let Some(spec) = nodes_flag {
        let nodes = match spec.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("error: --nodes expects a positive integer");
                std::process::exit(2);
            }
        };
        if segment_path.is_some() {
            eprintln!("error: --nodes builds per-partition indexes; --segment is incompatible");
            std::process::exit(2);
        }
        if replicas == 0 || (kill_node && replicas < 2) {
            eprintln!("error: --kill-node needs --replicas >= 2 (someone must survive)");
            std::process::exit(2);
        }
        run_networked(
            scale,
            nodes,
            replicas,
            kill_node,
            &workers_sweep,
            num_queries,
            seed,
        );
        return;
    }
    if kill_node {
        eprintln!("error: --kill-node requires --nodes");
        std::process::exit(2);
    }

    let cfg = scale.config();
    eprintln!(
        "serve_bench scale={scale}: {} docs, sweep {:?} workers, {num_queries} queries",
        cfg.num_docs, workers_sweep
    );

    // Either reopen a persisted segment cold (real preads on every pool
    // miss) or build the materialized-score index in memory (streamed
    // generation).
    let t0 = Instant::now();
    let mut open_stats = None;
    let index = match &segment_path {
        Some(path) => {
            let (index, stats) = InvertedIndex::open_segment_with_stats(path)
                .unwrap_or_else(|e| panic!("open segment {path}: {e}"));
            eprintln!(
                "opened segment {path}: {} docs, {} postings, cold \
                 ({:.1} KiB resident metadata, {:.1} KiB directories)",
                index.stats().num_docs,
                index.num_postings(),
                stats.resident_meta_bytes as f64 / 1024.0,
                stats.directory_bytes as f64 / 1024.0,
            );
            open_stats = Some(stats);
            index
        }
        None => {
            let stream = CollectionStream::new(&cfg);
            let (index, _tail) =
                build_index_streaming(stream, &IndexConfig::materialized_q8(), scale.chunk_size());
            index
        }
    };
    let index = Arc::new(index);
    // Reopened segments may predate score materialization; serve with the
    // fastest strategy the index actually supports. The mixed workload's
    // long queries are disjunctions, so it never takes the two-pass plan.
    let (strategy, strategy_name) = match (index.has_materialized_scores(), mixed) {
        (true, _) => (SearchStrategy::Bm25Materialized, "bm25_materialized"),
        (false, true) => (SearchStrategy::Bm25, "bm25"),
        (false, false) => (SearchStrategy::Bm25TwoPass, "bm25_two_pass"),
    };
    let build_s = t0.elapsed().as_secs_f64();
    let compressed = index_compressed_bytes(&index);
    // A deliberately small pool (1/16 of the index, ≥ 1 MiB) keeps the
    // serving runs in the cold, I/O-bound regime at every sweep point.
    let pool_capacity = (compressed / 16).max(1 << 20);
    eprintln!(
        "indexed {} postings in {build_s:.2}s; columns {:.1} MiB compressed, pool {:.1} MiB",
        index.num_postings(),
        compressed as f64 / (1 << 20) as f64,
        pool_capacity as f64 / (1 << 20) as f64,
    );

    // One reproducible Zipfian query log for every run. In segment mode
    // the vocabulary comes from the reopened index (the segment may have
    // been written at a different scale than `--scale` implies).
    let vocab_size = if segment_path.is_some() {
        index.num_terms()
    } else {
        cfg.vocab_size
    };
    let queries: Vec<Vec<u32>> = if mixed {
        mixed_query_log(&cfg.query_log, vocab_size, seed, num_queries)
    } else {
        QueryLogGenerator::new(cfg.query_log.clone(), vocab_size, seed)
            .take(num_queries)
            .collect()
    };

    // Single-threaded reference: the ground truth every concurrent run
    // must reproduce bit-identically.
    let reference_exec = cold_executor(&index, pool_capacity, false);
    let reference: Vec<Vec<(u32, f32)>> = queries
        .iter()
        .map(|q| {
            reference_exec
                .search(q, strategy, TOP_N)
                .expect("reference search")
                .results
                .iter()
                .map(|r| (r.docid, r.score))
                .collect()
        })
        .collect();

    let mut table = if mixed {
        TablePrinter::new(&[
            "workers",
            "qps",
            "short p50 ms",
            "short p99 ms",
            "long p50 ms",
            "long p99 ms",
            "io sim ms",
        ])
    } else {
        TablePrinter::new(&[
            "workers",
            "qps",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "queue p95 ms",
            "io sim ms",
        ])
    };
    let mut sweep_json = Vec::new();
    let mut qps_by_workers: Vec<(usize, f64)> = Vec::new();
    for &workers in &workers_sweep {
        let exec = cold_executor(&index, pool_capacity, true);
        let mut run_cfg = ServeConfig::new(workers);
        run_cfg.queue_depth = workers * 2;
        run_cfg.strategy = strategy;
        run_cfg.top_n = TOP_N;
        if mixed {
            run_cfg.short_query_max_terms = Some(SHORT_MAX_TERMS);
        }
        let report = run_closed_loop(&exec, &run_cfg, &queries);
        assert_eq!(report.completed, queries.len());
        for (i, outcome) in report.outcomes.iter().enumerate() {
            assert_eq!(
                outcome.hits, reference[i],
                "concurrent hits diverged from sequential on query {i} at {workers} workers"
            );
        }
        eprintln!(
            "{workers} workers: {:.1} qps, p99 {:.1} ms (bit-identical to sequential)",
            report.qps,
            report.latency.p99().as_secs_f64() * 1e3
        );
        let mut entry = vec![("workers", Json::Num(workers as f64))];
        entry.extend(percentiles_json(&report));
        if mixed {
            let (short_h, long_h) = class_histograms(&report, &queries);
            table.push_row(vec![
                workers.to_string(),
                format!("{:.1}", report.qps),
                format!("{:.2}", short_h.p50().as_secs_f64() * 1e3),
                format!("{:.2}", short_h.p99().as_secs_f64() * 1e3),
                format!("{:.2}", long_h.p50().as_secs_f64() * 1e3),
                format!("{:.2}", long_h.p99().as_secs_f64() * 1e3),
                format!("{:.0}", report.io.sim_time.as_secs_f64() * 1e3),
            ]);
            entry.push(class_json("short", &short_h));
            entry.push(class_json("long", &long_h));
        } else {
            table.push_row(vec![
                workers.to_string(),
                format!("{:.1}", report.qps),
                format!("{:.2}", report.latency.p50().as_secs_f64() * 1e3),
                format!("{:.2}", report.latency.p95().as_secs_f64() * 1e3),
                format!("{:.2}", report.latency.p99().as_secs_f64() * 1e3),
                format!("{:.2}", report.queue_wait.p95().as_secs_f64() * 1e3),
                format!("{:.0}", report.io.sim_time.as_secs_f64() * 1e3),
            ]);
        }
        entry.push(("identical_to_sequential", Json::Bool(true)));
        sweep_json.push(Json::obj(entry));
        qps_by_workers.push((workers, report.qps));
    }

    // The serving subsystem's reason to exist: worker scaling. Asserted at
    // the scales where the cold pool makes queries I/O-bound (tiny/small
    // indexes fit the pool floor, so they stay CPU-bound and are exempt).
    let qps_at = |w: usize| {
        qps_by_workers
            .iter()
            .find(|&&(ws, _)| ws == w)
            .map(|&(_, q)| q)
    };
    let scaling_1_to_4 = match (qps_at(1), qps_at(4)) {
        (Some(one), Some(four)) if one > 0.0 => Some(four / one),
        _ => None,
    };
    if let Some(ratio) = scaling_1_to_4 {
        eprintln!("1 -> 4 worker scaling: {ratio:.2}x");
        // In segment mode real pread times ride on top of the simulated
        // sleeps, so the floor is only asserted for the purely simulated
        // in-memory runs where timing is deterministic.
        if scale >= Scale::Medium && segment_path.is_none() {
            assert!(
                ratio >= 2.5,
                "1 -> 4 workers yielded only {ratio:.2}x QPS (expected >= 2.5x)"
            );
        }
    }

    // Open-loop at ~60 % of the sweep's best capacity: latency at a fixed
    // arrival rate, measured from the schedule (no coordinated omission).
    let best_qps = qps_by_workers.iter().map(|&(_, q)| q).fold(0.0, f64::max);
    let open_workers = *workers_sweep.iter().max().expect("non-empty sweep");
    let open_rate = best_qps * 0.6;
    let open_json = if open_rate > 0.0 {
        let exec = cold_executor(&index, pool_capacity, true);
        let mut run_cfg = ServeConfig::new(open_workers);
        run_cfg.queue_depth = open_workers * 2;
        run_cfg.strategy = strategy;
        run_cfg.top_n = TOP_N;
        if mixed {
            run_cfg.short_query_max_terms = Some(SHORT_MAX_TERMS);
        }
        let report = run_open_loop(&exec, &run_cfg, &queries, open_rate);
        eprintln!(
            "open loop at {open_rate:.0} q/s, {open_workers} workers: p50 {:.1} ms, p99 {:.1} ms",
            report.latency.p50().as_secs_f64() * 1e3,
            report.latency.p99().as_secs_f64() * 1e3,
        );
        let mut entry = vec![
            ("workers", Json::Num(open_workers as f64)),
            ("arrival_rate_qps", Json::Num(open_rate)),
        ];
        entry.extend(percentiles_json(&report));
        if mixed {
            let (short_h, long_h) = class_histograms(&report, &queries);
            entry.push(class_json("short", &short_h));
            entry.push(class_json("long", &long_h));
        }
        Json::obj(entry)
    } else {
        Json::Null
    };

    let mode = if segment_path.is_some() {
        "reopened segment (real cold-cache I/O)"
    } else {
        "in-memory build"
    };
    let workload = if mixed {
        ", mixed short/long workload (two-lane admission)"
    } else {
        ""
    };
    println!("\nServe bench — {scale}, strategy {strategy_name}, {mode}{workload}:");
    print!("{}", table.render());

    let doc = Json::obj(vec![
        ("bench", Json::str("serve_bench")),
        ("scale", Json::str(scale.name())),
        ("mixed", Json::Bool(mixed)),
        (
            "short_lane_max_terms",
            if mixed {
                Json::Num(SHORT_MAX_TERMS as f64)
            } else {
                Json::Null
            },
        ),
        ("num_docs", Json::Num(cfg.num_docs as f64)),
        ("vocab_size", Json::Num(vocab_size as f64)),
        ("num_queries", Json::Num(num_queries as f64)),
        ("seed", Json::Num(seed as f64)),
        ("strategy", Json::str(strategy_name)),
        (
            "segment",
            segment_path.as_deref().map_or(Json::Null, Json::str),
        ),
        ("real_cold_cache_io", Json::Bool(segment_path.is_some())),
        (
            "open_resident_meta_bytes",
            open_stats.map_or(Json::Null, |s| Json::Num(s.resident_meta_bytes as f64)),
        ),
        (
            "open_directory_bytes",
            open_stats.map_or(Json::Null, |s| Json::Num(s.directory_bytes as f64)),
        ),
        ("simulated_miss_latency", Json::Bool(true)),
        ("index_compressed_bytes", Json::Num(compressed as f64)),
        ("pool_capacity_bytes", Json::Num(pool_capacity as f64)),
        ("build_s", Json::Num(build_s)),
        ("closed_loop", Json::Arr(sweep_json)),
        (
            "scaling_1_to_4",
            scaling_1_to_4.map_or(Json::Null, Json::Num),
        ),
        ("open_loop", open_json),
    ]);
    write_trajectory("BENCH_serve.json", &doc)
        .unwrap_or_else(|e| panic!("write BENCH_serve.json: {e}"));
}

/// The `--nodes` mode: the worker pool serves every query through the
/// networked [`Coordinator`] over real per-partition TCP endpoints, with
/// the in-process `search_scatter` as the bit-identity oracle and the
/// coordinator's hedge/failover counters recorded per node.
fn run_networked(
    scale: Scale,
    nodes: usize,
    replicas: usize,
    kill_node: bool,
    workers_sweep: &[usize],
    num_queries: usize,
    seed: u64,
) {
    let cfg = scale.config();
    eprintln!(
        "serve_bench scale={scale}, networked: {nodes} nodes x {replicas} replicas, \
         sweep {workers_sweep:?} workers, {num_queries} queries{}",
        if kill_node {
            ", killing one replica mid-sweep"
        } else {
            ""
        }
    );

    let t0 = Instant::now();
    let stream = CollectionStream::new(&cfg);
    let (cluster, _tail) = SimulatedCluster::build_streaming(
        stream,
        nodes,
        &IndexConfig::materialized_q8(),
        scale.chunk_size(),
    );
    let build_s = t0.elapsed().as_secs_f64();
    let strategy = SearchStrategy::Bm25Materialized;
    eprintln!("built {nodes} partition indexes in {build_s:.2}s");

    let queries: Vec<Vec<u32>> =
        QueryLogGenerator::new(cfg.query_log.clone(), cfg.vocab_size, seed)
            .take(num_queries)
            .collect();

    // The differential oracle: in-process scatter-gather over the same
    // nodes. Networked serving must reproduce these hits bit-for-bit.
    let reference: Vec<Vec<(u32, f32)>> = queries
        .iter()
        .map(|q| {
            let resp = cluster.search_scatter(q, strategy, TOP_N);
            assert!(resp.failures.is_empty(), "oracle scatter lost a node");
            resp.results.iter().map(|r| (r.docid, r.score)).collect()
        })
        .collect();

    let net = Arc::new(
        NetCluster::serve(
            &cluster,
            replicas,
            CoordinatorConfig {
                // Generous per-partition budget: CI machines stall; a
                // deadline miss here would abort the bench, not a query.
                deadline: Duration::from_secs(30),
                ..CoordinatorConfig::default()
            },
        )
        .expect("spawn node servers"),
    );
    let coordinator: Arc<Coordinator> = Arc::clone(net.coordinator());

    let mut table = TablePrinter::new(&[
        "workers",
        "qps",
        "p50 ms",
        "p95 ms",
        "p99 ms",
        "hedged",
        "failed over",
    ]);
    let mut sweep_json = Vec::new();
    let mut qps_by_workers: Vec<(usize, f64)> = Vec::new();
    let mut kill_pending = kill_node;
    for &workers in workers_sweep {
        let mut run_cfg = ServeConfig::new(workers);
        run_cfg.queue_depth = workers * 2;
        run_cfg.strategy = strategy;
        run_cfg.top_n = TOP_N;
        let before = coordinator.stats();
        // The injected fault: one replica of partition 0 dies mid-run of
        // the first sweep point, while queries are in flight.
        let killer = if kill_pending {
            kill_pending = false;
            let net = Arc::clone(&net);
            Some(std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(100));
                eprintln!("-- killing partition 0 replica 0 mid-run --");
                net.kill_server(0, 0);
            }))
        } else {
            None
        };
        let report = run_closed_loop(&coordinator, &run_cfg, &queries);
        if let Some(h) = killer {
            let _ = h.join();
        }
        assert_eq!(report.completed, queries.len());
        for (i, outcome) in report.outcomes.iter().enumerate() {
            assert_eq!(
                outcome.hits, reference[i],
                "networked hits diverged from the in-process scatter on query {i} \
                 at {workers} workers"
            );
        }
        let after = coordinator.stats();
        assert_eq!(
            after.unavailable, 0,
            "no query may lose a partition: replication must absorb every fault"
        );
        let hedged = after.hedged - before.hedged;
        let failed_over = after.failed_over - before.failed_over;
        eprintln!(
            "{workers} workers: {:.1} qps, p99 {:.1} ms, {hedged} hedged, \
             {failed_over} failed over (bit-identical to in-process scatter)",
            report.qps,
            report.latency.p99().as_secs_f64() * 1e3
        );
        table.push_row(vec![
            workers.to_string(),
            format!("{:.1}", report.qps),
            format!("{:.2}", report.latency.p50().as_secs_f64() * 1e3),
            format!("{:.2}", report.latency.p95().as_secs_f64() * 1e3),
            format!("{:.2}", report.latency.p99().as_secs_f64() * 1e3),
            hedged.to_string(),
            failed_over.to_string(),
        ]);
        let mut entry = vec![("workers", Json::Num(workers as f64))];
        entry.extend(percentiles_json(&report));
        entry.push(("hedged", Json::Num(hedged as f64)));
        entry.push(("failed_over", Json::Num(failed_over as f64)));
        entry.push(("identical_to_scatter", Json::Bool(true)));
        sweep_json.push(Json::obj(entry));
        qps_by_workers.push((workers, report.qps));
    }

    // With an injected kill the coordinator must both have taken the
    // failover path and still be serving bit-identically afterwards.
    if kill_node {
        for (i, q) in queries.iter().take(50).enumerate() {
            let outcome = coordinator
                .search(q, strategy, TOP_N)
                .expect("post-kill query must be served by the surviving replica");
            assert_eq!(
                outcome.hits, reference[i],
                "post-kill networked hits diverged on query {i}"
            );
        }
        let stats = coordinator.stats();
        assert!(
            stats.hedged + stats.failed_over >= 1,
            "the killed replica must be visible as hedges or failovers"
        );
        assert!(
            stats.partitions[0].replicas_down[0],
            "the killed replica must be marked down"
        );
        eprintln!(
            "post-kill: 50/50 queries bit-identical via failover ({} hedged, {} failed over)",
            stats.hedged, stats.failed_over
        );
    }

    // Per-node tail-latency attribution: which node gates the gather.
    let stats = coordinator.stats();
    let mut node_table = TablePrinter::new(&[
        "node",
        "requests",
        "p50 ms",
        "p95 ms",
        "p99 ms",
        "hedged",
        "failed over",
        "served/replica",
    ]);
    let mut per_node_json = Vec::new();
    for p in &stats.partitions {
        let served: Vec<String> = p.served_by_replica.iter().map(u64::to_string).collect();
        node_table.push_row(vec![
            p.partition.to_string(),
            p.requests.to_string(),
            format!("{:.2}", p.latency_p50.as_secs_f64() * 1e3),
            format!("{:.2}", p.latency_p95.as_secs_f64() * 1e3),
            format!("{:.2}", p.latency_p99.as_secs_f64() * 1e3),
            p.hedged.to_string(),
            p.failed_over.to_string(),
            served.join("/"),
        ]);
        per_node_json.push(Json::obj(vec![
            ("node", Json::Num(p.partition as f64)),
            ("requests", Json::Num(p.requests as f64)),
            (
                "latency_p50_ms",
                Json::Num(p.latency_p50.as_secs_f64() * 1e3),
            ),
            (
                "latency_p95_ms",
                Json::Num(p.latency_p95.as_secs_f64() * 1e3),
            ),
            (
                "latency_p99_ms",
                Json::Num(p.latency_p99.as_secs_f64() * 1e3),
            ),
            ("hedged", Json::Num(p.hedged as f64)),
            ("failed_over", Json::Num(p.failed_over as f64)),
            ("unavailable", Json::Num(p.unavailable as f64)),
            (
                "served_by_replica",
                Json::Arr(
                    p.served_by_replica
                        .iter()
                        .map(|&s| Json::Num(s as f64))
                        .collect(),
                ),
            ),
            (
                "replicas_down",
                Json::Arr(p.replicas_down.iter().map(|&d| Json::Bool(d)).collect()),
            ),
        ]));
    }

    println!(
        "\nServe bench — {scale}, networked {nodes} nodes x {replicas} replicas, \
         strategy bm25_materialized{}:",
        if kill_node {
            ", one replica killed"
        } else {
            ""
        }
    );
    print!("{}", table.render());
    println!("\nPer-node attribution:");
    print!("{}", node_table.render());

    let qps_at = |w: usize| {
        qps_by_workers
            .iter()
            .find(|&&(ws, _)| ws == w)
            .map(|&(_, q)| q)
    };
    let scaling_1_to_4 = match (qps_at(1), qps_at(4)) {
        (Some(one), Some(four)) if one > 0.0 => Some(four / one),
        _ => None,
    };

    let doc = Json::obj(vec![
        ("bench", Json::str("serve_bench")),
        ("mode", Json::str("networked")),
        ("scale", Json::str(scale.name())),
        ("nodes", Json::Num(nodes as f64)),
        ("replicas", Json::Num(replicas as f64)),
        ("kill_node", Json::Bool(kill_node)),
        ("num_docs", Json::Num(cfg.num_docs as f64)),
        ("vocab_size", Json::Num(cfg.vocab_size as f64)),
        ("num_queries", Json::Num(num_queries as f64)),
        ("seed", Json::Num(seed as f64)),
        ("strategy", Json::str("bm25_materialized")),
        ("build_s", Json::Num(build_s)),
        ("closed_loop", Json::Arr(sweep_json)),
        ("per_node", Json::Arr(per_node_json)),
        ("hedged", Json::Num(stats.hedged as f64)),
        ("failed_over", Json::Num(stats.failed_over as f64)),
        ("unavailable", Json::Num(stats.unavailable as f64)),
        (
            "scaling_1_to_4",
            scaling_1_to_4.map_or(Json::Null, Json::Num),
        ),
    ]);
    write_trajectory("BENCH_serve.json", &doc)
        .unwrap_or_else(|e| panic!("write BENCH_serve.json: {e}"));
}
