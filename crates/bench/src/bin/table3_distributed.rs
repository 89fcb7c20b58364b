//! **Table 3** — performance of the distributed runs (§3.4).
//!
//! Reproduces all three sections of the paper's Table 3 over the simulated
//! cluster (real per-partition compute, modeled network/queueing — see
//! `x100-distributed`):
//!
//! 1. *Full run (hot data)*: sequential (unpartitioned) baseline vs 8
//!    servers, 1 stream.
//! 2. *Using less servers*: the 8 partitions assigned to 4, 2, 1 servers.
//! 3. *Increasing the concurrency*: 8 servers with 1, 2, 4, 8 query
//!    streams — absolute and amortized per-query time.
//!
//! Shape targets (paper): latency speedup from partitioning is far from
//! linear because the slowest server gates each query (max ≈ 2× min at 8
//! servers); amortized time (throughput) *does* scale ~linearly with
//! streams while per-query latency degrades.
//!
//! Usage: `table3_distributed [--scale tiny|small|medium|large] [num_docs] [num_queries]`
//! (defaults: the medium scale's 100000 docs, 400 measured queries)

use std::sync::Arc;

use x100_bench::{fmt_ms, reference, take_scale_flag_or_exit, TablePrinter};
use x100_corpus::{CollectionConfig, Scale, SyntheticCollection};
use x100_distributed::{simulate_run, RunConfig, SimulatedCluster};
use x100_ir::{IndexConfig, InvertedIndex, QueryExecutor, SearchStrategy};

const PARTITIONS: usize = 8;
const TOP_N: usize = 20;
const STRATEGY: SearchStrategy = SearchStrategy::Bm25TwoPass;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let scale = take_scale_flag_or_exit(&mut args);
    let mut cfg = scale
        .map(Scale::config)
        .unwrap_or_else(CollectionConfig::benchmark);
    if let Some(n) = args.first().and_then(|s| s.parse().ok()) {
        cfg.num_docs = n;
    }
    let num_queries: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(400);
    cfg.num_efficiency_queries = cfg.num_efficiency_queries.max(num_queries);

    eprintln!(
        "generating collection ({} docs) and building {} partition indexes ...",
        cfg.num_docs, PARTITIONS
    );
    let collection = SyntheticCollection::generate(&cfg);
    let queries: Vec<Vec<u32>> = collection
        .efficiency_log
        .iter()
        .take(num_queries)
        .cloned()
        .collect();

    // Sequential baseline: the unpartitioned index on one machine, timed
    // through the same fused path the cluster's nodes serve.
    let full_index = InvertedIndex::build(&collection, &IndexConfig::compressed());
    let executor = QueryExecutor::new(Arc::new(full_index));
    let mut hits = Vec::with_capacity(TOP_N);
    let mut search = |q: &[u32]| {
        executor
            .search_hits_into(q, STRATEGY, TOP_N, &mut hits)
            .expect("search")
            .cpu_time
    };
    for q in &queries {
        search(q); // warm
    }
    let seq_total: std::time::Duration = queries.iter().map(|q| search(q)).sum();
    let sequential = seq_total / queries.len() as u32;

    // Cluster: measure real per-partition compute, then schedule.
    let cluster = SimulatedCluster::build(&collection, PARTITIONS, &IndexConfig::compressed());
    eprintln!(
        "measuring per-partition compute for {} queries ...",
        queries.len()
    );
    let compute = cluster
        .measure_compute(&queries, STRATEGY, TOP_N)
        .expect("healthy cluster: no node should fail during measurement");

    println!("Table 3 — performance of the distributed runs (measured vs paper)\n");
    println!(
        "Full TREC-TB run (hot data): sequential = {} ms/query (paper: {} ms)\n",
        fmt_ms(sequential),
        reference::TABLE3_SEQUENTIAL_MS
    );

    // Section 2: server scaling, 1 stream.
    let mut t = TablePrinter::new(&[
        "servers",
        "avg query ms",
        "srv min",
        "srv avg",
        "srv max",
        "paper avg",
        "paper min",
        "paper avg.",
        "paper max",
    ]);
    for paper in reference::TABLE3_SERVERS {
        let stats = simulate_run(&compute, &RunConfig::servers(paper.servers));
        t.push_row(vec![
            paper.servers.to_string(),
            fmt_ms(stats.avg_latency),
            fmt_ms(stats.server_min),
            fmt_ms(stats.server_avg),
            fmt_ms(stats.server_max),
            format!("{:.2}", paper.avg_query_ms),
            format!("{:.2}", paper.server_min_ms),
            format!("{:.2}", paper.server_avg_ms),
            format!("{:.2}", paper.server_max_ms),
        ]);
    }
    println!("Using less servers (1 stream, fixed partition count = 8):");
    print!("{}", t.render());

    // Section 3: stream concurrency on 8 servers.
    let mut t = TablePrinter::new(&[
        "streams",
        "avg query ms",
        "amortized ms",
        "srv min",
        "srv avg",
        "srv max",
        "paper avg",
        "paper amort.",
    ]);
    for paper in reference::TABLE3_STREAMS {
        let stats = simulate_run(&compute, &RunConfig::streams(PARTITIONS, paper.streams));
        t.push_row(vec![
            paper.streams.to_string(),
            fmt_ms(stats.avg_latency),
            fmt_ms(stats.amortized),
            fmt_ms(stats.server_min),
            fmt_ms(stats.server_avg),
            fmt_ms(stats.server_max),
            format!("{:.2}", paper.avg_query_ms),
            format!("{:.2}", paper.amortized_ms),
        ]);
    }
    println!("\nIncreasing the concurrency (8 servers):");
    print!("{}", t.render());

    let one = simulate_run(&compute, &RunConfig::streams(PARTITIONS, 1));
    let eight = simulate_run(&compute, &RunConfig::streams(PARTITIONS, 8));
    println!(
        "\nShape checks: 8 servers process {:.0} queries/s at 8 streams \
         ({:.1}x the 1-stream throughput; paper: >300 q/s, amortized 11.26 -> 3.26 ms). \
         Slowest/fastest server ratio at 8 servers, 1 stream: {:.2}x (paper: ~2x).",
        eight.throughput_qps,
        eight.throughput_qps / one.throughput_qps,
        one.server_max.as_secs_f64() / one.server_min.as_secs_f64(),
    );
}
