//! **Table 2** — the MonetDB/X100 TREC-TB optimization ladder, plus the
//! **Table 1** context block (published TREC-TB 2005 leaders).
//!
//! Runs the seven configurations of Table 2 against the synthetic
//! TREC-TB-like collection:
//!
//! | run        | index                      | strategy                |
//! |------------|----------------------------|-------------------------|
//! | BoolAND    | raw columns                | conjunctive, unranked   |
//! | BoolOR     | raw columns                | disjunctive, unranked   |
//! | BM25       | raw columns                | computed BM25           |
//! | BM25T      | raw columns                | + two-pass              |
//! | BM25TC     | PFOR-DELTA/PFOR columns    | + compression           |
//! | BM25TCM    | + materialized f32 scores  | + materialization       |
//! | BM25TCMQ8  | + 8-bit quantized scores   | + quantization          |
//!
//! Reported per run: mean p@20 over the judged queries, mean cold-data
//! query time (measured CPU + simulated disk I/O with everything evicted
//! before each query), and mean hot-data query time (all blocks resident).
//!
//! Shape targets (paper): boolean p@20 near zero vs ~0.55 for every BM25
//! variant; hot time improves at +Two-pass and +Materialization; cold time
//! improves at +Compression and +Quantization while +Materialization makes
//! cold *worse* (32-bit floats read instead of 8.13-bit tf).
//!
//! Usage: `table2_trec_runs [--scale tiny|small|medium|large] [num_docs] [num_queries]`
//! (defaults: the medium scale's 100000 docs, 800 efficiency queries; cold
//! uses a subsample)

use std::time::Duration;

use x100_bench::{fmt_ms, reference, take_scale_flag_or_exit, TablePrinter};
use x100_corpus::{precision_at_k, CollectionConfig, Scale, SyntheticCollection};
use x100_ir::{IndexConfig, InvertedIndex, QueryEngine, SearchStrategy};
use x100_storage::{BufferMode, DiskModel};

const TOP_N: usize = 20;
/// Queries measured in the cold condition (eviction per query is the
/// expensive part, not the queries themselves).
const COLD_SAMPLE: usize = 150;
/// Block size of every index built here: 256 Ki values, 1 MB uncompressed.
/// The cold column charges each block read a 4 ms seek
/// (`DiskModel::raid12`), so large blocks keep it bandwidth-bound, as the
/// paper's multi-megabyte reads were. At the served default of 32 Ki
/// values the seeks dominate: on the small collection the +Compression
/// step then gains 4 % of cold time instead of 22 %.
const DISK_BLOCK_SIZE: usize = 1 << 18;

struct RunSpec {
    name: &'static str,
    index: fn() -> IndexConfig,
    strategy: SearchStrategy,
}

const RUNS: &[RunSpec] = &[
    RunSpec {
        name: "BoolAND",
        index: IndexConfig::uncompressed,
        strategy: SearchStrategy::BoolAnd,
    },
    RunSpec {
        name: "BoolOR",
        index: IndexConfig::uncompressed,
        strategy: SearchStrategy::BoolOr,
    },
    RunSpec {
        name: "BM25",
        index: IndexConfig::uncompressed,
        strategy: SearchStrategy::Bm25,
    },
    RunSpec {
        name: "BM25T",
        index: IndexConfig::uncompressed,
        strategy: SearchStrategy::Bm25TwoPass,
    },
    RunSpec {
        name: "BM25TC",
        index: IndexConfig::compressed,
        strategy: SearchStrategy::Bm25TwoPass,
    },
    RunSpec {
        name: "BM25TCM",
        index: IndexConfig::materialized_f32,
        strategy: SearchStrategy::Bm25MaterializedTwoPass,
    },
    RunSpec {
        name: "BM25TCMQ8",
        index: IndexConfig::materialized_q8,
        strategy: SearchStrategy::Bm25MaterializedTwoPass,
    },
];

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let scale = take_scale_flag_or_exit(&mut args);
    let mut cfg = scale
        .map(Scale::config)
        .unwrap_or_else(CollectionConfig::benchmark);
    if let Some(n) = args.first().and_then(|s| s.parse().ok()) {
        cfg.num_docs = n;
    }
    if let Some(n) = args.get(1).and_then(|s| s.parse().ok()) {
        cfg.num_efficiency_queries = n;
    } else if scale.is_none() {
        cfg.num_efficiency_queries = 800; // historical default without --scale
    }

    println!("Table 1 (context) — published TREC-TB 2005 leaders (verbatim):");
    let mut t1 = TablePrinter::new(&["Run", "p@20", "CPUs", "ms/query"]);
    for r in reference::TABLE1 {
        t1.push_row(vec![
            r.run.to_owned(),
            format!("{:.4}", r.p_at_20),
            r.cpus.to_string(),
            format!("{:.0}", r.time_per_query_ms),
        ]);
    }
    print!("{}", t1.render());

    eprintln!(
        "\ngenerating collection: {} docs, vocab {}, {} efficiency queries ...",
        cfg.num_docs, cfg.vocab_size, cfg.num_efficiency_queries
    );
    let collection = SyntheticCollection::generate(&cfg);
    eprintln!(
        "collection ready: {} term occurrences, avg doc len {:.1}",
        collection.total_occurrences(),
        collection.avg_doc_len()
    );

    let mut table = TablePrinter::new(&[
        "Run",
        "p@20",
        "cold ms",
        "hot ms",
        "2nd-pass%",
        "paper p@20",
        "paper cold",
        "paper hot",
    ]);

    for (spec, paper) in RUNS.iter().zip(reference::TABLE2) {
        eprintln!("running {} ...", spec.name);
        let config = IndexConfig {
            block_size: DISK_BLOCK_SIZE,
            ..(spec.index)()
        };
        let index = InvertedIndex::build(&collection, &config);

        // Boolean retrieval has no ranking cutoff: the paper's BoolAND /
        // BoolOR runs evaluate the full (un-ranked) result set, which is
        // exactly why OR costs more than AND in Table 2. Ranked runs
        // retrieve the top 20.
        let fetch_n = match spec.strategy {
            SearchStrategy::BoolAnd | SearchStrategy::BoolOr => cfg.num_docs,
            _ => TOP_N,
        };

        // Effectiveness: p@20 over the judged queries (hot).
        let engine = QueryEngine::new(&index);
        let mut p20 = 0.0;
        for q in &collection.eval_queries {
            let ranked: Vec<u32> = engine
                .search(&q.terms, spec.strategy, fetch_n)
                .expect("search")
                .results
                .iter()
                .take(TOP_N)
                .map(|r| r.docid)
                .collect();
            p20 += precision_at_k(&ranked, &q.relevant, TOP_N);
        }
        p20 /= collection.eval_queries.len() as f64;

        // Hot timing: warm pass, then measure.
        let mut second_pass = 0usize;
        for q in &collection.efficiency_log {
            let _ = engine.search(q, spec.strategy, fetch_n);
        }
        let mut hot_total = Duration::ZERO;
        for q in &collection.efficiency_log {
            let resp = engine.search(q, spec.strategy, fetch_n).expect("search");
            hot_total += resp.cpu_time;
            if resp.passes == 2 {
                second_pass += 1;
            }
        }
        let hot_avg = hot_total / collection.efficiency_log.len() as u32;

        // Cold timing: evict everything before each query; a query's cost
        // is its CPU time plus the simulated disk time it incurred.
        let cold_engine =
            QueryEngine::with_buffering(&index, DiskModel::raid12(), BufferMode::Hot, 0);
        let sample: Vec<_> = collection.efficiency_log.iter().take(COLD_SAMPLE).collect();
        let mut cold_total = Duration::ZERO;
        for q in &sample {
            cold_engine.buffers().evict_all();
            let resp = cold_engine
                .search(q, spec.strategy, fetch_n)
                .expect("search");
            cold_total += resp.cpu_time + resp.io.sim_time;
        }
        let cold_avg = cold_total / sample.len() as u32;

        table.push_row(vec![
            spec.name.to_owned(),
            format!("{p20:.4}"),
            fmt_ms(cold_avg),
            fmt_ms(hot_avg),
            format!(
                "{:.1}",
                100.0 * second_pass as f64 / collection.efficiency_log.len() as f64
            ),
            format!("{:.4}", paper.p_at_20),
            format!("{:.0}", paper.cold_ms),
            format!("{:.0}", paper.hot_ms),
        ]);
    }

    println!("\nTable 2 — MonetDB/X100 TREC-TB experiments (measured vs paper):");
    print!("{}", table.render());
    println!(
        "\nNotes: absolute times are not comparable (2006 Xeon + 426GB GOV2 vs \
         this machine + a {}-doc synthetic collection); the accountable shape \
         is the p@20 ladder and the per-step time improvements. The paper \
         reports ~15% of queries needing a second pass.",
        cfg.num_docs
    );
}
