//! **§4 demonstration knob** — query performance as a function of the
//! execution vector size.
//!
//! The paper's demo runs "benchmarks using varying MonetDB/X100 parameters,
//! such as the vector size used in the execution pipeline". The expected
//! shape is the classic X100 curve (from the CIDR'05 paper this system
//! builds on): tiny vectors degenerate to tuple-at-a-time Volcano execution
//! (interpretation overhead dominates — every operator `next()` and
//! primitive call processes one value), huge vectors degenerate to
//! column-at-a-time MonetDB/MIL (intermediates spill out of the CPU cache).
//! The sweet spot sits around a few hundred to a few thousand values.
//!
//! Usage: `ablation_vector_size [--scale tiny|small|medium|large] [num_docs] [num_queries]`
//! (defaults: 10000 docs, 60 queries — vector size 1 is *slow*, which is
//! the point)

use std::time::{Duration, Instant};

use x100_bench::{fmt_ms, take_scale_flag_or_exit, TablePrinter};
use x100_corpus::{CollectionConfig, Scale, SyntheticCollection};
use x100_ir::{IndexConfig, InvertedIndex, QueryEngine, SearchStrategy};

const TOP_N: usize = 20;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let scale = take_scale_flag_or_exit(&mut args);
    let mut cfg = scale
        .map(Scale::config)
        .unwrap_or_else(CollectionConfig::benchmark);
    if scale.is_none() {
        cfg.num_docs = 10_000; // historical default: vector size 1 is slow
    }
    if let Some(n) = args.first().and_then(|s| s.parse().ok()) {
        cfg.num_docs = n;
    }
    let num_queries: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(60);

    eprintln!("generating {}-doc collection ...", cfg.num_docs);
    let collection = SyntheticCollection::generate(&cfg);
    let index = InvertedIndex::build(&collection, &IndexConfig::compressed());
    let queries: Vec<Vec<u32>> = collection
        .efficiency_log
        .iter()
        .take(num_queries)
        .cloned()
        .collect();

    let sizes: &[usize] = &[1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144];
    let mut table = TablePrinter::new(&["vector size", "avg query ms", "vs best"]);
    let mut results: Vec<(usize, Duration)> = Vec::new();

    for &vs in sizes {
        let engine = QueryEngine::new(&index).with_vector_size(vs);
        for q in queries.iter().take(5) {
            engine
                .search(q, SearchStrategy::Bm25, TOP_N)
                .expect("search"); // warm
        }
        let start = Instant::now();
        for q in &queries {
            engine
                .search(q, SearchStrategy::Bm25, TOP_N)
                .expect("search");
        }
        let avg = start.elapsed() / queries.len() as u32;
        eprintln!("vector size {vs}: {} ms/query", fmt_ms(avg));
        results.push((vs, avg));
    }

    let best = results.iter().map(|&(_, d)| d).min().expect("non-empty");
    for &(vs, d) in &results {
        table.push_row(vec![
            vs.to_string(),
            fmt_ms(d),
            format!("{:.2}x", d.as_secs_f64() / best.as_secs_f64()),
        ]);
    }
    println!("\nVector-size ablation (BM25 top-20, hot data):");
    print!("{}", table.render());

    let at_1 = results[0].1;
    let (best_vs, _) = results.iter().min_by_key(|&&(_, d)| d).expect("non-empty");
    println!(
        "\nShape checks: tuple-at-a-time (vector size 1) is {:.0}x slower than \
         the best size ({best_vs}); the optimum sits in the in-cache range, \
         matching the X100 design argument (§2).",
        at_1.as_secs_f64() / best.as_secs_f64()
    );
}
