//! The paper's §4 "basic search" demonstration, terminal edition.
//!
//! ```text
//! cargo run --release --example search_demo            # canned queries
//! cargo run --release --example search_demo -- term8 term22   # your query
//! ```
//!
//! "Provides the user with a google-like search interface to enter keyword
//! queries and browse the ranked result documents ... alongside with the
//! query results, we display the relational query plan that was executed,
//! annotated with profiling information." This example does exactly that:
//! for each query it prints the plan, the ranked results, and the profiling
//! counters (CPU time, simulated I/O, passes) for a selectable strategy.

use monetdb_x100::corpus::{CollectionConfig, SyntheticCollection};
use monetdb_x100::ir::{boolean, IndexConfig, InvertedIndex, QueryEngine, SearchStrategy};

fn run_query(engine: &QueryEngine<'_>, terms: &[&str], strategy: SearchStrategy) {
    println!("\n=== query {terms:?} under {strategy:?} ===");
    println!("plan:\n{}", engine.plan_text(terms, strategy, 10));

    let ids: Vec<u32> = terms
        .iter()
        .filter_map(|t| {
            engine
                .index()
                .term_id(t)
                .expect("a built index's vocabulary reads")
        })
        .collect();
    match engine.search(&ids, strategy, 10) {
        Ok(resp) => {
            println!(
                "profiling: cpu {:.3} ms, simulated I/O {:.3} ms over {} block reads, {} pass(es)",
                resp.cpu_time.as_secs_f64() * 1e3,
                resp.io.sim_time.as_secs_f64() * 1e3,
                resp.io.reads,
                resp.passes
            );
            if resp.results.is_empty() {
                println!("no documents matched");
            }
            for (rank, hit) in resp.results.iter().enumerate() {
                println!("  {:>2}. {}  score={:.4}", rank + 1, hit.name, hit.score);
            }
        }
        Err(e) => println!("query failed: {e}"),
    }
}

fn main() {
    let collection = SyntheticCollection::generate(&CollectionConfig::small());
    let index = InvertedIndex::build(&collection, &IndexConfig::compressed());
    let engine = QueryEngine::new(&index);

    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        // Canned tour: the same query under different strategies, like the
        // demo's strategy selector.
        let q = ["term8", "term22"];
        for strategy in [
            SearchStrategy::BoolAnd,
            SearchStrategy::BoolOr,
            SearchStrategy::Bm25,
            SearchStrategy::Bm25TwoPass,
        ] {
            run_query(&engine, &q, strategy);
        }
        // The paper's own nested example, §3.2 — AND/OR map to
        // Join/OuterJoin.
        let nested = boolean::parse("term8 AND (term22 OR term31)").expect("valid query");
        println!("\n=== nested boolean: {nested} ===");
        println!("plan:\n{}", nested.plan_text());
        let resp = engine.search_boolean(&nested, 10).expect("search");
        println!("{} matching documents (unranked):", resp.results.len());
        for hit in &resp.results {
            println!("  {}", hit.name);
        }
        return;
    }
    let joined = args.join(" ");
    if joined.to_ascii_uppercase().contains("AND")
        || joined.to_ascii_uppercase().contains("OR")
        || joined.contains('(')
    {
        match boolean::parse(&joined) {
            Ok(q) => {
                println!("plan:\n{}", q.plan_text());
                match engine.search_boolean(&q, 10) {
                    Ok(resp) => {
                        for hit in &resp.results {
                            println!("  {}", hit.name);
                        }
                    }
                    Err(e) => println!("query failed: {e}"),
                }
            }
            Err(e) => println!("parse error: {e}"),
        }
    } else {
        let terms: Vec<&str> = args.iter().map(String::as_str).collect();
        run_query(&engine, &terms, SearchStrategy::Bm25TwoPass);
    }
}
