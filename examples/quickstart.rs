//! Quickstart: generate a collection, build an index, search it.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Demonstrates the 30-second path through the public API: a synthetic
//! collection stands in for a crawled corpus, the inverted index is built
//! as the paper's TD/D/T relational tables, and a BM25 top-10 query runs
//! through the vectorized X100 pipeline. The printed relational plan is the
//! same shape as §3.2 of the paper.

use monetdb_x100::corpus::{CollectionConfig, SyntheticCollection};
use monetdb_x100::ir::{IndexConfig, InvertedIndex, QueryEngine, SearchStrategy};

fn main() {
    // 1. A small synthetic collection (deterministic from its seed).
    let collection = SyntheticCollection::generate(&CollectionConfig::small());
    println!(
        "collection: {} documents, {} term occurrences, avg doc len {:.1}",
        collection.docs.len(),
        collection.total_occurrences(),
        collection.avg_doc_len()
    );

    // 2. The inverted index as relational tables (compressed columns).
    let index = InvertedIndex::build(&collection, &IndexConfig::compressed());
    println!(
        "index: {} postings; docid column {:.2} bits/tuple, tf column {:.2} bits/tuple",
        index.num_postings(),
        index.column_bits_per_tuple("docid"),
        index.column_bits_per_tuple("tf"),
    );

    // 3. A keyword query through the vectorized engine.
    let engine = QueryEngine::new(&index);
    let terms = ["term12", "term31"];
    println!("\nquery: {terms:?}");
    println!("\nrelational plan (as in the paper, §3.2):");
    println!("{}", engine.plan_text(&terms, SearchStrategy::Bm25, 10));

    let ids: Vec<u32> = terms
        .iter()
        .filter_map(|t| index.term_id(t).expect("a built index's vocabulary reads"))
        .collect();
    let results = engine
        .search(&ids, SearchStrategy::Bm25, 10)
        .expect("a BM25 query over a compressed index")
        .results;
    println!("\ntop {} documents:", results.len());
    for (rank, hit) in results.iter().enumerate() {
        println!(
            "  {:>2}. {}  score={:.4}  (docid {})",
            rank + 1,
            hit.name,
            hit.score,
            hit.docid
        );
    }
}
