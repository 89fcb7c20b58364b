//! # monetdb-x100
//!
//! Facade crate for the reproduction of *"Efficient and Flexible Information
//! Retrieval Using MonetDB/X100"* (Héman, Zukowski, de Vries, Boncz — CIDR
//! 2007). It re-exports the public API of every subsystem crate so that
//! examples, integration tests and downstream users can depend on a single
//! crate.
//!
//! The subsystems, bottom-up:
//!
//! * [`vector`] — execution vectors and batches (§2).
//! * [`compress`] — PFOR / PFOR-DELTA / PDICT with patched decompression
//!   (§2.1, Figures 2 and 3).
//! * [`storage`] — ColumnBM column store with a simulated-disk I/O model.
//! * [`exec`] — the vectorized open/next/close operator pipeline.
//! * [`ir`] — inverted index as relational tables, BM25, the Table 2
//!   optimization ladder (§3).
//! * [`corpus`] — synthetic TREC-TeraByte-like workload and evaluation.
//! * [`distributed`] — document-partitioned cluster simulation (§3.4,
//!   Table 3).
//!
//! # Quickstart
//!
//! ```
//! use monetdb_x100::corpus::{CollectionConfig, SyntheticCollection};
//! use monetdb_x100::ir::{IndexConfig, InvertedIndex, QueryEngine, SearchStrategy};
//!
//! // Generate a small synthetic collection and index it.
//! let collection = SyntheticCollection::generate(&CollectionConfig::tiny());
//! let index = InvertedIndex::build(&collection, &IndexConfig::default());
//! let engine = QueryEngine::new(&index);
//!
//! // Resolve the query's terms, then run a BM25 top-20 query.
//! let terms: Vec<u32> = ["term3", "term17"]
//!     .iter()
//!     .filter_map(|t| index.term_id(t).unwrap())
//!     .collect();
//! let results = engine.search(&terms, SearchStrategy::Bm25, 20).unwrap().results;
//! assert!(results.len() <= 20);
//! ```

pub use x100_compress as compress;
pub use x100_corpus as corpus;
pub use x100_distributed as distributed;
pub use x100_exec as exec;
pub use x100_ir as ir;
pub use x100_storage as storage;
pub use x100_vector as vector;
