//! Information retrieval on top of MonetDB/X100 (§3 of the paper).
//!
//! "Keyword search in a DBMS boils down to retrieving all the documents in
//! which some or all of the query terms occur" — and this crate implements
//! exactly that reduction:
//!
//! * [`index::InvertedIndex`] — the inverted index *as relational tables*:
//!   `TD[term, docid, tf]` ordered on (term, docid) with the term column
//!   replaced by a range index, `D[docid, name, length]`, and
//!   `T[term, ftd]` (§3.1), whose `ftd` is the length of the term's range.
//! * [`bm25`] — the Okapi BM25 retrieval model (equations 1–2) and the
//!   Global-By-Value 8-bit score quantization (§3.3).
//! * [`engine::QueryEngine`] — translates keyword queries into X100
//!   operator pipelines: boolean AND/OR as merge-(outer-)joins, BM25 as a
//!   vectorized `Project` + `TopN`, plus the paper's optimization ladder:
//!   two-pass processing, score materialization, and quantization.
//! * [`builder::IndexBuilder`] — index construction under an optional
//!   posting-memory budget ([`spill::SpillConfig`]): runs written as
//!   segments when the budget fills and appended term by term at finish, a
//!   plain in-memory drain when it never does, the same index bit for bit
//!   either way.
//! * [`segment`] — index persistence: the whole index written to one
//!   checksummed segment file and reopened disk-backed, with posting blocks
//!   `pread` on demand through the buffer pool.
//!
//! The Table 2 experiment in `x100-bench` drives these APIs end to end.
//!
//! # Example
//!
//! ```
//! use x100_corpus::{CollectionConfig, SyntheticCollection};
//! use x100_ir::{IndexConfig, InvertedIndex, QueryEngine, SearchStrategy};
//!
//! let collection = SyntheticCollection::generate(&CollectionConfig::tiny());
//! let index = InvertedIndex::build(&collection, &IndexConfig::default());
//! let engine = QueryEngine::new(&index);
//! let query = &collection.eval_queries[0];
//! let response = engine.search(&query.terms, SearchStrategy::Bm25, 20).unwrap();
//! assert!(response.results.len() <= 20);
//! // Scores are descending.
//! assert!(response.results.windows(2).all(|w| w[0].score >= w[1].score));
//! ```

pub mod bm25;
pub mod boolean;
pub mod builder;
mod columns;
pub mod engine;
pub mod executor;
pub mod hot;
pub mod index;
mod paged;
pub mod segment;
pub mod skipping;
pub mod spill;

pub use bm25::{Bm25Params, CollectionStats, Quantizer};
pub use boolean::BooleanQuery;
pub use builder::{build_index_streaming, IndexBuilder};
pub use engine::{HitsResponse, QueryEngine, SearchResponse, SearchResult, SearchStrategy};
pub use executor::QueryExecutor;
pub use hot::{HotPathStats, QueryScratch};
pub use index::{IndexConfig, InvertedIndex, Materialize};
pub use segment::SegmentOpenStats;
pub use skipping::PostingCursor;
pub use spill::{build_index_streaming_spill, SpillConfig, SpillStats};
pub use x100_exec::ExecError;
pub use x100_storage::SegmentError;
