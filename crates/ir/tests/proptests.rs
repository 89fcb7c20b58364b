//! Property tests for the spill path: the k-way run merge against a naive
//! collect-and-sort oracle on adversarial run shapes (empty runs,
//! single-term runs, duplicate-heavy terms, interleaved docid ranges), and
//! the builder under arbitrary budgets against the same builder unbudgeted.

use std::collections::BTreeMap;

use proptest::prelude::*;
use x100_ir::{merge_run_sources, IndexBuilder, IndexConfig, SpillConfig};
use x100_storage::MemRun;

/// Runs as plain segment lists (ascending terms within each run — the
/// on-disk invariant — but postings and term overlap across runs are
/// unconstrained).
fn runs_strategy(
    max_term: u32,
    max_runs: usize,
) -> impl Strategy<Value = Vec<Vec<(u32, Vec<u64>)>>> {
    prop::collection::vec(
        prop::collection::btree_map(
            0u32..max_term,
            prop::collection::vec(any::<u64>(), 1..5),
            0..6,
        )
        .prop_map(|m| m.into_iter().collect::<Vec<_>>()),
        0..max_runs,
    )
}

/// The oracle: dump every (term, posting) pair into one map, sort each
/// term's postings by packed word — no heaps, no streaming.
fn collect_and_sort(runs: &[Vec<(u32, Vec<u64>)>]) -> Vec<(u32, Vec<u64>)> {
    let mut all: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for run in runs {
        for (term, postings) in run {
            all.entry(*term).or_default().extend_from_slice(postings);
        }
    }
    for postings in all.values_mut() {
        postings.sort_unstable();
    }
    all.into_iter().collect()
}

fn merge(runs: &[Vec<(u32, Vec<u64>)>]) -> Vec<(u32, Vec<u64>)> {
    let sources: Vec<MemRun> = runs.iter().cloned().map(MemRun::new).collect();
    let mut got = Vec::new();
    merge_run_sources(sources, |term, postings| {
        got.push((term, postings.to_vec()));
        Ok(())
    })
    .unwrap();
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Duplicate-heavy: a 6-term universe shared by up to 7 runs, so most
    /// terms appear in several runs and must be concatenated + re-sorted.
    #[test]
    fn merge_matches_oracle_on_duplicate_heavy_runs(runs in runs_strategy(6, 8)) {
        prop_assert_eq!(merge(&runs), collect_and_sort(&runs));
    }

    /// Sparse: a wide term universe, so most terms appear in exactly one
    /// run and whole runs may be disjoint or empty.
    #[test]
    fn merge_matches_oracle_on_sparse_runs(runs in runs_strategy(10_000, 6)) {
        let merged = merge(&runs);
        prop_assert_eq!(&merged, &collect_and_sort(&runs));
        // Output terms strictly ascend and no segment is empty.
        prop_assert!(merged.windows(2).all(|w| w[0].0 < w[1].0));
        prop_assert!(merged.iter().all(|(_, p)| !p.is_empty()));
    }

    /// A spilled build is the in-memory build, for *any* budget —
    /// including budgets far below a single document, which spill on every
    /// push.
    #[test]
    fn spilling_builder_matches_streaming_at_any_budget(
        docs in prop::collection::vec(
            prop::collection::btree_map(0u32..40, 1u32..4, 1..10)
                .prop_map(|m| m.into_iter().collect::<Vec<_>>()),
            1..50,
        ),
        budget in 1usize..4000,
    ) {
        const NUM_TERMS: usize = 40;
        let vocab: Vec<String> = (0..NUM_TERMS).map(|t| format!("term{t}")).collect();
        let config = IndexConfig::compressed();
        let mut mem = IndexBuilder::new(NUM_TERMS, &config, SpillConfig::unbounded());
        let mut spill = IndexBuilder::new(NUM_TERMS, &config, SpillConfig::with_budget(budget));
        for (i, terms) in docs.iter().enumerate() {
            let len: u32 = terms.iter().map(|&(_, tf)| tf).sum();
            let name = format!("d{i}");
            mem.push_doc(&name, terms, len).unwrap();
            spill.push_doc(&name, terms, len).unwrap();
        }
        let (expect, _) = mem.finish(&vocab).unwrap();
        let (got, stats) = spill.finish(&vocab).unwrap();
        prop_assert_eq!(got.num_postings(), expect.num_postings());
        prop_assert_eq!(
            got.td().column("docid").unwrap().read_all(),
            expect.td().column("docid").unwrap().read_all()
        );
        prop_assert_eq!(
            got.td().column("tf").unwrap().read_all(),
            expect.td().column("tf").unwrap().read_all()
        );
        for t in 0..NUM_TERMS as u32 {
            prop_assert_eq!(got.doc_freq(t), expect.doc_freq(t));
        }
        // The accumulator never exceeded max(budget, largest single doc).
        let max_doc = docs.iter().map(|d| d.len() * 8).max().unwrap_or(0);
        prop_assert!(stats.peak_accum_bytes <= budget.max(max_doc));
    }
}
