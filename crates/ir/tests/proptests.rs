//! Property tests for the spill path: the builder under arbitrary budgets
//! against the same builder unbudgeted.

use proptest::prelude::*;
use x100_ir::{IndexBuilder, IndexConfig, SpillConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

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
        // The accumulate phase never exceeded the budget, except by a run
        // of one document alone: its lists plus, at worst, the same
        // postings again in the run writer's pending block.
        let max_doc = docs.iter().map(|d| d.len() * 8).max().unwrap_or(0);
        prop_assert!(stats.peak_accum_bytes <= budget.max(2 * max_doc));
    }
}
