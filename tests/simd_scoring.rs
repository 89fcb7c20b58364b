//! SIMD scoring pin: the wide (AVX2) BM25 batch kernels on the fused hot
//! path must be **bit-identical** to the unrolled scalar kernels.
//!
//! Only the conjunctive pass of the two-pass strategies scores batches;
//! the ranked union sums into its window accumulator and never reaches
//! the kernels. So the suite also asserts that, on every index, some
//! two-pass query ends after its conjunctive pass with at least 8 matches
//! — the wide kernel ran over full lanes, not only its scalar tail.
//!
//! The kernels keep multiply and add separate (no FMA contraction) and use
//! only IEEE-exact vector operations (`cvtepi32_ps`, `div_ps`, `mul_ps`,
//! `add_ps`), so this is exact `f32::to_bits` equality, not tolerance
//! comparison. The process-wide [`simd_force_scalar`] toggle switches the
//! dispatch; every test here serializes on one lock since the toggle is
//! global. Every x86_64 build compiles the wide kernels and dispatches to
//! them when the CPU has AVX2; off x86_64, or without AVX2, both runs take
//! the scalar path and the comparison is a self-consistency pin.

use std::sync::{Arc, Mutex, OnceLock};

use x100_compress::{simd_active, simd_available, simd_force_scalar};
use x100_corpus::{CollectionConfig, SyntheticCollection};
use x100_ir::{IndexConfig, InvertedIndex, QueryExecutor, SearchStrategy};

/// The force-scalar switch is process-wide and tests run on parallel
/// threads: every test that toggles it holds this lock.
static TOGGLE_LOCK: Mutex<()> = Mutex::new(());

/// Ranked strategies: the two-pass ones drive the scoring kernels —
/// computed BM25 (tf → score arithmetic) and materialized (f32-bits /
/// quantized decode-sum) — the others hold the union beside them.
fn ranked() -> impl Iterator<Item = SearchStrategy> {
    SearchStrategy::ALL
        .into_iter()
        .filter(|s| !matches!(s, SearchStrategy::BoolAnd | SearchStrategy::BoolOr))
}

struct Fixture {
    queries: Vec<Vec<u32>>,
    /// f32 materialization exercises the bit-cast decode kernel, q8 the
    /// int-convert one; both run the computed kernel for Bm25TwoPass.
    indexes: [Arc<InvertedIndex>; 2],
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let c = SyntheticCollection::generate(&CollectionConfig::tiny());
        let mut queries: Vec<Vec<u32>> = c.eval_queries.iter().map(|q| q.terms.clone()).collect();
        queries.extend(c.efficiency_log.iter().take(15).cloned());
        let f32_idx = Arc::new(InvertedIndex::build(&c, &IndexConfig::materialized_f32()));
        let q8_idx = Arc::new(InvertedIndex::build(&c, &IndexConfig::materialized_q8()));
        Fixture {
            queries,
            indexes: [f32_idx, q8_idx],
        }
    })
}

/// Hits with exact score bits, plus the pass count.
fn hits_bits(
    exec: &QueryExecutor,
    q: &[u32],
    strategy: SearchStrategy,
    n: usize,
) -> (Vec<(u32, u32)>, u8) {
    let mut out = Vec::new();
    let meta = exec
        .search_hits_into(q, strategy, n, &mut out)
        .expect("search failed");
    let hits = out.iter().map(|&(d, s)| (d, s.to_bits())).collect();
    (hits, meta.passes)
}

#[test]
fn wide_scoring_matches_forced_scalar_bit_for_bit() {
    let _g = TOGGLE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let fx = fixture();
    for index in &fx.indexes {
        let exec = QueryExecutor::new(index.clone());
        // Two-pass strategies per index that stopped after the conjunctive
        // pass with n >= 8 rows, i.e. scored at least one full 8-lane group.
        let mut full_lane_batches = 0;
        for strategy in ranked() {
            for q in &fx.queries {
                // Varying n exercises full batches, ragged scalar tails
                // inside the wide kernel, and heap-boundary behaviour.
                for n in [1usize, 7, 10, 64] {
                    simd_force_scalar(false);
                    let wide = hits_bits(&exec, q, strategy, n);
                    simd_force_scalar(true);
                    let scalar = hits_bits(&exec, q, strategy, n);
                    simd_force_scalar(false);
                    assert_eq!(
                        wide, scalar,
                        "wide vs scalar scoring diverged: {strategy:?} n={n} terms={q:?}"
                    );
                    if strategy.is_two_pass() && n >= 8 && wide.1 == 1 {
                        full_lane_batches += 1;
                    }
                }
            }
        }
        assert!(
            full_lane_batches > 0,
            "no two-pass query stopped after a conjunctive pass of >= 8 matches: \
             the batch kernels ran over no full lanes"
        );
    }
}

#[test]
fn forced_fallback_really_switches_the_dispatch() {
    let _g = TOGGLE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    simd_force_scalar(true);
    assert!(
        !simd_active(),
        "force-scalar must always win over detection"
    );
    simd_force_scalar(false);
    assert_eq!(
        simd_active(),
        simd_available(),
        "without the override, dispatch follows runtime detection"
    );
}
