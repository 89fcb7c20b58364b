//! SIMD scoring pin: the wide (AVX2) BM25 batch kernels on the fused hot
//! path must be **bit-identical** to the unrolled scalar kernels.
//!
//! Only the conjunctive pass of the two-pass strategies scores batches;
//! the ranked union sums into its window accumulator and never reaches
//! the kernels. So the suite also asserts that, on every index, some
//! two-pass query ends after its conjunctive pass with at least 8 matches
//! — the wide kernel ran over full lanes, not only its scalar tail. The
//! union's drain has a wide kernel of its own, the threshold mask
//! [`nle_mask`]: the end-to-end differential runs it under both dispatches,
//! and a direct test holds the two on adversarial `f32` words.
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
use x100_ir::hot::nle_mask;
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

/// The drain's threshold mask, wide against forced-scalar and both against
/// the predicate `!(x <= t)`, bit for bit: NaNs (both signs, quiet and
/// signalling, with payloads), ±0.0, ±∞, subnormals, the extremes, and
/// values equal to the floor or one ulp either side of it, as slots and as
/// floors.
#[test]
// `!(x <= t)` is the mask's definition: unlike `x > t`, it holds for a NaN.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn nle_mask_wide_matches_scalar_on_adversarial_words() {
    let _g = TOGGLE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut specials = vec![
        f32::NAN,
        -f32::NAN,
        f32::from_bits(0x7FC0_0001),
        f32::from_bits(0x7F80_0001),
        f32::from_bits(0xFF80_0001),
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::from_bits(1),
        -f32::from_bits(1),
        f32::from_bits(0x007F_FFFF),
        f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
        1.0,
        -1.0,
        7.25,
    ];
    let ulps: Vec<f32> = specials
        .iter()
        .filter(|x| x.is_finite())
        .flat_map(|x| [x.next_up(), x.next_down()])
        .collect();
    specials.extend(ulps);
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut checked = 0;
    for &t in &specials {
        // Every slot the floor; each special in every lane position; and
        // random mixes of the specials, the floor and arbitrary bits.
        let mut words = vec![[t; 64]];
        for shift in 0..64 {
            words.push(std::array::from_fn(|i| {
                specials[(i + shift) % specials.len()]
            }));
        }
        for _ in 0..64 {
            words.push(std::array::from_fn(|_| match next() % 4 {
                0 => t,
                1 => f32::from_bits(next() as u32),
                _ => specials[next() as usize % specials.len()],
            }));
        }
        for slots in &words {
            let expect = (0..64).fold(0u64, |m, i| m | u64::from(!(slots[i] <= t)) << i);
            simd_force_scalar(false);
            let wide = nle_mask(slots, t);
            simd_force_scalar(true);
            let scalar = nle_mask(slots, t);
            simd_force_scalar(false);
            assert_eq!(
                wide, scalar,
                "wide vs scalar mask: floor {t:?} over {slots:?}"
            );
            assert_eq!(
                scalar, expect,
                "mask vs !(x <= t): floor {t:?} over {slots:?}"
            );
            checked += 1;
        }
    }
    assert!(checked > 5_000);
}
