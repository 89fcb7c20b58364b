//! The two query logs the workloads replay, both deterministic in `--seed`.
//!
//! The program under test only ever receives the generated term-id vectors.

use x100_corpus::{QueryLogConfig, QueryLogGenerator};

/// Queries with at most this many terms are the "short" class: they ride
/// the priority lane of the two-lane queue and are reported separately.
pub const SHORT_MAX_TERMS: usize = 2;
/// Distinct terms of every long query in the mixed log.
pub const LONG_QUERY_TERMS: usize = 8;

/// Which log a workload replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogKind {
    /// The TREC-TB-like keyword log: 2.3 terms on average, at most 8.
    Trec,
    /// Short (1–2 term) and long (8-term) queries interleaved 1:1.
    Mixed,
}

/// The first `n` queries of the `kind` log over a vocabulary of
/// `vocab_size` terms.
pub fn generate(
    kind: LogKind,
    base: &QueryLogConfig,
    vocab_size: usize,
    seed: u64,
    n: usize,
) -> Vec<Vec<u32>> {
    match kind {
        LogKind::Trec => QueryLogGenerator::new(base.clone(), vocab_size, seed)
            .take(n)
            .collect(),
        LogKind::Mixed => mixed(base, vocab_size, seed, n),
    }
}

/// The two-class log: 1–2-term lookups and 8-term disjunctions taking
/// turns, both Zipf-drawn from `base`'s term band. This is the traffic on
/// which a short lookup can queue behind a long disjunction, so it is the
/// log the two-lane queue and the pruned scoring loop are measured on. It
/// is the log of `serve_bench --mixed`, query for query: that generator
/// lives in a binary and cannot be imported.
fn mixed(base: &QueryLogConfig, vocab_size: usize, seed: u64, n: usize) -> Vec<Vec<u32>> {
    let short_cfg = QueryLogConfig {
        avg_terms: 1.5,
        max_terms: SHORT_MAX_TERMS,
        ..base.clone()
    };
    let long_cfg = QueryLogConfig {
        avg_terms: LONG_QUERY_TERMS as f64,
        max_terms: LONG_QUERY_TERMS,
        ..base.clone()
    };
    assert!(
        vocab_size >= base.head_skip + LONG_QUERY_TERMS,
        "vocabulary too small to draw {LONG_QUERY_TERMS} distinct query terms"
    );
    let mut short_gen = QueryLogGenerator::new(short_cfg, vocab_size, seed);
    let mut long_gen = QueryLogGenerator::new(long_cfg, vocab_size, seed ^ 0x9E37_79B9);
    (0..n)
        .map(|i| {
            if i % 2 == 0 {
                return short_gen.next().expect("generator is endless");
            }
            // The generator's geometric length draw usually stops short of
            // 8: keep merging draws until the query has 8 distinct terms.
            let mut terms: Vec<u32> = Vec::with_capacity(LONG_QUERY_TERMS);
            while terms.len() < LONG_QUERY_TERMS {
                for t in long_gen.next().expect("generator is endless") {
                    if terms.len() < LONG_QUERY_TERMS && !terms.contains(&t) {
                        terms.push(t);
                    }
                }
            }
            terms
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(seed: u64, n: usize) -> Vec<Vec<u32>> {
        generate(LogKind::Mixed, &QueryLogConfig::default(), 40_000, seed, n)
    }

    #[test]
    fn mixed_log_is_deterministic_in_seed() {
        assert_eq!(log(7, 400), log(7, 400));
        assert_ne!(log(7, 400), log(8, 400));
        // A longer log extends a shorter one: the open-loop pass and the
        // calibration pass replay prefixes of one log.
        assert_eq!(log(7, 400)[..100], log(7, 100)[..]);
    }

    #[test]
    fn mixed_log_interleaves_short_and_long_one_to_one() {
        for (i, q) in log(1, 1000).iter().enumerate() {
            if i % 2 == 0 {
                assert!((1..=SHORT_MAX_TERMS).contains(&q.len()), "query {i}: {q:?}");
            } else {
                assert_eq!(q.len(), LONG_QUERY_TERMS, "query {i}: {q:?}");
            }
        }
    }

    #[test]
    fn long_queries_hold_exactly_eight_distinct_terms() {
        for q in log(3, 1000).iter().skip(1).step_by(2) {
            let mut distinct = q.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), LONG_QUERY_TERMS, "{q:?}");
            assert!(q.iter().all(|&t| (t as usize) < 40_000));
        }
    }
}
