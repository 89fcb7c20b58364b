//! Query-log generation.
//!
//! The TREC-TB efficiency task replays 50 000 keyword queries whose average
//! length is 2.3 terms, "with each term occurring in 775 thousand documents
//! on average" (§3.2) — i.e. query terms are *mid-frequency*: users rarely
//! search for stopwords or for hapaxes. The sampler draws query lengths from
//! a truncated geometric distribution calibrated to the configured mean, and
//! terms Zipf-weighted from a rank band that excludes the extreme head and
//! the long tail.

use rand::Rng;

use crate::zipf::ZipfSampler;

/// Shape of generated queries.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryLogConfig {
    /// Target mean query length (paper: 2.3).
    pub avg_terms: f64,
    /// Maximum query length.
    pub max_terms: usize,
    /// Query terms are drawn from vocabulary ranks
    /// `[head_skip, head_skip + band_size)`: skipping the head avoids
    /// stopword-like terms, bounding the band avoids hapaxes.
    pub head_skip: usize,
    /// Width of the rank band queries draw from.
    pub band_size: usize,
    /// Zipf exponent within the band (flatter than the corpus: real query
    /// logs reuse mid-frequency terms less steeply).
    pub band_exponent: f64,
    /// Probability that a query term is drawn uniformly from the *tail*
    /// beyond the band instead. Tail terms have short posting lists, so
    /// conjunctive first passes over such queries come up short — this is
    /// what drives the paper's "roughly 15% of the 50,000 queries required
    /// a second pass".
    pub tail_prob: f64,
}

impl QueryLogConfig {
    /// Matches the tiny test collection.
    pub fn tiny() -> Self {
        QueryLogConfig {
            avg_terms: 2.3,
            max_terms: 6,
            head_skip: 3,
            band_size: 120,
            band_exponent: 0.6,
            tail_prob: 0.1,
        }
    }
}

impl Default for QueryLogConfig {
    fn default() -> Self {
        // Calibrated so conjunctive result sets are far larger than the
        // top-20 cutoff: the paper's query terms occur "in 775 thousand
        // documents on average" — long posting lists are what make
        // unranked boolean retrieval useless (Table 2's p@20 of 0.013)
        // while tf-aware BM25 stays precise.
        QueryLogConfig {
            avg_terms: 2.3,
            max_terms: 8,
            head_skip: 5,
            band_size: 150,
            band_exponent: 1.0,
            tail_prob: 0.09,
        }
    }
}

/// Draws one query's distinct term ids.
///
/// Always returns at least one term; duplicates within a query are
/// rejected/redrawn (keyword queries don't repeat words).
pub fn sample_query_terms(
    config: &QueryLogConfig,
    vocab_size: usize,
    rng: &mut impl Rng,
) -> Vec<u32> {
    let band_size = config
        .band_size
        .min(vocab_size.saturating_sub(config.head_skip))
        .max(1);
    let head_skip = config.head_skip.min(vocab_size - 1);
    let zipf = ZipfSampler::new(band_size, config.band_exponent);

    let tail_start = head_skip + band_size;
    let len = draw_query_len(config.avg_terms, config.max_terms, rng);
    let mut terms: Vec<u32> = Vec::with_capacity(len);
    let mut attempts = 0;
    while terms.len() < len && attempts < len * 20 {
        attempts += 1;
        let t = if tail_start < vocab_size && rng.gen::<f64>() < config.tail_prob {
            // A rare term from beyond the band (short posting list).
            rng.gen_range(tail_start..vocab_size) as u32
        } else {
            (head_skip + zipf.sample(rng)) as u32
        };
        if !terms.contains(&t) {
            terms.push(t);
        }
    }
    if terms.is_empty() {
        terms.push(head_skip as u32);
    }
    terms
}

/// A seeded, endless Zipfian query-log generator — the serving harness's
/// traffic source.
///
/// A collection's canned `efficiency_log` is a fixed-size sample; load
/// testing wants an *open-ended* stream with the same statistics (Zipf
/// band term selection, ~2.3-term mean length) that can be drawn once for
/// a sequential reference run and re-drawn identically for each concurrent
/// run. The generator is deterministic in `(config, vocab_size, seed)` and
/// implements [`Iterator`], so `generator.take(n)` is a reproducible
/// query log of any length.
#[derive(Debug, Clone)]
pub struct QueryLogGenerator {
    config: QueryLogConfig,
    vocab_size: usize,
    rng: rand::rngs::StdRng,
}

impl QueryLogGenerator {
    /// A generator over `vocab_size` term ids, deterministic in `seed`.
    ///
    /// # Panics
    /// Panics if `vocab_size == 0`.
    pub fn new(config: QueryLogConfig, vocab_size: usize, seed: u64) -> Self {
        use rand::SeedableRng;
        assert!(vocab_size > 0, "vocabulary must be non-empty");
        QueryLogGenerator {
            config,
            vocab_size,
            rng: rand::rngs::StdRng::seed_from_u64(seed),
        }
    }
}

impl Iterator for QueryLogGenerator {
    type Item = Vec<u32>;

    fn next(&mut self) -> Option<Self::Item> {
        Some(sample_query_terms(
            &self.config,
            self.vocab_size,
            &mut self.rng,
        ))
    }
}

/// Truncated geometric length: `P(len = k) ∝ (1-p)^(k-1) p` with `p` chosen
/// so the mean is `avg` (for an untruncated geometric, mean = 1/p).
fn draw_query_len(avg: f64, max: usize, rng: &mut impl Rng) -> usize {
    let p = (1.0 / avg.max(1.0)).clamp(0.05, 1.0);
    let mut len = 1;
    while len < max && rng.gen::<f64>() > p {
        len += 1;
    }
    len
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mean_length_near_2_3() {
        let cfg = QueryLogConfig::default();
        let mut rng = StdRng::seed_from_u64(11);
        let n = 20_000;
        let total: usize = (0..n)
            .map(|_| sample_query_terms(&cfg, 40_000, &mut rng).len())
            .sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 2.3).abs() < 0.25, "mean query length {mean}");
    }

    #[test]
    fn terms_distinct_and_in_band_or_tail() {
        let cfg = QueryLogConfig::default();
        let mut rng = StdRng::seed_from_u64(3);
        let mut tail_terms = 0usize;
        let mut total_terms = 0usize;
        for _ in 0..1000 {
            let q = sample_query_terms(&cfg, 40_000, &mut rng);
            assert!(!q.is_empty());
            assert!(q.len() <= cfg.max_terms);
            for &t in &q {
                assert!((t as usize) >= cfg.head_skip);
                assert!((t as usize) < 40_000);
                if (t as usize) >= cfg.head_skip + cfg.band_size {
                    tail_terms += 1;
                }
                total_terms += 1;
            }
            let mut sorted = q.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), q.len(), "duplicate terms in query");
        }
        // Tail terms appear at roughly the configured probability.
        let rate = tail_terms as f64 / total_terms as f64;
        assert!(
            (rate - cfg.tail_prob).abs() < 0.05,
            "tail rate {rate} vs configured {}",
            cfg.tail_prob
        );
    }

    #[test]
    fn small_vocab_does_not_panic() {
        let cfg = QueryLogConfig::default(); // band larger than vocab
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let q = sample_query_terms(&cfg, 40, &mut rng);
            assert!(q.iter().all(|&t| (t as usize) < 40));
        }
    }

    #[test]
    fn generator_is_deterministic_and_endless() {
        let cfg = QueryLogConfig::default();
        let a: Vec<Vec<u32>> = QueryLogGenerator::new(cfg.clone(), 5_000, 42)
            .take(200)
            .collect();
        let b: Vec<Vec<u32>> = QueryLogGenerator::new(cfg.clone(), 5_000, 42)
            .take(200)
            .collect();
        assert_eq!(a, b);
        let c: Vec<Vec<u32>> = QueryLogGenerator::new(cfg, 5_000, 43).take(200).collect();
        assert_ne!(a, c, "different seeds must diverge");
        assert!(a
            .iter()
            .all(|q| !q.is_empty() && q.iter().all(|&t| (t as usize) < 5_000)));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn generator_rejects_empty_vocab() {
        let _ = QueryLogGenerator::new(QueryLogConfig::default(), 0, 1);
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = QueryLogConfig::tiny();
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for _ in 0..50 {
            assert_eq!(
                sample_query_terms(&cfg, 500, &mut a),
                sample_query_terms(&cfg, 500, &mut b)
            );
        }
    }
}
