//! The traced run: spans recorded from the harness side, around the calls
//! into each layer, kept in memory and written out when the run ends.
//!
//! One query's spans share its `query` number:
//!
//! ```text
//! query                      scheduled arrival → completion
//! ├─ serve.queue             submission → dequeue by a worker
//! └─ serve.execute           the `QueryService::execute` call
//!    └─ net.partition × 4    one per `PartitionAttempt` (net_scatter only)
//! ```
//!
//! A layer's self time is its span minus the part its children cover.
//! `query`'s self time is therefore how late the load generator submitted
//! (zero on a closed loop), and `serve.execute`'s is what the coordinator
//! adds around the slowest partition (or, on one index, all of `ir`).
//! Spans inside the crates are a later change.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use x100_distributed::{Coordinator, QueryService, ServedQuery};
use x100_ir::{QueryExecutor, SearchStrategy};
use x100_storage::IoStats;

use crate::load::Pass;
use crate::stats::median;
use crate::workload::TOP_N;

/// A service the harness can trace: it executes a query and names the
/// child spans the execution had.
pub trait Instrumented: QueryService + Clone {
    /// Executes like [`QueryService::execute`], also returning
    /// `(name, duration)` of each child span. Children are taken to start
    /// with the execution: the public API reports their durations only.
    fn execute_spans(
        &self,
        terms: &[u32],
        strategy: SearchStrategy,
        n: usize,
    ) -> (ServedQuery, Vec<(&'static str, Duration)>);
}

impl Instrumented for QueryExecutor {
    fn execute_spans(
        &self,
        terms: &[u32],
        strategy: SearchStrategy,
        n: usize,
    ) -> (ServedQuery, Vec<(&'static str, Duration)>) {
        (self.execute(terms, strategy, n), Vec::new())
    }
}

impl Instrumented for Arc<Coordinator> {
    fn execute_spans(
        &self,
        terms: &[u32],
        strategy: SearchStrategy,
        n: usize,
    ) -> (ServedQuery, Vec<(&'static str, Duration)>) {
        // As `QueryService for Arc<Coordinator>` does, but keeping the
        // per-partition attribution the trait's return type drops.
        let outcome = self
            .search(terms, strategy, n)
            .unwrap_or_else(|e| panic!("networked serving path: {e}"));
        let children = outcome
            .partitions
            .iter()
            .map(|p| ("net.partition", p.wall))
            .collect();
        let io_time = outcome
            .partitions
            .iter()
            .map(|p| p.io.sim_time)
            .max()
            .unwrap_or(Duration::ZERO);
        let served = ServedQuery {
            hits: outcome.hits,
            io_time,
            passes: outcome.passes,
        };
        (served, children)
    }
}

/// One `execute` call as the wrapper saw it. The worker pool does not pass
/// the query's number down, so the query is recognised by its terms.
struct Execution {
    terms: Vec<u32>,
    start: Duration,
    end: Duration,
    children: Vec<(&'static str, Duration)>,
}

/// Wraps a service for the traced passes, recording every execution.
#[derive(Clone)]
pub struct Traced<S> {
    inner: S,
    epoch: Instant,
    executions: Arc<Mutex<Vec<Execution>>>,
}

impl<S: Instrumented> Traced<S> {
    pub fn new(inner: S, epoch: Instant) -> Self {
        Traced {
            inner,
            epoch,
            executions: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Joins the executions recorded since the last call with the outcomes
    /// of the traced pass they belong to (the `index`-th of the run) and
    /// appends the spans to `spans`.
    pub fn spans_into(&self, pass: &Pass, index: usize, spans: &mut Vec<Span>) {
        let mut executions = std::mem::take(
            &mut *self
                .executions
                .lock()
                .expect("a worker panicked while recording a span"),
        );
        // Queries with equal terms are dequeued in log order within a lane,
        // so the k-th execution of a term vector belongs to its k-th query.
        executions.sort_by_key(|e| e.start);
        let mut by_terms: HashMap<&[u32], Vec<&Execution>> = HashMap::new();
        for e in executions.iter().rev() {
            by_terms.entry(&e.terms).or_default().push(e);
        }
        for outcome in &pass.report.outcomes {
            let e = by_terms
                .get_mut(pass.queries[outcome.id].as_slice())
                .and_then(Vec::pop)
                .expect("every served query was executed through the wrapper");
            let root = spans.len();
            let mut push = |parent, name, start: Duration, end: Duration| {
                spans.push(Span {
                    pass: index,
                    query: outcome.id,
                    parent,
                    name,
                    start_ns: start.as_nanos() as u64,
                    end_ns: end.as_nanos() as u64,
                });
            };
            push(None, "query", e.end.saturating_sub(outcome.latency), e.end);
            push(
                Some(root),
                "serve.queue",
                e.start.saturating_sub(outcome.queue_wait),
                e.start,
            );
            push(Some(root), "serve.execute", e.start, e.end);
            for &(name, duration) in &e.children {
                push(Some(root + 2), name, e.start, e.start + duration);
            }
        }
    }
}

impl<S: Instrumented> QueryService for Traced<S> {
    fn execute(&self, terms: &[u32], strategy: SearchStrategy, n: usize) -> ServedQuery {
        let start = self.epoch.elapsed();
        let (served, children) = self.inner.execute_spans(terms, strategy, n);
        let end = self.epoch.elapsed();
        self.executions
            .lock()
            .expect("another worker panicked while recording a span")
            .push(Execution {
                terms: terms.to_vec(),
                start,
                end,
                children,
            });
        served
    }

    fn io_stats(&self) -> IoStats {
        self.inner.io_stats()
    }
}

/// Queries the overhead probe executes.
pub const OVERHEAD_QUERIES: usize = 300;

/// The wrapper's own cost as a share of a query's service time: `queries`
/// executed serially through the bare service and through the wrapper, the
/// median per-query difference over the median bare time. Each query runs
/// once untimed first, so neither timed side finds the caches colder, and
/// the two sides take turns going first.
pub fn overhead_frac<S: Instrumented>(
    service: &S,
    strategy: SearchStrategy,
    queries: &[Vec<u32>],
) -> f64 {
    let traced = Traced::new(service.clone(), Instant::now());
    let timed = |s: &dyn QueryService, q: &[u32]| {
        let t = Instant::now();
        std::hint::black_box(s.execute(q, strategy, TOP_N));
        t.elapsed().as_secs_f64()
    };
    let (mut bare_s, mut extra_s) = (Vec::new(), Vec::new());
    for (i, q) in queries.iter().enumerate() {
        timed(service, q);
        let (bare, wrapped) = if i % 2 == 0 {
            let bare = timed(service, q);
            (bare, timed(&traced, q))
        } else {
            let wrapped = timed(&traced, q);
            (timed(service, q), wrapped)
        };
        bare_s.push(bare);
        extra_s.push(wrapped - bare);
    }
    median(&extra_s) / median(&bare_s)
}

/// One span. `query` is the query's position in its pass's slice of the
/// log and `pass` the traced pass that served it; `parent` is the index of the causing span
/// in the same list; times are nanoseconds since the run's trace epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub pass: usize,
    pub query: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per span name: `(count, total self time in ns)`, where self time is the
/// span's duration minus the part of it its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            children[p].push((s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi)));
        }
    }
    let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, mut kids) in spans.iter().zip(children) {
        kids.sort_unstable();
        let (mut covered, mut reach) = (0, s.start_ns);
        for (start, end) in kids {
            covered += end.saturating_sub(start.max(reach));
            reach = reach.max(end);
        }
        let entry = totals.entry(s.name).or_default();
        entry.0 += 1;
        entry.1 += (s.end_ns - s.start_ns).saturating_sub(covered);
    }
    totals
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"pass\":{},\"query\":{},\"span\":{id},\"parent\":{parent},\
             \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.pass, s.query, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            pass: 0,
            query: 0,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(None, "query", 0, 100),
            span(Some(0), "serve.queue", 10, 40),
            span(Some(0), "serve.execute", 40, 100),
            // Parallel partitions overlap: together they cover 40..90.
            span(Some(2), "net.partition", 40, 70),
            span(Some(2), "net.partition", 40, 90),
            // A child running past its parent only counts up to the parent's end.
            span(Some(2), "net.partition", 85, 120),
        ];
        let totals = self_times(&spans);
        assert_eq!(totals["query"], (1, 10));
        assert_eq!(totals["serve.queue"], (1, 30));
        assert_eq!(totals["serve.execute"], (1, 0));
        assert_eq!(totals["net.partition"], (3, 30 + 50 + 35));
    }
}
