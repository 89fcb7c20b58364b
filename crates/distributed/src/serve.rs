//! The concurrent serving path: worker pool, bounded admission, load
//! generation and latency accounting.
//!
//! The paper's throughput argument (§3.4) is that a partitioned index
//! serves "a heavy query load (hundreds of queries per second)" because
//! *concurrent* query streams keep every resource busy even while any
//! single query waits on the slowest node or on I/O. This module makes
//! that claim executable:
//!
//! * [`TwoLaneQueue`] — a bounded MPMC queue between load generators and
//!   workers. Bounded means **backpressure**: when the pool is saturated,
//!   submitters block instead of buffering unboundedly (the difference
//!   between a latency spike and an OOM under overload). Short queries may
//!   ride a priority lane; with that lane unused it is a plain bounded FIFO.
//! * [`QueryService`] — what a worker runs per query. Implemented by
//!   [`x100_ir::QueryExecutor`] (one node, executors cloned per worker over
//!   a shared index + lock-striped buffer pool, each lending its queries
//!   scratch arenas from its own pool) and by
//!   `Arc<SimulatedCluster>` (each query scatter-gathers across all
//!   partitions).
//! * [`run_closed_loop`] / [`run_open_loop`] — the two canonical load
//!   shapes: closed-loop (a submitter keeps the queue primed; measures
//!   capacity) and open-loop (queries arrive on a fixed schedule
//!   regardless of completions; measures latency at a target rate, with
//!   latency counted from the *scheduled* arrival so queueing delay under
//!   saturation is not silently omitted).
//! * [`LatencyHistogram`] — log-bucketed latency recording with p50/p95/p99
//!   readout (≤ ~6 % relative bucket error).
//!
//! Nothing here waits on a disk *model*: a pool miss costs the wall-clock
//! time of its real fetch, and [`x100_storage::DiskModel`] time is only
//! accounted ([`ServedQuery::io_time`], [`ServeReport::io`]), never slept.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use x100_ir::{QueryExecutor, SearchStrategy};
use x100_storage::IoStats;

use crate::cluster::SimulatedCluster;

// ---------------------------------------------------------------------------
// Bounded admission queue
// ---------------------------------------------------------------------------

/// Which admission lane a job rides: `Short` is the priority lane for
/// small (cheap) queries, `Long` carries the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Priority lane for short queries.
    Short,
    /// Default lane for long queries.
    Long,
}

struct TwoLaneState<T> {
    short: VecDeque<T>,
    long: VecDeque<T>,
    closed: bool,
    /// Consecutive short-lane dequeues since the long lane was last
    /// served (or found empty).
    short_run: usize,
}

/// While the long lane has work, at least one of every this-many dequeues
/// serves it.
const LONG_LANE_GUARANTEE: usize = 4;

/// A bounded two-lane MPMC queue with blocking push (backpressure) and
/// blocking pop: the short lane is dequeued preferentially so cheap
/// queries are not stuck behind expensive ones, but the long lane is
/// **starvation-free** — whenever it is non-empty, at least one of every
/// four consecutive dequeues takes from it. Each lane is independently
/// bounded at `capacity` and pushes block per lane, so a queue whose short
/// lane is never used is exactly a bounded FIFO. Closing wakes everyone:
/// no further admissions, pending items in both lanes still drain, then
/// `pop` returns `None`.
pub struct TwoLaneQueue<T> {
    capacity: usize,
    state: Mutex<TwoLaneState<T>>,
    not_empty: Condvar,
    not_full_short: Condvar,
    not_full_long: Condvar,
}

impl<T> TwoLaneQueue<T> {
    /// A queue admitting at most `capacity` undelivered items *per lane*.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "admission queue needs capacity at least 1");
        TwoLaneQueue {
            capacity,
            state: Mutex::new(TwoLaneState {
                short: VecDeque::with_capacity(capacity),
                long: VecDeque::with_capacity(capacity),
                closed: false,
                short_run: 0,
            }),
            not_empty: Condvar::new(),
            not_full_short: Condvar::new(),
            not_full_long: Condvar::new(),
        }
    }

    fn lane_condvar(&self, lane: Lane) -> &Condvar {
        match lane {
            Lane::Short => &self.not_full_short,
            Lane::Long => &self.not_full_long,
        }
    }

    /// Enqueues `item` on `lane`, blocking while that lane is full.
    /// Returns the item back as `Err` if the queue was closed before space
    /// appeared.
    pub fn push(&self, lane: Lane, item: T) -> Result<(), T> {
        match self.push_impl(lane, || item) {
            Ok(()) => Ok(()),
            Err(make) => Err(make()),
        }
    }

    /// Like [`Self::push`], but constructs the item *at admission time*:
    /// `make` runs under the queue lock, immediately before the item
    /// becomes visible to workers, after any backpressure wait has already
    /// passed. Closed-loop submitters use this to stamp timestamps at
    /// admission — stamping before a blocking `push` would count the
    /// submitter's own backpressure wait as query latency. Returns `false`
    /// if the queue closed before space appeared (`make` is not called).
    pub fn push_with(&self, lane: Lane, make: impl FnOnce() -> T) -> bool {
        self.push_impl(lane, make).is_ok()
    }

    fn push_impl<F: FnOnce() -> T>(&self, lane: Lane, make: F) -> Result<(), F> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if st.closed {
                return Err(make);
            }
            let items = match lane {
                Lane::Short => &mut st.short,
                Lane::Long => &mut st.long,
            };
            if items.len() < self.capacity {
                items.push_back(make());
                drop(st);
                self.not_empty.notify_one();
                return Ok(());
            }
            st = self
                .lane_condvar(lane)
                .wait(st)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Dequeues the next item honoring the lane policy, blocking while
    /// both lanes are empty and the queue is open. Returns `None` once
    /// closed *and* drained. Also reports which lane served the item.
    pub fn pop(&self) -> Option<(Lane, T)> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            let take_long = if st.long.is_empty() {
                false
            } else {
                // Long lane has work: take it when the short lane is idle
                // or when the anti-starvation quota comes due.
                st.short.is_empty() || st.short_run + 1 >= LONG_LANE_GUARANTEE
            };
            let (lane, item) = if take_long {
                (Lane::Long, st.long.pop_front())
            } else {
                (Lane::Short, st.short.pop_front())
            };
            if let Some(item) = item {
                match lane {
                    Lane::Short => st.short_run += 1,
                    Lane::Long => st.short_run = 0,
                }
                drop(st);
                self.lane_condvar(lane).notify_one();
                return Some((lane, item));
            }
            if st.closed {
                return None;
            }
            st = self.not_empty.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Closes the queue: no further pushes on either lane; pending items
    /// still drain through `pop`.
    pub fn close(&self) {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
        self.not_empty.notify_all();
        self.not_full_short.notify_all();
        self.not_full_long.notify_all();
    }

    /// Undelivered items currently queued, `(short, long)`.
    pub fn lane_lens(&self) -> (usize, usize) {
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        (st.short.len(), st.long.len())
    }
}

// ---------------------------------------------------------------------------
// Latency histogram
// ---------------------------------------------------------------------------

const SUB_BITS: u32 = 4;
const SUB_BUCKETS: u64 = 1 << SUB_BITS; // 16 linear sub-buckets per octave
const NUM_BUCKETS: usize = ((64 - SUB_BITS as usize) * SUB_BUCKETS as usize) + SUB_BUCKETS as usize;

/// A log-bucketed latency histogram: 16 linear sub-buckets per power of
/// two of nanoseconds, giving ≤ ~6 % relative error on reported
/// quantiles across the full `Duration` range — constant memory, O(1)
/// record, mergeable across workers.
#[derive(Clone)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_nanos: u128,
    min_nanos: u64,
    max_nanos: u64,
}

fn bucket_of(nanos: u64) -> usize {
    if nanos < SUB_BUCKETS {
        return nanos as usize;
    }
    let msb = 63 - nanos.leading_zeros();
    let shift = msb - SUB_BITS;
    let sub = ((nanos >> shift) & (SUB_BUCKETS - 1)) as usize;
    (shift as usize) * SUB_BUCKETS as usize + SUB_BUCKETS as usize + sub
}

/// Inclusive upper bound of a bucket, in nanoseconds.
fn bucket_upper(idx: usize) -> u64 {
    if idx < SUB_BUCKETS as usize {
        return idx as u64;
    }
    let shift = (idx - SUB_BUCKETS as usize) / SUB_BUCKETS as usize;
    let sub = ((idx - SUB_BUCKETS as usize) % SUB_BUCKETS as usize) as u64;
    // Widen before shifting: the topmost octave's bound exceeds u64 (its
    // true upper edge is 2^64·(sub+17)/16), so clamp to u64::MAX instead
    // of wrapping to 0 and breaking monotonicity.
    let bound = (u128::from(SUB_BUCKETS + sub + 1) << shift) - 1;
    u64::try_from(bound).unwrap_or(u64::MAX)
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum_nanos: 0,
            min_nanos: u64::MAX,
            max_nanos: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: Duration) {
        let nanos = u64::try_from(sample.as_nanos()).unwrap_or(u64::MAX);
        self.buckets[bucket_of(nanos)] += 1;
        self.count += 1;
        self.sum_nanos += u128::from(nanos);
        self.min_nanos = self.min_nanos.min(nanos);
        self.max_nanos = self.max_nanos.max(nanos);
    }

    /// Folds another histogram into this one (per-worker → run total).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_nanos += other.sum_nanos;
        self.min_nanos = self.min_nanos.min(other.min_nanos);
        self.max_nanos = self.max_nanos.max(other.max_nanos);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all samples ([`Duration::ZERO`] when empty).
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos((self.sum_nanos / u128::from(self.count)) as u64)
    }

    /// Largest recorded sample (exact, not bucketed).
    pub fn max(&self) -> Duration {
        Duration::from_nanos(if self.count == 0 { 0 } else { self.max_nanos })
    }

    /// The `q`-quantile (`0.0 ..= 1.0`): an upper bound on the latency of
    /// the `⌈q·count⌉`-th fastest sample, within the bucket's ≤ ~6 %
    /// width. [`Duration::ZERO`] when empty.
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Never report beyond the true extremes.
                return Duration::from_nanos(
                    bucket_upper(idx).clamp(self.min_nanos, self.max_nanos),
                );
            }
        }
        Duration::from_nanos(self.max_nanos)
    }

    /// Median (see [`Self::quantile`]).
    pub fn p50(&self) -> Duration {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> Duration {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Duration {
        self.quantile(0.99)
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("mean", &self.mean())
            .field("p50", &self.p50())
            .field("p95", &self.p95())
            .field("p99", &self.p99())
            .field("max", &self.max())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Query service
// ---------------------------------------------------------------------------

/// The hits and accounting a service returns for one query.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedQuery {
    /// `(docid, score)` pairs, best first — docids are global for cluster
    /// services. Names are deliberately not materialized on the serving
    /// hot path.
    pub hits: Vec<(u32, f32)>,
    /// Simulated disk time charged while this query ran. Exact when the
    /// service's pool is unshared or idle; on a pool shared with
    /// concurrent queries it is a stats-delta and may include other
    /// queries' concurrent misses (run-level totals stay exact).
    pub io_time: Duration,
    /// Execution passes (two-pass strategies).
    pub passes: u8,
}

/// What a worker runs per admitted query. Implementations must be cheap to
/// clone — each worker owns a clone, sharing the heavy state (`Arc`s)
/// underneath.
pub trait QueryService: Send + Sync {
    /// Executes one query.
    ///
    /// # Panics
    /// Serving assumes a well-configured plan; implementations panic on
    /// planning errors (e.g. a materialized-score strategy over an index
    /// without score columns) rather than degrade silently.
    fn execute(&self, terms: &[u32], strategy: SearchStrategy, n: usize) -> ServedQuery;

    /// Cumulative simulated-I/O statistics of the underlying pool(s),
    /// used to account a run's I/O as a start/end delta.
    fn io_stats(&self) -> IoStats;
}

impl QueryService for QueryExecutor {
    fn execute(&self, terms: &[u32], strategy: SearchStrategy, n: usize) -> ServedQuery {
        // The fused scratch-arena path: the one allocation per served
        // query is the hits vector handed back in `ServedQuery` (the
        // executor's arena itself is reused, warm queries run
        // allocation-free up to this point).
        let mut hits = Vec::with_capacity(n);
        let meta = self
            .search_hits_into(terms, strategy, n, &mut hits)
            .expect("serving path: query plan failed");
        ServedQuery {
            hits,
            io_time: meta.io.sim_time,
            passes: meta.passes,
        }
    }

    fn io_stats(&self) -> IoStats {
        self.buffers().stats()
    }
}

/// Scatter-gather serving: every admitted query is broadcast to all
/// partitions ([`SimulatedCluster::search_scatter`], which runs the nodes
/// one after another on this worker) and the worker acts as its
/// coordinator. The I/O wait is the *slowest node's* simulated disk time:
/// a model of a cluster whose nodes read in parallel, not a measurement.
impl QueryService for std::sync::Arc<SimulatedCluster> {
    fn execute(&self, terms: &[u32], strategy: SearchStrategy, n: usize) -> ServedQuery {
        let resp = self.search_scatter(terms, strategy, n);
        // The in-process cluster has no replicas to fail over to, and a
        // silently partial merge would be worse than stopping: per the
        // trait contract, a dead node is a serving-configuration fault
        // here. The networked coordinator is the implementation that
        // turns `failures` into replica retries instead.
        assert!(
            resp.failures.is_empty(),
            "in-process scatter lost partitions: {:?}",
            resp.failures
        );
        let io_time = resp
            .node_timings
            .iter()
            .map(|t| t.io.sim_time)
            .max()
            .unwrap_or(Duration::ZERO);
        // Two-pass accounting: the query "went to a second pass" if any
        // node's local search did.
        let passes = resp
            .node_timings
            .iter()
            .map(|t| t.passes)
            .max()
            .unwrap_or(1);
        ServedQuery {
            hits: resp.results.iter().map(|r| (r.docid, r.score)).collect(),
            io_time,
            passes,
        }
    }

    fn io_stats(&self) -> IoStats {
        let mut total = IoStats::default();
        for node in self.nodes() {
            total.merge(&node.buffers().stats());
        }
        total
    }
}

// ---------------------------------------------------------------------------
// Worker pool and load loops
// ---------------------------------------------------------------------------

/// Serving-run configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing queries.
    pub workers: usize,
    /// Admission queue capacity (in-flight bound; submitters block beyond
    /// it).
    pub queue_depth: usize,
    /// Strategy every query runs with.
    pub strategy: SearchStrategy,
    /// Top-N to retrieve per query.
    pub top_n: usize,
    /// When `Some(t)`, queries with at most `t` terms ride the priority
    /// lane so cheap lookups are not stuck behind expensive disjunctions
    /// (each lane is bounded at `queue_depth`). `None` sends every query
    /// down the long lane: a single bounded FIFO.
    pub short_query_max_terms: Option<usize>,
}

impl ServeConfig {
    /// A config for `workers` threads with conventional defaults: queue
    /// depth `2 × workers`, [`SearchStrategy::Bm25TwoPass`], top-20,
    /// single-lane admission.
    pub fn new(workers: usize) -> Self {
        ServeConfig {
            workers,
            queue_depth: workers.max(1) * 2,
            strategy: SearchStrategy::Bm25TwoPass,
            top_n: 20,
            short_query_max_terms: None,
        }
    }
}

/// One admitted query travelling through the pool.
struct QueryJob {
    id: usize,
    terms: Vec<u32>,
    /// Where this query's latency clock starts. Open loop: when it was
    /// *supposed* to arrive per the schedule, stamped before the
    /// (possibly blocking) push so saturation delay is counted. Closed
    /// loop: the moment the bounded queue admitted it — a closed-loop
    /// query does not exist before admission, so the submitter's own
    /// backpressure wait must not count as query latency.
    scheduled: Instant,
    /// When the queue admitted it (closed loop) or its submission attempt
    /// began (open loop; admission may come later under backpressure).
    submitted: Instant,
}

/// Per-query outcome, reported in query order.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Index of the query in the submitted log.
    pub id: usize,
    /// Worker that served it.
    pub worker: usize,
    /// `(docid, score)` hits, best first.
    pub hits: Vec<(u32, f32)>,
    /// Time spent in the admission system, ending at dequeue by a worker.
    /// Open loop: starts at the submission attempt, deliberately
    /// *including* any backpressure blocking before the bounded queue
    /// admitted the job, so saturation shows up here rather than
    /// vanishing. Closed loop: starts at admission — the submitter's
    /// backpressure wait is its own pacing, not time the query spent
    /// in the system.
    pub queue_wait: Duration,
    /// Time from dequeue to completion.
    pub service_time: Duration,
    /// End-to-end latency from the *scheduled* arrival to completion — in
    /// open-loop runs this includes backpressure delay before admission,
    /// so saturation cannot hide queueing (no coordinated omission).
    pub latency: Duration,
    /// Simulated disk time charged to this query.
    pub io_time: Duration,
    /// Execution passes.
    pub passes: u8,
}

/// Aggregate results of one serving run.
#[derive(Debug)]
pub struct ServeReport {
    /// Worker count the run used.
    pub workers: usize,
    /// Queries completed (always the full log; workers drain the queue).
    pub completed: usize,
    /// Wall-clock time from first submission to last completion.
    pub wall: Duration,
    /// Completed queries per wall-clock second.
    pub qps: f64,
    /// End-to-end latency distribution (scheduled arrival → completion).
    pub latency: LatencyHistogram,
    /// Admission-system wait distribution (backpressure + in-queue; see
    /// [`QueryOutcome::queue_wait`]).
    pub queue_wait: LatencyHistogram,
    /// Worker service-time distribution.
    pub service: LatencyHistogram,
    /// Simulated I/O charged during the run (pool-stats delta).
    pub io: IoStats,
    /// Per-query outcomes in query order (`outcomes[i].id == i`).
    pub outcomes: Vec<QueryOutcome>,
}

/// Closed-loop load: the submitter keeps the bounded queue primed and the
/// workers never starve — measures the configuration's *capacity* (max
/// sustainable QPS). A closed-loop query's latency clock starts when the
/// bounded queue *admits* it, so it includes only queue wait within the
/// bounded depth plus service time — never the submitter's own
/// backpressure blocking, which is pacing, not latency.
pub fn run_closed_loop<S: QueryService + Clone>(
    service: &S,
    config: &ServeConfig,
    queries: &[Vec<u32>],
) -> ServeReport {
    run(service, config, queries, None)
}

/// Open-loop load at a fixed arrival rate (queries per second): query `i`
/// is scheduled at `i / rate` and submitted then (or as soon as the
/// bounded queue admits it). Measures latency at a target throughput; at
/// rates beyond capacity, backpressure delay shows up in `latency`.
///
/// # Panics
/// Panics if `rate_qps` is not finite and positive.
pub fn run_open_loop<S: QueryService + Clone>(
    service: &S,
    config: &ServeConfig,
    queries: &[Vec<u32>],
    rate_qps: f64,
) -> ServeReport {
    assert!(
        rate_qps.is_finite() && rate_qps > 0.0,
        "open-loop arrival rate must be positive"
    );
    run(service, config, queries, Some(rate_qps))
}

/// The lane a query of `n_terms` terms rides under `config`.
fn lane_for(n_terms: usize, config: &ServeConfig) -> Lane {
    match config.short_query_max_terms {
        Some(max_terms) if n_terms <= max_terms => Lane::Short,
        _ => Lane::Long,
    }
}

fn run<S: QueryService + Clone>(
    service: &S,
    config: &ServeConfig,
    queries: &[Vec<u32>],
    arrival_rate: Option<f64>,
) -> ServeReport {
    assert!(config.workers > 0, "at least one worker required");
    let queue = TwoLaneQueue::<QueryJob>::new(config.queue_depth);
    let slots: Vec<Mutex<Option<QueryOutcome>>> =
        (0..queries.len()).map(|_| Mutex::new(None)).collect();
    let io_before = service.io_stats();
    let start = Instant::now();

    /// Closes the queue when a worker unwinds, so a panicking pool can
    /// never strand the load generator in a blocking `push` with no
    /// consumers left (closing an already-closed queue is a no-op, so the
    /// normal exit path is unaffected).
    struct CloseOnDrop<'a>(&'a TwoLaneQueue<QueryJob>);
    impl Drop for CloseOnDrop<'_> {
        fn drop(&mut self) {
            self.0.close();
        }
    }

    std::thread::scope(|s| {
        for worker in 0..config.workers {
            let svc = service.clone();
            let queue = &queue;
            let slots = &slots;
            s.spawn(move || {
                let _close_on_panic = CloseOnDrop(queue);
                while let Some((_, job)) = queue.pop() {
                    let dequeued = Instant::now();
                    let served = svc.execute(&job.terms, config.strategy, config.top_n);
                    let done = Instant::now();
                    let outcome = QueryOutcome {
                        id: job.id,
                        worker,
                        hits: served.hits,
                        queue_wait: dequeued.saturating_duration_since(job.submitted),
                        service_time: done.saturating_duration_since(dequeued),
                        latency: done.saturating_duration_since(job.scheduled),
                        io_time: served.io_time,
                        passes: served.passes,
                    };
                    *slots[job.id].lock().unwrap_or_else(|e| e.into_inner()) = Some(outcome);
                }
            });
        }

        // Load generation on the calling thread.
        for (id, terms) in queries.iter().enumerate() {
            let lane = lane_for(terms.len(), config);
            let admitted = match arrival_rate {
                Some(rate) => {
                    // Open loop: the latency clock starts at the scheduled
                    // arrival, stamped *before* the blocking push — if the
                    // system cannot absorb the offered rate, the admission
                    // delay is real latency and must be measured.
                    let target = start + Duration::from_secs_f64(id as f64 / rate);
                    if let Some(wait) = target.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    queue
                        .push(
                            lane,
                            QueryJob {
                                id,
                                terms: terms.clone(),
                                scheduled: target,
                                submitted: Instant::now(),
                            },
                        )
                        .is_ok()
                }
                // Closed loop: the query exists only once the bounded
                // queue admits it, so both clocks start at admission —
                // inside `push_with`, after any backpressure wait.
                None => queue.push_with(lane, || {
                    let now = Instant::now();
                    QueryJob {
                        id,
                        terms: terms.clone(),
                        scheduled: now,
                        submitted: now,
                    }
                }),
            };
            if !admitted {
                // Only workers close the queue mid-run, and only by
                // unwinding; stop submitting and let the scope propagate
                // their panic.
                break;
            }
        }
        queue.close();
    });

    let wall = start.elapsed();
    let mut latency = LatencyHistogram::new();
    let mut queue_wait = LatencyHistogram::new();
    let mut service_hist = LatencyHistogram::new();
    let mut outcomes = Vec::with_capacity(queries.len());
    for slot in slots {
        let outcome = slot
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
            .expect("worker pool dropped a query");
        latency.record(outcome.latency);
        queue_wait.record(outcome.queue_wait);
        service_hist.record(outcome.service_time);
        outcomes.push(outcome);
    }
    let completed = outcomes.len();
    ServeReport {
        workers: config.workers,
        completed,
        wall,
        qps: completed as f64 / wall.as_secs_f64().max(1e-9),
        latency,
        queue_wait,
        service: service_hist,
        io: service.io_stats().delta_since(&io_before),
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use x100_corpus::{CollectionConfig, SyntheticCollection};
    use x100_ir::{IndexConfig, InvertedIndex};

    fn tiny_service() -> (Vec<Vec<u32>>, QueryExecutor) {
        let c = SyntheticCollection::generate(&CollectionConfig::tiny());
        let idx = Arc::new(InvertedIndex::build(&c, &IndexConfig::compressed()));
        let queries = c.efficiency_log.clone();
        (queries, QueryExecutor::new(idx))
    }

    #[test]
    fn single_lane_use_is_a_strict_bounded_fifo() {
        // With the short lane never used the queue is the plain bounded
        // FIFO: items leave in push order, the long lane never holds more
        // than its capacity, and the short lane stays empty.
        let q: TwoLaneQueue<u32> = TwoLaneQueue::new(3);
        std::thread::scope(|s| {
            s.spawn(|| {
                for v in 0..100 {
                    q.push(Lane::Long, v).unwrap();
                }
                q.close();
            });
            for expect in 0..100 {
                let (short, long) = q.lane_lens();
                assert_eq!(short, 0);
                assert!(long <= 3, "long lane over capacity: {long}");
                assert_eq!(q.pop(), Some((Lane::Long, expect)));
            }
            assert_eq!(q.pop(), None);
        });
    }

    #[test]
    fn queue_push_after_close_is_rejected() {
        let q: TwoLaneQueue<u32> = TwoLaneQueue::new(2);
        q.push(Lane::Long, 1).unwrap();
        q.close();
        assert_eq!(q.push(Lane::Long, 2), Err(2));
        assert_eq!(q.pop(), Some((Lane::Long, 1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn two_lane_short_queries_overtake_queued_long() {
        let q: TwoLaneQueue<u32> = TwoLaneQueue::new(4);
        q.push(Lane::Long, 100).unwrap();
        q.push(Lane::Long, 101).unwrap();
        q.push(Lane::Short, 1).unwrap();
        q.push(Lane::Short, 2).unwrap();
        // The later-arriving short jobs drain first; within a lane, FIFO.
        assert_eq!(q.pop(), Some((Lane::Short, 1)));
        assert_eq!(q.pop(), Some((Lane::Short, 2)));
        assert_eq!(q.pop(), Some((Lane::Long, 100)));
        assert_eq!(q.pop(), Some((Lane::Long, 101)));
        q.close();
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn two_lane_long_lane_is_starvation_free() {
        // A constantly replenished short lane must not starve the long
        // lane: a queued long job is dequeued within LONG_LANE_GUARANTEE
        // pops even though a short job is always available.
        let q: TwoLaneQueue<u32> = TwoLaneQueue::new(8);
        q.push(Lane::Long, 999).unwrap();
        let mut next_short = 0u32;
        for _ in 0..6 {
            q.push(Lane::Short, next_short).unwrap();
            next_short += 1;
        }
        let mut dequeues = 0;
        loop {
            let (lane, v) = q.pop().expect("queue is non-empty");
            dequeues += 1;
            // Refill so the short lane never empties — priority alone
            // would then never reach the long lane.
            q.push(Lane::Short, next_short).unwrap();
            next_short += 1;
            if lane == Lane::Long {
                assert_eq!(v, 999);
                break;
            }
            assert!(
                dequeues < LONG_LANE_GUARANTEE,
                "long job starved past the guarantee: {dequeues} short dequeues"
            );
        }
        assert!(dequeues <= LONG_LANE_GUARANTEE);
    }

    #[test]
    fn two_lane_delivers_every_item_exactly_once() {
        let q: Arc<TwoLaneQueue<usize>> = Arc::new(TwoLaneQueue::new(4));
        let seen = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|s| {
            for _ in 0..3 {
                let q = q.clone();
                let seen = seen.clone();
                s.spawn(move || {
                    while let Some((_, v)) = q.pop() {
                        seen.lock().unwrap().push(v);
                    }
                });
            }
            for v in 0..100 {
                let lane = if v % 3 == 0 { Lane::Long } else { Lane::Short };
                q.push(lane, v).unwrap();
            }
            q.close();
        });
        let mut got = seen.lock().unwrap().clone();
        got.sort_unstable();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn two_lane_close_unparks_blocked_pushers_with_clean_rejection() {
        // The depth-1 close-vs-push pin, per lane: a submitter parked on
        // each full lane observes `close()` and gets a clean rejection —
        // item handed back (or closure never run), no deadlock — while the
        // already-admitted items still drain.
        let q: Arc<TwoLaneQueue<u32>> = Arc::new(TwoLaneQueue::new(1));
        q.push(Lane::Short, 1).unwrap();
        q.push(Lane::Long, 2).unwrap();
        let short_pusher = {
            let q = q.clone();
            std::thread::spawn(move || q.push(Lane::Short, 3))
        };
        let long_pusher = {
            let q = q.clone();
            std::thread::spawn(move || q.push_with(Lane::Long, || 4))
        };
        std::thread::sleep(Duration::from_millis(50));
        q.close();
        assert_eq!(
            short_pusher.join().unwrap(),
            Err(3),
            "parked short-lane push must be rejected with its item returned"
        );
        assert!(
            !long_pusher.join().unwrap(),
            "parked long-lane push_with must report rejection"
        );
        assert_eq!(q.pop(), Some((Lane::Short, 1)));
        assert_eq!(q.pop(), Some((Lane::Long, 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn two_lane_close_rejects_parked_pusher_even_when_space_appears_first() {
        // The nastier interleaving: the queue is closed *and* drained while
        // the pusher is parked, so the pusher wakes to a queue with free
        // space. The closed check must still win — an item admitted after
        // close would either be lost (drain already finished) or resurrect
        // a "done" queue.
        let q: Arc<TwoLaneQueue<u32>> = Arc::new(TwoLaneQueue::new(1));
        q.push(Lane::Short, 1).unwrap();
        let pusher = {
            let q = q.clone();
            std::thread::spawn(move || q.push(Lane::Short, 2))
        };
        std::thread::sleep(Duration::from_millis(50));
        q.close();
        assert_eq!(q.pop(), Some((Lane::Short, 1))); // space appears after close
        assert_eq!(pusher.join().unwrap(), Err(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn two_lane_serving_run_matches_single_lane_results() {
        // Lane routing changes *when* a query is served, never *what* it
        // returns: every outcome is bit-identical to the single-lane run.
        let (queries, exec) = tiny_service();
        let mut cfg = ServeConfig::new(2);
        cfg.top_n = 10;
        let reference = run_closed_loop(&exec, &cfg, &queries);
        cfg.short_query_max_terms = Some(2);
        let report = run_closed_loop(&exec, &cfg, &queries);
        assert_eq!(report.completed, queries.len());
        for (a, b) in report.outcomes.iter().zip(&reference.outcomes) {
            assert_eq!(a.id, b.id);
            assert_eq!(
                a.hits, b.hits,
                "two-lane serving diverged on query {}",
                a.id
            );
        }
    }

    #[test]
    fn queue_bounds_create_backpressure() {
        // One worker consuming a 10 ms job at a time from a depth-1 queue:
        // the fifth push cannot complete before ~3 services have finished.
        let queue: TwoLaneQueue<u32> = TwoLaneQueue::new(1);
        std::thread::scope(|s| {
            s.spawn(|| {
                while queue.pop().is_some() {
                    std::thread::sleep(Duration::from_millis(10));
                }
            });
            let start = Instant::now();
            for v in 0..5 {
                queue.push(Lane::Long, v).unwrap();
            }
            let elapsed = start.elapsed();
            queue.close();
            assert!(
                elapsed >= Duration::from_millis(25),
                "pushes returned too fast for a bounded queue: {elapsed:?}"
            );
        });
    }

    #[test]
    fn histogram_quantiles_bound_known_samples() {
        let mut h = LatencyHistogram::new();
        for ms in 1..=100u64 {
            h.record(Duration::from_millis(ms));
        }
        assert_eq!(h.count(), 100);
        let p50 = h.p50().as_secs_f64() * 1e3;
        let p99 = h.p99().as_secs_f64() * 1e3;
        assert!((47.0..=57.0).contains(&p50), "p50 {p50} ms");
        assert!((94.0..=107.0).contains(&p99), "p99 {p99} ms");
        assert_eq!(h.max(), Duration::from_millis(100));
        assert!(h.quantile(0.0) >= Duration::from_millis(1));
        assert!(h.quantile(1.0) <= Duration::from_millis(100));
        let mean = h.mean().as_secs_f64() * 1e3;
        assert!((50.0..51.0).contains(&mean), "mean {mean} ms");
    }

    #[test]
    fn histogram_merge_equals_combined_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        for i in 0..200u64 {
            let d = Duration::from_micros(7 * i + 3);
            if i % 2 == 0 {
                a.record(d);
            } else {
                b.record(d);
            }
            all.record(d);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.p50(), all.p50());
        assert_eq!(a.p99(), all.p99());
        assert_eq!(a.mean(), all.mean());
    }

    #[test]
    fn bucket_upper_bounds_are_monotone_and_contain_their_values() {
        let mut prev = 0u64;
        for v in [
            0u64,
            1,
            15,
            16,
            17,
            255,
            1_000,
            65_535,
            1 << 30,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let idx = bucket_of(v);
            let upper = bucket_upper(idx);
            assert!(upper >= v, "upper({idx}) = {upper} < {v}");
            assert!(upper >= prev);
            // Relative bucket error stays within ~1/16 + 1 (the topmost
            // octave clamps at u64::MAX, where the bound is exact anyway).
            assert!(
                upper - v <= v / 16 + 1 || upper == u64::MAX,
                "bucket too wide at {v}: {upper}"
            );
            prev = upper;
        }
    }

    #[test]
    fn closed_loop_serves_every_query_bit_identically() {
        let (queries, exec) = tiny_service();
        let reference: Vec<Vec<(u32, f32)>> = queries
            .iter()
            .map(|q| exec.execute(q, SearchStrategy::Bm25TwoPass, 10).hits)
            .collect();
        for workers in [1usize, 3] {
            let mut cfg = ServeConfig::new(workers);
            cfg.top_n = 10;
            let report = run_closed_loop(&exec, &cfg, &queries);
            assert_eq!(report.completed, queries.len());
            assert_eq!(report.latency.count() as usize, queries.len());
            assert!(report.qps > 0.0);
            for (i, outcome) in report.outcomes.iter().enumerate() {
                assert_eq!(outcome.id, i);
                assert_eq!(
                    outcome.hits, reference[i],
                    "worker-pool hits diverged on query {i} at {workers} workers"
                );
            }
        }
    }

    #[test]
    fn open_loop_completes_and_measures_from_schedule() {
        let (queries, exec) = tiny_service();
        let queries = &queries[..20.min(queries.len())];
        let mut cfg = ServeConfig::new(2);
        cfg.top_n = 5;
        let report = run_open_loop(&exec, &cfg, queries, 2_000.0);
        assert_eq!(report.completed, queries.len());
        // Arrivals were spaced 0.5 ms apart: the run cannot have finished
        // faster than the schedule's span.
        assert!(report.wall >= Duration::from_secs_f64((queries.len() - 1) as f64 / 2_000.0));
        assert!(report.latency.count() as usize == queries.len());
    }

    #[test]
    fn cluster_service_matches_sequential_broadcast() {
        let c = SyntheticCollection::generate(&CollectionConfig::tiny());
        let cluster = Arc::new(SimulatedCluster::build(&c, 3, &IndexConfig::compressed()));
        let queries: Vec<Vec<u32>> = c.efficiency_log.iter().take(10).cloned().collect();
        let reference: Vec<Vec<(u32, f32)>> = queries
            .iter()
            .map(|q| {
                cluster
                    .search(q, SearchStrategy::Bm25, 10)
                    .into_iter()
                    .map(|r| (r.docid, r.score))
                    .collect()
            })
            .collect();
        let mut cfg = ServeConfig::new(2);
        cfg.strategy = SearchStrategy::Bm25;
        cfg.top_n = 10;
        let report = run_closed_loop(&cluster, &cfg, &queries);
        for (i, outcome) in report.outcomes.iter().enumerate() {
            assert_eq!(outcome.hits, reference[i], "query {i}");
        }
    }

    /// A deterministic service that sleeps: used to pin scaling and
    /// accounting behaviour without engine noise.
    #[derive(Clone)]
    struct SleepService {
        sleep: Duration,
        executed: Arc<AtomicUsize>,
    }

    impl QueryService for SleepService {
        fn execute(&self, terms: &[u32], _strategy: SearchStrategy, _n: usize) -> ServedQuery {
            std::thread::sleep(self.sleep);
            self.executed.fetch_add(1, Ordering::Relaxed);
            ServedQuery {
                hits: vec![(terms.first().copied().unwrap_or(0), 1.0)],
                io_time: Duration::ZERO,
                passes: 1,
            }
        }

        fn io_stats(&self) -> IoStats {
            IoStats::default()
        }
    }

    /// A service that always panics — a misconfigured plan, per the
    /// `QueryService::execute` contract.
    #[derive(Clone)]
    struct PanicService;

    impl QueryService for PanicService {
        fn execute(&self, _terms: &[u32], _strategy: SearchStrategy, _n: usize) -> ServedQuery {
            panic!("boom: service cannot plan this query");
        }

        fn io_stats(&self) -> IoStats {
            IoStats::default()
        }
    }

    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn panicking_workers_propagate_instead_of_deadlocking_the_submitter() {
        // All workers die on their first query; the drop guard closes the
        // queue so the submitter unblocks and the scope re-raises the
        // worker panic — previously the submitter waited forever on a
        // full queue with no consumers.
        let queries: Vec<Vec<u32>> = (0..64u32).map(|i| vec![i]).collect();
        let _ = run_closed_loop(&PanicService, &ServeConfig::new(2), &queries);
    }

    #[test]
    fn closed_loop_latency_excludes_submitter_backpressure() {
        // Depth-1 queue, one worker, 40 ms service: the submitter spends a
        // full service time blocked in `push` for every query past the
        // second. A closed-loop query's life is at most one service ahead
        // of it in the queue plus its own (~2 services); stamping the
        // latency clock before the blocking push — the old bug — adds the
        // submitter's wait on top (~3 services). Same shape for
        // queue_wait: in-queue time is ~1 service, the buggy
        // submission-attempt clock made it ~2.
        let service = SleepService {
            sleep: Duration::from_millis(40),
            executed: Arc::new(AtomicUsize::new(0)),
        };
        let queries: Vec<Vec<u32>> = (0..8u32).map(|i| vec![i]).collect();
        let mut cfg = ServeConfig::new(1);
        cfg.queue_depth = 1;
        let report = run_closed_loop(&service, &cfg, &queries);
        assert_eq!(report.completed, queries.len());
        let max_latency = report.latency.max();
        assert!(
            max_latency < Duration::from_millis(100),
            "closed-loop latency absorbed submitter backpressure: max {max_latency:?}"
        );
        let max_wait = report.queue_wait.max();
        assert!(
            max_wait < Duration::from_millis(70),
            "closed-loop queue wait double-counted backpressure: max {max_wait:?}"
        );
    }

    #[test]
    fn open_loop_latency_includes_backpressure_under_overload() {
        // The mirror-image pin: open-loop arrivals are scheduled near
        //-instantly against the same depth-1 queue and 20 ms service, so
        // queries stack up behind the schedule. Their latency clocks start
        // at the *scheduled* arrival and must absorb the queueing delay:
        // the last of 6 queries completes ~6 services after its arrival.
        let service = SleepService {
            sleep: Duration::from_millis(20),
            executed: Arc::new(AtomicUsize::new(0)),
        };
        let queries: Vec<Vec<u32>> = (0..6u32).map(|i| vec![i]).collect();
        let mut cfg = ServeConfig::new(1);
        cfg.queue_depth = 1;
        let report = run_open_loop(&service, &cfg, &queries, 10_000.0);
        assert_eq!(report.completed, queries.len());
        assert!(
            report.latency.max() >= Duration::from_millis(80),
            "open-loop latency lost its queueing delay: max {:?}",
            report.latency.max()
        );
    }

    #[test]
    fn workers_overlap_waiting_services() {
        let service = SleepService {
            sleep: Duration::from_millis(5),
            executed: Arc::new(AtomicUsize::new(0)),
        };
        let queries: Vec<Vec<u32>> = (0..24u32).map(|i| vec![i]).collect();
        let one = run_closed_loop(&service, &ServeConfig::new(1), &queries);
        let four = run_closed_loop(&service, &ServeConfig::new(4), &queries);
        assert_eq!(service.executed.load(Ordering::Relaxed), 48);
        // Sleep-bound workloads scale ~linearly; 2x is a conservative
        // floor that stays robust on loaded CI machines.
        assert!(
            four.qps > one.qps * 2.0,
            "4 workers {:.0} qps vs 1 worker {:.0} qps",
            four.qps,
            one.qps
        );
    }
}
