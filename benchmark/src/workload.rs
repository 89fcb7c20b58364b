//! The four workloads and their set-up: corpus → index → (segment | TCP
//! cluster) → the `QueryService` the passes drive.
//!
//! Every pool uses `DiskModel::instant()` and none enables simulated miss
//! latency: the benchmark times the program, not the disk simulator. The
//! cluster's node pools are built inside `x100_distributed` with its own
//! disk model, which only feeds an accounting overlay and never sleeps.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use x100_corpus::{CollectionStream, CollectionTail, Scale};
use x100_distributed::{CoordinatorConfig, NetCluster, SimulatedCluster};
use x100_ir::{
    build_index_streaming, IndexConfig, InvertedIndex, QueryExecutor, SearchStrategy,
    SegmentOpenStats,
};
use x100_storage::{BufferManager, BufferMode, DiskModel};

use crate::querylog::LogKind;

/// Serving workers in every workload: a constant, not `nproc`, so numbers
/// compare across machines (the reference box has 2 cores).
pub const WORKERS: usize = 2;
/// Admission-queue depth (per lane, with two lanes): on a closed loop 2
/// queries execute and 2 wait.
pub const QUEUE_DEPTH: usize = 2;
/// Hits retrieved per query.
pub const TOP_N: usize = 20;
/// The cold workload's pool holds this fraction of the compressed postings.
pub const COLD_POOL_DIVISOR: usize = 16;
/// Partitions and replicas of the networked workload.
pub const NET_PARTITIONS: usize = 4;
pub const NET_REPLICAS: usize = 2;

/// How queries arrive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Callers that each wait for a reply: the submitter keeps the bounded
    /// queue primed, so the pass measures capacity.
    Closed,
    /// Independent users: arrivals on a fixed schedule, latency counted
    /// from the scheduled arrival.
    Open { rate_qps: f64 },
}

/// What serves the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Storage {
    /// Built in memory, unbounded hot pool: every block touch is a hit.
    Mem,
    /// Written to a segment file, reopened, served through a cold pool of
    /// 1/16 of the compressed postings: misses are real `pread`s.
    Segment,
    /// Four partitions behind TCP endpoints on loopback and a coordinator.
    Net,
}

/// One workload's fixed parameters.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    pub scale: Scale,
    pub storage: Storage,
    pub log: LogKind,
    pub strategy: SearchStrategy,
    pub load: Load,
    /// Two-lane admission (short queries ride the priority lane).
    pub two_lane: bool,
    /// Queries per pass: fixed, so both sides of a comparison do the same
    /// work per pass.
    pub pass_queries: usize,
    /// Queries per second of `--seconds` the run is sized for: about the
    /// closed-loop capacity at the seed commit, or the open loop's rate. A
    /// constant, so the number of passes does not depend on how fast the
    /// measured commit is.
    pub nominal_qps: usize,
}

impl Spec {
    /// Measured passes of a run of `seconds`: as many as fill the time at
    /// the nominal rate, at least [`MIN_PASSES`]. Each pass replays its own
    /// slice of the log, so a run's result rests on every query it serves,
    /// not on how heavy the first thousand drawn for its seed happen to be.
    pub fn passes(&self, seconds: f64) -> usize {
        let fit = seconds * self.nominal_qps as f64 / self.pass_queries as f64;
        (fit.round() as usize).max(MIN_PASSES)
    }
}

/// Measured passes per run at least, however short `--seconds` is: a run
/// reports its best pass, and two of three may meet a neighbour.
pub const MIN_PASSES: usize = 3;

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "hot_trec",
        scale: Scale::Medium,
        storage: Storage::Mem,
        log: LogKind::Trec,
        strategy: SearchStrategy::Bm25Materialized,
        load: Load::Closed,
        two_lane: false,
        pass_queries: 1000,
        nominal_qps: 1000,
    },
    Spec {
        name: "cold_segment",
        scale: Scale::Medium,
        storage: Storage::Segment,
        log: LogKind::Trec,
        strategy: SearchStrategy::Bm25Materialized,
        load: Load::Closed,
        two_lane: false,
        pass_queries: 700,
        nominal_qps: 700,
    },
    Spec {
        name: "mixed_open",
        scale: Scale::Medium,
        storage: Storage::Mem,
        log: LogKind::Mixed,
        strategy: SearchStrategy::Bm25MaterializedPruned,
        load: Load::Open { rate_qps: 250.0 },
        two_lane: true,
        // 4 s per pass: 500 queries of each class, 25 beyond a class's p95.
        pass_queries: 1000,
        nominal_qps: 250,
    },
    Spec {
        name: "net_scatter",
        scale: Scale::Small,
        storage: Storage::Net,
        log: LogKind::Trec,
        strategy: SearchStrategy::Bm25Materialized,
        load: Load::Closed,
        two_lane: false,
        pass_queries: 1500,
        nominal_qps: 1500,
    },
];

/// A segment file under `benchmark/out/`, removed when dropped. The name
/// carries the pid and a process-wide counter, so neither two benchmark
/// processes nor two set-ups in one process can share a path.
#[derive(Debug)]
pub struct TempSegment {
    pub path: PathBuf,
}

impl TempSegment {
    fn new() -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let name = format!(
            "segment-{}-{}.x1sg",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        );
        TempSegment {
            path: out_dir().join(name),
        }
    }
}

impl Drop for TempSegment {
    fn drop(&mut self) {
        // Best effort: `Drop` must not panic, and a leftover file is only
        // clutter under an ignored directory.
        let _ = std::fs::remove_file(&self.path);
    }
}

/// `benchmark/out/`: the only place the harness writes (segment files and
/// trace dumps), inside the checkout and ignored by git.
pub fn out_dir() -> PathBuf {
    // `cargo run` names the package's directory at run time; the one known
    // at build time serves a binary started by hand, and would be wrong for
    // a checkout that was moved after it was built.
    let package =
        std::env::var_os("CARGO_MANIFEST_DIR").unwrap_or_else(|| env!("CARGO_MANIFEST_DIR").into());
    let dir = PathBuf::from(package).join("out");
    // A fresh checkout has none: git ignores it.
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

/// The served system of one workload.
pub enum Backend {
    /// One index behind one buffer pool.
    Index {
        /// The index the passes serve (reopened from the segment on the
        /// cold workload).
        served: Arc<InvertedIndex>,
        /// The in-memory build the segment was written from: the oracle
        /// runs on it, so a fault in the storage path cannot hide in both.
        built: Option<Arc<InvertedIndex>>,
        /// `None` = unbounded hot pool.
        pool_capacity: Option<usize>,
        // Dropped after `served`, which holds the file open.
        segment: Option<TempSegment>,
    },
    /// Partition servers on loopback plus their coordinator.
    Net {
        cluster: Arc<SimulatedCluster>,
        net: NetCluster,
    },
}

/// What set-up measured about itself (the `ir` build/open probes).
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimings {
    pub total: Duration,
    pub build: Duration,
    pub postings: usize,
    /// Compressed docid + score column bytes, or the segment file's bytes.
    pub index_bytes: u64,
    pub segment_write: Option<Duration>,
    pub segment_open: Option<Duration>,
    pub open_stats: Option<SegmentOpenStats>,
}

pub struct Fixture {
    pub backend: Backend,
    pub tail: CollectionTail,
    pub timings: SetupTimings,
}

fn column_bytes(index: &InvertedIndex, names: &[&str]) -> usize {
    names
        .iter()
        .filter_map(|name| index.td().column(name).ok())
        .map(|col| col.compressed_bytes())
        .sum()
}

/// Everything before the warm-up pass: corpus generation, index build,
/// segment write + open, cluster and server spawn.
pub fn set_up(spec: &Spec, scale: Scale) -> Fixture {
    let started = Instant::now();
    let cfg = scale.config();
    let index_cfg = IndexConfig::materialized_q8();
    let stream = CollectionStream::new(&cfg);

    if spec.storage == Storage::Net {
        let (cluster, tail) = SimulatedCluster::build_streaming(
            stream,
            NET_PARTITIONS,
            &index_cfg,
            scale.chunk_size(),
        );
        let build = started.elapsed();
        let net = NetCluster::serve(
            &cluster,
            NET_REPLICAS,
            CoordinatorConfig {
                // A sandbox stall must not turn into a failed query.
                deadline: Duration::from_secs(30),
                ..CoordinatorConfig::default()
            },
        )
        .expect("spawn partition servers on loopback");
        let nodes = cluster.nodes();
        let timings = SetupTimings {
            total: started.elapsed(),
            build,
            postings: nodes.iter().map(|n| n.index().num_postings()).sum(),
            index_bytes: nodes
                .iter()
                .map(|n| column_bytes(n.index(), &["docid", "score"]) as u64)
                .sum(),
            ..SetupTimings::default()
        };
        return Fixture {
            backend: Backend::Net {
                cluster: Arc::new(cluster),
                net,
            },
            tail,
            timings,
        };
    }

    let (built, tail) = build_index_streaming(stream, &index_cfg, scale.chunk_size());
    let built = Arc::new(built);
    let mut timings = SetupTimings {
        build: started.elapsed(),
        postings: built.num_postings(),
        index_bytes: column_bytes(&built, &["docid", "score"]) as u64,
        ..SetupTimings::default()
    };
    let backend = if spec.storage == Storage::Segment {
        let segment = TempSegment::new();
        let t = Instant::now();
        timings.index_bytes = built
            .write_segment(&segment.path)
            .expect("write segment under benchmark/out");
        timings.segment_write = Some(t.elapsed());
        let t = Instant::now();
        let (served, open_stats) =
            InvertedIndex::open_segment_with_stats(&segment.path).expect("reopen segment");
        timings.segment_open = Some(t.elapsed());
        timings.open_stats = Some(open_stats);
        let postings_bytes = column_bytes(&served, &["docid", "tf", "score"]);
        Backend::Index {
            served: Arc::new(served),
            built: Some(built),
            pool_capacity: Some(postings_bytes / COLD_POOL_DIVISOR),
            segment: Some(segment),
        }
    } else {
        Backend::Index {
            served: built,
            built: None,
            pool_capacity: None,
            segment: None,
        }
    };
    timings.total = started.elapsed();
    Fixture {
        backend,
        tail,
        timings,
    }
}

/// A fresh, empty pool of the given capacity (`None` = unbounded hot pool).
pub fn new_pool(capacity: Option<usize>) -> Arc<BufferManager> {
    Arc::new(match capacity {
        Some(bytes) => BufferManager::with_mode(DiskModel::instant(), BufferMode::Cold, bytes),
        None => BufferManager::with_mode(DiskModel::instant(), BufferMode::Hot, 0),
    })
}

/// The single-index service: `served` behind a fresh pool of `capacity`.
pub fn executor(served: &Arc<InvertedIndex>, capacity: Option<usize>) -> QueryExecutor {
    QueryExecutor::with_buffer_manager(Arc::clone(served), new_pool(capacity))
}
