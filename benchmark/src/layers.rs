//! Per-layer probes of the traced run: the first queries of the log
//! replayed **serially** from the harness, timing calls into public
//! functions only. Serial replays make the counts exact; the timings carry
//! no queueing.
//!
//! Each probe names the crate it measures in its metric prefix:
//! `compress`, `storage`, `ir`, `exec`, `cluster`, `net`, `corpus`.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use x100_compress::{CompressedBlock, ENTRY_POINT_STRIDE as STRIDE};
use x100_corpus::{CollectionStream, Scale};
use x100_distributed::{Coordinator, SimulatedCluster};
use x100_ir::{InvertedIndex, PostingCursor, QueryEngine, QueryScratch, SearchStrategy};
use x100_storage::{BufferManager, Column, IoStats};

use crate::metrics::Report;
use crate::querylog::SHORT_MAX_TERMS;
use crate::stats::{median, percentile, sorted};
use crate::workload::{new_pool, SetupTimings, TOP_N};

/// Queries of the log the serial probes replay.
pub const REPLAY_QUERIES: usize = 1000;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ns_per(total: Duration, ops: usize) -> f64 {
    total.as_secs_f64() * 1e9 / ops.max(1) as f64
}

/// The index a workload's queries run on, as the probes need it.
pub struct Target<'a> {
    pub index: &'a InvertedIndex,
    /// The serving pool's capacity (`None` = unbounded).
    pub pool_capacity: Option<usize>,
    pub strategy: SearchStrategy,
    /// The segment file behind `index`, when it is disk-backed.
    pub segment: Option<&'a Path>,
}

/// One serial replay of the log through the fused path on one pool.
struct Replay {
    /// Per-query wall time in µs, in log order.
    us: Vec<f64>,
    strides: u64,
    rows: u64,
    io: IoStats,
    eviction_locks: u64,
}

fn replay(
    index: &InvertedIndex,
    pool: &Arc<BufferManager>,
    strategy: SearchStrategy,
    log: &[Vec<u32>],
) -> Replay {
    let engine = QueryEngine::with_buffer_manager(index, Arc::clone(pool));
    let mut scratch = QueryScratch::new();
    let mut hits = Vec::with_capacity(TOP_N);
    let io_before = pool.stats();
    let locks_before = pool.eviction_lock_acquisitions();
    let us = log
        .iter()
        .map(|q| {
            let t = Instant::now();
            engine
                .search_hits_into(q, strategy, TOP_N, &mut scratch, &mut hits)
                .expect("replayed query plans");
            black_box(&hits);
            us(t.elapsed())
        })
        .collect();
    let stats = scratch.hot_stats();
    Replay {
        us,
        strides: stats.window_refills,
        rows: stats.rows_scored,
        io: pool.stats().delta_since(&io_before),
        eviction_locks: pool.eviction_lock_acquisitions() - locks_before,
    }
}

fn class_us(replay: &Replay, log: &[Vec<u32>], short: bool) -> Vec<f64> {
    sorted(
        replay
            .us
            .iter()
            .zip(log)
            .filter(|(_, q)| (q.len() <= SHORT_MAX_TERMS) == short)
            .map(|(us, _)| *us)
            .collect(),
    )
}

/// `compress`, `storage`, `ir` and `exec` on one index.
pub fn index_layers(target: &Target, log: &[Vec<u32>], report: &mut Report) {
    let log = &log[..log.len().min(REPLAY_QUERIES)];
    let per_query = log.len() as f64;
    compress_layer(target.index, log, report);
    storage_touch_costs(target, report);

    // storage, by count: a cold start on the workload's pool, then the
    // steady state a second replay sees.
    let pool = new_pool(target.pool_capacity);
    let cold = replay(target.index, &pool, target.strategy, log);
    let steady = replay(target.index, &pool, target.strategy, log);
    report.set(
        "storage.miss_reads_per_query",
        steady.io.reads as f64 / per_query,
    );
    report.set(
        "storage.miss_bytes_per_query",
        steady.io.bytes as f64 / per_query,
    );
    report.set(
        "storage.eviction_locks_per_query",
        steady.eviction_locks as f64 / per_query,
    );
    report.set("storage.resident_bytes_end", pool.resident_bytes() as f64);

    // ir, by time: service time with no queue and no miss. On an unbounded
    // pool the steady replay above is exactly that.
    let (hot_pool, hot) = if target.pool_capacity.is_some() {
        pool.evict_all();
        let hot_pool = new_pool(None);
        let first_touch = replay(target.index, &hot_pool, target.strategy, log);
        // Reads a bounded pool repeats ÷ reads no pool can avoid.
        report.set(
            "storage.refetch_ratio",
            cold.io.reads as f64 / first_touch.io.reads as f64,
        );
        let hot = replay(target.index, &hot_pool, target.strategy, log);
        (hot_pool, hot)
    } else {
        report.set("storage.refetch_ratio", 1.0);
        (pool, steady)
    };
    let all = sorted(hot.us.clone());
    report.set("ir.search_us_p50", percentile(&all, 0.50));
    report.set("ir.search_us_p99", percentile(&all, 0.99));
    let long = class_us(&hot, log, false);
    report.set(
        "ir.short_search_us_p50",
        percentile(&class_us(&hot, log, true), 0.50),
    );
    report.set("ir.long_search_us_p50", percentile(&long, 0.50));
    report.set("ir.long_search_us_p95", percentile(&long, 0.95));
    let (strides, rows) = (hot.strides as f64, hot.rows as f64);
    report.set("ir.strides_decoded_per_query", strides / per_query);
    report.set("ir.rows_scored_per_query", rows / per_query);

    // The exhaustive loop on the same log: what pruning saves, and what it
    // costs in time on the long class.
    let exhaustive = if target.strategy.is_pruned() {
        replay(
            target.index,
            &hot_pool,
            SearchStrategy::Bm25Materialized,
            log,
        )
    } else {
        hot
    };
    let long_exh = class_us(&exhaustive, log, false);
    report.set("ir.long_search_exh_us_p50", percentile(&long_exh, 0.50));
    report.set("ir.long_search_exh_us_p95", percentile(&long_exh, 0.95));
    report.set(
        "ir.pruned_stride_ratio",
        exhaustive.strides as f64 / strides.max(1.0),
    );
    report.set(
        "ir.pruned_rows_ratio",
        exhaustive.rows as f64 / rows.max(1.0),
    );

    ir_lookup_costs(target.index, &hot_pool, log, report);
    exec_layer(target.index, &hot_pool, &exhaustive, log, report);
}

/// Time of `decode_range_into` over every 128-value stride the log's terms
/// cover, per decoded value. Blocks are fetched outside the timed region,
/// so a disk-backed column's `pread` stays in the `storage` numbers.
fn decode_ns_per_value(index: &InvertedIndex, column: &Column, log: &[Vec<u32>]) -> f64 {
    let block_size = column.block_size();
    let mut out = Vec::with_capacity(STRIDE);
    let (mut busy, mut values) = (Duration::ZERO, 0usize);
    for &term in log.iter().flatten() {
        let range = index.term_range(term);
        let mut pos = range.start - range.start % STRIDE;
        while pos < range.end {
            let block_idx = pos / block_size;
            let block = column.block(block_idx);
            let block_end = ((block_idx + 1) * block_size).min(range.end);
            let t = Instant::now();
            while pos < block_end {
                let in_block = pos % block_size;
                let len = STRIDE.min(block.len() - in_block);
                block
                    .decode_range_into(in_block, len, &mut out)
                    .expect("stride inside its block");
                black_box(&out);
                values += len;
                pos += STRIDE;
            }
            busy += t.elapsed();
        }
    }
    ns_per(busy, values)
}

fn compress_layer(index: &InvertedIndex, log: &[Vec<u32>], report: &mut Report) {
    let docid = index.td().column("docid").expect("docid column");
    let score = index.td().column("score").expect("score column");
    report.set(
        "compress.docid_decode_ns_per_value",
        decode_ns_per_value(index, docid, log),
    );
    report.set(
        "compress.score_decode_ns_per_value",
        decode_ns_per_value(index, score, log),
    );
    // Parsing a block image, as a pool miss on a disk-backed column does.
    let image = docid.block(0).to_bytes();
    let times: Vec<f64> = (0..21)
        .map(|_| {
            let t = Instant::now();
            black_box(CompressedBlock::from_bytes(black_box(&image)).expect("own image parses"));
            us(t.elapsed())
        })
        .collect();
    report.set("compress.block_from_bytes_us", median(&times));
}

/// `BufferManager::touch` on a resident block, and — on a segment — on a
/// block the pool had to evict: `pread` + parse + admit + evict.
fn storage_touch_costs(target: &Target, report: &mut Report) {
    const HITS: usize = 200_000;
    let docid = target.index.td().column("docid").expect("docid column");
    let blocks = docid.block_count().min(8);
    let pool = new_pool(None);
    for b in 0..blocks {
        pool.touch(docid, b);
    }
    let t = Instant::now();
    for i in 0..HITS {
        pool.touch(docid, i % blocks);
    }
    report.set("storage.pool_hit_ns", ns_per(t.elapsed(), HITS));
    pool.evict_all();

    let Some(path) = target.segment else { return };
    // A second open of the file, so no block is still cached by the pools
    // used so far; a 1-byte pool keeps only the block just admitted.
    let reopened = InvertedIndex::open_segment(path).expect("reopen segment for the miss probe");
    let docid = reopened.td().column("docid").expect("docid column");
    if docid.block_count() < 2 {
        // One block is never evicted for another: no miss to time.
        return;
    }
    let pool = new_pool(Some(1));
    let misses = docid.block_count() * 4;
    let before = pool.stats().reads;
    let t = Instant::now();
    for i in 0..misses {
        pool.touch(docid, i % docid.block_count());
    }
    let elapsed = t.elapsed();
    assert_eq!(
        pool.stats().reads - before,
        misses as u64,
        "every touch of the miss probe must miss"
    );
    report.set("storage.pool_miss_us", us(elapsed) / misses as f64);
}

/// Term lookup (`term_range`: a dense array in memory, a fence search plus
/// page pin on a segment) and `PostingCursor::seek_docid`.
fn ir_lookup_costs(
    index: &InvertedIndex,
    pool: &Arc<BufferManager>,
    log: &[Vec<u32>],
    report: &mut Report,
) {
    let terms: Vec<u32> = log.iter().flatten().copied().collect();
    const ROUNDS: usize = 20;
    let t = Instant::now();
    for _ in 0..ROUNDS {
        for &term in &terms {
            black_box(index.term_range(black_box(term)));
        }
    }
    report.set(
        "ir.term_range_ns",
        ns_per(t.elapsed(), ROUNDS * terms.len()),
    );

    // 16 evenly spaced forward seeks down each term's list.
    const SEEKS: u32 = 16;
    let num_docs = index.num_docs() as u32;
    let (mut busy, mut seeks) = (Duration::ZERO, 0usize);
    for &term in &terms {
        let mut cursor = PostingCursor::new(index, pool, term);
        let t = Instant::now();
        for k in 1..=SEEKS {
            let target = (u64::from(num_docs) * u64::from(k) / u64::from(SEEKS + 1)) as u32;
            black_box(cursor.seek_docid(target).expect("seek inside the list"));
        }
        busy += t.elapsed();
        seeks += SEEKS as usize;
    }
    report.set("ir.cursor_seek_ns", ns_per(busy, seeks));
}

/// The relational operator pipeline on the exhaustive strategy, against the
/// fused path's time for the same queries.
fn exec_layer(
    index: &InvertedIndex,
    pool: &Arc<BufferManager>,
    fused: &Replay,
    log: &[Vec<u32>],
    report: &mut Report,
) {
    let log = &log[..log.len().min(REPLAY_QUERIES / 2)];
    let engine = QueryEngine::with_buffer_manager(index, Arc::clone(pool));
    let relational: Vec<f64> = log
        .iter()
        .map(|q| {
            let t = Instant::now();
            black_box(
                engine
                    .search(q, SearchStrategy::Bm25Materialized, TOP_N)
                    .expect("relational query plans"),
            );
            us(t.elapsed())
        })
        .collect();
    let relational_p50 = median(&relational);
    report.set("exec.relational_search_us_p50", relational_p50);
    report.set(
        "exec.fused_speedup",
        relational_p50 / median(&fused.us[..log.len()]),
    );
}

/// `distributed::cluster` and `distributed::net`, query by query: the
/// coordinator over loopback TCP against the in-process scatter on the
/// same nodes.
pub fn net_layers(
    cluster: &SimulatedCluster,
    coordinator: &Coordinator,
    strategy: SearchStrategy,
    log: &[Vec<u32>],
    report: &mut Report,
) {
    let log = &log[..log.len().min(REPLAY_QUERIES)];
    let (mut coord_us, mut scatter_us, mut overhead_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempt_us, mut merge_us, mut slowest) = (Vec::new(), Vec::new(), Vec::new());
    let mut node_lists: Vec<Vec<(u32, f32)>> = Vec::new();
    for (i, q) in log.iter().enumerate() {
        let over_tcp = || {
            let t = Instant::now();
            let outcome = coordinator
                .search(q, strategy, TOP_N)
                .expect("coordinator serves every replayed query");
            (outcome, us(t.elapsed()))
        };
        let in_process = || {
            let t = Instant::now();
            let response = cluster.search_scatter(q, strategy, TOP_N);
            (response, us(t.elapsed()))
        };
        // Whichever path runs second finds the nodes' data in cache:
        // alternate, so neither side of the pair keeps that advantage.
        let ((outcome, over_tcp), (response, in_process)) = if i % 2 == 0 {
            let a = over_tcp();
            (a, in_process())
        } else {
            let b = in_process();
            (over_tcp(), b)
        };
        coord_us.push(over_tcp);
        scatter_us.push(in_process);
        overhead_us.push(over_tcp - in_process);
        attempt_us.extend(outcome.partitions.iter().map(|p| us(p.wall)));
        merge_us.push(us(response.merge_time));
        let walls: Vec<f64> = response.node_timings.iter().map(|n| us(n.wall)).collect();
        let mean = walls.iter().sum::<f64>() / walls.len() as f64;
        slowest.push(walls.iter().copied().fold(0.0, f64::max) / mean);
        if node_lists.is_empty() && outcome.hits.len() == TOP_N {
            node_lists = vec![outcome.hits; cluster.num_nodes()];
        }
    }
    let coord = sorted(coord_us);
    let attempts = sorted(attempt_us);
    report.set("net.coordinator_us_p50", percentile(&coord, 0.50));
    report.set("net.coordinator_us_p99", percentile(&coord, 0.99));
    report.set("net.overhead_us_p50", median(&overhead_us));
    report.set("net.partition_attempt_us_p50", percentile(&attempts, 0.50));
    report.set("net.partition_attempt_us_p99", percentile(&attempts, 0.99));
    report.set("cluster.scatter_us_p50", median(&scatter_us));
    report.set("cluster.merge_us_p50", median(&merge_us));
    report.set("cluster.slowest_node_ratio", median(&slowest));

    // The coordinator's merge alone, on one full list per partition.
    const MERGES: usize = 2000;
    let inputs: Vec<_> = (0..MERGES).map(|_| node_lists.clone()).collect();
    let t = Instant::now();
    for lists in inputs {
        black_box(Coordinator::merge_hits(black_box(lists), TOP_N));
    }
    report.set("net.merge_hits_ns", ns_per(t.elapsed(), MERGES));
}

/// `corpus`: draining the document stream alone — the part of set-up that
/// is not the program under test.
pub fn corpus_layer(scale: Scale, report: &mut Report) {
    let cfg = scale.config();
    let t = Instant::now();
    let mut stream = CollectionStream::new(&cfg);
    let mut docs = 0usize;
    while let Some(chunk) = stream.next_chunk(scale.chunk_size()) {
        docs += black_box(chunk).len();
    }
    report.set(
        "corpus.generate_docs_per_s",
        docs as f64 / t.elapsed().as_secs_f64(),
    );
}

/// The build and open costs set-up measured on the way: what `setup_s` is
/// made of on the `ir` side.
pub fn setup_layer(timings: &SetupTimings, report: &mut Report) {
    report.set(
        "ir.build_postings_per_s",
        timings.postings as f64 / timings.build.as_secs_f64(),
    );
    if let Some(write) = timings.segment_write {
        report.set(
            "ir.segment_write_mb_per_s",
            timings.index_bytes as f64 / 1e6 / write.as_secs_f64(),
        );
    }
    if let Some(open) = timings.segment_open {
        report.set("ir.segment_open_ms", open.as_secs_f64() * 1e3);
    }
    if let Some(stats) = timings.open_stats {
        report.set(
            "ir.open_resident_meta_bytes",
            stats.resident_meta_bytes as f64,
        );
        report.set("ir.open_directory_bytes", stats.directory_bytes as f64);
    }
}
