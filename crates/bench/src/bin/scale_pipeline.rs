//! **Scale trajectory** — the full pipeline (generate → index → query →
//! distributed merge) at one rung of the `--scale` ladder, with stage
//! timings recorded to `BENCH_scale.json`.
//!
//! This is the `--scale` path's end-to-end exerciser and the CI smoke job's
//! workload. Generation is streamed ([`x100_corpus::CollectionStream`]) and
//! consumed chunk-by-chunk by *both* the single-node builder and the
//! per-partition builders of the cluster, so the collection is generated
//! exactly once and never resident.
//!
//! All index construction goes through [`x100_ir::SpillingIndexBuilder`].
//! Without `--mem-budget` the budget is unbounded — the builder never
//! touches disk and behaves exactly like the in-memory path. With
//! `--mem-budget SIZE` (e.g. `64M`) the posting accumulators are split
//! half to the full index and half across the partition builders; each
//! flushes sorted run files when its share fills and k-way merges them at
//! finish **straight into compressed column blocks** (`x100-ir`'s
//! columnar writer), so even `--scale large` builds in
//! bounded memory end to end: the merged columns are never materialized
//! uncompressed. The budget is **asserted in-process** over both phases:
//! peak accumulator bytes (full + all partitions) and the finish-phase
//! peak (one builder's streaming merge plus the accumulators still
//! waiting) must each come in at or under it. Budgeted runs record the
//! accumulator peak, finish peak, combined peak, run counts, spill I/O and
//! the OS-reported peak RSS to `BENCH_scale_spill.json`.
//!
//! With `--persist <path>` the finished indexes are additionally written
//! to disk — the full index as a single segment file at `<path>`, plus one
//! partition segment per node at `<path>.p<i>` — then **reopened cold**
//! and the query stages served from the reopened artifacts, with a
//! bit-identity spot check against the in-memory results before the swap.
//! A segment written here reopens in any later process via
//! [`x100_ir::InvertedIndex::open_segment`].
//!
//! Usage: `scale_pipeline [--scale tiny|small|medium|large|xlarge] [--mem-budget SIZE]
//! [--partitions N] [--queries N] [--persist path]`
//! (defaults: small, unbounded, 8 partitions, 200 measured queries)

use std::time::Instant;

use x100_bench::{
    fmt_ms, peak_rss_bytes, take_flag_value, take_mem_budget_flag_or_exit, take_scale_flag_or_exit,
    take_usize_flag_or_exit, write_trajectory, Json, TablePrinter,
};
use x100_corpus::{precision_at_k, CollectionStream, Scale};
use x100_distributed::SimulatedCluster;
use x100_ir::{
    IndexConfig, InvertedIndex, QueryEngine, SearchStrategy, SpillConfig, SpillingIndexBuilder,
};

const TOP_N: usize = 20;
const STRATEGY: SearchStrategy = SearchStrategy::Bm25TwoPass;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let scale = take_scale_flag_or_exit(&mut args).unwrap_or(Scale::Small);
    let mem_budget = take_mem_budget_flag_or_exit(&mut args);
    let partitions = take_usize_flag_or_exit(&mut args, "--partitions", 8);
    let num_queries = take_usize_flag_or_exit(&mut args, "--queries", 200);
    let persist_path = take_flag_value(&mut args, "--persist");
    if partitions == 0 {
        eprintln!("error: --partitions must be at least 1");
        std::process::exit(2);
    }
    let cfg = scale.config();
    let chunk = scale.chunk_size();

    // Budget split: half to the full single-node index, half shared by the
    // partition builders — their accumulators coexist in this process, so
    // together they must stay under the flag's value. Each share must
    // comfortably exceed the largest single document (a builder's peak is
    // max(share, largest doc)), or the in-process budget assert below
    // could not be honoured; 64 KiB per accumulator is orders of magnitude
    // above any generated document at every scale.
    const MIN_SHARE: usize = 64 << 10;
    if let Some(b) = mem_budget {
        let min_budget = 2 * MIN_SHARE * partitions.max(2);
        if b < min_budget {
            eprintln!(
                "error: --mem-budget {b} too small for {partitions} partitions \
                 (need at least {min_budget} bytes: 64 KiB per accumulator)"
            );
            std::process::exit(2);
        }
    }
    let (full_budget, node_budget) = match mem_budget {
        Some(b) => (b / 2, b / 2 / partitions),
        None => (usize::MAX, usize::MAX),
    };

    eprintln!(
        "scale={scale}: {} docs, vocab {}, chunk {chunk}, {partitions} partitions, budget {}",
        cfg.num_docs,
        cfg.vocab_size,
        mem_budget.map_or("unbounded".into(), |b| format!("{b} bytes")),
    );

    // Stage 1 — one streamed generation pass feeding every index builder.
    let t0 = Instant::now();
    let mut stream = CollectionStream::new(&cfg);
    let vocab = stream.vocab();
    let mut full = SpillingIndexBuilder::new(
        vocab.len(),
        &IndexConfig::compressed(),
        SpillConfig::with_budget(full_budget),
    );
    let mut nodes: Vec<(SpillingIndexBuilder, Vec<u32>)> = (0..partitions)
        .map(|_| {
            (
                SpillingIndexBuilder::new(
                    vocab.len(),
                    &IndexConfig::compressed(),
                    SpillConfig::with_budget(node_budget),
                ),
                Vec::new(),
            )
        })
        .collect();
    let mut docs = Vec::new();
    while stream.next_chunk_into(chunk, &mut docs) > 0 {
        for doc in &docs {
            full.push_doc(&doc.name, &doc.terms, doc.len)
                .expect("full-index spill");
            let (builder, global_ids) = &mut nodes[doc.id as usize % partitions];
            builder
                .push_doc(&doc.name, &doc.terms, doc.len)
                .expect("partition spill");
            global_ids.push(doc.id);
        }
    }
    let tail = stream.finish();
    let generate_index_s = t0.elapsed().as_secs_f64();

    // Builders finish sequentially, so the process-wide finish-phase
    // footprint while builder `i` merges is its own finish peak plus the
    // resident (unspilled) accumulators of the builders still waiting.
    let t1 = Instant::now();
    let node_residents: Vec<usize> = nodes
        .iter()
        .map(|(b, _)| b.resident_accum_bytes())
        .collect();
    let mut waiting_resident: usize = node_residents.iter().sum();
    let (index, full_stats) = full.finish(&vocab).expect("full-index merge");
    let mut finish_peak = full_stats.finish_peak_bytes + waiting_resident;
    let mut node_stats = Vec::with_capacity(partitions);
    let mut parts = Vec::with_capacity(partitions);
    for (i, (builder, ids)) in nodes.into_iter().enumerate() {
        waiting_resident -= node_residents[i];
        let (idx, s) = builder.finish(&vocab).expect("partition merge");
        finish_peak = finish_peak.max(s.finish_peak_bytes + waiting_resident);
        node_stats.push(s);
        parts.push((idx, ids));
    }
    let cluster = SimulatedCluster::from_partition_indexes(parts);
    let finish_s = t1.elapsed().as_secs_f64();

    // Stage 1b — optional persistence: write the full index and one
    // segment per partition, reopen everything cold (posting blocks now
    // `pread` through the buffer pool on demand), spot-check bit-identity
    // against the in-memory build, then serve the remaining stages from
    // the reopened artifacts.
    let mut persist_json = Json::Null;
    let mut persist_row = None;
    let (index, cluster) = match &persist_path {
        Some(path) => {
            let tw = Instant::now();
            let full_bytes = index
                .write_segment(path)
                .unwrap_or_else(|e| panic!("write segment {path}: {e}"));
            let part_paths = cluster
                .persist_segments(path)
                .unwrap_or_else(|e| panic!("write partition segments at {path}: {e}"));
            let part_bytes: u64 = part_paths
                .iter()
                .map(|p| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
                .sum();
            let write_s = tw.elapsed().as_secs_f64();
            let to = Instant::now();
            let (reopened, open_stats) = InvertedIndex::open_segment_with_stats(path)
                .unwrap_or_else(|e| panic!("reopen segment {path}: {e}"));
            let reopened_cluster = SimulatedCluster::open_segments(&part_paths)
                .unwrap_or_else(|e| panic!("reopen partition segments: {e}"));
            let open_s = to.elapsed().as_secs_f64();
            // Reopened artifacts must serve the exact results of the
            // in-memory build before they are allowed to replace it.
            let mem_engine = QueryEngine::new(&index);
            let seg_engine = QueryEngine::new(&reopened);
            for q in tail.efficiency_log.iter().take(10) {
                let mem = mem_engine.search(q, STRATEGY, TOP_N).expect("search");
                let seg = seg_engine.search(q, STRATEGY, TOP_N).expect("search");
                assert_eq!(
                    seg.results, mem.results,
                    "reopened segment diverged from in-memory index"
                );
                assert_eq!(
                    reopened_cluster.search(q, STRATEGY, TOP_N),
                    cluster.search(q, STRATEGY, TOP_N),
                    "reopened cluster diverged from in-memory cluster"
                );
            }
            eprintln!(
                "persisted {path} ({:.1} MiB full + {:.1} MiB across {} partitions) \
                 in {write_s:.2}s, reopened cold in {open_s:.2}s (bit-identical)",
                full_bytes as f64 / (1 << 20) as f64,
                part_bytes as f64 / (1 << 20) as f64,
                part_paths.len(),
            );
            eprintln!(
                "open footprint: {:.1} KiB resident metadata + {:.1} KiB block \
                 directories (fully materialized would be {:.1} KiB)",
                open_stats.resident_meta_bytes as f64 / 1024.0,
                open_stats.directory_bytes as f64 / 1024.0,
                open_stats.full_materialized_bytes as f64 / 1024.0,
            );
            // The whole point of the paged open: the resident metadata must
            // be a small slice of what the old fully-materialized open kept
            // in memory. Tiny fixtures fit in a handful of pages where the
            // fence overhead dominates, so only assert from medium up.
            if scale >= Scale::Medium {
                assert!(
                    open_stats.resident_meta_bytes <= open_stats.full_materialized_bytes / 10,
                    "resident metadata {} exceeds 1/10 of the materialized footprint {}",
                    open_stats.resident_meta_bytes,
                    open_stats.full_materialized_bytes,
                );
            }
            persist_json = Json::obj(vec![
                ("path", Json::str(path)),
                ("full_segment_bytes", Json::Num(full_bytes as f64)),
                ("partition_segments", Json::Num(part_paths.len() as f64)),
                ("partition_segment_bytes", Json::Num(part_bytes as f64)),
                ("write_s", Json::Num(write_s)),
                ("open_s", Json::Num(open_s)),
                (
                    "resident_meta_bytes",
                    Json::Num(open_stats.resident_meta_bytes as f64),
                ),
                (
                    "directory_bytes",
                    Json::Num(open_stats.directory_bytes as f64),
                ),
                (
                    "full_materialized_bytes",
                    Json::Num(open_stats.full_materialized_bytes as f64),
                ),
                ("reopened_bit_identical", Json::Bool(true)),
            ]);
            persist_row = Some(format!(
                "{:.1} MiB written in {write_s:.2}s, reopened in {open_s:.2}s \
                 ({:.1} KiB resident metadata)",
                (full_bytes + part_bytes) as f64 / (1 << 20) as f64,
                open_stats.resident_meta_bytes as f64 / 1024.0,
            ));
            (reopened, reopened_cluster)
        }
        None => (index, cluster),
    };

    // Spill accounting — and the in-process budget guarantee, covering the
    // accumulator phase *and* the streaming columnar finish phase.
    let peak_accum =
        full_stats.peak_accum_bytes + node_stats.iter().map(|s| s.peak_accum_bytes).sum::<usize>();
    let combined_peak = peak_accum.max(finish_peak);
    let spill_runs = full_stats.runs + node_stats.iter().map(|s| s.runs).sum::<usize>();
    let mut spill_io = full_stats.total_io();
    for s in &node_stats {
        spill_io.merge(&s.total_io());
    }
    if let Some(budget) = mem_budget {
        assert!(
            peak_accum <= budget,
            "peak accumulator bytes {peak_accum} exceeded --mem-budget {budget}"
        );
        assert!(
            finish_peak <= budget,
            "finish-phase peak bytes {finish_peak} exceeded --mem-budget {budget}"
        );
    }
    eprintln!(
        "indexed {} postings in {:.2}s (+{:.2}s streamed merge+column build); \
         accumulator peak {:.1} MiB, finish peak {:.1} MiB, {spill_runs} spill runs, \
         {:.1} MiB spill I/O",
        index.num_postings(),
        generate_index_s,
        finish_s,
        peak_accum as f64 / (1 << 20) as f64,
        finish_peak as f64 / (1 << 20) as f64,
        spill_io.bytes as f64 / (1 << 20) as f64,
    );

    // Stage 2 — single-node query throughput + effectiveness.
    let engine = QueryEngine::new(&index);
    let queries: Vec<&Vec<u32>> = tail.efficiency_log.iter().take(num_queries).collect();
    for q in &queries {
        let _ = engine.search(q, STRATEGY, TOP_N); // warm
    }
    let t2 = Instant::now();
    let mut cpu_total = std::time::Duration::ZERO;
    for q in &queries {
        cpu_total += engine.search(q, STRATEGY, TOP_N).expect("search").cpu_time;
    }
    let query_wall_s = t2.elapsed().as_secs_f64();
    let query_avg = cpu_total / queries.len().max(1) as u32;
    let qps = queries.len() as f64 / query_wall_s;

    let mut p20 = 0.0;
    for q in &tail.eval_queries {
        let ranked: Vec<u32> = engine
            .search(&q.terms, STRATEGY, TOP_N)
            .expect("search")
            .results
            .iter()
            .map(|r| r.docid)
            .collect();
        p20 += precision_at_k(&ranked, &q.relevant, TOP_N);
    }
    p20 /= tail.eval_queries.len().max(1) as f64;

    // Stage 3 — distributed broadcast + merge over the same queries.
    let t3 = Instant::now();
    let mut merged_nonempty = 0usize;
    for q in &queries {
        if !cluster.search(q, STRATEGY, TOP_N).is_empty() {
            merged_nonempty += 1;
        }
    }
    let merge_wall_s = t3.elapsed().as_secs_f64();
    let merge_avg_ms = merge_wall_s * 1e3 / queries.len().max(1) as f64;

    // Sanity: the merged top-20 must strongly overlap the single-node one.
    let mut overlap = 0usize;
    let mut overlap_total = 0usize;
    for q in queries.iter().take(20) {
        let single: Vec<u32> = engine
            .search(q, STRATEGY, TOP_N)
            .expect("search")
            .results
            .iter()
            .map(|r| r.docid)
            .collect();
        let dist: Vec<u32> = cluster
            .search(q, STRATEGY, TOP_N)
            .iter()
            .map(|r| r.docid)
            .collect();
        overlap += single.iter().filter(|d| dist.contains(d)).count();
        overlap_total += single.len();
    }
    let overlap_pct = if overlap_total == 0 {
        100.0
    } else {
        100.0 * overlap as f64 / overlap_total as f64
    };

    let mut t = TablePrinter::new(&["stage", "result"]);
    t.push_row(vec![
        "generate+index (streamed)".into(),
        format!(
            "{generate_index_s:.2}s for {} postings",
            index.num_postings()
        ),
    ]);
    t.push_row(vec![
        "merge + column build".into(),
        format!("{finish_s:.2}s"),
    ]);
    t.push_row(vec![
        "posting accumulator peak".into(),
        format!(
            "{:.1} MiB ({spill_runs} spill runs)",
            peak_accum as f64 / (1 << 20) as f64
        ),
    ]);
    t.push_row(vec![
        "finish-phase peak".into(),
        format!(
            "{:.1} MiB (combined {:.1} MiB)",
            finish_peak as f64 / (1 << 20) as f64,
            combined_peak as f64 / (1 << 20) as f64
        ),
    ]);
    t.push_row(vec![
        "single-node query".into(),
        format!(
            "{} ms avg CPU, {qps:.0} q/s, p@20 {p20:.3}",
            fmt_ms(query_avg)
        ),
    ]);
    t.push_row(vec![
        format!("distributed merge ({partitions} nodes)"),
        format!(
            "{merge_avg_ms:.2} ms avg, {merged_nonempty}/{} non-empty",
            queries.len()
        ),
    ]);
    t.push_row(vec![
        "single-vs-merged overlap".into(),
        format!("{overlap_pct:.0}%"),
    ]);
    if let Some(row) = persist_row {
        t.push_row(vec!["persist + cold reopen".into(), row]);
    }
    println!("\nScale pipeline — {scale}:");
    print!("{}", t.render());

    let doc = Json::obj(vec![
        ("bench", Json::str("scale_pipeline")),
        ("scale", Json::str(scale.name())),
        ("num_docs", Json::Num(cfg.num_docs as f64)),
        ("vocab_size", Json::Num(cfg.vocab_size as f64)),
        ("partitions", Json::Num(partitions as f64)),
        ("num_postings", Json::Num(index.num_postings() as f64)),
        (
            "mem_budget_bytes",
            mem_budget.map_or(Json::Null, |b| Json::Num(b as f64)),
        ),
        ("peak_accum_bytes", Json::Num(peak_accum as f64)),
        ("finish_peak_bytes", Json::Num(finish_peak as f64)),
        ("combined_peak_bytes", Json::Num(combined_peak as f64)),
        (
            "peak_rss_bytes",
            peak_rss_bytes().map_or(Json::Null, |b| Json::Num(b as f64)),
        ),
        ("spill_runs", Json::Num(spill_runs as f64)),
        ("spill_io_bytes", Json::Num(spill_io.bytes as f64)),
        (
            "spill_io_sim_ms",
            Json::Num(spill_io.sim_time.as_secs_f64() * 1e3),
        ),
        ("generate_index_s", Json::Num(generate_index_s)),
        ("column_build_s", Json::Num(finish_s)),
        ("query_avg_ms", Json::Num(query_avg.as_secs_f64() * 1e3)),
        ("query_qps", Json::Num(qps)),
        ("p_at_20", Json::Num(p20)),
        ("merge_avg_ms", Json::Num(merge_avg_ms)),
        ("overlap_pct", Json::Num(overlap_pct)),
        ("persist", persist_json),
    ]);
    // Budgeted runs record to their own file: spill I/O inflates the build
    // timings, so overwriting the unbudgeted baseline would make successive
    // BENCH_scale.json diffs compare incompatible configurations.
    let out = if mem_budget.is_some() {
        "BENCH_scale_spill.json"
    } else {
        "BENCH_scale.json"
    };
    write_trajectory(out, &doc).unwrap_or_else(|e| panic!("write {out}: {e}"));
}
