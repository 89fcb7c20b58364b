//! The repository benchmark: one workload per process.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <hot_trec|cold_segment|mixed_open|net_scatter> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! A run is set-up → oracle → one unmeasured warm-up pass → the measured
//! passes that fill `--seconds` at the seed commit's speed, each over its
//! own slice of the log → check against the oracle. It prints every
//! metric as `name value unit` and, as its last line, the JSON summary
//! `BENCHMARK.json`'s contract asks for. `--trace 0` reports the
//! end-to-end metrics with tracing off; `--trace 1` reports the per-layer
//! metrics from a traced pass and serial probes, and writes the spans to
//! `benchmark/out/trace_<workload>.jsonl`. See `README.md` for what each
//! workload is for and which layer should move which number.

mod layers;
mod load;
mod metrics;
mod querylog;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use x100_corpus::{precision_at_k, EvalQuery, Scale};
use x100_ir::{QueryEngine, SearchStrategy};

use load::{Hits, Pass};
use metrics::Report;
use stats::median;
use trace::{Instrumented, Span, Traced};
use workload::{Backend, Fixture, Load, Spec, SPECS, TOP_N};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Queries of the log whose served hits are compared with the oracle's.
const VERIFY_QUERIES: usize = 250;
/// The relational engine has no pruned plan: the oracle of every workload
/// is the exhaustive strategy its own results must equal bit for bit.
const ORACLE_STRATEGY: SearchStrategy = SearchStrategy::Bm25Materialized;

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Test hook: run the workload on a smaller corpus.
    scale: Option<Scale>,
    /// Test hook: damage the oracle, so the check must fail.
    corrupt_oracle: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        spec: &SPECS[0],
        seed: 0xC0FFEE,
        seconds: 8.0,
        trace: false,
        scale: None,
        corrupt_oracle: false,
    };
    let mut named_workload = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--corrupt-oracle" {
            args.corrupt_oracle = true;
            continue;
        }
        let value = argv
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                args.spec = SPECS
                    .iter()
                    .find(|s| s.name == value)
                    .ok_or_else(|| bad("a workload name"))?;
                named_workload = true;
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
            }
            "--scale" => args.scale = Some(value.parse().map_err(|_| bad("a scale name"))?),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if named_workload {
        Ok(args)
    } else {
        Err("--workload is required".into())
    }
}

/// What driving the service produced.
struct Driven<'a> {
    /// Passes of the workload's own load shape: untraced on an end-to-end
    /// run, traced on a traced run.
    passes: Vec<Pass<'a>>,
    spans: Vec<Span>,
    /// Closed-loop throughput: the calibration pass of an open loop
    /// (tracing off), the median pass of a closed one.
    capacity_qps: f64,
    /// Queries served, warm-up and calibration included.
    served: usize,
    /// Served outcomes that differ from the oracle's.
    failed: usize,
}

fn drive<'a, S: Instrumented>(
    service: &S,
    args: &Args,
    log: &'a [Vec<u32>],
    oracle: &[Hits],
) -> Driven<'a> {
    let spec = args.spec;
    let slices = (0..spec.passes(args.seconds)).map(|i| load::slice(spec, log, i));

    // Fills the pool, grows the scratch arenas, gives the coordinator its
    // hedge samples. It is a cold start (`hot_trec`'s reads 680 qps where
    // the passes after it read 1 140), so an open loop calibrates its
    // capacity with a second closed pass, over other queries.
    let warm_up = load::closed_pass(service, spec, load::slice(spec, log, 0));
    let calibration = matches!(spec.load, Load::Open { .. })
        .then(|| load::closed_pass(service, spec, load::slice(spec, log, 1)));

    let mut spans = Vec::new();
    let passes: Vec<Pass> = if !args.trace {
        slices.map(|q| load::pass(service, spec, q)).collect()
    } else {
        let traced = Traced::new(service.clone(), Instant::now());
        slices
            .enumerate()
            .map(|(i, q)| {
                let pass = load::pass(&traced, spec, q);
                traced.spans_into(&pass, i, &mut spans);
                pass
            })
            .collect()
    };

    // A closed loop's passes measure capacity themselves.
    let pass_qps: Vec<f64> = passes.iter().map(|p| p.report.qps).collect();
    let capacity_qps = calibration
        .as_ref()
        .map_or_else(|| median(&pass_qps), |c| c.report.qps);

    // The warm-up and the first pass replay the slice the oracle covers.
    let failed = warm_up.mismatches(oracle) + passes[0].mismatches(oracle);
    // Saturation says how fast the machine was during this run, not that an
    // answer was wrong: a neighbour during the calibration pass is enough.
    // It is printed for whoever reads the latencies and never fails the run.
    if let Load::Open { rate_qps } = spec.load {
        println!(
            "saturated {}",
            load::saturated(&passes, rate_qps, capacity_qps) as u8
        );
        println!(
            "late_queries {} count",
            load::late_queries(&passes, rate_qps)
        );
    }
    let served = [&warm_up]
        .into_iter()
        .chain(&calibration)
        .chain(&passes)
        .map(|p| p.report.completed)
        .sum();
    Driven {
        served,
        passes,
        spans,
        capacity_qps,
        failed,
    }
}

/// The expected hits of the first queries, computed serially on a path the
/// served one does not share: the relational engine on the in-memory
/// build, or the in-process scatter for the networked workload.
fn oracle(backend: &Backend, strategy: SearchStrategy, log: &[Vec<u32>]) -> Vec<Hits> {
    match backend {
        Backend::Index { served, built, .. } => {
            let index = built.as_ref().unwrap_or(served);
            let engine = QueryEngine::with_buffer_manager(index, workload::new_pool(None));
            log.iter()
                .map(|q| {
                    let response = engine
                        .search(q, ORACLE_STRATEGY, TOP_N)
                        .expect("oracle query plans");
                    load::hit_bits(response.results.iter().map(|r| (r.docid, r.score)))
                })
                .collect()
        }
        Backend::Net { cluster, .. } => log
            .iter()
            .map(|q| {
                let response = cluster.search_scatter(q, strategy, TOP_N);
                assert!(response.failures.is_empty(), "oracle scatter lost a node");
                load::hit_bits(response.results.iter().map(|r| (r.docid, r.score)))
            })
            .collect(),
    }
}

/// Early precision of the workload's strategy on the corpus's judged
/// queries.
fn p_at_20(backend: &Backend, strategy: SearchStrategy, judged: &[EvalQuery]) -> f64 {
    let mean = |ranked: &dyn Fn(&[u32]) -> Vec<u32>| {
        let sum: f64 = judged
            .iter()
            .map(|q| precision_at_k(&ranked(&q.terms), &q.relevant, 20))
            .sum();
        sum / judged.len() as f64
    };
    match backend {
        Backend::Index { served, .. } => {
            let executor = workload::executor(served, None);
            mean(&|terms| {
                let mut hits = Vec::new();
                executor
                    .search_hits_into(terms, strategy, 20, &mut hits)
                    .expect("judged query plans");
                hits.iter().map(|h| h.0).collect()
            })
        }
        Backend::Net { cluster, .. } => mean(&|terms| {
            let merged = cluster.search(terms, strategy, 20);
            merged.iter().map(|r| r.docid).collect()
        }),
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

struct Outcome {
    attempted: usize,
    failed: usize,
    report: Report,
}

fn run(args: &Args) -> Outcome {
    let spec = args.spec;
    let scale = args.scale.unwrap_or(spec.scale);
    println!(
        "workload {} scale {scale} seed {} seconds {} trace {}",
        spec.name, args.seed, args.seconds, args.trace as u8
    );
    println!("simd_active {}", x100_compress::simd_active() as u8);
    println!(
        "available_parallelism {}",
        std::thread::available_parallelism().map_or(0, usize::from)
    );

    // Several set-ups, so that `setup_s` is a median; the last one serves.
    let mut fixture: Option<Fixture> = None;
    let mut setup_s = Vec::new();
    for _ in 0..if args.trace { 1 } else { SETUP_REPEATS } {
        drop(fixture.take());
        let built = workload::set_up(spec, scale);
        setup_s.push(built.timings.total.as_secs_f64());
        fixture = Some(built);
    }
    let Fixture {
        backend,
        tail,
        timings,
    } = fixture.expect("at least one set-up");

    let cfg = scale.config();
    let log = querylog::generate(
        spec.log,
        &cfg.query_log,
        cfg.vocab_size,
        args.seed,
        spec.passes(args.seconds) * spec.pass_queries,
    );
    let t = Instant::now();
    let mut expected = oracle(
        &backend,
        spec.strategy,
        &log[..VERIFY_QUERIES.min(log.len())],
    );
    if args.corrupt_oracle {
        expected[0].push((u32::MAX, 0));
    }
    println!("verify_s {:.3} s", t.elapsed().as_secs_f64());

    let mut net_stats = None;
    let mut trace_overhead = 0.0;
    let probe = &log[..trace::OVERHEAD_QUERIES.min(log.len())];
    let driven = match &backend {
        Backend::Index {
            served,
            pool_capacity,
            ..
        } => {
            let executor = workload::executor(served, *pool_capacity);
            let driven = drive(&executor, args, &log, &expected);
            if args.trace {
                trace_overhead = trace::overhead_frac(&executor, spec.strategy, probe);
            }
            // Release what the serving pool cached, so the probes below
            // start from pools of their own.
            executor.buffers().evict_all();
            driven
        }
        Backend::Net { net, .. } => {
            println!("transport tcp-loopback");
            let coordinator = Arc::clone(net.coordinator());
            let before = coordinator.stats();
            let driven = drive(&coordinator, args, &log, &expected);
            net_stats = Some((before, coordinator.stats()));
            if args.trace {
                trace_overhead = trace::overhead_frac(&coordinator, spec.strategy, probe);
            }
            driven
        }
    };

    let mut report;
    if !args.trace {
        report = Report::end_to_end();
        println!("setup_s.runs {setup_s:?} s");
        report.set("setup_s", median(&setup_s));
        load::end_to_end(&driven.passes, &mut report);
        println!("capacity_qps {:.1} 1/s", driven.capacity_qps);
        report.set(
            "index_bytes_per_posting",
            timings.index_bytes as f64 / timings.postings as f64,
        );
        report.set(
            "p_at_20",
            p_at_20(&backend, spec.strategy, &tail.eval_queries),
        );
        report.set("peak_rss_mb", peak_rss_mib());
    } else {
        report = Report::per_layer();
        load::serve_layer(&driven.passes, &mut report);
        report.set("serve.capacity_qps", driven.capacity_qps);
        if let Load::Open { rate_qps } = spec.load {
            report.set(
                "serve.offered_over_capacity",
                rate_qps / driven.capacity_qps,
            );
        }
        report.set("trace.overhead_frac", trace_overhead);
        let traced_queries: usize = driven.passes.iter().map(|p| p.report.completed).sum();
        report.set(
            "trace.spans_per_query",
            driven.spans.len() as f64 / traced_queries as f64,
        );
        for (name, (count, self_ns)) in trace::self_times(&driven.spans) {
            println!(
                "trace.self_ms.{name} {:.3} ms over {count} spans",
                self_ns as f64 / 1e6
            );
        }
        let path = workload::out_dir().join(format!("trace_{}.jsonl", spec.name));
        trace::write_jsonl(&path, &driven.spans).expect("write the trace under benchmark/out");
        println!("trace.file {}", path.display());

        layers::setup_layer(&timings, &mut report);
        layers::corpus_layer(scale, &mut report);
        match &backend {
            Backend::Index {
                served,
                pool_capacity,
                segment,
                ..
            } => layers::index_layers(
                &layers::Target {
                    index: served,
                    pool_capacity: *pool_capacity,
                    strategy: spec.strategy,
                    segment: segment.as_ref().map(|s| s.path.as_path()),
                },
                &log,
                &mut report,
            ),
            Backend::Net { cluster, net } => {
                // `compress`, `storage`, `ir`, `exec` on one partition of
                // the four; then the scatter and the wire around them.
                let node = &cluster.nodes()[0];
                layers::index_layers(
                    &layers::Target {
                        index: node.index(),
                        pool_capacity: None,
                        strategy: spec.strategy,
                        segment: None,
                    },
                    &log,
                    &mut report,
                );
                layers::net_layers(cluster, net.coordinator(), spec.strategy, &log, &mut report);
                let (before, after) = net_stats.as_ref().expect("stats taken around the passes");
                report.set(
                    "net.hedged_per_1k",
                    (after.hedged - before.hedged) as f64 * 1e3 / driven.served as f64,
                );
                report.set(
                    "net.failed_over",
                    (after.failed_over - before.failed_over) as f64,
                );
                report.set(
                    "net.unavailable",
                    (after.unavailable - before.unavailable) as f64,
                );
            }
        }
    }
    Outcome {
        attempted: driven.served,
        failed: driven.failed,
        report,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                SPECS.map(|s| s.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Outcome {
        attempted,
        failed,
        report,
    } = run(&args);
    let rows = report.rows();
    for (name, value, unit) in &rows {
        println!("{name} {value} {unit}");
    }
    println!("attempted {attempted} count");
    println!("failed {failed} count");
    let metrics: Vec<String> = rows
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: {failed} served outcomes differ from the oracle");
        ExitCode::from(1)
    }
}
