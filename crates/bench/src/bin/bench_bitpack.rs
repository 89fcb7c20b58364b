//! **Bitpack kernel trajectory** — generic oracle vs unrolled scalar
//! kernels vs the AVX2 wide path, at every code width 1–32.
//!
//! The PFOR family's LOOP1 is a bitpack unpack; at the paper's target
//! bandwidths it must run memory-bound. This harness measures, for each
//! width `b`, the decode throughput of:
//!
//! * `generic` — [`x100_compress::bitpack::unpack_generic`], the per-value
//!   shift-computing loop (the property-test oracle);
//! * `scalar` — [`x100_compress::bitpack::unpack`] with the wide path
//!   forced off: the macro-generated fully unrolled 32-value-group kernel;
//! * `wide` — the same entry point with the runtime-dispatched AVX2
//!   kernel allowed (requires an x86_64 CPU with AVX2, detected at
//!   runtime; otherwise it is the scalar path again and the two columns
//!   coincide).
//!
//! Outputs are asserted identical — across all three paths — before
//! anything is timed. Results go to stdout as a table and to
//! `BENCH_bitpack.json` as a machine-readable trajectory (GB/s of decoded
//! output, best-of-trials), so future PRs have a perf baseline to diff
//! against.
//!
//! Usage: `bench_bitpack [num_values]` (default 262144)

use std::time::Instant;

use x100_bench::{write_trajectory, Json, TablePrinter};
use x100_compress::{bitpack, simd_active, simd_force_scalar};

/// Timing trials per width; best-of is reported to suppress scheduler noise.
const TRIALS: usize = 7;
/// Decode repetitions per trial so each sample is comfortably above timer
/// resolution even at the fastest widths.
const REPS: usize = 8;

fn throughput_gbps(n: usize, mut decode: impl FnMut()) -> f64 {
    decode(); // warm-up
    let mut best = f64::MAX;
    for _ in 0..TRIALS {
        let start = Instant::now();
        for _ in 0..REPS {
            decode();
        }
        best = best.min(start.elapsed().as_secs_f64() / REPS as f64);
    }
    (n * 4) as f64 / best / 1e9
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(1 << 18);

    let wide_live = simd_active();
    println!(
        "Bitpack unpack throughput ({n} values); wide (AVX2) path {}\n",
        if wide_live {
            "ACTIVE"
        } else {
            "inactive - scalar fallback"
        }
    );
    let mut table = TablePrinter::new(&[
        "width",
        "generic GB/s",
        "scalar GB/s",
        "wide GB/s",
        "scalar/generic",
        "wide/scalar",
    ]);
    let mut records = Vec::new();
    let mut min_speedup = f64::MAX;
    let mut wide_wins = 0usize;

    for b in 1..=bitpack::MAX_WIDTH {
        // Deterministic values exercising the full code range of the width.
        let mask = bitpack::mask(b) as u32;
        let mut x = 0x9E3779B9u32;
        let values: Vec<u32> = (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x & mask
            })
            .collect();
        let packed = bitpack::pack(&values, b);

        // Correctness gate: identical outputs on all paths or no
        // measurement.
        let (mut wide_out, mut scalar_out, mut oracle) = (Vec::new(), Vec::new(), Vec::new());
        simd_force_scalar(false);
        bitpack::unpack(&packed, n, b, &mut wide_out);
        simd_force_scalar(true);
        bitpack::unpack(&packed, n, b, &mut scalar_out);
        bitpack::unpack_generic(&packed, n, b, &mut oracle);
        assert_eq!(
            wide_out, oracle,
            "wide path and oracle disagree at width {b}"
        );
        assert_eq!(
            scalar_out, oracle,
            "scalar kernel and oracle disagree at width {b}"
        );
        assert_eq!(wide_out, values, "roundtrip failed at width {b}");

        let mut out = Vec::new();
        simd_force_scalar(true);
        let generic = throughput_gbps(n, || bitpack::unpack_generic(&packed, n, b, &mut out));
        let scalar = throughput_gbps(n, || bitpack::unpack(&packed, n, b, &mut out));
        simd_force_scalar(false);
        let wide = throughput_gbps(n, || bitpack::unpack(&packed, n, b, &mut out));

        let speedup = scalar / generic;
        let wide_speedup = wide / scalar;
        min_speedup = min_speedup.min(speedup);
        if wide_speedup >= 1.2 {
            wide_wins += 1;
        }

        table.push_row(vec![
            b.to_string(),
            format!("{generic:.2}"),
            format!("{scalar:.2}"),
            format!("{wide:.2}"),
            format!("{speedup:.2}x"),
            format!("{wide_speedup:.2}x"),
        ]);
        records.push(Json::obj(vec![
            ("width", Json::Num(f64::from(b))),
            ("generic_gbps", Json::Num(generic)),
            ("kernel_gbps", Json::Num(scalar)),
            ("wide_gbps", Json::Num(wide)),
            ("speedup", Json::Num(speedup)),
            ("wide_speedup", Json::Num(wide_speedup)),
        ]));
    }

    print!("{}", table.render());
    println!(
        "\nMinimum scalar/generic speedup across widths: {min_speedup:.2}x \
         (kernels must beat the generic path everywhere)"
    );
    if wide_live {
        println!(
            "Wide kernel at least 1.2x over scalar at {wide_wins}/{} widths",
            bitpack::MAX_WIDTH
        );
    }

    let doc = Json::obj(vec![
        ("bench", Json::str("bitpack_unpack")),
        ("num_values", Json::Num(n as f64)),
        ("trials", Json::Num(TRIALS as f64)),
        ("simd_active", Json::Bool(wide_live)),
        ("min_speedup", Json::Num(min_speedup)),
        ("wide_widths_over_1_2x", Json::Num(wide_wins as f64)),
        ("widths", Json::Arr(records)),
    ]);
    write_trajectory("BENCH_bitpack.json", &doc).expect("write BENCH_bitpack.json");
}
