//! **Figure 3** — branch miss rate and decompression bandwidth vs exception
//! rate, NAIVE vs patched PFOR.
//!
//! Regenerates both series of the paper's Figure 3:
//!
//! * *Bandwidth*: wall-clock decompression throughput (GB/s of decompressed
//!   output) of the naive sentinel decoder and the two-loop patched
//!   decoder, measured on this machine over the same logical data.
//! * *Branch miss rate*: the naive decoder's data-dependent branch replayed
//!   through a two-bit saturating predictor model (the paper used CPU event
//!   counters; see the "Substitutions vs the paper" section of
//!   `docs/ARCHITECTURE.md`). The patched decoder has no data-dependent
//!   branch, so its modelled BMR is zero by construction.
//!
//! Shape targets: NAIVE bandwidth collapses toward 50 % exceptions where
//! BMR peaks; PATCHED degrades only linearly as patch work grows.
//!
//! Then the tables around the same decode loops: PFOR code-word width on
//! tf-like data, §2.1's entry-point seek vs a full decode, and PFOR-DELTA /
//! PDICT on the data each is built for.
//!
//! Usage: `cargo run --release -p x100-bench --bin fig3_patch_vs_naive`

use std::hint::black_box;
use std::time::Instant;

use x100_bench::TablePrinter;
use x100_compress::ENTRY_POINT_STRIDE as STRIDE;
use x100_compress::{NaiveBlock, PdictBlock, PforBlock, PforDeltaBlock};

/// Values per measured block.
const N: usize = 1 << 20;
/// Code width (the paper's IR configuration).
const WIDTH: u8 = 8;

/// `N` successive xorshift32 states after `x`.
fn xorshift(mut x: u32) -> impl Iterator<Item = u32> {
    (0..N).map(move |_| {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        x
    })
}

/// Deterministic data with an expected `rate` fraction of exceptions:
/// codeable values are < 255, exceptions are large.
fn generate(rate: f64) -> Vec<u32> {
    let threshold = (rate * u32::MAX as f64) as u32;
    xorshift(0x2545F491)
        .map(|x| {
            if x < threshold {
                1_000_000 + (x % 1000) // exception (needs > 8 bits)
            } else {
                u32::from(x as u8) % 255 // codeable under NAIVE's sentinel too
            }
        })
        .collect()
}

/// Best of five timed runs after a warm-up, in seconds.
fn best_secs(mut run: impl FnMut()) -> f64 {
    run();
    (0..5)
        .map(|_| {
            let start = Instant::now();
            run();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::MAX, f64::min)
}

/// Decompression bandwidth in GB/s of *decompressed* output.
fn bandwidth(mut decode: impl FnMut(&mut Vec<u32>)) -> f64 {
    let mut out = Vec::new();
    let secs = best_secs(|| decode(&mut out));
    (out.len() * 4) as f64 / secs / 1e9
}

fn main() {
    println!("Figure 3 — decompression bandwidth + branch miss rate vs exception rate");
    println!("(PFOR b={WIDTH}, {N} values per block; patched BMR is structurally 0)\n");

    let mut table = TablePrinter::new(&[
        "exc.rate",
        "actual",
        "NAIVE GB/s",
        "PFOR GB/s",
        "NAIVE BMR%",
        "PFOR BMR%",
    ]);
    let mut naive_at_0 = 0.0f64;
    let mut naive_at_mid = f64::MAX;
    let mut pfor_curve: Vec<(f64, f64)> = Vec::new();

    for step in 0..=20 {
        let rate = step as f64 / 20.0;
        let values = generate(rate);
        let naive = NaiveBlock::encode(&values, WIDTH, 0);
        let pfor = PforBlock::encode(&values, WIDTH, 0);
        let actual = naive.exception_rate();

        let naive_bw = bandwidth(|out| naive.decode_into(out));
        let pfor_bw = bandwidth(|out| pfor.decode_into(out));
        let naive_bmr = naive.modelled_branch_miss_rate() * 100.0;

        if step == 0 {
            naive_at_0 = naive_bw;
        }
        if (0.4..=0.6).contains(&rate) {
            naive_at_mid = naive_at_mid.min(naive_bw);
        }
        pfor_curve.push((rate, pfor_bw));

        table.push_row(vec![
            format!("{rate:.2}"),
            format!("{actual:.3}"),
            format!("{naive_bw:.2}"),
            format!("{pfor_bw:.2}"),
            format!("{naive_bmr:.1}"),
            "0.0".to_owned(),
        ]);
    }
    print!("{}", table.render());

    println!("\nShape checks (paper's Figure 3):");
    println!(
        "  NAIVE bandwidth at 50% exceptions is {:.1}x below its 0% value \
         (paper: sharp collapse)",
        naive_at_0 / naive_at_mid
    );
    let (lo, hi) = (pfor_curve[0].1, pfor_curve.last().unwrap().1);
    println!(
        "  PATCHED degrades smoothly: {:.2} GB/s at 0% -> {:.2} GB/s at 100% \
         (paper: linear patch-work growth)",
        lo, hi
    );

    println!("\nPFOR code-word width b on tf-like data (80 % tf 1-4, 2 % outliers)\n");
    let tf: Vec<u32> = xorshift(0xC0FFEE)
        .map(|x| match x % 100 {
            0..=79 => 1 + x % 4,
            80..=97 => 5 + x % 60,
            _ => 300 + x % 5000,
        })
        .collect();
    let mut table = TablePrinter::new(&["b", "bits/value", "exc.%", "GB/s"]);
    let row = |label: String, block: &PforBlock| {
        vec![
            label,
            format!("{:.2}", block.bits_per_value()),
            format!("{:.1}", block.exception_rate() * 100.0),
            format!("{:.2}", bandwidth(|out| block.decode_into(out))),
        ]
    };
    for b in [2u8, 4, 6, 8, 12, 16] {
        table.push_row(row(b.to_string(), &PforBlock::encode_with_width(&tf, b)));
    }
    // What the index's per-block chooser picks on the same data (its
    // exception charge is fitted from this sweep).
    let auto = PforBlock::encode_auto(&tf);
    table.push_row(row(format!("auto: {}", auto.width()), &auto));
    print!("{}", table.render());

    let docids: Vec<u32> = xorshift(0xABCDEF)
        .scan(0, |acc, x| {
            *acc += 1 + x % 7;
            Some(*acc)
        })
        .collect();
    let block = PforDeltaBlock::encode_with_width(&docids, WIDTH);
    let mut out = Vec::new();
    let full = best_secs(|| block.decode_into(&mut out));
    let full_us = full * 1e6;
    println!("\nEntry-point seek vs a {full_us:.0} us full decode of {N} PFOR-DELTA docids\n");
    let mut table = TablePrinter::new(&["128-value windows", "seek us", "speedup"]);
    for k in [4, 16, 64] {
        let starts = (0..k).map(|i| i * (N / STRIDE) / k * STRIDE);
        let seek = best_secs(|| {
            for s in starts.clone() {
                block.decode_range_into(s, STRIDE, &mut out).unwrap();
                black_box(&out);
            }
        });
        let (us, x) = (seek * 1e6, full / seek);
        table.push_row(vec![k.to_string(), format!("{us:.1}"), format!("{x:.0}x")]);
    }
    print!("{}", table.render());

    println!("\nPFOR-DELTA and PDICT (b={WIDTH}) on the data each is built for\n");
    let sorted: Vec<u32> = (0..N as u32).map(|i| i * 3 + i % 5).collect();
    let skewed: Vec<u32> = (0..N as u32).map(|i| i % 32).collect();
    let delta = PforDeltaBlock::encode_with_width(&sorted, WIDTH);
    let dict = PdictBlock::encode(&skewed, WIDTH);
    let mut table = TablePrinter::new(&["codec, data", "GB/s"]);
    let bw = bandwidth(|out| delta.decode_into(out));
    table.push_row(vec!["PFOR-DELTA, sorted".into(), format!("{bw:.2}")]);
    let bw = bandwidth(|out| dict.decode_into(out));
    table.push_row(vec!["PDICT, skewed".into(), format!("{bw:.2}")]);
    print!("{}", table.render());
}
