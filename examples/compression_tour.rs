//! A tour of the RAM–CPU-cache compression layer (§2.1, Figures 2 and 3).
//!
//! ```text
//! cargo run --release --example compression_tour
//! ```
//!
//! Walks through: the paper's Figure 2 example (digits of π under PFOR with
//! 3-bit codes), the naive-vs-patched decoding difference, PFOR-DELTA on a
//! sorted posting list, PDICT on skewed data, and the block image — one
//! layout in RAM and on disk — with its backward-growing exception section.

use monetdb_x100::compress::{
    Codec, CompressedBlock, NaiveBlock, PdictBlock, PforBlock, PforDeltaBlock,
};

fn main() {
    // --- Figure 2: the digits of pi under PFOR b=3, base=0 ---------------
    let pi = [3u32, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2];
    let block = PforBlock::encode(&pi, 3, 0);
    println!("Figure 2 — PFOR(b=3) over the digits of pi: {pi:?}");
    println!(
        "  exceptions (digits needing >3 bits): {:?} at first position {}",
        block.exceptions().collect::<Vec<_>>(),
        block.first_exception()
    );
    println!("  decoded: {:?}", block.decode());
    assert_eq!(block.decode(), pi);

    // --- naive vs patched -------------------------------------------------
    // 30% exceptions: hard on the naive decoder's branch predictor.
    let data: Vec<u32> = (0..100_000u32)
        .map(|i| {
            let h = i.wrapping_mul(2654435761);
            if h % 10 < 3 {
                1_000_000 + h % 999
            } else {
                h % 200
            }
        })
        .collect();
    let naive = NaiveBlock::encode(&data, 8, 0);
    let patched = PforBlock::encode(&data, 8, 0);
    assert_eq!(naive.decode(), patched.decode());
    println!(
        "\nNAIVE vs PATCHED on {} values at {:.0}% exceptions:",
        data.len(),
        naive.exception_rate() * 100.0
    );
    println!(
        "  modelled branch miss rate of the naive if-then-else loop: {:.1}%",
        naive.modelled_branch_miss_rate() * 100.0
    );
    println!("  the patched decoder has no data-dependent branch at all");

    // --- PFOR-DELTA on a sorted docid list --------------------------------
    let docids: Vec<u32> = (0..50_000u32)
        .scan(0u32, |acc, i| {
            *acc += 1 + (i % 9);
            Some(*acc)
        })
        .collect();
    let delta = PforDeltaBlock::encode_with_width(&docids, 8);
    println!(
        "\nPFOR-DELTA over a {}-entry posting list: {:.2} bits/value ({}x vs raw 32)",
        docids.len(),
        delta.bits_per_value(),
        (32.0 / delta.bits_per_value()).round()
    );
    assert_eq!(delta.decode(), docids);

    // --- PDICT on skewed values -------------------------------------------
    let skewed: Vec<u32> = (0..50_000u32)
        .map(|i| {
            let h = i.wrapping_mul(0x9E3779B9);
            [7u32, 7, 7, 7, 42, 42, 9000, h % 100_000][h as usize % 8]
        })
        .collect();
    let dict = PdictBlock::encode(&skewed, 8);
    println!(
        "PDICT over skewed data: {:.2} bits/value, {:.1}% exceptions",
        dict.bits_per_value(),
        dict.exception_rate() * 100.0
    );
    assert_eq!(dict.decode(), skewed);

    // --- the block image ----------------------------------------------------
    let image = CompressedBlock::encode(&docids, Codec::PforDelta { width: 8 });
    let bytes = image.to_bytes();
    let back = CompressedBlock::from_bytes(&bytes).expect("valid block");
    assert_eq!(back, image);
    println!(
        "\nblock image: {} bytes for {} values, the same in RAM and on disk",
        bytes.len(),
        docids.len()
    );
    println!("  8-aligned sections (byte ranges): {:?}", image.sections());

    // Corruption is detected, not propagated.
    let mut corrupt = bytes;
    corrupt[0] ^= 0xFF;
    println!(
        "  corrupting the magic number -> {:?}",
        CompressedBlock::from_bytes(&corrupt).unwrap_err()
    );
}
