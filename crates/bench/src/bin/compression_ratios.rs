//! **§3.3 compression accounting** — bits per tuple of the index columns.
//!
//! "Using MonetDB/X100's built in compression, we were able to reduce the
//! sizes of the docid and tf columns, which constitute the major part of
//! total I/O, from 32 to 11.98 and 8.13 bits per tuple, respectively."
//! (`docid`: PFOR-DELTA, 8-bit code words; `tf`: PFOR, 8-bit code words.)
//!
//! The index picks every block's code width and base itself
//! (`x100_compress::pfor::choose_parameters`). This harness prints each
//! compressed column twice — re-encoded at the paper's fixed `b = 8`, and as
//! the index holds it — with bits/tuple, exceptions as a share of values,
//! the mean size of one block image and the mean time
//! `CompressedBlock::from_bytes` takes to copy it into place and validate
//! it (what a pool miss reads and pays), and the full-block decode time per value. A histogram of the
//! chosen widths per column follows. The materialized-score variants
//! explain the BM25TCM/BM25TCMQ8 I/O behaviour (32-bit floats vs 8-bit
//! quantized codes).
//!
//! Usage: `compression_ratios [--scale tiny|small|medium|large] [num_docs]`
//! (default: the medium scale's 100000 docs)

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use x100_bench::{reference, take_scale_flag_or_exit, TablePrinter};
use x100_compress::{Codec, CompressedBlock};
use x100_corpus::{CollectionConfig, Scale, SyntheticCollection};
use x100_ir::{IndexConfig, InvertedIndex};
use x100_storage::{Column, ColumnBuilder};

/// `column`'s values re-encoded at the paper's fixed `b = 8`, in blocks of
/// the same size.
fn at_width_8(column: &Column) -> Column {
    let codec = match column.codec() {
        Codec::Pfor { .. } => Codec::Pfor { width: 8 },
        Codec::PforDelta { .. } => Codec::PforDelta { width: 8 },
        other => other,
    };
    let mut b = ColumnBuilder::with_block_size(column.name(), codec, column.block_size());
    b.extend(&column.read_all());
    b.finish()
}

/// A PFOR column's table row, and how many of its blocks chose each width.
fn pfor_row(label: [&str; 3], column: &Column, paper: &str) -> (Vec<String>, BTreeMap<u8, usize>) {
    let (mut exceptions, mut image_bytes) = (0usize, 0usize);
    let (mut parse, mut decode) = (Duration::ZERO, Duration::ZERO);
    let mut widths = BTreeMap::new();
    let mut out = Vec::new();
    for i in 0..column.block_count() {
        let block = column.block(i);
        let (width, excs) = match &*block {
            CompressedBlock::Pfor(b) => (b.width(), b.exception_count()),
            CompressedBlock::PforDelta(b) => (b.width(), b.exception_count()),
            other => panic!("{}: not a PFOR block: {other:?}", column.name()),
        };
        exceptions += excs;
        *widths.entry(width).or_insert(0) += 1;
        let image = block.to_bytes();
        image_bytes += image.len();
        let t = Instant::now();
        black_box(CompressedBlock::from_bytes(black_box(&image)).expect("own image parses"));
        parse += t.elapsed();
        let t = Instant::now();
        block.decode_into(&mut out);
        black_box(&out);
        decode += t.elapsed();
    }
    let values = column.len().max(1) as f64;
    let blocks = column.block_count().max(1) as f64;
    let mut row: Vec<String> = label.map(String::from).to_vec();
    row.extend([
        format!("{:.2}", column.bits_per_value()),
        format!("{:.1}", 100.0 * exceptions as f64 / values),
        format!("{:.1}", image_bytes as f64 / 1024.0 / blocks),
        format!("{:.0}", parse.as_secs_f64() * 1e6 / blocks),
        format!("{:.2}", decode.as_secs_f64() * 1e9 / values),
        paper.into(),
    ]);
    (row, widths)
}

/// An uncompressed column's table row.
fn raw_row(name: &str, codec: &str, index: &InvertedIndex) -> Vec<String> {
    let bits = format!("{:.2}", index.column_bits_per_tuple(name));
    [name, codec, "-", bits.as_str(), "-", "-", "-", "-", "32.00"]
        .map(String::from)
        .to_vec()
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let scale = take_scale_flag_or_exit(&mut args);
    let mut cfg = scale
        .map(Scale::config)
        .unwrap_or_else(CollectionConfig::benchmark);
    if let Some(n) = args.first().and_then(|s| s.parse().ok()) {
        cfg.num_docs = n;
    }

    eprintln!("generating {}-doc collection ...", cfg.num_docs);
    let collection = SyntheticCollection::generate(&cfg);

    let raw = InvertedIndex::build(&collection, &IndexConfig::uncompressed());
    let mat_f32 = InvertedIndex::build(&collection, &IndexConfig::materialized_f32());
    let q8 = InvertedIndex::build(&collection, &IndexConfig::materialized_q8());

    let mut t = TablePrinter::new(&[
        "column",
        "codec",
        "b",
        "bits/tuple",
        "exc.%",
        "KiB/block",
        "parse us/block",
        "decode ns/value",
        "paper",
    ]);
    let mut histograms = Vec::new();
    // Compression ratio vs 32 bits, at b = 8 and per block.
    let mut ratios = Vec::new();
    for (name, codec, uncompressed, paper) in [
        (
            "docid",
            "PFOR-DELTA",
            raw_row("docid", "raw", &raw),
            format!("{:.2}", reference::DOCID_BITS_COMPRESSED),
        ),
        (
            "tf",
            "PFOR",
            raw_row("tf", "raw", &raw),
            format!("{:.2}", reference::TF_BITS_COMPRESSED),
        ),
        (
            "score",
            "quantized PFOR",
            raw_row("score", "f32 (raw bits)", &mat_f32),
            "~8".to_string(),
        ),
    ] {
        t.push_row(uncompressed);
        let per_block = q8.td().column(name).expect("index column");
        let fixed = at_width_8(per_block);
        t.push_row(pfor_row([name, codec, "8"], &fixed, &paper).0);
        let (row, widths) = pfor_row([name, codec, "per block"], per_block, "-");
        t.push_row(row);
        histograms.push((name, widths));
        ratios.push((
            32.0 / fixed.bits_per_value(),
            32.0 / per_block.bits_per_value(),
        ));
    }

    println!(
        "\nCompression accounting over {} postings ({} docs, blocks of {} values):",
        q8.num_postings(),
        cfg.num_docs,
        q8.config().block_size
    );
    print!("{}", t.render());

    println!("\nCode widths chosen per block (b x blocks):");
    for (name, widths) in &histograms {
        let cells: Vec<String> = widths.iter().map(|(b, n)| format!("{b}x{n}")).collect();
        println!("  {name:<6} {}", cells.join("  "));
    }

    let (docid, tf) = (ratios[0], ratios[1]);
    println!(
        "\nShape checks: at b = 8 docid compresses {:.1}x (paper: {:.1}x) and tf \
         {:.1}x (paper: {:.1}x); with per-block widths {:.1}x and {:.1}x. The \
         materialized f32 score column stays at 32 bits/tuple — the exact reason \
         the paper's BM25TCM cold run did not improve until quantization shrank \
         it to 8 bits.",
        docid.0,
        32.0 / reference::DOCID_BITS_COMPRESSED,
        tf.0,
        32.0 / reference::TF_BITS_COMPRESSED,
        docid.1,
        tf.1,
    );
}
