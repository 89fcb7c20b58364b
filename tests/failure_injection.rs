//! Failure-injection integration tests: corrupt blocks, degenerate queries,
//! and misuse must fail loudly and cleanly — never silently return wrong
//! results and never panic across a public API boundary.

use monetdb_x100::compress::{Codec, CodecError, CompressedBlock, Sections};
use monetdb_x100::corpus::{CollectionConfig, SyntheticCollection};
use monetdb_x100::exec::prelude::*;
use monetdb_x100::ir::{
    IndexBuilder, IndexConfig, InvertedIndex, QueryEngine, SearchStrategy, SegmentError,
    SpillConfig,
};
use monetdb_x100::storage::{
    BufferManager, BufferMode, Column, DiskModel, SectionKind, StorageError, Table,
};

fn tiny_index() -> (SyntheticCollection, InvertedIndex) {
    let c = SyntheticCollection::generate(&CollectionConfig::tiny());
    let idx = InvertedIndex::build(&c, &IndexConfig::compressed());
    (c, idx)
}

#[test]
fn corrupted_serialized_blocks_error_at_every_byte() {
    let values: Vec<u32> = (0..5000u32).map(|i| i * 3 % 1000).collect();
    for codec in [
        Codec::Raw,
        Codec::Pfor { width: 8 },
        Codec::PforDelta { width: 8 },
        Codec::Pdict { width: 8 },
    ] {
        let bytes = CompressedBlock::encode(&values, codec).to_bytes();
        // Bit-flip each of the first 64 bytes (headers and entry points):
        // the result must either decode to the original or error — never
        // panic, never return different values "successfully" in a way
        // that passes validation silently. (Payload flips may legitimately
        // decode to different values; header flips must be caught.)
        for i in 0..bytes.len().min(64) {
            let mut corrupt = bytes.to_vec();
            corrupt[i] ^= 0x01;
            // Clean rejection is fine; accepted blocks must still be
            // internally consistent: decoding must not panic.
            if let Ok(block) = CompressedBlock::from_bytes(&corrupt) {
                let mut out = Vec::new();
                block.decode_into(&mut out);
                assert_eq!(out.len(), block.len());
            }
        }
        // Truncations must all be clean errors.
        for cut in 0..bytes.len().min(128) {
            assert!(
                CompressedBlock::from_bytes(&bytes[..cut]).is_err(),
                "{codec:?} truncated at {cut} must fail"
            );
        }
    }
}

#[test]
fn bad_magic_and_bad_codec_are_specific_errors() {
    let bytes = CompressedBlock::encode(&[1, 2, 3], Codec::Raw).to_bytes();
    let mut bad_magic = bytes.to_vec();
    bad_magic[3] ^= 0xFF;
    assert!(matches!(
        CompressedBlock::from_bytes(&bad_magic),
        Err(CodecError::BadMagic(_))
    ));
    let mut bad_codec = bytes.to_vec();
    bad_codec[4] = 200;
    assert!(matches!(
        CompressedBlock::from_bytes(&bad_codec),
        Err(CodecError::UnknownCodec(200))
    ));
}

/// Encodes `values` (mostly `1..=2^w`, exceptions where `exceptional`)
/// with PFOR (b = 8), PFOR-DELTA (b = 8, over their prefix sums, so its
/// deltas are `values`) and PDICT (b = `w`); `corrupt` edits each image,
/// given its sections and width, and loading it must report corruption.
fn patched_corruption_is_rejected(
    n: usize,
    exceptional: impl Fn(usize) -> bool,
    w: u8,
    corrupt: impl Fn(&mut [u8], Sections, usize),
) {
    let values: Vec<u32> = (0..n)
        .map(|i| {
            if exceptional(i) {
                1_000_000 + i as u32
            } else {
                (i % (1 << w)) as u32 + 1
            }
        })
        .collect();
    let sums: Vec<u32> = (1..=n).map(|k| values[..k].iter().sum()).collect();
    for (codec, values, b) in [
        (Codec::Pfor { width: 8 }, &values, 8),
        (Codec::PforDelta { width: 8 }, &sums, 8),
        (Codec::Pdict { width: w }, &values, w),
    ] {
        let block = CompressedBlock::encode(values, codec);
        let mut bytes = block.to_bytes();
        corrupt(&mut bytes, block.sections(), usize::from(b));
        let err = CompressedBlock::from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, CodecError::Corrupt(_)), "{codec:?}: {err}");
    }
}

#[test]
fn exception_chain_link_of_gap_zero_is_rejected() {
    // Exceptions at 10, 12 and 14 (PDICT's 1-bit codes add compulsory ones
    // at 11 and 13). A zero gap in slot 10 makes the chain revisit it,
    // which the unchecked decode loops would follow.
    patched_corruption_is_rejected(
        300,
        |i| matches!(i, 10 | 12 | 14),
        1,
        |bytes, s, b| {
            let at = s.entry_points.start; // entry point 0's next exception
            assert_eq!(bytes[at..at + 4], 10u32.to_le_bytes());
            for bit in 10 * b..11 * b {
                bytes[s.codes.start + bit / 8] &= !(1 << (bit % 8));
            }
        },
    );
}

#[test]
fn entry_point_disagreeing_with_the_exceptions_is_rejected() {
    // An exception every 50 values from 7 on: entry point 1 (values
    // 128..256) names the one at 157. Pointing it at 0 would send a range
    // decode from 128 — the hot path's refill shape — below its window.
    patched_corruption_is_rejected(
        512,
        |i| i % 50 == 7,
        6,
        |bytes, s, _| {
            let at = s.entry_points.start + 8; // entry point 1's next exception
            assert_eq!(bytes[at..at + 4], 157u32.to_le_bytes());
            bytes[at..at + 4].fill(0);
        },
    );
}

#[test]
fn unknown_query_terms_yield_empty_not_error() {
    let (_, idx) = tiny_index();
    let engine = QueryEngine::new(&idx);
    for strategy in [
        SearchStrategy::BoolAnd,
        SearchStrategy::BoolOr,
        SearchStrategy::Bm25,
        SearchStrategy::Bm25TwoPass,
    ] {
        let resp = engine.search(&[9_999_999], strategy, 10).expect("search");
        assert!(resp.results.is_empty(), "{strategy:?}");
    }
}

#[test]
fn empty_query_yields_empty() {
    let (_, idx) = tiny_index();
    let engine = QueryEngine::new(&idx);
    let resp = engine
        .search(&[], SearchStrategy::Bm25, 10)
        .expect("search");
    assert!(resp.results.is_empty());
}

#[test]
fn mixed_known_unknown_terms_use_the_known_ones() {
    let (c, idx) = tiny_index();
    let engine = QueryEngine::new(&idx);
    let known = c.eval_queries[0].terms[0];
    let with_junk = engine
        .search(&[known, 8_888_888], SearchStrategy::Bm25, 10)
        .expect("search");
    let clean = engine
        .search(&[known], SearchStrategy::Bm25, 10)
        .expect("search");
    assert_eq!(with_junk.results, clean.results);
}

#[test]
fn materialized_strategy_without_column_is_a_plan_error() {
    let (_, idx) = tiny_index(); // compressed, not materialized
    let engine = QueryEngine::new(&idx);
    let err = engine
        .search(&[1], SearchStrategy::Bm25Materialized, 10)
        .unwrap_err();
    assert!(err.to_string().contains("materialized"));
}

#[test]
fn unknown_columns_and_ranges_error_cleanly() {
    let mut table = Table::new("t");
    table.add_column(Column::from_values("a", Codec::Raw, &[1, 2, 3]));
    let bm = BufferManager::with_mode(DiskModel::instant(), BufferMode::Hot, 0);
    assert!(matches!(
        table.column("nope"),
        Err(StorageError::UnknownColumn(_))
    ));
    assert!(TableScan::new(&table, &bm, &["nope"], 16).is_err());
    assert!(TableScan::with_range(&table, &bm, &["a"], 0..99, 16).is_err());
}

#[test]
fn zero_length_documents_are_tolerated() {
    // A collection where some documents end up minimal: the index build and
    // all strategies must survive.
    let mut cfg = CollectionConfig::tiny();
    cfg.avg_doc_len = 8; // the generator's floor
    let c = SyntheticCollection::generate(&cfg);
    let idx = InvertedIndex::build(&c, &IndexConfig::compressed());
    let engine = QueryEngine::new(&idx);
    for q in &c.eval_queries {
        let resp = engine
            .search(&q.terms, SearchStrategy::Bm25, 5)
            .expect("search");
        assert!(resp.results.len() <= 5);
    }
}

/// A spilling builder over the tiny collection with a budget small enough
/// to leave several run segments on disk, ready to be corrupted.
fn spilled_builder(c: &SyntheticCollection) -> IndexBuilder {
    let mut b = IndexBuilder::new(
        c.vocab.len(),
        &IndexConfig::compressed(),
        SpillConfig::with_budget(16 * 1024),
    );
    b.push_docs(&c.docs).unwrap();
    assert!(b.num_runs() >= 2, "fixture must spill multiple runs");
    b
}

/// `(offset, len)` of a section in a segment image, read from its table of
/// contents (TOC offset at header byte 16; 32-byte entries `kind, reserved,
/// offset, len, checksum`).
fn section_extent(bytes: &[u8], kind: SectionKind) -> (usize, usize) {
    let u64_at = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().unwrap()) as usize;
    let toc = u64_at(16);
    let entries = (bytes.len() - 8 - toc) / 32;
    (0..entries)
        .map(|e| toc + 32 * e)
        .find(|&at| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) == kind as u32)
        .map(|at| (u64_at(at + 8), u64_at(at + 16)))
        .expect("run has the section")
}

#[test]
fn truncated_run_files_error_through_finish() {
    let c = SyntheticCollection::generate(&CollectionConfig::tiny());
    let full_len = {
        let b = spilled_builder(&c);
        std::fs::metadata(&b.run_paths()[0]).unwrap().len() as usize
    };
    // Cut the first run at several depths: mid-header, mid-section, one
    // byte short. Every cut must surface as a typed truncation from
    // finish() — no panic, no silently dropped postings.
    for cut in [0, 7, 19, full_len / 3, full_len - 1] {
        let b = spilled_builder(&c);
        let victim = &b.run_paths()[0];
        let bytes = std::fs::read(victim).unwrap();
        std::fs::write(victim, &bytes[..cut.min(bytes.len())]).unwrap();
        let err = b.finish(&c.vocab).unwrap_err();
        assert_eq!(err, SegmentError::Truncated, "cut={cut}: {err}");
    }
}

#[test]
fn bit_flipped_run_files_error_through_finish() {
    let c = SyntheticCollection::generate(&CollectionConfig::tiny());
    let full_len = {
        let b = spilled_builder(&c);
        std::fs::metadata(&b.run_paths()[1]).unwrap().len() as usize
    };
    // Flip a single bit at positions spanning the header (magic, version,
    // flags, section count, TOC offset, file length, checksum), the column
    // sections and the table of contents.
    let positions = [0, 4, 6, 8, 16, 24, 32, 64, 100, full_len / 2, full_len - 1];
    for &pos in &positions {
        let b = spilled_builder(&c);
        let victim = &b.run_paths()[1];
        let mut bytes = std::fs::read(victim).unwrap();
        bytes[pos] ^= 0x01;
        std::fs::write(victim, &bytes).unwrap();
        let err = b.finish(&c.vocab).unwrap_err();
        assert!(
            matches!(
                err,
                SegmentError::BadMagic(_) | SegmentError::BadVersion(_) | SegmentError::Corrupt(_)
            ),
            "flip at {pos}: {err}"
        );
        assert!(!err.to_string().is_empty());
    }
}

#[test]
fn deleted_run_file_errors_through_finish() {
    let c = SyntheticCollection::generate(&CollectionConfig::tiny());
    let b = spilled_builder(&c);
    std::fs::remove_file(&b.run_paths()[0]).unwrap();
    assert!(matches!(b.finish(&c.vocab), Err(SegmentError::Io(_))));
}

#[test]
fn run_file_posting_swap_is_detected() {
    // Swapping two words of the docid column's block payload keeps every
    // length, count and directory entry intact — only the section checksum
    // can catch it. It must.
    let c = SyntheticCollection::generate(&CollectionConfig::tiny());
    let b = spilled_builder(&c);
    let victim = &b.run_paths()[0];
    let mut bytes = std::fs::read(victim).unwrap();
    let (offset, len) = section_extent(&bytes, SectionKind::ColDocid);
    // The section's last 4-byte word and the nearest earlier one that
    // differs from it, both inside its last block's image — never the
    // column header or the block directory.
    let u64_at = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().unwrap()) as usize;
    let blocks_at = offset + 32 + 8 * (u64_at(offset + 24) + 1);
    let last_block = blocks_at + u64_at(blocks_at - 16);
    let z = offset + len - 4;
    let a = (last_block..z)
        .step_by(4)
        .rev()
        .find(|&a| bytes[a..a + 4] != bytes[z..z + 4])
        .expect("the last block's words are not all equal");
    for i in 0..4 {
        bytes.swap(a + i, z + i);
    }
    std::fs::write(victim, &bytes).unwrap();
    let err = b.finish(&c.vocab).unwrap_err();
    assert_eq!(err, SegmentError::Corrupt("section checksum mismatch"));
    assert!(err.to_string().contains("checksum"), "{err}");
}

#[test]
fn swapped_run_files_error_through_finish() {
    // Two valid runs renamed over each other: every byte verifies, but a
    // term's list no longer ascends where the runs meet. The merge appends
    // runs in order and never sorts, so this is corruption, not input.
    let c = SyntheticCollection::generate(&CollectionConfig::tiny());
    let b = spilled_builder(&c);
    let paths = b.run_paths();
    let aside = paths[0].with_extension("aside");
    std::fs::rename(&paths[0], &aside).unwrap();
    std::fs::rename(&paths[1], &paths[0]).unwrap();
    std::fs::rename(&aside, &paths[1]).unwrap();
    assert_eq!(
        b.finish(&c.vocab).unwrap_err(),
        SegmentError::Corrupt("run postings do not strictly ascend")
    );
}

#[test]
fn topn_zero_and_huge_n_are_fine() {
    let (c, idx) = tiny_index();
    let engine = QueryEngine::new(&idx);
    let terms = &c.eval_queries[0].terms;
    let zero = engine.search(terms, SearchStrategy::Bm25, 0).expect("zero");
    assert!(zero.results.is_empty());
    let huge = engine
        .search(terms, SearchStrategy::Bm25, 10_000_000)
        .expect("huge");
    assert!(huge.results.len() <= c.docs.len());
}
