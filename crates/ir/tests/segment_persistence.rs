//! Segment persistence under fire: restart differentials across every
//! search strategy, plus exhaustive corruption injection — every byte
//! flipped, every truncation length, and oversized declared sizes with
//! re-sealed checksums (so the structural validators, not the checksums,
//! are what must catch them). A corrupt segment must always fail open
//! with a typed [`SegmentError`]: never a panic, never an unbounded
//! allocation.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use x100_compress::{Codec, CompressedBlock};
use x100_corpus::{CollectionConfig, SyntheticCollection};
use x100_ir::{
    ExecError, IndexBuilder, IndexConfig, InvertedIndex, QueryExecutor, SearchStrategy,
    SegmentError, SpillConfig,
};
use x100_storage::{
    BufferManager, BufferMode, Column, ColumnBuilder, DiskModel, SectionKind, SegmentReader,
    SegmentWriter, StorageError,
};

/// A path no other call shares: tests run on parallel threads of one
/// process, so the pid alone would let them overwrite and delete each
/// other's files.
fn temp_path(name: &str) -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "x100-segment-persist-{name}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A deliberately small index (few dozen docs, tiny vocabulary) whose
/// segment stays in the low kilobytes — small enough that byte-exhaustive
/// and truncation-exhaustive injection runs in moments.
fn small_index(config: &IndexConfig) -> InvertedIndex {
    let vocab: Vec<String> = (0..24).map(|t| format!("term{t}")).collect();
    let mut b = IndexBuilder::new(vocab.len(), config, SpillConfig::unbounded());
    for d in 0..40u32 {
        // Deterministic, skewed postings: low term ids appear often.
        let terms: Vec<(u32, u32)> = (0..24u32)
            .filter(|t| (d + t) % (t + 2) == 0)
            .map(|t| (t, 1 + (d + t) % 5))
            .collect();
        let len = terms.iter().map(|&(_, tf)| tf).sum::<u32>().max(1);
        b.push_doc(&format!("doc-{d:04}"), &terms, len).unwrap();
    }
    b.finish(&vocab).unwrap().0
}

// ---------------------------------------------------------------------------
// Restart differential
// ---------------------------------------------------------------------------

/// Write → reopen cold in a pool small enough to evict continuously →
/// every strategy must return results bit-identical to the in-memory
/// index, even though each of its blocks is dropped and re-`pread`
/// multiple times along the way. The segment is written at the default
/// block size and at the previous default of 256 Ki values: a segment
/// records its own block size, so either one opens at it and serves
/// exactly what the default-built index does.
#[test]
fn reopened_segment_serves_all_strategies_bit_identically() {
    let c = SyntheticCollection::generate(&CollectionConfig::tiny());
    let mem_index = Arc::new(InvertedIndex::build(&c, &IndexConfig::materialized_q8()));
    let mem_exec = QueryExecutor::new(mem_index);

    for block_size in [IndexConfig::default().block_size, 1 << 18] {
        let config = IndexConfig {
            block_size,
            ..IndexConfig::materialized_q8()
        };
        let path = temp_path("differential");
        InvertedIndex::build(&c, &config)
            .write_segment(&path)
            .unwrap();
        let seg_index = Arc::new(InvertedIndex::open_segment(&path).unwrap());
        assert_eq!(seg_index.config(), &config);

        // A pool holding roughly one block forces eviction on practically
        // every touch: blocks are dropped and re-read from the file all run.
        let tiny_pool = Arc::new(BufferManager::with_mode(
            DiskModel::instant(),
            BufferMode::Cold,
            4 << 10,
        ));
        let seg_exec = QueryExecutor::with_buffer_manager(seg_index, tiny_pool);

        for strategy in SearchStrategy::ALL {
            for q in c.eval_queries.iter().take(10) {
                let mem = mem_exec.search(&q.terms, strategy, 20).expect("mem search");
                let seg = seg_exec.search(&q.terms, strategy, 20).expect("seg search");
                assert_eq!(
                    seg.results, mem.results,
                    "strategy {strategy:?} diverged after reopen at block size {block_size}"
                );
            }
        }
        std::fs::remove_file(&path).unwrap();
    }
}

/// build → write(A) → open(A) → write(B) leaves `B == A` byte for byte: the
/// writer streams a reopened index's disk-backed metadata columns exactly
/// as it streams a built index's memory-backed ones.
#[test]
fn repersisting_a_reopened_index_is_the_identity() {
    let c = SyntheticCollection::generate(&CollectionConfig::tiny());
    let (a, b) = (temp_path("persist-a"), temp_path("persist-b"));
    for cfg in [
        IndexConfig::uncompressed(),
        IndexConfig::compressed(),
        IndexConfig::materialized_f32(),
        IndexConfig::materialized_q8(),
    ] {
        InvertedIndex::build(&c, &cfg).write_segment(&a).unwrap();
        let back = InvertedIndex::open_segment(&a).unwrap();
        back.write_segment(&b).unwrap();
        assert!(std::fs::read(&a).unwrap() == std::fs::read(&b).unwrap());
    }
    let ids: Vec<u32> = (0..c.docs.len() as u32).map(|d| d * 3 + 2).collect();
    InvertedIndex::build(&c, &IndexConfig::compressed())
        .write_partition_segment(&ids, &a)
        .unwrap();
    let (back, back_ids) = InvertedIndex::open_partition_segment(&a).unwrap();
    back.write_partition_segment(&back_ids, &b).unwrap();
    assert!(std::fs::read(&a).unwrap() == std::fs::read(&b).unwrap());
    std::fs::remove_file(&a).unwrap();
    std::fs::remove_file(&b).unwrap();
}

/// A read fault *after* a verified open — the file cut short underneath a
/// serving process — is a typed error from the query that needed the
/// missing block, never a panic, and the executor keeps answering queries
/// whose blocks are resident.
#[test]
fn read_fault_after_open_is_a_typed_error_not_a_panic() {
    let c = SyntheticCollection::generate(&CollectionConfig::tiny());
    // Small blocks, so different terms live in different blocks.
    let config = IndexConfig {
        block_size: 128,
        ..IndexConfig::materialized_q8()
    };
    let path = temp_path("read-fault");
    InvertedIndex::build(&c, &config)
        .write_segment(&path)
        .unwrap();
    let exec = QueryExecutor::new(Arc::new(InvertedIndex::open_segment(&path).unwrap()));
    let strategy = SearchStrategy::Bm25Materialized;
    let search = |terms: &[u32]| {
        let mut hits = Vec::new();
        exec.search_hits_into(terms, strategy, 20, &mut hits)
            .map(|_| hits)
    };
    let queries: Vec<&[u32]> = c.eval_queries.iter().map(|q| &q.terms[..]).collect();
    let resident = search(queries[0]).expect("query before the fault");

    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    file.set_len(64).unwrap();

    let mut faults = 0;
    for q in &queries[1..] {
        match search(q) {
            // Every block it needed was already in the (hot) pool.
            Ok(_) => {}
            Err(ExecError::Storage(StorageError::Io(std::io::ErrorKind::UnexpectedEof))) => {
                faults += 1;
            }
            Err(other) => panic!("read fault surfaced as {other:?}"),
        }
        assert_eq!(
            search(queries[0]).expect("resident query after a fault"),
            resident
        );
    }
    assert!(faults > 0, "no query needed a non-resident block");
    std::fs::remove_file(&path).unwrap();
}

// ---------------------------------------------------------------------------
// Corruption injection helpers
// ---------------------------------------------------------------------------

/// FNV-1a 64 — the segment format's checksum, reimplemented here so the
/// tests can *re-seal* deliberately corrupted files and prove the
/// structural validators (not just the checksums) reject them.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

fn put_u64(bytes: &mut [u8], at: usize, v: u64) {
    bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

/// Offset of the table of contents (from the header) and entry count.
fn toc_layout(file: &[u8]) -> (usize, usize) {
    let toc_offset = u64_at(file, 16) as usize;
    let count = u32::from_le_bytes(file[8..12].try_into().unwrap()) as usize;
    (toc_offset, count)
}

/// Re-seals the header checksum over bytes `[0..32)`.
fn reseal_header(file: &mut [u8]) {
    let sum = fnv(&file[0..32]);
    put_u64(file, 32, sum);
}

/// Re-seals the TOC trailer checksum over all entries.
fn reseal_toc(file: &mut [u8]) {
    let (toc_offset, count) = toc_layout(file);
    let sum = fnv(&file[toc_offset..toc_offset + count * 32]);
    put_u64(file, toc_offset + count * 32, sum);
}

/// Finds the TOC slot of a section by kind tag; returns the slot offset.
fn toc_slot(file: &[u8], kind: u32) -> usize {
    let (toc_offset, count) = toc_layout(file);
    (0..count)
        .map(|i| toc_offset + i * 32)
        .find(|&at| u32::from_le_bytes(file[at..at + 4].try_into().unwrap()) == kind)
        .unwrap_or_else(|| panic!("no section with kind {kind}"))
}

/// Recomputes a section's checksum from its (possibly patched) payload and
/// re-seals the TOC around it.
fn reseal_section(file: &mut [u8], kind: u32) {
    let slot = toc_slot(file, kind);
    let offset = u64_at(file, slot + 8) as usize;
    let len = u64_at(file, slot + 16) as usize;
    let sum = fnv(&file[offset..offset + len]);
    put_u64(file, slot + 24, sum);
    reseal_toc(file);
}

/// Opens patched bytes as a segment, expecting a typed error.
fn open_expecting_error(bytes: &[u8], what: &str) {
    let path = temp_path("inject");
    std::fs::write(&path, bytes).unwrap();
    let result = InvertedIndex::open_segment(&path);
    std::fs::remove_file(&path).unwrap();
    match result {
        Err(
            SegmentError::Corrupt(_)
            | SegmentError::Truncated
            | SegmentError::BadMagic(_)
            | SegmentError::BadVersion(_)
            | SegmentError::TooLarge(_),
        ) => {}
        // Not a rejection of the bytes: the file itself went missing.
        Err(SegmentError::Io(e)) => panic!("{what}: I/O error instead of a verdict: {e}"),
        Ok(_) => panic!("{what}: corrupt segment opened successfully"),
    }
}

fn pristine_segment(config: &IndexConfig) -> Vec<u8> {
    let index = small_index(config);
    let path = temp_path("pristine");
    index.write_segment(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    bytes
}

// ---------------------------------------------------------------------------
// Exhaustive injection suites
// ---------------------------------------------------------------------------

/// Every single byte of the file, XOR 0xFF: any substitution must fail
/// open — the checksums cover every payload byte, the padding bytes are
/// verified zero, and the checksum fields themselves then mismatch.
fn assert_every_flipped_byte_rejected(pristine: &[u8]) {
    assert!(
        pristine.len() < 64 << 10,
        "fixture segment unexpectedly large: {} bytes",
        pristine.len()
    );
    let mut bytes = pristine.to_vec();
    for i in 0..pristine.len() {
        bytes[i] ^= 0xFF;
        open_expecting_error(&bytes, &format!("byte {i} flipped"));
        bytes[i] = pristine[i];
    }
}

#[test]
fn every_flipped_byte_is_rejected() {
    assert_every_flipped_byte_rejected(&pristine_segment(&IndexConfig::materialized_q8()));
}

/// An index whose 128-posting blocks choose different PFOR widths: posting
/// lists run from every document (docid deltas of 1) to every 97th, and the
/// tf spread grows with the term id, so the Q8 score blocks differ too.
fn mixed_width_index() -> InvertedIndex {
    let config = IndexConfig {
        block_size: 128,
        ..IndexConfig::materialized_q8()
    };
    let steps = [1u32, 3, 7, 19, 53, 97];
    let vocab: Vec<String> = (0..steps.len()).map(|t| format!("term{t}")).collect();
    let mut b = IndexBuilder::new(vocab.len(), &config, SpillConfig::unbounded());
    for d in 0..300u32 {
        let terms: Vec<(u32, u32)> = (0u32..)
            .zip(steps)
            .filter(|&(_, step)| d % step == 0)
            .map(|(t, _)| (t, 1 + d % (1 << (2 * t))))
            .collect();
        let len = terms.iter().map(|&(_, tf)| tf).sum();
        b.push_doc(&format!("doc-{d:04}"), &terms, len).unwrap();
    }
    b.finish(&vocab).unwrap().0
}

/// The distinct code widths of a PFOR column's blocks.
fn block_widths(column: &Column) -> BTreeSet<u8> {
    (0..column.block_count())
        .map(|i| match &*column.block(i) {
            CompressedBlock::Pfor(b) => b.width(),
            CompressedBlock::PforDelta(b) => b.width(),
            other => panic!("not a PFOR block: {other:?}"),
        })
        .collect()
}

/// A segment whose `docid` and `score` blocks chose at least three code
/// widths each reopens bit-identically, block for block, and still rejects
/// every flipped byte.
#[test]
fn per_block_widths_reopen_bit_identically() {
    let index = mixed_width_index();
    for name in ["docid", "score"] {
        let widths = block_widths(index.td().column(name).unwrap());
        assert!(widths.len() >= 3, "{name} blocks chose only {widths:?}");
    }
    let path = temp_path("mixed-widths");
    index.write_segment(&path).unwrap();
    let back = InvertedIndex::open_segment(&path).unwrap();
    for name in ["docid", "tf", "score"] {
        let (built, opened) = (
            index.td().column(name).unwrap(),
            back.td().column(name).unwrap(),
        );
        assert_eq!(opened.block_count(), built.block_count(), "{name}");
        for i in 0..built.block_count() {
            assert_eq!(opened.block(i), built.block(i), "{name} block {i}");
        }
    }
    let pristine = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_every_flipped_byte_rejected(&pristine);
}

/// A segment written before blocks chose their own widths declares `b = 8`
/// in its posting columns' headers, and every block was sealed at `b = 8`.
/// It must still open, and serve every strategy exactly like the index it
/// was written from.
#[test]
fn fixed_width_8_segment_still_opens_and_serves() {
    let index = mixed_width_index();
    let (new_path, old_path) = (temp_path("per-block"), temp_path("fixed-8"));
    index.write_segment(&new_path).unwrap();
    let r = SegmentReader::open(&new_path).unwrap();
    let mut w = SegmentWriter::create(&old_path).unwrap();
    for kind in [
        SectionKind::Meta,
        SectionKind::TermsFences,
        SectionKind::Terms,
        SectionKind::NamesDir,
        SectionKind::DocNames,
        SectionKind::DocLens,
        SectionKind::DocFreqs,
        SectionKind::Offsets,
    ] {
        w.write_section(kind, &r.read_section(kind).unwrap())
            .unwrap();
    }
    for (kind, name, codec) in [
        (
            SectionKind::ColDocid,
            "docid",
            Codec::PforDelta { width: 8 },
        ),
        (SectionKind::ColTf, "tf", Codec::Pfor { width: 8 }),
        (SectionKind::ColScore, "score", Codec::Pfor { width: 8 }),
    ] {
        let column = index.td().column(name).unwrap();
        let mut b = ColumnBuilder::with_block_size(name, codec, column.block_size());
        b.extend(&column.read_all());
        w.write_column_section(kind, &b.finish()).unwrap();
    }
    w.finish().unwrap();

    let old = InvertedIndex::open_segment(&old_path).expect("fixed-width segment must open");
    for name in ["docid", "tf", "score"] {
        let column = old.td().column(name).unwrap();
        assert_eq!(block_widths(column), BTreeSet::from([8]), "{name}");
        assert_eq!(
            column.read_all(),
            index.td().column(name).unwrap().read_all(),
            "{name}"
        );
    }
    let fresh = |index| {
        QueryExecutor::with_buffering(Arc::new(index), DiskModel::instant(), BufferMode::Hot, 0)
    };
    let (old_exec, mem_exec) = (fresh(old), fresh(index));
    let queries: [&[u32]; 5] = [&[0, 1, 2], &[3, 5], &[2], &[0, 5], &[1, 3, 4]];
    for strategy in SearchStrategy::ALL {
        for q in queries {
            let mem = mem_exec.search(q, strategy, 10).expect("mem search");
            let old = old_exec.search(q, strategy, 10).expect("old search");
            assert_eq!(old.results, mem.results, "{strategy:?} on {q:?}");
        }
    }
    std::fs::remove_file(&new_path).unwrap();
    std::fs::remove_file(&old_path).unwrap();
}

/// Every truncation length from the empty file up to one byte short: the
/// open must fail (typically `Truncated`), never panic or read past EOF.
#[test]
fn every_truncation_length_is_rejected() {
    let pristine = pristine_segment(&IndexConfig::compressed());
    for len in 0..pristine.len() {
        open_expecting_error(&pristine[..len], &format!("truncated to {len} bytes"));
    }
}

/// Oversized and inconsistent *declared* sizes, each with every checksum
/// re-sealed so the structural validators are what must reject them —
/// and each crafted so a validator that trusted the declared size would
/// attempt an absurd allocation or out-of-bounds read.
#[test]
fn resealed_oversized_declarations_are_rejected() {
    const META: u32 = 1;
    const TERMS: u32 = 2;
    const COL_DOCID: u32 = 7;
    let pristine = pristine_segment(&IndexConfig::materialized_q8());

    // Declared file length far beyond the real file.
    let mut b = pristine.clone();
    put_u64(&mut b, 24, u64::MAX / 2);
    reseal_header(&mut b);
    open_expecting_error(&b, "oversized declared file length");

    // A TOC entry claiming a section of nearly 2^63 bytes.
    let mut b = pristine.clone();
    let slot = toc_slot(&b, TERMS);
    put_u64(&mut b, slot + 16, u64::MAX / 2);
    reseal_toc(&mut b);
    open_expecting_error(&b, "oversized declared section length");

    // META claiming ~2^61 documents: every doc-indexed section is now
    // "too short"; a reader that pre-allocated would die here.
    let mut b = pristine.clone();
    let meta_slot = toc_slot(&b, META);
    let meta_off = u64_at(&b, meta_slot + 8) as usize;
    put_u64(&mut b, meta_off + 40, u64::MAX / 8);
    reseal_section(&mut b, META);
    open_expecting_error(&b, "oversized declared document count");

    // META claiming ~2^61 terms.
    let mut b = pristine.clone();
    put_u64(&mut b, meta_off + 32, u64::MAX / 8);
    reseal_section(&mut b, META);
    open_expecting_error(&b, "oversized declared term count");

    // The Terms column header claiming ~2^60 values: the page count no
    // longer matches the fence directory.
    let mut b = pristine.clone();
    let terms_slot = toc_slot(&b, TERMS);
    let terms_off = u64_at(&b, terms_slot + 8) as usize;
    put_u64(&mut b, terms_off + 16, u64::MAX / 16);
    reseal_section(&mut b, TERMS);
    open_expecting_error(&b, "oversized terms page count");

    // Posting column claiming ~2^60 blocks (header field block_count).
    let mut b = pristine.clone();
    let col_slot = toc_slot(&b, COL_DOCID);
    let col_off = u64_at(&b, col_slot + 8) as usize;
    put_u64(&mut b, col_off + 24, u64::MAX / 16);
    reseal_section(&mut b, COL_DOCID);
    open_expecting_error(&b, "oversized declared block count");

    // Posting column claiming ~2^60 values with the real block directory.
    let mut b = pristine.clone();
    put_u64(&mut b, col_off + 16, u64::MAX / 16);
    reseal_section(&mut b, COL_DOCID);
    open_expecting_error(&b, "oversized declared value count");

    // A block-directory entry pushed past the section payload: the
    // prefix-sum directory must stay monotone and end exactly at the
    // payload's end.
    let mut b = pristine.clone();
    put_u64(&mut b, col_off + 32 + 8, u64::MAX / 4);
    reseal_section(&mut b, COL_DOCID);
    open_expecting_error(&b, "oversized block-directory entry");

    // Sanity: the pristine bytes still open after all that cloning.
    let path = temp_path("still-good");
    std::fs::write(&path, &pristine).unwrap();
    InvertedIndex::open_segment(&path).expect("pristine segment must open");
    std::fs::remove_file(&path).unwrap();
}

/// Structural damage to the new resident directories — the vocabulary
/// fence keys and the document-name page table — with every checksum
/// re-sealed, so the directory validators themselves must reject it.
#[test]
fn resealed_fence_and_directory_damage_is_rejected() {
    const TERMS_FENCES: u32 = 11;
    const NAMES_DIR: u32 = 12;
    let pristine = pristine_segment(&IndexConfig::materialized_q8());

    let fences_slot = toc_slot(&pristine, TERMS_FENCES);
    let fences_off = u64_at(&pristine, fences_slot + 8) as usize;
    // Fence page count inflated: disagrees with the terms column.
    let mut b = pristine.clone();
    b[fences_off + 8..fences_off + 12].copy_from_slice(&u32::MAX.to_le_bytes());
    reseal_section(&mut b, TERMS_FENCES);
    open_expecting_error(&b, "oversized fence page count");

    // First page's record count zeroed: fence counts no longer sum to the
    // declared term count (and empty pages are illegal).
    let mut b = pristine.clone();
    b[fences_off + 12..fences_off + 16].copy_from_slice(&0u32.to_le_bytes());
    reseal_section(&mut b, TERMS_FENCES);
    open_expecting_error(&b, "zeroed fence record count");

    // First fence key's length pushed past the section payload.
    let mut b = pristine.clone();
    b[fences_off + 16..fences_off + 20].copy_from_slice(&u32::MAX.to_le_bytes());
    reseal_section(&mut b, TERMS_FENCES);
    open_expecting_error(&b, "oversized fence key length");

    let dir_slot = toc_slot(&pristine, NAMES_DIR);
    let dir_off = u64_at(&pristine, dir_slot + 8) as usize;
    // Name-page count inflated: disagrees with the names column.
    let mut b = pristine.clone();
    b[dir_off + 8..dir_off + 12].copy_from_slice(&u32::MAX.to_le_bytes());
    reseal_section(&mut b, NAMES_DIR);
    open_expecting_error(&b, "oversized names page count");

    // First start moved off zero: the directory must start at docid 0.
    let mut b = pristine.clone();
    b[dir_off + 12..dir_off + 16].copy_from_slice(&7u32.to_le_bytes());
    reseal_section(&mut b, NAMES_DIR);
    open_expecting_error(&b, "names directory not starting at zero");

    // Final start (== num_docs) inflated: disagrees with META.
    let mut b = pristine.clone();
    let dir_len = u64_at(&pristine, dir_slot + 16) as usize;
    b[dir_off + dir_len - 4..dir_off + dir_len].copy_from_slice(&u32::MAX.to_le_bytes());
    reseal_section(&mut b, NAMES_DIR);
    open_expecting_error(&b, "names directory document count");
}

/// A segment written before the `BlockMax` section was retired carries it
/// as kind 13. Such a file must still open, and serve every strategy
/// exactly like the same segment without it: same results, same blocks
/// admitted to a fresh pool, so no query ever reads the section.
#[test]
fn retired_blockmax_section_is_accepted_and_ignored() {
    let index = small_index(&IndexConfig::materialized_q8());
    let (new_path, old_path) = (temp_path("no-blockmax"), temp_path("old-blockmax"));
    index.write_segment(&new_path).unwrap();
    let r = SegmentReader::open(&new_path).unwrap();
    assert!(
        !r.has_section(SectionKind::BlockMax),
        "the writer emits no kind 13"
    );

    // The parent's shape: every section in writer order, then kind 13 as a
    // raw metadata column of four slots per 128-posting stride.
    let mut w = SegmentWriter::create(&old_path).unwrap();
    for kind in [
        SectionKind::Meta,
        SectionKind::TermsFences,
        SectionKind::Terms,
        SectionKind::NamesDir,
        SectionKind::DocNames,
        SectionKind::DocLens,
        SectionKind::DocFreqs,
        SectionKind::Offsets,
        SectionKind::ColDocid,
        SectionKind::ColTf,
        SectionKind::ColScore,
    ] {
        w.write_section(kind, &r.read_section(kind).unwrap())
            .unwrap();
    }
    let mut bm = ColumnBuilder::with_block_size("blockmax", Codec::Raw, 1024);
    bm.extend(&vec![7; index.num_postings().div_ceil(128) * 4]);
    w.write_column_section(SectionKind::BlockMax, &bm.finish())
        .unwrap();
    w.finish().unwrap();
    assert!(SegmentReader::open(&old_path)
        .unwrap()
        .has_section(SectionKind::BlockMax));

    let fresh = |index| {
        QueryExecutor::with_buffering(Arc::new(index), DiskModel::instant(), BufferMode::Hot, 0)
    };
    let open = |path| InvertedIndex::open_segment(path).expect("segment must open");
    let (new_exec, old_exec) = (fresh(open(&new_path)), fresh(open(&old_path)));
    let mem_exec = fresh(index);
    let queries: [&[u32]; 5] = [&[0, 1, 2], &[3, 5, 8, 13], &[2], &[0, 23], &[7, 9, 11, 20]];
    for strategy in SearchStrategy::ALL {
        for q in queries {
            let mem = mem_exec.search(q, strategy, 10).expect("mem search");
            let new = new_exec.search(q, strategy, 10).expect("new search");
            let old = old_exec.search(q, strategy, 10).expect("old search");
            assert_eq!(new.results, mem.results, "{strategy:?} on {q:?}");
            assert_eq!(old.results, mem.results, "{strategy:?} on {q:?}");
            assert_eq!(old.io, new.io, "admissions of {strategy:?} on {q:?}");
        }
    }
    assert_eq!(
        old_exec.buffers().resident_blocks(),
        new_exec.buffers().resident_blocks()
    );
    std::fs::remove_file(&new_path).unwrap();
    std::fs::remove_file(&old_path).unwrap();
}

/// A posting list stored out of docid order — here a Raw docid block with
/// its first two values swapped, re-sealed so the segment still opens —
/// must not panic any strategy, in debug builds either: the ranked union's
/// next window then starts below the length stride the last one staged.
#[test]
fn non_ascending_posting_list_does_not_panic_the_ranked_union() {
    const COL_DOCID: u32 = 7;
    let vocab = vec!["a".to_owned(), "b".to_owned()];
    for config in [
        IndexConfig::uncompressed(),
        IndexConfig {
            compress: false,
            ..IndexConfig::materialized_f32()
        },
    ] {
        // `a` (tf 2) only in docs 5 and 300, `b` (tf 1) in every doc: the
        // docid column starts with `a`'s list, [5, 300].
        let mut b = IndexBuilder::new(vocab.len(), &config, SpillConfig::unbounded());
        for d in 0..400u32 {
            let terms: &[(u32, u32)] = if d == 5 || d == 300 {
                &[(0, 2), (1, 1)]
            } else {
                &[(1, 1)]
            };
            let len = terms.iter().map(|&(_, tf)| tf).sum();
            b.push_doc(&format!("doc-{d:04}"), terms, len).unwrap();
        }
        let path = temp_path("non-ascending");
        b.finish(&vocab).unwrap().0.write_segment(&path).unwrap();

        let mut bytes = std::fs::read(&path).unwrap();
        let col_off = u64_at(&bytes, toc_slot(&bytes, COL_DOCID) + 8) as usize;
        let blocks = u64_at(&bytes, col_off + 24) as usize;
        // The first block image: magic u32, codec tag u8 (Raw = 0), count
        // u32, values.
        let first = col_off + 32 + (blocks + 1) * 8;
        assert_eq!(bytes[first + 4], 0, "docid column is Raw");
        let values = first + 9;
        let list = [5u32.to_le_bytes(), 300u32.to_le_bytes()].concat();
        assert_eq!(bytes[values..values + 8], list[..]);
        bytes[values..values + 8].rotate_left(4);
        reseal_section(&mut bytes, COL_DOCID);
        std::fs::write(&path, &bytes).unwrap();
        let index = InvertedIndex::open_segment(&path).expect("re-sealed segment opens");
        std::fs::remove_file(&path).unwrap();

        let exec = QueryExecutor::new(Arc::new(index));
        let (mut hits, mut planned) = (Vec::new(), 0);
        for strategy in SearchStrategy::ALL {
            for q in [&[0][..], &[0, 1], &[1, 0]] {
                // A strategy the index cannot plan (materialized scores
                // over an index without them) is a typed error.
                if exec.search_hits_into(q, strategy, 10, &mut hits).is_err() || q != [0] {
                    continue;
                }
                planned += 1;
                let docs: Vec<u32> = hits.iter().map(|h| h.0).collect();
                assert_eq!(docs, [300, 5], "{strategy:?} on {config:?}");
                assert_eq!(hits[0].1.to_bits(), hits[1].1.to_bits(), "{strategy:?}");
            }
        }
        // The boolean pair and every computed-BM25 strategy plan on both.
        assert!(planned >= 5, "only {planned} strategies planned");
    }
}

// ---------------------------------------------------------------------------
// Crash-safe persist
// ---------------------------------------------------------------------------

/// Helper process body for the kill test below: rewrites one segment in a
/// tight loop until killed. Runs only when spawned with the env var set.
#[test]
#[ignore = "helper: spawned by interrupted_writer_never_leaves_a_partial_target"]
fn kill_child_writer_loop() {
    let Ok(dir) = std::env::var("X100_SEG_KILL_DIR") else {
        return;
    };
    let index = small_index(&IndexConfig::compressed());
    let target = std::path::Path::new(&dir).join("victim.x1sg");
    loop {
        index.write_segment(&target).unwrap();
    }
}

/// Kill a process mid-persist: because the writer streams into a temp file
/// and renames atomically after fsync, the target path must afterwards be
/// either absent or a complete segment that opens cleanly — never a
/// plausible-looking partial file.
#[test]
fn interrupted_writer_never_leaves_a_partial_target() {
    use std::process::{Command, Stdio};
    let dir = temp_path("kill-dir");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let exe = std::env::current_exe().unwrap();
    let mut child = Command::new(&exe)
        .args(["kill_child_writer_loop", "--ignored", "--exact"])
        .env("X100_SEG_KILL_DIR", &dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn writer child");
    // Wait until the child is actually persisting (any file appears in the
    // scratch dir), then kill it at an arbitrary point of its write loop.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let busy = std::fs::read_dir(&dir).unwrap().next().is_some();
        if busy {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "writer child never started persisting"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    child.kill().expect("kill writer child");
    child.wait().expect("reap writer child");
    let target = dir.join("victim.x1sg");
    if target.exists() {
        InvertedIndex::open_segment(&target)
            .expect("a target path left by an interrupted persist must be a complete segment");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
