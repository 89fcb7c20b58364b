//! Segment persistence under fire: restart differentials across every
//! search strategy, plus exhaustive corruption injection — every byte
//! flipped, every truncation length, and oversized declared sizes with
//! re-sealed checksums (so the structural validators, not the checksums,
//! are what must catch them). A corrupt segment must always fail open
//! with a typed [`SegmentError`]: never a panic, never an unbounded
//! allocation.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use x100_compress::{Codec, CodecError, CompressedBlock};
use x100_corpus::{CollectionConfig, SyntheticCollection};
use x100_ir::{
    ExecError, IndexBuilder, IndexConfig, InvertedIndex, QueryEngine, QueryExecutor,
    SearchStrategy, SegmentError, SpillConfig,
};
use x100_storage::{
    fnv1a64, BufferManager, BufferMode, Column, ColumnBuilder, DiskModel, SectionKind,
    SegmentReader, SegmentWriter, StorageError,
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
    let sum = fnv1a64(&file[0..32]);
    put_u64(file, 32, sum);
}

/// Re-seals the TOC trailer checksum over all entries.
fn reseal_toc(file: &mut [u8]) {
    let (toc_offset, count) = toc_layout(file);
    let sum = fnv1a64(&file[toc_offset..toc_offset + count * 32]);
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
    let sum = fnv1a64(&file[offset..offset + len]);
    put_u64(file, slot + 24, sum);
    reseal_toc(file);
}

/// Writes `dst` from the segment at `src`: its sections byte for byte, in
/// writer order, except those a `columns` entry replaces; then `columns`.
fn rewrite(src: &Path, dst: &Path, columns: &[(SectionKind, Column)]) {
    let r = SegmentReader::open(src).unwrap();
    let mut w = SegmentWriter::create(dst).unwrap();
    for kind in [
        SectionKind::Meta,
        SectionKind::Terms,
        SectionKind::DocNames,
        SectionKind::DocLens,
        SectionKind::Offsets,
        SectionKind::ColDocid,
        SectionKind::ColTf,
        SectionKind::ColScore,
        SectionKind::GlobalIds,
    ] {
        if r.has_section(kind) && columns.iter().all(|(k, _)| *k != kind) {
            w.write_section(kind, &r.read_section(kind).unwrap())
                .unwrap();
        }
    }
    for (kind, column) in columns {
        w.write_column_section(*kind, column).unwrap();
    }
    w.finish().unwrap();
}

/// `values` as a column of 1 Ki-value blocks, the metadata page size.
fn paged(codec: Codec, values: &[u32]) -> Column {
    let mut b = ColumnBuilder::with_block_size("pages", codec, 1024);
    b.extend(values);
    b.finish()
}

/// The offsets column of the segment at `path`.
fn offsets_of(path: &Path) -> Vec<u32> {
    let r = SegmentReader::open(path).unwrap();
    r.open_column(SectionKind::Offsets, "offsets")
        .unwrap()
        .read_all()
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
    let fixed_8 = [
        (
            SectionKind::ColDocid,
            "docid",
            Codec::PforDelta { width: 8 },
        ),
        (SectionKind::ColTf, "tf", Codec::Pfor { width: 8 }),
        (SectionKind::ColScore, "score", Codec::Pfor { width: 8 }),
    ]
    .map(|(kind, name, codec)| {
        let column = index.td().column(name).unwrap();
        let mut b = ColumnBuilder::with_block_size(name, codec, column.block_size());
        b.extend(&column.read_all());
        (kind, b.finish())
    });
    rewrite(&new_path, &old_path, &fixed_8);

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

    // The Terms column header claiming ~2^60 values: the block count no
    // longer matches the value count.
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

/// Term offsets must ascend, or a term's range reads wrong: term `t` as
/// empty in the descending mutant, term `t + 1` as other terms' postings
/// in the overlapping one. The open checks it in the pass that already
/// reads every offsets page. Each mutant keeps `offsets[0] == 0` and the
/// last offset at the posting count, every checksum re-sealed.
#[test]
fn resealed_offsets_that_do_not_ascend_are_rejected() {
    let index = small_index(&IndexConfig::materialized_q8());
    let plain = temp_path("plain");
    index.write_segment(&plain).unwrap();
    let offsets = offsets_of(&plain);
    // A term with postings whose neighbours have postings too.
    let t = (1..offsets.len() - 2)
        .find(|&t| (t - 1..t + 2).all(|u| offsets[u] < offsets[u + 1]))
        .expect("three consecutive terms with postings");
    let mut descending = offsets.clone();
    descending.swap(t, t + 1);
    let mut overlapping = offsets.clone();
    overlapping[t + 1] = offsets[t - 1];
    for (what, mutant) in [("descending", descending), ("overlapping", overlapping)] {
        let path = temp_path(what);
        rewrite(
            &plain,
            &path,
            &[(SectionKind::Offsets, paged(Codec::Raw, &mutant))],
        );
        assert_eq!(
            InvertedIndex::open_segment(&path).err(),
            Some(SegmentError::Corrupt("offsets do not ascend")),
            "{what} pair at term {t}"
        );
        std::fs::remove_file(&path).unwrap();
    }
    std::fs::remove_file(&plain).unwrap();
}

/// Kinds 11 to 13 are reserved: version-3 segments stored the vocabulary's
/// fence keys (11) and the name pages' directory (12), which a reader now
/// derives from the pages, and version-2 segments the retired per-stride
/// score bounds (13). No version-4 writer emits them. A version-4 file
/// carrying one — here an extra column section relabelled, every checksum
/// re-sealed — is an unknown section kind, a typed `Corrupt`.
#[test]
fn reserved_section_kind_13_is_rejected() {
    const GLOBAL_IDS: u32 = 10;
    let index = small_index(&IndexConfig::materialized_q8());
    let (plain, extra) = (temp_path("plain"), temp_path("reserved-kind"));
    index.write_segment(&plain).unwrap();

    // Every section of the plain segment, then one more raw column (four
    // slots per 128-posting stride, as kind 13 held) under a kind the
    // plain segment lacks, so the file opens before the relabel.
    let bounds = paged(Codec::Raw, &vec![7; index.num_postings().div_ceil(128) * 4]);
    rewrite(&plain, &extra, &[(SectionKind::GlobalIds, bounds)]);
    SegmentReader::open(&extra).expect("the unrelabelled file opens");
    let unrelabelled = std::fs::read(&extra).unwrap();

    for kind in [11u32, 12, 13] {
        let mut bytes = unrelabelled.clone();
        let slot = toc_slot(&bytes, GLOBAL_IDS);
        bytes[slot..slot + 4].copy_from_slice(&kind.to_le_bytes());
        reseal_toc(&mut bytes);
        std::fs::write(&extra, &bytes).unwrap();
        assert_eq!(
            SegmentReader::open(&extra).err(),
            Some(SegmentError::Corrupt("unknown section kind")),
            "kind {kind}"
        );
        assert_eq!(
            InvertedIndex::open_segment(&extra).err(),
            Some(SegmentError::Corrupt("unknown section kind")),
            "kind {kind}"
        );
    }
    std::fs::remove_file(&plain).unwrap();
    std::fs::remove_file(&extra).unwrap();
}

/// A segment written before document frequencies were derived carries a
/// `DocFreqs` column of Raw pages, one count per term. Such a file — a new
/// segment's sections plus that column, made from offset differences —
/// must open and serve every strategy exactly like the index it came from.
#[test]
fn segment_with_a_doc_freqs_section_still_opens_and_serves() {
    let c = SyntheticCollection::generate(&CollectionConfig::tiny());
    let index = InvertedIndex::build(&c, &IndexConfig::materialized_q8());
    let (new_path, old_path) = (temp_path("no-doc-freqs"), temp_path("doc-freqs"));
    index.write_segment(&new_path).unwrap();
    let offsets = offsets_of(&new_path);
    let doc_freqs: Vec<u32> = offsets.windows(2).map(|w| w[1] - w[0]).collect();
    let doc_freqs = paged(Codec::Raw, &doc_freqs);
    rewrite(&new_path, &old_path, &[(SectionKind::DocFreqs, doc_freqs)]);

    let old = InvertedIndex::open_segment(&old_path).expect("a DocFreqs segment must open");
    let fresh = |index| {
        QueryExecutor::with_buffering(Arc::new(index), DiskModel::instant(), BufferMode::Hot, 0)
    };
    let (old_exec, mem_exec) = (fresh(old), fresh(index));
    for strategy in SearchStrategy::ALL {
        for q in &c.eval_queries {
            let mem = mem_exec.search(&q.terms, strategy, 20).expect("mem search");
            let old = old_exec.search(&q.terms, strategy, 20).expect("old search");
            assert_eq!(old.results, mem.results, "{strategy:?} on {:?}", q.terms);
        }
    }
    std::fs::remove_file(&new_path).unwrap();
    std::fs::remove_file(&old_path).unwrap();
}

/// Metadata lookups view a page's values in place, so every block of a
/// metadata column must be Raw. A column section's header declares one
/// codec, but each block image carries its own: here the offsets are
/// written as PFOR pages and their header relabelled Raw, every checksum
/// re-sealed. The open must reject the file, never serve it and panic.
#[test]
fn metadata_section_labelled_raw_must_hold_raw_pages() {
    const OFFSETS: u32 = 6;
    let index = small_index(&IndexConfig::materialized_q8());
    let (plain, relabelled) = (temp_path("plain"), temp_path("pfor-offsets"));
    index.write_segment(&plain).unwrap();
    let pfor = paged(Codec::Pfor { width: 0 }, &offsets_of(&plain));
    rewrite(&plain, &relabelled, &[(SectionKind::Offsets, pfor)]);
    assert_eq!(
        InvertedIndex::open_segment(&relabelled).err(),
        Some(SegmentError::Corrupt("metadata column must be raw"))
    );

    // Codec tag and width, the column header's first two fields: Raw.
    let mut bytes = std::fs::read(&relabelled).unwrap();
    let slot = toc_slot(&bytes, OFFSETS);
    let at = u64_at(&bytes, slot + 8) as usize;
    bytes[at..at + 8].fill(0);
    reseal_section(&mut bytes, OFFSETS);
    std::fs::write(&relabelled, &bytes).unwrap();
    SegmentReader::open(&relabelled).expect("the storage layer checks only the header");
    assert_eq!(
        InvertedIndex::open_segment(&relabelled).err(),
        Some(SegmentError::Corrupt("metadata page is not a raw page"))
    );
    std::fs::remove_file(&plain).unwrap();
    std::fs::remove_file(&relabelled).unwrap();
}

/// The byte offset, in a segment file, of the values of the first block
/// of the column section `kind` — a Raw block, whose values are its codes.
fn first_raw_block_values(bytes: &[u8], kind: u32) -> usize {
    let col_off = u64_at(bytes, toc_slot(bytes, kind) + 8) as usize;
    let blocks = u64_at(bytes, col_off + 24) as usize;
    let first = col_off + 32 + (blocks + 1) * 8;
    let first_len = u64_at(bytes, col_off + 40) as usize;
    let block = CompressedBlock::from_bytes(&bytes[first..first + first_len]).unwrap();
    assert!(
        matches!(block, CompressedBlock::Raw(_)),
        "section {kind} starts with a Raw block"
    );
    first + block.sections().codes.start
}

/// Record pages are checked at open, every page of both record columns,
/// by the scan that derives their directories. Each mutant below damages
/// the first vocabulary or name page, every checksum re-sealed, and must
/// fail the open with the fault named: a lookup on that page would
/// otherwise return an error, or, for the swapped terms, miss a term the
/// page holds.
#[test]
fn resealed_record_page_damage_is_rejected_at_open() {
    const TERMS: u32 = 2;
    const DOC_NAMES: u32 = 3;
    let pristine = pristine_segment(&IndexConfig::materialized_q8());
    let word = |bytes: &[u8], at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    type Patch = fn(&mut [u8], usize, u32);
    let cases: [(u32, Patch, &str); 6] = [
        // The first term's end offset past the page.
        (
            TERMS,
            |b, page, _| b[page + 4..page + 8].copy_from_slice(&u32::MAX.to_le_bytes()),
            "record page offsets out of order or past the page",
        ),
        // The second term's end offset below the first's.
        (
            TERMS,
            |b, page, _| b[page + 8..page + 12].copy_from_slice(&0u32.to_le_bytes()),
            "record page offsets out of order or past the page",
        ),
        // An empty page.
        (
            TERMS,
            |b, page, _| b[page..page + 4].fill(0),
            "record page count out of range",
        ),
        // Two adjacent terms of one length, past the first, swapped:
        // the page's binary search relies on ascending terms.
        (
            TERMS,
            swap_equal_length_records,
            "vocabulary terms not strictly ascending",
        ),
        // The first name's first byte is not UTF-8.
        (
            DOC_NAMES,
            |b, page, n| b[page + 4 * (1 + n as usize)] = 0xFF,
            "record is not UTF-8",
        ),
        // One record fewer than the document count declares.
        (
            DOC_NAMES,
            |b, page, n| b[page..page + 4].copy_from_slice(&(n - 1).to_le_bytes()),
            "record pages disagree with the declared count",
        ),
    ];
    for (kind, patch, expect) in cases {
        let mut bytes = pristine.clone();
        let page = first_raw_block_values(&bytes, kind);
        let count = word(&bytes, page);
        patch(&mut bytes, page, count);
        reseal_section(&mut bytes, kind);
        let path = temp_path("record-page");
        std::fs::write(&path, &bytes).unwrap();
        let result = InvertedIndex::open_segment(&path);
        std::fs::remove_file(&path).unwrap();
        assert_eq!(
            result.err(),
            Some(SegmentError::Corrupt(expect)),
            "{expect}"
        );
    }
}

/// Swaps the first two adjacent records of equal length after record 0
/// in the record page whose values start at `page` and hold `n` records.
fn swap_equal_length_records(b: &mut [u8], page: usize, n: u32) {
    let end = |i: usize| u32::from_le_bytes(b[page + 4 * (1 + i)..][..4].try_into().unwrap());
    let data = page + 4 * (1 + n as usize);
    let i = (1..n as usize - 1)
        .find(|&i| end(i) - end(i - 1) == end(i + 1) - end(i))
        .expect("two adjacent records of one length");
    let (start, mid, stop) = (end(i - 1) as usize, end(i) as usize, end(i + 1) as usize);
    b[data + start..data + stop].rotate_left(mid - start);
}

/// A posting list stored out of docid order — here a Raw docid block with
/// its first two values swapped, re-sealed so the segment still opens —
/// must not panic any strategy, in debug builds either: the ranked union's
/// next window then starts below the length stride the last one staged.
#[test]
fn non_ascending_posting_list_does_not_panic_the_ranked_union() {
    for config in [
        IndexConfig::uncompressed(),
        IndexConfig {
            compress: false,
            ..IndexConfig::materialized_f32()
        },
    ] {
        // `a`'s list stored as [300, 5].
        let index = reopened_with_a_list_patched(&config, |list| list.rotate_left(4));
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

/// A 400-doc, two-term index written as a segment with `patch` applied to
/// `a`'s posting list, re-sealed, then reopened. `a` (tf 2) is only in docs
/// 5 and 300, `b` (tf 1) in every doc, so the Raw docid column starts with
/// `a`'s list, [5, 300]: the 8 bytes `patch` gets.
fn reopened_with_a_list_patched(
    config: &IndexConfig,
    patch: impl FnOnce(&mut [u8]),
) -> InvertedIndex {
    const COL_DOCID: u32 = 7;
    let vocab = vec!["a".to_owned(), "b".to_owned()];
    let mut b = IndexBuilder::new(vocab.len(), config, SpillConfig::unbounded());
    for d in 0..400u32 {
        let terms: &[(u32, u32)] = if d == 5 || d == 300 {
            &[(0, 2), (1, 1)]
        } else {
            &[(1, 1)]
        };
        let len = terms.iter().map(|&(_, tf)| tf).sum();
        b.push_doc(&format!("doc-{d:04}"), terms, len).unwrap();
    }
    let path = temp_path("patched-list");
    b.finish(&vocab).unwrap().0.write_segment(&path).unwrap();

    let mut bytes = std::fs::read(&path).unwrap();
    let values = first_raw_block_values(&bytes, COL_DOCID);
    let list = [5u32.to_le_bytes(), 300u32.to_le_bytes()].concat();
    assert_eq!(bytes[values..values + 8], list[..]);
    patch(&mut bytes[values..values + 8]);
    reseal_section(&mut bytes, COL_DOCID);
    std::fs::write(&path, &bytes).unwrap();
    let index = InvertedIndex::open_segment(&path).expect("re-sealed segment opens");
    std::fs::remove_file(&path).unwrap();
    index
}

/// A posting whose docid is `num_docs` or more — here doc 300 of a Raw
/// docid block rewritten to 1 000 in a 400-doc index, re-sealed so the
/// segment opens — names no document. Every strategy must return the
/// column's typed out-of-bounds error, in debug builds as well. The
/// computed-BM25 strategies look its length up, in the union's length
/// strides and in the intersection's batch: the window refill used to
/// clamp to the column's end and index past what it staged. The boolean
/// and materialized strategies read no length: they used to emit it as a
/// hit, which a cluster node's global-id map then indexed past.
#[test]
fn docid_past_the_document_count_is_an_error_not_a_panic() {
    let materialized = IndexConfig {
        compress: false,
        ..IndexConfig::materialized_f32()
    };
    let mut checked = 0;
    for (config, wants_scores) in [(IndexConfig::uncompressed(), false), (materialized, true)] {
        let index = reopened_with_a_list_patched(&config, |list| {
            list[4..].copy_from_slice(&1000u32.to_le_bytes())
        });
        let exec = QueryExecutor::new(Arc::new(index));
        let mut hits = Vec::new();
        let strategies = SearchStrategy::ALL
            .into_iter()
            .filter(|s| s.needs_materialized() == wants_scores);
        for strategy in strategies {
            // The boolean strategies emit docids in order, so with `b`
            // (every doc below 400) only `a` alone reaches doc 1 000.
            let queries: &[&[u32]] =
                if matches!(strategy, SearchStrategy::BoolAnd | SearchStrategy::BoolOr) {
                    &[&[0]]
                } else {
                    &[&[0], &[0, 1], &[1, 0]]
                };
            for q in queries {
                let err = exec.search_hits_into(q, strategy, 10, &mut hits).err();
                assert!(
                    matches!(
                        err,
                        Some(ExecError::Storage(StorageError::OutOfBounds {
                            position: 400..,
                            len: 400
                        }))
                    ),
                    "{strategy:?} on {q:?}: {err:?}"
                );
                checked += 1;
            }
        }
    }
    assert_eq!(
        checked, 20,
        "two boolean queries, six ranked strategies with three queries each"
    );
}

/// A page rewritten on disk after a successful open — inside its body (the
/// record count) or over its block header (the image magic) — is a typed
/// error from the lookup that reads it: the open checked the pages once,
/// and every later read goes through the same typed page parser.
#[test]
fn record_page_rewritten_after_open_is_a_typed_error() {
    const TERMS: u32 = 2;
    const DOC_NAMES: u32 = 3;
    let pristine = pristine_segment(&IndexConfig::compressed());
    let mut probes = 0;
    for kind in [TERMS, DOC_NAMES] {
        let values = first_raw_block_values(&pristine, kind);
        let col_off = u64_at(&pristine, toc_slot(&pristine, kind) + 8) as usize;
        let header = col_off + 32 + (u64_at(&pristine, col_off + 24) as usize + 1) * 8;
        for (at, what) in [(values, "record count"), (header, "block magic")] {
            let path = temp_path("rewritten-page");
            std::fs::write(&path, &pristine).unwrap();
            let index = InvertedIndex::open_segment(&path).unwrap();
            assert_eq!(index.term_id("term3"), Ok(Some(3)));
            assert_eq!(index.doc_name(3), Ok(Some("doc-0003".to_owned())));
            let mut bytes = pristine.clone();
            bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            let result = match kind {
                TERMS => index.term_id("term3").map(|_| ()),
                _ => index.doc_name(3).map(|_| ()),
            };
            assert!(result.is_err(), "section {kind}, {what}: {result:?}");
            if at == values {
                assert_eq!(
                    result,
                    Err(StorageError::Codec(CodecError::Corrupt(
                        "record page count out of range"
                    )))
                );
            }
            std::fs::remove_file(&path).unwrap();
            probes += 1;
        }
    }
    assert_eq!(probes, 4);
}

/// xorshift64*: the word-mutant property's fixed-seed generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Opens `bytes` as a segment and, if it opens, serves it every way a
/// caller can: every strategy through the fused executor and through the
/// relational engine, and the vocabulary and name lookups. Each step may
/// return a value or a typed error; a panic escapes to the caller.
fn open_and_serve(path: &Path, bytes: &[u8]) -> bool {
    std::fs::write(path, bytes).unwrap();
    let Ok(index) = InvertedIndex::open_segment(path) else {
        return false;
    };
    let index = Arc::new(index);
    let exec = QueryExecutor::new(Arc::clone(&index));
    let engine = QueryEngine::new(&index);
    let queries: [&[u32]; 4] = [&[0], &[1, 2, 3], &[5, 0, 9], &[23, 7]];
    for strategy in SearchStrategy::ALL {
        for q in queries {
            let _ = exec.search(q, strategy, 10);
            let _ = engine.search(q, strategy, 10);
        }
    }
    for t in 0..24 {
        let _ = index.term_id(&format!("term{t}"));
    }
    let _ = index.term_id("absent");
    for d in 0..=40 {
        let _ = index.doc_name(d);
    }
    true
}

/// Generated segment mutants: one `u32` word of one section replaced, the
/// section and TOC checksums re-sealed, so the open's structural checks —
/// not the checksums — meet every mutant. Spread over every section of the
/// four index configurations at a fixed seed, each mutant must fail the
/// open with a typed `SegmentError` or open and serve (see
/// [`open_and_serve`]) without a panic.
#[test]
fn resealed_word_mutants_fail_typed_or_serve_without_a_panic() {
    const PER_SECTION: usize = 40;
    let mut rng = Rng(0x5EED_5E67_4E27_0001);
    let path = temp_path("word-mutant");
    let (mut mutants, mut opened, mut panics) = (0, 0, Vec::new());
    let started = std::time::Instant::now();
    for config in [
        IndexConfig::uncompressed(),
        IndexConfig::compressed(),
        IndexConfig::materialized_f32(),
        IndexConfig::materialized_q8(),
    ] {
        let pristine = pristine_segment(&config);
        let (toc_offset, count) = toc_layout(&pristine);
        for slot in (0..count).map(|i| toc_offset + i * 32) {
            let kind = u32::from_le_bytes(pristine[slot..slot + 4].try_into().unwrap());
            let (offset, len) = (
                u64_at(&pristine, slot + 8) as usize,
                u64_at(&pristine, slot + 16) as usize,
            );
            for _ in 0..PER_SECTION {
                let at = offset + 4 * rng.below(len / 4);
                let old = u32::from_le_bytes(pristine[at..at + 4].try_into().unwrap());
                let new = match rng.below(4) {
                    0 => rng.next() as u32,
                    1 => old.wrapping_add(1 + rng.below(3) as u32),
                    2 => old.wrapping_sub(1 + rng.below(3) as u32),
                    _ => [0, 1, u32::MAX, u32::MAX / 2][rng.below(4)],
                };
                let mut bytes = pristine.clone();
                bytes[at..at + 4].copy_from_slice(&new.to_le_bytes());
                reseal_section(&mut bytes, kind);
                mutants += 1;
                match std::panic::catch_unwind(|| open_and_serve(&path, &bytes)) {
                    Ok(served) => opened += usize::from(served),
                    Err(_) => panics.push(format!(
                        "{config:?}: section {kind}, byte {at}, {old} -> {new}"
                    )),
                }
            }
        }
    }
    let _ = std::fs::remove_file(&path);
    eprintln!(
        "{mutants} word mutants, {opened} opened and served, {} panics, in {:?}",
        panics.len(),
        started.elapsed()
    );
    assert!(mutants >= 1000, "only {mutants} mutants");
    assert!(opened > 0, "no mutant opened: nothing was served");
    assert!(
        panics.is_empty(),
        "{} mutants panicked: {panics:#?}",
        panics.len()
    );
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
