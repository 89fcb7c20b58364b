//! Index persistence: writing an [`InvertedIndex`] to a single-file segment
//! and opening it back for serving.
//!
//! The storage layer ([`x100_storage::segment`]) owns the file format —
//! checksummed 64-byte-aligned sections, prefix-sum block directories,
//! open-time verification of every byte. This module owns the *index-level*
//! encoding on top of it: which sections exist, how the configuration,
//! vocabulary, document table and posting offsets serialize, and the
//! cross-section consistency checks that make a reopened index safe to
//! serve.
//!
//! Since format version 2 a segment open is **O(block directory), not
//! O(collection)**: the vocabulary, document names, document lengths,
//! document frequencies and term offsets are all stored as disk-backed
//! columns whose blocks are `pread` through the buffer pool on first
//! touch, exactly like posting blocks. The only metadata materialized at
//! open time are two small directories — the per-page fence keys of the
//! sorted vocabulary ([`SectionKind::TermsFences`]) and the first-docid
//! table of the name pages ([`SectionKind::NamesDir`]) — whose size is
//! reported in [`SegmentOpenStats`].
//!
//! A reopened index is **bit-identical** to the one written: posting and
//! score blocks come back byte-for-byte, the quantizer and the collection
//! statistics are restored from their exact bits, and the metadata
//! columns and directories are written as the index holds them, so
//! re-persisting a reopened index reproduces the file.
//!
//! Persistence is crash-safe: the segment streams into a sibling temp
//! file, is fsynced by [`SegmentWriter::finish`], and only then atomically
//! renamed over the target path (with the parent directory fsynced), so an
//! interrupted persist can never leave a plausible-looking partial segment
//! at the target path.

use std::path::{Path, PathBuf};

use x100_compress::Codec;
use x100_storage::{Column, SectionKind, SegmentError, SegmentReader, SegmentWriter};

use crate::bm25::{CollectionStats, Quantizer};
use crate::columns::posting_codecs;
use crate::index::{IndexConfig, InvertedIndex, Materialize};
use crate::paged::{col_value, NamesDir, PagedMetadata, TermFences, PAGE_VALUES};

/// Fixed size of the serialized [`SectionKind::Meta`] payload.
const META_LEN: usize = 64;

/// What a segment open had to materialize, versus what a version-1 open
/// would have held resident for the same metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentOpenStats {
    /// Bytes of metadata pinned in memory by the open: the vocabulary
    /// fence keys and the document-name page directory.
    pub resident_meta_bytes: usize,
    /// Bytes of block-directory entries (offset + length per block) across
    /// every disk-backed column of the segment.
    pub directory_bytes: usize,
    /// Bytes the old fully-materialized open would have held resident for
    /// the same metadata: owned vocabulary and name strings plus dense
    /// doc-len / doc-freq / offset arrays.
    pub full_materialized_bytes: usize,
}

/// Everything [`InvertedIndex::from_segment_parts`] needs to assemble a
/// served index, decoded and cross-validated from an open segment.
pub(crate) struct SegmentParts {
    pub config: IndexConfig,
    pub stats: CollectionStats,
    pub paged: PagedMetadata,
    pub docid: Column,
    pub tf: Column,
    pub score: Option<Column>,
    pub quantizer: Option<Quantizer>,
}

impl InvertedIndex {
    /// Writes the index to a segment file at `path`, streaming compressed
    /// columns block-at-a-time through a temp file that is atomically
    /// renamed into place. Returns the segment size in bytes.
    pub fn write_segment(&self, path: impl AsRef<Path>) -> Result<u64, SegmentError> {
        write_segment_file(self, None, path.as_ref())
    }

    /// Writes a per-partition segment: like [`Self::write_segment`] plus a
    /// [`SectionKind::GlobalIds`] section mapping each local docid to its
    /// collection-wide id, so a cluster can be reassembled from segments.
    pub fn write_partition_segment(
        &self,
        global_ids: &[u32],
        path: impl AsRef<Path>,
    ) -> Result<u64, SegmentError> {
        assert_eq!(
            global_ids.len(),
            self.num_docs(),
            "one global id per document"
        );
        write_segment_file(self, Some(global_ids), path.as_ref())
    }

    /// Opens a segment written by [`Self::write_segment`]. All columns —
    /// postings, scores, and the paged metadata — come back disk-backed:
    /// blocks are `pread` on first touch, cached, dropped on buffer-pool
    /// eviction, and re-read on the next access.
    pub fn open_segment(path: impl AsRef<Path>) -> Result<Self, SegmentError> {
        Ok(open_segment_file(path.as_ref())?.0)
    }

    /// Like [`Self::open_segment`], also reporting how much metadata the
    /// open materialized ([`SegmentOpenStats`]).
    pub fn open_segment_with_stats(
        path: impl AsRef<Path>,
    ) -> Result<(Self, SegmentOpenStats), SegmentError> {
        let (index, _, stats) = open_segment_file(path.as_ref())?;
        Ok((index, stats))
    }

    /// Opens a per-partition segment, returning the index together with its
    /// local-to-global docid map.
    pub fn open_partition_segment(
        path: impl AsRef<Path>,
    ) -> Result<(Self, Vec<u32>), SegmentError> {
        let (index, global_ids, _) = open_segment_file(path.as_ref())?;
        let global_ids = global_ids.ok_or(SegmentError::Corrupt(
            "partition segment lacks a global-ids section",
        ))?;
        Ok((index, global_ids))
    }
}

/// The score column's codec for each materialization variant.
fn score_codec(materialize: Materialize) -> Option<Codec> {
    match materialize {
        Materialize::None => None,
        Materialize::F32 => Some(Codec::Raw),
        Materialize::Quantized8 => Some(Codec::Pfor { width: 8 }),
    }
}

fn encode_meta(index: &InvertedIndex) -> Vec<u8> {
    let cfg = index.config();
    let (lower, upper, q) = index
        .quantizer()
        .map(|qz| (qz.lower, qz.upper, qz.q))
        .unwrap_or((0.0, 0.0, 0));
    let mut meta = Vec::with_capacity(META_LEN);
    meta.push(u8::from(cfg.compress));
    meta.push(match cfg.materialize {
        Materialize::None => 0,
        Materialize::F32 => 1,
        Materialize::Quantized8 => 2,
    });
    meta.push(u8::from(index.quantizer().is_some()));
    meta.push(0);
    meta.extend_from_slice(&cfg.params.k1.to_bits().to_le_bytes());
    meta.extend_from_slice(&cfg.params.b.to_bits().to_le_bytes());
    meta.extend_from_slice(&lower.to_bits().to_le_bytes());
    meta.extend_from_slice(&upper.to_bits().to_le_bytes());
    meta.extend_from_slice(&q.to_le_bytes());
    meta.extend_from_slice(&(cfg.block_size as u64).to_le_bytes());
    meta.extend_from_slice(&(index.num_terms() as u64).to_le_bytes());
    meta.extend_from_slice(&(index.num_docs() as u64).to_le_bytes());
    meta.extend_from_slice(&(index.num_postings() as u64).to_le_bytes());
    // The exact average-doc-length bits, so a reopened index serves the
    // same statistics without folding over the document lengths.
    meta.extend_from_slice(&index.stats().avg_doc_len.to_bits().to_le_bytes());
    meta.extend_from_slice(&[0u8; 4]);
    debug_assert_eq!(meta.len(), META_LEN);
    meta
}

/// The sibling temp path a segment streams into before the atomic rename.
fn temp_sibling(path: &Path) -> PathBuf {
    let file = path
        .file_name()
        .map(|f| f.to_string_lossy().into_owned())
        .unwrap_or_default();
    path.with_file_name(format!("{file}.tmp.{}", std::process::id()))
}

/// Fsyncs `path`'s parent directory so the rename itself is durable.
fn sync_parent_dir(path: &Path) -> Result<(), SegmentError> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::File::open(parent)?.sync_all()?;
    }
    Ok(())
}

fn write_segment_file(
    index: &InvertedIndex,
    global_ids: Option<&[u32]>,
    path: &Path,
) -> Result<u64, SegmentError> {
    if index.num_postings() > u32::MAX as usize {
        return Err(SegmentError::TooLarge(
            "posting count exceeds the u32 offset column",
        ));
    }
    // The metadata is written as the index holds it: five paged columns
    // and two directories.
    let meta = index.meta();
    let tmp = temp_sibling(path);
    let written = (|| {
        let mut w = SegmentWriter::create(&tmp)?;
        w.write_section(SectionKind::Meta, &encode_meta(index))?;
        w.write_section(SectionKind::TermsFences, &meta.fences.encode())?;
        w.write_column_section(SectionKind::Terms, &meta.terms)?;
        w.write_section(SectionKind::NamesDir, &meta.names_dir.encode())?;
        w.write_column_section(SectionKind::DocNames, &meta.names)?;
        w.write_column_section(SectionKind::DocLens, &meta.doc_lens)?;
        w.write_column_section(SectionKind::DocFreqs, &meta.doc_freqs)?;
        w.write_column_section(SectionKind::Offsets, &meta.offsets)?;
        let column = |name: &str| {
            index
                .td()
                .column(name)
                .expect("index TD table always has its posting columns")
        };
        w.write_column_section(SectionKind::ColDocid, column("docid"))?;
        w.write_column_section(SectionKind::ColTf, column("tf"))?;
        if index.has_materialized_scores() {
            w.write_column_section(SectionKind::ColScore, column("score"))?;
        }
        if let Some(ids) = global_ids {
            let mut bytes = Vec::with_capacity(ids.len() * 4);
            for &g in ids {
                bytes.extend_from_slice(&g.to_le_bytes());
            }
            w.write_section(SectionKind::GlobalIds, &bytes)?;
        }
        w.finish()
    })();
    match written {
        Ok(bytes) => {
            std::fs::rename(&tmp, path)?;
            sync_parent_dir(path)?;
            Ok(bytes)
        }
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Decoded [`SectionKind::Meta`] payload.
struct Meta {
    config: IndexConfig,
    quantizer: Option<Quantizer>,
    num_terms: usize,
    num_docs: usize,
    num_postings: usize,
    avg_doc_len: f32,
}

fn decode_meta(bytes: &[u8]) -> Result<Meta, SegmentError> {
    if bytes.len() != META_LEN {
        return Err(SegmentError::Corrupt("meta section has the wrong length"));
    }
    let u32_at = |i: usize| u32::from_le_bytes(bytes[i..i + 4].try_into().unwrap());
    let u64_at = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().unwrap());
    let compress = match bytes[0] {
        0 => false,
        1 => true,
        _ => return Err(SegmentError::Corrupt("bad compression flag")),
    };
    let materialize = match bytes[1] {
        0 => Materialize::None,
        1 => Materialize::F32,
        2 => Materialize::Quantized8,
        _ => return Err(SegmentError::Corrupt("bad materialization tag")),
    };
    let has_quantizer = match bytes[2] {
        0 => false,
        1 => true,
        _ => return Err(SegmentError::Corrupt("bad quantizer flag")),
    };
    if has_quantizer != (materialize == Materialize::Quantized8) {
        return Err(SegmentError::Corrupt(
            "quantizer flag disagrees with materialization",
        ));
    }
    if bytes[3] != 0 {
        return Err(SegmentError::Corrupt("nonzero reserved meta field"));
    }
    let params = crate::bm25::Bm25Params {
        k1: f32::from_bits(u32_at(4)),
        b: f32::from_bits(u32_at(8)),
    };
    let quantizer = has_quantizer.then(|| Quantizer {
        lower: f32::from_bits(u32_at(12)),
        upper: f32::from_bits(u32_at(16)),
        q: u32_at(20),
    });
    let block_size = usize::try_from(u64_at(24))
        .ok()
        .filter(|&b| b > 0 && b.is_multiple_of(x100_compress::ENTRY_POINT_STRIDE))
        .ok_or(SegmentError::Corrupt("bad index block size"))?;
    let num_terms = usize::try_from(u64_at(32))
        .ok()
        .filter(|&n| n <= u32::MAX as usize)
        .ok_or(SegmentError::Corrupt("term count out of range"))?;
    let num_docs = usize::try_from(u64_at(40))
        .ok()
        .filter(|&n| n <= u32::MAX as usize)
        .ok_or(SegmentError::Corrupt("document count out of range"))?;
    let num_postings = usize::try_from(u64_at(48))
        .ok()
        .filter(|&n| n <= u32::MAX as usize)
        .ok_or(SegmentError::Corrupt("posting count out of range"))?;
    let avg_doc_len = f32::from_bits(u32_at(56));
    if bytes[60..64] != [0u8; 4] {
        return Err(SegmentError::Corrupt("nonzero reserved meta field"));
    }
    Ok(Meta {
        config: IndexConfig {
            compress,
            materialize,
            params,
            block_size,
        },
        quantizer,
        num_terms,
        num_docs,
        num_postings,
        avg_doc_len,
    })
}

/// Parses a section of little-endian 4-byte records whose length must be
/// exactly `count * 4`.
fn decode_u32s(bytes: &[u8], count: usize) -> Result<Vec<u32>, SegmentError> {
    if bytes.len()
        != count
            .checked_mul(4)
            .ok_or(SegmentError::Corrupt("count overflows"))?
    {
        return Err(SegmentError::Corrupt(
            "fixed-width section has the wrong length",
        ));
    }
    Ok(bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
        .collect())
}

fn open_segment_file(
    path: &Path,
) -> Result<(InvertedIndex, Option<Vec<u32>>, SegmentOpenStats), SegmentError> {
    let r = SegmentReader::open(path)?;
    let meta = decode_meta(&r.read_section(SectionKind::Meta)?)?;
    // The five metadata columns are raw u32 columns paged at PAGE_VALUES,
    // so the buffer pool serves them like any posting column.
    let metadata_column =
        |kind: SectionKind, name: &str, len: usize| -> Result<Column, SegmentError> {
            let col = r.open_column(kind, name)?;
            if col.codec() != Codec::Raw {
                return Err(SegmentError::Corrupt("metadata column must be raw"));
            }
            if col.block_size() != PAGE_VALUES {
                return Err(SegmentError::Corrupt(
                    "metadata column has the wrong page size",
                ));
            }
            if col.len() != len {
                return Err(SegmentError::Corrupt(
                    "metadata column length disagrees with the declared count",
                ));
            }
            Ok(col)
        };
    let record_column = |kind: SectionKind, name: &str| -> Result<Column, SegmentError> {
        let col = r.open_column(kind, name)?;
        if col.codec() != Codec::Raw {
            return Err(SegmentError::Corrupt("metadata column must be raw"));
        }
        if col.block_size() != PAGE_VALUES || !col.len().is_multiple_of(PAGE_VALUES) {
            return Err(SegmentError::Corrupt("record pages are ragged"));
        }
        Ok(col)
    };
    let terms = record_column(SectionKind::Terms, "terms")?;
    let fences = TermFences::decode(
        &r.read_section(SectionKind::TermsFences)?,
        meta.num_terms,
        terms.block_count(),
    )?;
    let names = record_column(SectionKind::DocNames, "doc_names")?;
    let names_dir = NamesDir::decode(
        &r.read_section(SectionKind::NamesDir)?,
        meta.num_docs,
        names.block_count(),
    )?;
    let doc_lens = metadata_column(SectionKind::DocLens, "doc_lens", meta.num_docs)?;
    let doc_freqs = metadata_column(SectionKind::DocFreqs, "doc_freqs", meta.num_terms)?;
    let offsets = metadata_column(SectionKind::Offsets, "offsets", meta.num_terms + 1)?;
    if col_value(&offsets, 0) != 0 {
        return Err(SegmentError::Corrupt("offsets must start at zero"));
    }
    if col_value(&offsets, meta.num_terms) as usize != meta.num_postings {
        return Err(SegmentError::Corrupt(
            "offsets do not cover the posting count",
        ));
    }
    let (docid_codec, tf_codec) = posting_codecs(&meta.config);
    let open_posting_column =
        |kind: SectionKind, name: &str, codec: Codec| -> Result<Column, SegmentError> {
            let col = r.open_column(kind, name)?;
            if col.codec() != codec {
                return Err(SegmentError::Corrupt(
                    "column codec disagrees with configuration",
                ));
            }
            if col.block_size() != meta.config.block_size {
                return Err(SegmentError::Corrupt(
                    "column block size disagrees with configuration",
                ));
            }
            if col.len() != meta.num_postings {
                return Err(SegmentError::Corrupt(
                    "column length disagrees with posting count",
                ));
            }
            Ok(col)
        };
    let docid = open_posting_column(SectionKind::ColDocid, "docid", docid_codec)?;
    let tf = open_posting_column(SectionKind::ColTf, "tf", tf_codec)?;
    let score = match score_codec(meta.config.materialize) {
        Some(codec) => Some(open_posting_column(SectionKind::ColScore, "score", codec)?),
        None => {
            if r.has_section(SectionKind::ColScore) {
                return Err(SegmentError::Corrupt(
                    "unexpected score column for unmaterialized index",
                ));
            }
            None
        }
    };
    // Older segments may carry the retired kind-13 section: the reader
    // verified it like every column section, and nothing here reads it.
    let global_ids = if r.has_section(SectionKind::GlobalIds) {
        Some(decode_u32s(
            &r.read_section(SectionKind::GlobalIds)?,
            meta.num_docs,
        )?)
    } else {
        None
    };
    let paged = PagedMetadata {
        terms,
        fences,
        names,
        names_dir,
        doc_lens,
        doc_freqs,
        offsets,
        num_terms: meta.num_terms,
        num_postings: meta.num_postings,
        lens_cache: std::sync::OnceLock::new(),
    };
    let directory_bytes = [
        &paged.terms,
        &paged.names,
        &paged.doc_lens,
        &paged.doc_freqs,
        &paged.offsets,
        &docid,
        &tf,
    ]
    .into_iter()
    .chain(score.as_ref())
    .map(|c| c.block_count() * std::mem::size_of::<(u64, u32)>())
    .sum();
    let open_stats = SegmentOpenStats {
        resident_meta_bytes: paged.resident_meta_bytes(),
        directory_bytes,
        full_materialized_bytes: paged.full_materialized_bytes(),
    };
    let index = InvertedIndex::from_segment_parts(SegmentParts {
        config: meta.config,
        stats: CollectionStats {
            num_docs: meta.num_docs as u32,
            avg_doc_len: meta.avg_doc_len,
        },
        paged,
        docid,
        tf,
        score,
        quantizer: meta.quantizer,
    });
    Ok((index, global_ids, open_stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use x100_corpus::{CollectionConfig, SyntheticCollection};

    fn temp_path(name: &str) -> std::path::PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "x100-ir-segment-{name}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn roundtrip_preserves_index_shape() {
        let c = SyntheticCollection::generate(&CollectionConfig::tiny());
        let idx = InvertedIndex::build(&c, &IndexConfig::materialized_q8());
        let path = temp_path("shape");
        idx.write_segment(&path).unwrap();
        let back = InvertedIndex::open_segment(&path).unwrap();
        assert_eq!(back.config(), idx.config());
        assert_eq!(back.stats(), idx.stats());
        assert_eq!(back.num_terms(), idx.num_terms());
        assert_eq!(back.num_postings(), idx.num_postings());
        assert_eq!(back.quantizer(), idx.quantizer());
        assert_eq!(back.doc_lens(), idx.doc_lens());
        for t in 0..idx.num_terms() as u32 {
            assert_eq!(back.term_range(t), idx.term_range(t));
            assert_eq!(back.doc_freq(t), idx.doc_freq(t));
        }
        for d in 0..c.docs.len() as u32 {
            assert_eq!(back.doc_name(d), idx.doc_name(d));
        }
        assert_eq!(back.term_id("term3"), idx.term_id("term3"));
        // Posting columns decode bit-identically (lazily, from disk).
        for name in ["docid", "tf", "score"] {
            assert_eq!(
                back.td().column(name).unwrap().read_all(),
                idx.td().column(name).unwrap().read_all(),
                "{name}"
            );
            assert!(back.td().column(name).unwrap().is_disk_backed());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn partition_segment_carries_global_ids() {
        let c = SyntheticCollection::generate(&CollectionConfig::tiny());
        let idx = InvertedIndex::build(&c, &IndexConfig::compressed());
        let ids: Vec<u32> = (0..c.docs.len() as u32).map(|d| d * 2 + 1).collect();
        let path = temp_path("gids");
        idx.write_partition_segment(&ids, &path).unwrap();
        let (_, back_ids) = InvertedIndex::open_partition_segment(&path).unwrap();
        assert_eq!(back_ids, ids);
        // A plain segment refuses to open as a partition segment.
        let plain = temp_path("plain");
        idx.write_segment(&plain).unwrap();
        assert!(matches!(
            InvertedIndex::open_partition_segment(&plain),
            Err(SegmentError::Corrupt(_))
        ));
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&plain).unwrap();
    }

    #[test]
    fn uncompressed_and_f32_variants_roundtrip() {
        let c = SyntheticCollection::generate(&CollectionConfig::tiny());
        for cfg in [IndexConfig::uncompressed(), IndexConfig::materialized_f32()] {
            let idx = InvertedIndex::build(&c, &cfg);
            let path = temp_path("variant");
            idx.write_segment(&path).unwrap();
            let back = InvertedIndex::open_segment(&path).unwrap();
            assert_eq!(back.config(), idx.config());
            assert_eq!(
                back.td().column("docid").unwrap().read_all(),
                idx.td().column("docid").unwrap().read_all()
            );
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn open_stats_report_a_small_resident_footprint() {
        let c = SyntheticCollection::generate(&CollectionConfig::tiny());
        let idx = InvertedIndex::build(&c, &IndexConfig::compressed());
        let path = temp_path("stats");
        idx.write_segment(&path).unwrap();
        let (back, stats) = InvertedIndex::open_segment_with_stats(&path).unwrap();
        assert_eq!(back.num_terms(), idx.num_terms());
        assert!(stats.directory_bytes > 0);
        assert!(stats.resident_meta_bytes > 0);
        assert!(
            stats.resident_meta_bytes < stats.full_materialized_bytes,
            "{stats:?}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn interrupted_persist_leaves_no_segment_behind() {
        let c = SyntheticCollection::generate(&CollectionConfig::tiny());
        let idx = InvertedIndex::build(&c, &IndexConfig::compressed());
        let dir = temp_path("atomic-dir");
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("seg.x1sg");
        // A failed write (unwritable target directory for the temp file)
        // must not create the target path.
        let bad = dir.join("missing-subdir").join("seg.x1sg");
        assert!(matches!(idx.write_segment(&bad), Err(SegmentError::Io(_))));
        assert!(!bad.exists());
        // A successful write leaves exactly the target, no temp files.
        idx.write_segment(&target).unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        InvertedIndex::open_segment(&target).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
