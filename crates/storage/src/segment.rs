//! The persistent index segment: one file, checksummed sections, blocks
//! served back through the buffer pool.
//!
//! A segment is the durable form of a built index. Everything the serving
//! path needs lives in a single file as 64-byte-aligned **sections**: a
//! small meta section plus one section per column — the posting columns
//! and the paged metadata (vocabulary, document table, posting offsets).
//! A column section carries a **prefix-sum block directory** —
//! `block_count + 1` byte offsets — so any block's file extent is two
//! array lookups, O(1), with no scan over preceding blocks.
//!
//! Integrity: a magic + versioned header, an FNV-1a-64 checksum per
//! section, a checksummed table of contents, and **open-time verification
//! of every byte in the file** (header, sections, and the zero padding
//! between them). Any flip or truncation surfaces as a typed
//! [`SegmentError`] from [`SegmentReader::open`]; declared sizes are
//! reconciled against the real file length with checked arithmetic before
//! any allocation, so a corrupt length field can never trigger an
//! allocation bomb. After a successful open, block reads
//! are plain `pread`s: the [`Column`]s keep no block bytes, the
//! [`crate::BufferManager`] owns the blocks it admitted, and a block it
//! evicted is simply read again on the next pin.
//!
//! # File layout
//!
//! ```text
//! [0..64)    header: magic "X1SG", version, section count,
//!            TOC offset, file length, FNV-1a(header[0..32)), zero pad
//! [64..)     sections, each 64-byte aligned, zero padding between
//! [toc..)    TOC: per section {kind, offset, len, FNV-1a(section)},
//!            then FNV-1a over the TOC entries; ends exactly at file length
//! ```
//!
//! A column section's payload:
//!
//! ```text
//! [0..32)    codec tag, code width (0 = per block), block size,
//!            value count, block count
//! [32..d)    prefix-sum directory: (block_count + 1) × u64 byte offsets
//! [d..)      concatenated CompressedBlock images
//! ```

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::Arc;

use x100_compress::{Codec, ENTRY_POINT_STRIDE};

use crate::column::Column;

/// Magic number at the start of every segment file (`X1SG`).
pub const SEGMENT_MAGIC: u32 = 0x5831_5347;

/// Current segment format version. Version 2 promoted the vocabulary,
/// document-table and offset sections to paged column sections and widened
/// the meta section; version 3 stores every block as its aligned in-memory
/// image (see [`x100_compress::block`]); version 4 drops the two page
/// directories stored beside the vocabulary and name pages (tags 11 and
/// 12), which a reader derives from the pages. Older files are rejected
/// with [`SegmentError::BadVersion`] (rebuild and re-persist to upgrade).
pub const SEGMENT_VERSION: u16 = 4;

/// Every section (and the TOC) starts at a multiple of this.
pub const SECTION_ALIGN: u64 = 64;

const HEADER_LEN: u64 = 64;
const TOC_ENTRY_LEN: u64 = 32;

/// Errors surfaced by writing, opening and reading segments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentError {
    /// Underlying I/O failure (message-only so the error stays `Clone`).
    Io(String),
    /// The file does not start with [`SEGMENT_MAGIC`].
    BadMagic(u32),
    /// The file's format version is not supported.
    BadVersion(u16),
    /// The file ends before its declared contents do.
    Truncated,
    /// Structural damage: checksum mismatches, impossible declared sizes,
    /// nonzero padding, unknown or overlapping sections.
    Corrupt(&'static str),
    /// The data being written exceeds a fixed-width field of the format
    /// (e.g. a record larger than one page, or counts past `u32`).
    TooLarge(&'static str),
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegmentError::Io(e) => write!(f, "segment I/O error: {e}"),
            SegmentError::BadMagic(m) => write!(f, "bad segment magic {m:#010x}"),
            SegmentError::BadVersion(v) => write!(f, "unsupported segment version {v}"),
            SegmentError::Truncated => f.write_str("segment file truncated"),
            SegmentError::Corrupt(what) => write!(f, "corrupt segment: {what}"),
            SegmentError::TooLarge(what) => write!(f, "segment format limit exceeded: {what}"),
        }
    }
}

impl std::error::Error for SegmentError {}

impl From<std::io::Error> for SegmentError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            SegmentError::Truncated
        } else {
            SegmentError::Io(e.to_string())
        }
    }
}

/// What a section holds. The `u32` discriminants are the on-disk tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum SectionKind {
    /// Index-level configuration and counts (interpreted by the IR layer).
    Meta = 1,
    /// The vocabulary's record pages, in term order.
    Terms = 2,
    /// Document names (the D table's name pages).
    DocNames = 3,
    /// Document lengths (the D table's length column).
    DocLens = 4,
    /// A spill run's per-term posting counts. An index segment derives them
    /// from its offsets; an older one that carries this section has it
    /// verified at open, then ignored.
    DocFreqs = 5,
    /// Per-term posting offsets (prefix sums over posting counts).
    Offsets = 6,
    /// The compressed `docid` posting column.
    ColDocid = 7,
    /// The compressed `tf` posting column.
    ColTf = 8,
    /// The materialized score column, when the index has one.
    ColScore = 9,
    /// Global document ids, present only in per-partition segments.
    GlobalIds = 10,
    // Tags 11 to 13 stay reserved. Versions 2 and 3 stored the vocabulary's
    // fence keys (11) and the name pages' first-docid table (12), which a
    // reader now derives from the pages; version 2 also stored the retired
    // per-stride score bounds (`BlockMax`, 13). No version-4 writer emits
    // them, so a version-4 file carrying one is an unknown kind, rejected
    // as corrupt.
}

impl SectionKind {
    fn from_u32(v: u32) -> Option<Self> {
        Some(match v {
            1 => SectionKind::Meta,
            2 => SectionKind::Terms,
            3 => SectionKind::DocNames,
            4 => SectionKind::DocLens,
            5 => SectionKind::DocFreqs,
            6 => SectionKind::Offsets,
            7 => SectionKind::ColDocid,
            8 => SectionKind::ColTf,
            9 => SectionKind::ColScore,
            10 => SectionKind::GlobalIds,
            _ => return None,
        })
    }

    fn is_column(self) -> bool {
        matches!(
            self,
            SectionKind::ColDocid
                | SectionKind::ColTf
                | SectionKind::ColScore
                | SectionKind::Terms
                | SectionKind::DocNames
                | SectionKind::DocLens
                | SectionKind::DocFreqs
                | SectionKind::Offsets
        )
    }
}

/// Incremental FNV-1a (64-bit): the checksum of the header, of every
/// section and of the table of contents.
#[derive(Debug, Clone, Copy)]
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a (64-bit) of `bytes` in one call: the segment format's checksum,
/// also the checksum of every network frame's payload.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut sum = Fnv1a::new();
    sum.update(bytes);
    sum.finish()
}

/// On-disk codec tag for a column section.
fn codec_parts(codec: Codec) -> (u32, u32) {
    match codec {
        Codec::Raw => (0, 0),
        Codec::Pfor { width } => (1, u32::from(width)),
        Codec::PforDelta { width } => (2, u32::from(width)),
        Codec::Pdict { width } => (3, u32::from(width)),
    }
}

fn codec_from_parts(tag: u32, width: u32) -> Result<Codec, SegmentError> {
    let w =
        u8::try_from(width).map_err(|_| SegmentError::Corrupt("column code width too large"))?;
    match (tag, w) {
        (0, 0) => Ok(Codec::Raw),
        // PFOR widths are 1..=24, or 0 when every block chose its own.
        (1, 0..=24) => Ok(Codec::Pfor { width: w }),
        (2, 0..=24) => Ok(Codec::PforDelta { width: w }),
        (3, 1..=12) => Ok(Codec::Pdict { width: w }),
        _ => Err(SegmentError::Corrupt("unrecognized column codec")),
    }
}

/// The fixed 32-byte header that opens every column section's payload.
fn column_section_header(column: &Column, block_count: usize) -> [u8; 32] {
    let (tag, width) = codec_parts(column.codec());
    let mut header = [0u8; 32];
    header[0..4].copy_from_slice(&tag.to_le_bytes());
    header[4..8].copy_from_slice(&width.to_le_bytes());
    header[8..16].copy_from_slice(&(column.block_size() as u64).to_le_bytes());
    header[16..24].copy_from_slice(&(column.len() as u64).to_le_bytes());
    header[24..32].copy_from_slice(&(block_count as u64).to_le_bytes());
    header
}

#[derive(Debug, Clone, Copy)]
struct TocEntry {
    kind: SectionKind,
    offset: u64,
    len: u64,
    checksum: u64,
}

/// An in-flight streaming section: state between [`SegmentWriter::
/// begin_section`] and [`SegmentWriter::end_section`].
#[derive(Debug)]
struct OpenSection {
    kind: SectionKind,
    offset: u64,
    sum: Fnv1a,
}

/// Writes one segment file: sections appended in order, header and table of
/// contents finalized by [`finish`](Self::finish).
///
/// Sections stream: [`begin_section`](Self::begin_section) opens one,
/// [`append`](Self::append) folds each chunk into a running FNV-1a checksum
/// as it hits the `BufWriter`, and [`end_section`](Self::end_section) seals
/// the TOC entry — no whole-section buffer ever exists in memory.
#[derive(Debug)]
pub struct SegmentWriter {
    out: BufWriter<File>,
    sections: Vec<TocEntry>,
    current: Option<OpenSection>,
    pos: u64,
}

impl SegmentWriter {
    /// Creates (truncating) the segment file and reserves the header.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, SegmentError> {
        let file = File::create(path)?;
        let mut out = BufWriter::new(file);
        out.write_all(&[0u8; HEADER_LEN as usize])?;
        Ok(SegmentWriter {
            out,
            sections: Vec::new(),
            current: None,
            pos: HEADER_LEN,
        })
    }

    fn pad_to_alignment(&mut self) -> Result<(), SegmentError> {
        const ZEROS: [u8; SECTION_ALIGN as usize] = [0u8; SECTION_ALIGN as usize];
        let over = (self.pos % SECTION_ALIGN) as usize;
        if over != 0 {
            self.out
                .write_all(&ZEROS[..SECTION_ALIGN as usize - over])?;
            self.pos += (SECTION_ALIGN as usize - over) as u64;
        }
        Ok(())
    }

    /// Opens a streaming section. Bytes fed to [`append`](Self::append) land
    /// in it until [`end_section`](Self::end_section) seals the checksum.
    pub fn begin_section(&mut self, kind: SectionKind) -> Result<(), SegmentError> {
        assert!(
            self.current.is_none(),
            "section {kind:?} begun while another section is open"
        );
        assert!(
            self.sections.iter().all(|s| s.kind != kind),
            "section {kind:?} written twice"
        );
        self.pad_to_alignment()?;
        self.current = Some(OpenSection {
            kind,
            offset: self.pos,
            sum: Fnv1a::new(),
        });
        Ok(())
    }

    /// Appends bytes to the open section, folding them into its running
    /// checksum.
    pub fn append(&mut self, bytes: &[u8]) -> Result<(), SegmentError> {
        let open = self
            .current
            .as_mut()
            .expect("append called with no open section");
        open.sum.update(bytes);
        self.out.write_all(bytes)?;
        self.pos += bytes.len() as u64;
        Ok(())
    }

    /// Seals the open section: records its table-of-contents entry with the
    /// checksum accumulated by [`append`](Self::append).
    pub fn end_section(&mut self) -> Result<(), SegmentError> {
        let open = self
            .current
            .take()
            .expect("end_section called with no open section");
        self.sections.push(TocEntry {
            kind: open.kind,
            offset: open.offset,
            len: self.pos - open.offset,
            checksum: open.sum.finish(),
        });
        Ok(())
    }

    /// Appends a fully materialized section.
    pub fn write_section(&mut self, kind: SectionKind, bytes: &[u8]) -> Result<(), SegmentError> {
        self.begin_section(kind)?;
        self.append(bytes)?;
        self.end_section()
    }

    /// Appends a column section, streaming one block image at a time —
    /// the whole column is never materialized in memory. The first pass
    /// builds the prefix-sum directory from each block's image *length*
    /// (for a disk-backed column, no read); the second fetches each block
    /// and writes its image once.
    pub fn write_column_section(
        &mut self,
        kind: SectionKind,
        column: &Column,
    ) -> Result<(), SegmentError> {
        self.begin_section(kind)?;
        let block_count = column.block_count();
        let mut directory: Vec<u64> = Vec::with_capacity(block_count + 1);
        directory.push(0);
        for i in 0..block_count {
            directory.push(directory[i] + column.block_image_len(i) as u64);
        }
        self.append(&column_section_header(column, block_count))?;
        for &d in &directory {
            self.append(&d.to_le_bytes())?;
        }
        for i in 0..block_count {
            let block = column.block(i);
            let image = block.as_bytes();
            assert_eq!(
                image.len() as u64,
                directory[i + 1] - directory[i],
                "block {i}'s image disagrees with its directory extent"
            );
            self.append(image)?;
        }
        self.end_section()
    }

    /// Writes the table of contents, back-patches the header, and syncs.
    /// Returns the segment's total size in bytes.
    pub fn finish(mut self) -> Result<u64, SegmentError> {
        assert!(
            self.current.is_none(),
            "finish called with a section still open"
        );
        self.pad_to_alignment()?;
        let toc_offset = self.pos;
        let mut toc = Vec::with_capacity(self.sections.len() * TOC_ENTRY_LEN as usize);
        for s in &self.sections {
            toc.extend_from_slice(&(s.kind as u32).to_le_bytes());
            toc.extend_from_slice(&0u32.to_le_bytes());
            toc.extend_from_slice(&s.offset.to_le_bytes());
            toc.extend_from_slice(&s.len.to_le_bytes());
            toc.extend_from_slice(&s.checksum.to_le_bytes());
        }
        self.out.write_all(&toc)?;
        self.out.write_all(&fnv1a64(&toc).to_le_bytes())?;
        let file_len = toc_offset + toc.len() as u64 + 8;

        let mut header = [0u8; HEADER_LEN as usize];
        header[0..4].copy_from_slice(&SEGMENT_MAGIC.to_le_bytes());
        header[4..6].copy_from_slice(&SEGMENT_VERSION.to_le_bytes());
        // [6..8) flags, [12..16) reserved: zero.
        header[8..12].copy_from_slice(&(self.sections.len() as u32).to_le_bytes());
        header[16..24].copy_from_slice(&toc_offset.to_le_bytes());
        header[24..32].copy_from_slice(&file_len.to_le_bytes());
        let head_sum = fnv1a64(&header[0..32]);
        header[32..40].copy_from_slice(&head_sum.to_le_bytes());

        self.out.flush()?;
        let mut file = self
            .out
            .into_inner()
            .map_err(|e| SegmentError::Io(e.to_string()))?;
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&header)?;
        file.sync_all()?;
        Ok(file_len)
    }
}

/// A validated, parsed column section: everything needed to build a
/// disk-backed [`Column`] without touching the payload again.
#[derive(Debug, Clone)]
struct ColumnDesc {
    codec: Codec,
    block_size: usize,
    len: usize,
    /// Per-block (absolute file offset, image byte length).
    entries: Vec<(u64, u32)>,
}

/// An open, fully verified segment. Opening checksums **every byte** of the
/// file; afterwards, [`open_column`](Self::open_column) hands out lazily
/// loaded disk-backed columns and [`read_section`](Self::read_section)
/// returns raw section bytes for the IR layer to decode.
#[derive(Debug)]
pub struct SegmentReader {
    file: Arc<File>,
    sections: Vec<TocEntry>,
    columns: HashMap<SectionKind, ColumnDesc>,
}

impl SegmentReader {
    /// Opens and verifies a segment.
    ///
    /// Validation order: header (magic, version, checksum, padding, declared
    /// length against the real file length), table of contents (checksum,
    /// known kinds, alignment, bounds, no overlap), then one streaming pass
    /// over the whole body verifying each section's FNV-1a checksum and that
    /// every padding byte is zero. Column sections additionally get their
    /// headers and prefix-sum directories structurally validated, with all
    /// arithmetic checked against the real file length, so no later read can
    /// run off the file or allocate from an unvalidated length.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, SegmentError> {
        let file = File::open(path)?;
        let actual_len = file.metadata()?.len();
        if actual_len < HEADER_LEN {
            return Err(SegmentError::Truncated);
        }
        let mut header = [0u8; HEADER_LEN as usize];
        file.read_exact_at(&mut header, 0)?;
        let magic = u32::from_le_bytes(header[0..4].try_into().unwrap());
        if magic != SEGMENT_MAGIC {
            return Err(SegmentError::BadMagic(magic));
        }
        let version = u16::from_le_bytes(header[4..6].try_into().unwrap());
        if version != SEGMENT_VERSION {
            return Err(SegmentError::BadVersion(version));
        }
        let flags = u16::from_le_bytes(header[6..8].try_into().unwrap());
        let section_count = u32::from_le_bytes(header[8..12].try_into().unwrap());
        let reserved = u32::from_le_bytes(header[12..16].try_into().unwrap());
        let toc_offset = u64::from_le_bytes(header[16..24].try_into().unwrap());
        let file_len = u64::from_le_bytes(header[24..32].try_into().unwrap());
        let stored_sum = u64::from_le_bytes(header[32..40].try_into().unwrap());
        if fnv1a64(&header[0..32]) != stored_sum {
            return Err(SegmentError::Corrupt("header checksum mismatch"));
        }
        if flags != 0 || reserved != 0 {
            return Err(SegmentError::Corrupt("nonzero reserved header field"));
        }
        if header[40..].iter().any(|&b| b != 0) {
            return Err(SegmentError::Corrupt("nonzero header padding"));
        }
        if file_len != actual_len {
            // A shorter file is a truncation; anything else is corruption.
            return if actual_len < file_len {
                Err(SegmentError::Truncated)
            } else {
                Err(SegmentError::Corrupt(
                    "file length disagrees with header length",
                ))
            };
        }
        // The TOC must sit exactly at the file tail.
        let toc_len = u64::from(section_count)
            .checked_mul(TOC_ENTRY_LEN)
            .and_then(|n| n.checked_add(8))
            .ok_or(SegmentError::Corrupt("section count overflows"))?;
        if toc_offset < HEADER_LEN
            || !toc_offset.is_multiple_of(SECTION_ALIGN)
            || toc_offset.checked_add(toc_len) != Some(file_len)
        {
            return Err(SegmentError::Corrupt(
                "table of contents does not sit at the file tail",
            ));
        }
        // Read and verify the TOC (allocation bounded by the real length).
        let mut toc = vec![0u8; toc_len as usize];
        file.read_exact_at(&mut toc, toc_offset)?;
        let entry_bytes = &toc[..toc.len() - 8];
        let stored_toc_sum = u64::from_le_bytes(toc[toc.len() - 8..].try_into().unwrap());
        if fnv1a64(entry_bytes) != stored_toc_sum {
            return Err(SegmentError::Corrupt("table-of-contents checksum mismatch"));
        }
        let mut sections = Vec::with_capacity(section_count as usize);
        let mut cursor = HEADER_LEN;
        for raw in entry_bytes.chunks_exact(TOC_ENTRY_LEN as usize) {
            let kind_tag = u32::from_le_bytes(raw[0..4].try_into().unwrap());
            let reserved = u32::from_le_bytes(raw[4..8].try_into().unwrap());
            let offset = u64::from_le_bytes(raw[8..16].try_into().unwrap());
            let len = u64::from_le_bytes(raw[16..24].try_into().unwrap());
            let checksum = u64::from_le_bytes(raw[24..32].try_into().unwrap());
            let kind = SectionKind::from_u32(kind_tag)
                .ok_or(SegmentError::Corrupt("unknown section kind"))?;
            if reserved != 0 {
                return Err(SegmentError::Corrupt("nonzero reserved section field"));
            }
            if sections.iter().any(|s: &TocEntry| s.kind == kind) {
                return Err(SegmentError::Corrupt("duplicate section"));
            }
            if !offset.is_multiple_of(SECTION_ALIGN) {
                return Err(SegmentError::Corrupt("misaligned section"));
            }
            if offset < cursor {
                return Err(SegmentError::Corrupt("sections overlap or run backwards"));
            }
            let end = offset
                .checked_add(len)
                .ok_or(SegmentError::Corrupt("section length overflows"))?;
            if end > toc_offset {
                return Err(SegmentError::Corrupt("section exceeds file bounds"));
            }
            cursor = end;
            sections.push(TocEntry {
                kind,
                offset,
                len,
                checksum,
            });
        }
        Self::verify_body(&file, &sections, toc_offset)?;
        // Column sections: validate structure now so nothing after open can
        // encounter an unvalidated length.
        let mut columns = HashMap::new();
        for s in sections.iter().filter(|s| s.kind.is_column()) {
            columns.insert(s.kind, parse_column_section(&file, s.offset, s.len)?);
        }
        Ok(SegmentReader {
            file: Arc::new(file),
            sections,
            columns,
        })
    }

    /// One sequential pass over `[HEADER_LEN, toc_offset)`: checksums every
    /// section and confirms every inter-section padding byte is zero, so a
    /// flip *anywhere* in the file fails the open.
    fn verify_body(
        file: &File,
        sections: &[TocEntry],
        toc_offset: u64,
    ) -> Result<(), SegmentError> {
        fn consume(
            reader: &mut BufReader<&File>,
            buf: &mut [u8],
            mut remaining: u64,
            inspect: &mut dyn FnMut(&[u8]),
        ) -> Result<(), SegmentError> {
            while remaining > 0 {
                let take = (buf.len() as u64).min(remaining) as usize;
                reader.read_exact(&mut buf[..take])?;
                inspect(&buf[..take]);
                remaining -= take as u64;
            }
            Ok(())
        }
        let mut reader = BufReader::with_capacity(1 << 20, file);
        reader.seek(SeekFrom::Start(HEADER_LEN))?;
        let mut cursor = HEADER_LEN;
        let mut buf = vec![0u8; 1 << 20];
        for s in sections {
            let mut gap_clean = true;
            consume(&mut reader, &mut buf, s.offset - cursor, &mut |bytes| {
                gap_clean &= bytes.iter().all(|&b| b == 0)
            })?;
            if !gap_clean {
                return Err(SegmentError::Corrupt("nonzero padding between sections"));
            }
            let mut sum = Fnv1a::new();
            consume(&mut reader, &mut buf, s.len, &mut |bytes| sum.update(bytes))?;
            if sum.finish() != s.checksum {
                return Err(SegmentError::Corrupt("section checksum mismatch"));
            }
            cursor = s.offset + s.len;
        }
        let mut tail_clean = true;
        consume(&mut reader, &mut buf, toc_offset - cursor, &mut |bytes| {
            tail_clean &= bytes.iter().all(|&b| b == 0)
        })?;
        if !tail_clean {
            return Err(SegmentError::Corrupt("nonzero padding between sections"));
        }
        Ok(())
    }

    fn find(&self, kind: SectionKind) -> Option<&TocEntry> {
        self.sections.iter().find(|s| s.kind == kind)
    }

    /// Whether the segment contains a section of this kind.
    pub fn has_section(&self, kind: SectionKind) -> bool {
        self.find(kind).is_some()
    }

    /// Reads a non-column section fully into memory. The allocation is
    /// bounded by the section length validated against the real file length
    /// at open time.
    pub fn read_section(&self, kind: SectionKind) -> Result<Vec<u8>, SegmentError> {
        let s = self
            .find(kind)
            .ok_or(SegmentError::Corrupt("missing required section"))?;
        let mut bytes = vec![0u8; s.len as usize];
        self.file.read_exact_at(&mut bytes, s.offset)?;
        Ok(bytes)
    }

    /// Opens a column section as a disk-backed [`Column`]: every block
    /// fetch is a `pread` + validation; caching is the buffer pool's job.
    pub fn open_column(&self, kind: SectionKind, name: &str) -> Result<Column, SegmentError> {
        let desc = self
            .columns
            .get(&kind)
            .ok_or(SegmentError::Corrupt("missing required column section"))?;
        Ok(Column::from_disk_blocks(
            name,
            desc.codec,
            desc.block_size,
            desc.len,
            Arc::clone(&self.file),
            desc.entries.clone(),
        ))
    }
}

/// Validates a column section's header and prefix-sum directory. All sizes
/// are checked against the (already file-length-bounded) section extent
/// before any allocation or use.
fn parse_column_section(file: &File, offset: u64, len: u64) -> Result<ColumnDesc, SegmentError> {
    if len < 32 {
        return Err(SegmentError::Corrupt("column section too short"));
    }
    let mut header = [0u8; 32];
    file.read_exact_at(&mut header, offset)?;
    let tag = u32::from_le_bytes(header[0..4].try_into().unwrap());
    let width = u32::from_le_bytes(header[4..8].try_into().unwrap());
    let block_size = u64::from_le_bytes(header[8..16].try_into().unwrap());
    let values = u64::from_le_bytes(header[16..24].try_into().unwrap());
    let block_count = u64::from_le_bytes(header[24..32].try_into().unwrap());
    let codec = codec_from_parts(tag, width)?;
    let block_size = usize::try_from(block_size)
        .ok()
        .filter(|&b| b > 0 && b.is_multiple_of(ENTRY_POINT_STRIDE))
        .ok_or(SegmentError::Corrupt("bad column block size"))?;
    let values = usize::try_from(values)
        .map_err(|_| SegmentError::Corrupt("column length exceeds address space"))?;
    if block_count != values.div_ceil(block_size) as u64 {
        return Err(SegmentError::Corrupt(
            "block count disagrees with column length",
        ));
    }
    // Directory size, checked against the section extent *before* reading:
    // a corrupt block count cannot size an allocation past the real file.
    let dir_len = block_count
        .checked_add(1)
        .and_then(|n| n.checked_mul(8))
        .ok_or(SegmentError::Corrupt("block count overflows"))?;
    let payload_len = len
        .checked_sub(32)
        .and_then(|n| n.checked_sub(dir_len))
        .ok_or(SegmentError::Corrupt("directory exceeds column section"))?;
    let mut dir = vec![0u8; dir_len as usize];
    file.read_exact_at(&mut dir, offset + 32)?;
    let payload_start = offset + 32 + dir_len;
    let mut entries = Vec::with_capacity(block_count as usize);
    let mut prev = 0u64;
    for (i, raw) in dir.chunks_exact(8).enumerate() {
        let v = u64::from_le_bytes(raw.try_into().unwrap());
        if i == 0 {
            if v != 0 {
                return Err(SegmentError::Corrupt("directory must start at zero"));
            }
            prev = v;
            continue;
        }
        let extent = v
            .checked_sub(prev)
            .ok_or(SegmentError::Corrupt("directory not monotone"))?;
        if extent == 0 {
            return Err(SegmentError::Corrupt("empty block extent"));
        }
        let extent =
            u32::try_from(extent).map_err(|_| SegmentError::Corrupt("block extent too large"))?;
        entries.push((payload_start + prev, extent));
        prev = v;
    }
    if prev != payload_len {
        return Err(SegmentError::Corrupt(
            "directory does not cover section payload",
        ));
    }
    Ok(ColumnDesc {
        codec,
        block_size,
        len: values,
        entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{BufferManager, BufferMode};
    use crate::column::ColumnBuilder;
    use crate::disk::DiskModel;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(name: &str) -> std::path::PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "x100-segment-{name}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn sample_column(n: usize, block: usize, codec: Codec) -> Column {
        let values: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(13) % 9999).collect();
        let mut b = ColumnBuilder::with_block_size("c", codec, block);
        b.extend(&values);
        b.finish()
    }

    fn write_sample(path: &Path) -> Column {
        let col = sample_column(2000, 256, Codec::PforDelta { width: 8 });
        let mut w = SegmentWriter::create(path).unwrap();
        w.write_section(SectionKind::Meta, b"meta-bytes").unwrap();
        w.write_column_section(SectionKind::ColDocid, &col).unwrap();
        w.finish().unwrap();
        col
    }

    #[test]
    fn roundtrip_column_through_segment() {
        let path = temp_path("roundtrip");
        let col = write_sample(&path);
        let r = SegmentReader::open(&path).unwrap();
        assert_eq!(r.read_section(SectionKind::Meta).unwrap(), b"meta-bytes");
        let back = r.open_column(SectionKind::ColDocid, "docid").unwrap();
        assert!(back.is_disk_backed());
        assert_eq!(back.codec(), col.codec());
        assert_eq!(back.block_size(), col.block_size());
        assert_eq!(back.block_count(), col.block_count());
        assert_eq!(back.read_all(), col.read_all());
        // Random block access through the directory.
        for i in [3, 0, 7, 2] {
            assert_eq!(back.block(i), col.block(i), "block {i}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    fn largest_block(col: &Column) -> usize {
        let sizes = (0..col.block_count()).map(|i| col.block_bytes(i));
        sizes.max().expect("sample column has blocks")
    }

    /// A pool that holds exactly one block of `col`: every block fits
    /// alone, any two are over budget.
    fn one_block_pool(col: &Column) -> BufferManager {
        BufferManager::new(DiskModel::instant(), largest_block(col))
    }

    /// Cuts the segment file short through a second handle, so every later
    /// block read fails.
    fn truncate(path: &Path) {
        let file = std::fs::OpenOptions::new().write(true).open(path).unwrap();
        file.set_len(HEADER_LEN).unwrap();
    }

    #[test]
    fn pinned_means_alive_without_a_second_read() {
        let path = temp_path("pinned");
        let expect = write_sample(&path).read_all();
        let r = SegmentReader::open(&path).unwrap();
        let back = r.open_column(SectionKind::ColDocid, "docid").unwrap();
        let bm = one_block_pool(&back);
        let mut scan = crate::scan::ColumnScan::new(&back, &bm, 64);
        let (mut v, mut got) = (Vec::new(), Vec::new());
        scan.next_into(&mut v).unwrap();
        got.extend_from_slice(&v);
        // Mid-block 0: another reader's touch evicts it, then the file goes.
        bm.touch(&back, 1);
        assert!(!bm.is_resident(&back, 0));
        truncate(&path);
        let reads = bm.stats().reads;
        while scan.position() < back.block_size() {
            scan.next_into(&mut v).unwrap();
            got.extend_from_slice(&v);
        }
        assert_eq!(got, &expect[..back.block_size()]);
        assert_eq!(bm.stats().reads, reads, "a pinned block was read again");
        // Block 1 is still resident; block 2 needs the file and gets a
        // typed error, not a panic.
        scan.next_into(&mut v).unwrap();
        assert_eq!(v, &expect[256..320]);
        scan.seek(2 * back.block_size()).unwrap();
        let eof = crate::StorageError::Io(std::io::ErrorKind::UnexpectedEof);
        assert_eq!(scan.next_into(&mut v), Err(eof.clone()));
        // The un-pooled block read returns the same typed error.
        assert_eq!(back.fetch(2).err(), Some(eof));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn evicted_means_freed() {
        let path = temp_path("freed");
        write_sample(&path);
        let r = SegmentReader::open(&path).unwrap();
        let back = r.open_column(SectionKind::ColDocid, "docid").unwrap();
        let bm = one_block_pool(&back);
        let pin = bm.pin(&back, 0).unwrap();
        let weak = Arc::downgrade(&pin);
        bm.touch(&back, 1); // evicts block 0; the pin keeps it alive
        assert!(!bm.is_resident(&back, 0));
        assert!(weak.upgrade().is_some());
        drop(pin);
        assert!(weak.upgrade().is_none(), "evicted and unpinned, yet alive");
        // Resident and unpinned: the pool's reference is the only one, and
        // evicting drops it.
        let weak = Arc::downgrade(&bm.pin(&back, 2).unwrap());
        assert!(weak.upgrade().is_some());
        bm.touch(&back, 3);
        assert!(weak.upgrade().is_none());
        // After evict_all and dropping every pin, no block of the column
        // is alive anywhere.
        let hot = BufferManager::with_mode(DiskModel::instant(), BufferMode::Hot, 0);
        let pins: Vec<_> = (0..back.block_count())
            .map(|i| hot.pin(&back, i).unwrap())
            .collect();
        let weaks: Vec<_> = pins.iter().map(Arc::downgrade).collect();
        hot.evict_all();
        assert_eq!(hot.resident_bytes(), 0);
        assert!(weaks.iter().all(|w| w.upgrade().is_some()));
        drop(pins);
        assert!(weaks.iter().all(|w| w.upgrade().is_none()));
        std::fs::remove_file(&path).unwrap();
    }

    /// The disk-backed leg of `buffer::tests::
    /// concurrent_stress_under_capacity_pressure`: threads pin and decode
    /// every block through a one-block pool, so nearly every pin is a miss
    /// racing other misses, admissions and evictions, and every decoded
    /// block must equal the in-memory column's.
    #[test]
    fn concurrent_disk_backed_pins_under_capacity_pressure() {
        let path = temp_path("stress");
        let col = write_sample(&path);
        let r = SegmentReader::open(&path).unwrap();
        let back = r.open_column(SectionKind::ColDocid, "docid").unwrap();
        let bm = one_block_pool(&back);
        let values = col.read_all();
        let expect: Vec<&[u32]> = values.chunks(col.block_size()).collect();
        const THREADS: usize = 4;
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (bm, back, expect, start) = (&bm, &back, &expect, &start);
                s.spawn(move || {
                    let mut v = Vec::new();
                    start.wait();
                    for round in 0..80 {
                        // Half the threads chase each other over the same
                        // blocks (duplicate misses), half run against them.
                        let b = match t % 2 {
                            0 => round % expect.len(),
                            _ => (expect.len() - 1) - round % expect.len(),
                        };
                        bm.pin(back, b).unwrap().decode_into(&mut v);
                        assert_eq!(v, expect[b], "thread {t} block {b}");
                        if round % 29 == 7 && t == 0 {
                            bm.evict_all();
                        }
                    }
                });
            }
        });
        bm.assert_consistent();
        assert!(
            bm.resident_bytes() <= largest_block(&back),
            "pool settled over its one-block budget: {}",
            bm.resident_bytes()
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn scan_through_buffer_pool_matches_memory_column() {
        let path = temp_path("scan");
        let col = write_sample(&path);
        let r = SegmentReader::open(&path).unwrap();
        let back = r.open_column(SectionKind::ColDocid, "docid").unwrap();
        let bm = BufferManager::with_mode(DiskModel::instant(), BufferMode::Cold, 1 << 16);
        let mut scan = crate::scan::ColumnScan::new(&back, &bm, 128);
        let mut got = Vec::new();
        let mut v = Vec::new();
        while scan.next_into(&mut v).unwrap() > 0 {
            got.extend_from_slice(&v);
        }
        assert_eq!(got, col.read_all());
        assert_eq!(bm.stats().reads as usize, back.block_count());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_wrong_magic_and_version() {
        let path = temp_path("magic");
        write_sample(&path);
        let mut bytes = std::fs::read(&path).unwrap();
        let good = bytes.clone();
        bytes[0] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            SegmentReader::open(&path),
            Err(SegmentError::BadMagic(_))
        ));
        bytes = good;
        bytes[4] = 99;
        // Re-seal the header checksum so the version check is what fires.
        let sum = fnv1a64(&bytes[0..32]);
        bytes[32..40].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            SegmentReader::open(&path),
            Err(SegmentError::BadVersion(99))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_column_roundtrips() {
        let path = temp_path("empty");
        let col = sample_column(0, 128, Codec::Raw);
        let mut w = SegmentWriter::create(&path).unwrap();
        w.write_column_section(SectionKind::ColTf, &col).unwrap();
        w.finish().unwrap();
        let r = SegmentReader::open(&path).unwrap();
        let back = r.open_column(SectionKind::ColTf, "tf").unwrap();
        assert_eq!(back.len(), 0);
        assert_eq!(back.block_count(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    #[should_panic(expected = "written twice")]
    fn duplicate_section_kind_is_a_writer_bug() {
        let path = temp_path("dup");
        let mut w = SegmentWriter::create(&path).unwrap();
        w.write_section(SectionKind::Meta, b"a").unwrap();
        let _ = w.write_section(SectionKind::Meta, b"b");
    }

    #[test]
    #[should_panic(expected = "another section is open")]
    fn nested_sections_are_a_writer_bug() {
        let path = temp_path("nested");
        let mut w = SegmentWriter::create(&path).unwrap();
        w.begin_section(SectionKind::Meta).unwrap();
        let _ = w.begin_section(SectionKind::Terms);
    }

    #[test]
    fn streamed_section_matches_whole_buffer_write() {
        let payload: Vec<u8> = (0..10_000u32).flat_map(|i| i.to_le_bytes()).collect();
        let whole = temp_path("stream-whole");
        let mut w = SegmentWriter::create(&whole).unwrap();
        w.write_section(SectionKind::Meta, &payload).unwrap();
        w.finish().unwrap();
        let streamed = temp_path("stream-chunks");
        let mut w = SegmentWriter::create(&streamed).unwrap();
        w.begin_section(SectionKind::Meta).unwrap();
        for chunk in payload.chunks(777) {
            w.append(chunk).unwrap();
        }
        w.end_section().unwrap();
        w.finish().unwrap();
        // Byte-identical files: same offsets, checksums, TOC, header.
        assert_eq!(
            std::fs::read(&whole).unwrap(),
            std::fs::read(&streamed).unwrap()
        );
        let r = SegmentReader::open(&streamed).unwrap();
        assert_eq!(r.read_section(SectionKind::Meta).unwrap(), payload);
        std::fs::remove_file(&whole).unwrap();
        std::fs::remove_file(&streamed).unwrap();
    }

    /// A segment whose header says `version`, re-sealed so the typed
    /// version rejection (not a checksum error) is what fires.
    fn open_rejects_version(version: u16) {
        let path = temp_path(&format!("v{version}"));
        write_sample(&path);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..6].copy_from_slice(&version.to_le_bytes());
        let sum = fnv1a64(&bytes[0..32]);
        bytes[32..40].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            SegmentReader::open(&path),
            Err(SegmentError::BadVersion(v)) if v == version
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_version_one_files() {
        open_rejects_version(1);
    }

    /// Version-2 files store blocks in the word-by-word serialized format.
    #[test]
    fn open_rejects_version_two_files() {
        open_rejects_version(2);
    }

    /// Version-3 files store the vocabulary's fence keys and the name
    /// pages' directory beside the pages.
    #[test]
    fn open_rejects_version_three_files() {
        open_rejects_version(3);
    }
}
