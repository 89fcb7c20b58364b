//! ColumnBM — the column-oriented storage manager of MonetDB/X100 (§2).
//!
//! The paper's buffer manager "relies on a column-oriented storage scheme, to
//! avoid reading unnecessary columns from disk", reads in "blocks of several
//! megabytes, to optimize for fast sequential I/O", and keeps blocks
//! **compressed in RAM**, decompressing on demand at vector granularity
//! straight into the CPU cache (§2.1).
//!
//! This crate reproduces that architecture over a *simulated* disk:
//!
//! * [`disk::DiskModel`] — a deterministic seek + bandwidth cost model
//!   standing in for the paper's 12-disk software RAID. Cold-run I/O time in
//!   the Table 2 experiments is *accounted* through this model rather than
//!   measured on real hardware, which makes the experiment machine-
//!   independent while preserving the compressed-vs-raw transfer ratio that
//!   drives the paper's results (see "Substitutions vs the paper" in
//!   `docs/ARCHITECTURE.md`).
//! * [`column::Column`] — a compressed column: a sequence of
//!   [`x100_compress::CompressedBlock`]s plus length metadata. Blocks are
//!   [`column::DEFAULT_BLOCK_SIZE`] (32 Ki) values unless the builder asks
//!   otherwise, not the paper's several megabytes: see the column module.
//! * [`buffer::BufferManager`] — ColumnBM proper: owns the RAM-resident
//!   compressed blocks, hands them to readers as pins, charges simulated
//!   disk time on misses, and evicts LRU under a configurable RAM budget.
//! * [`scan::ColumnScan`] — a seekable cursor producing values at vector
//!   granularity, the storage-side half of the execution pipeline.
//! * [`table::Table`] — a named set of equal-length columns (the relational
//!   veneer the IR layer builds TD/D/T on).
//! * [`runfile`] — checksummed, term-ordered on-disk posting runs: the
//!   external-sort leg that lets index construction spill under a memory
//!   budget and k-way merge back to one sorted posting stream.
//! * [`segment`] — the persistent single-file format: checksummed 64-byte-
//!   aligned sections with per-column prefix-sum block directories, served
//!   back through the buffer pool with real `pread`s on misses.

pub mod buffer;
pub mod column;
pub mod disk;
pub mod runfile;
pub mod scan;
pub mod segment;
pub mod table;

pub use buffer::{BufferManager, BufferMode, NUM_STRIPES};
pub use column::{Column, ColumnBuilder, ColumnId};
pub use disk::{DiskModel, IoStats};
pub use runfile::{MemRun, RunFileError, RunFileReader, RunFileWriter, RunMeta, RunSource};
pub use scan::ColumnScan;
pub use segment::{SectionKind, SegmentError, SegmentReader, SegmentWriter};
pub use table::Table;

use std::fmt;

/// Errors surfaced by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// Request past the end of a column.
    OutOfBounds { position: usize, len: usize },
    /// A range read whose start is not aligned to the entry-point stride.
    /// [`Column::read_range`] is where the alignment contract is enforced:
    /// compressed blocks can only begin decoding at an entry point.
    Misaligned {
        /// The requested (unaligned) start position.
        position: usize,
        /// The entry-point stride positions must align to (128).
        stride: usize,
    },
    /// A column with this name does not exist in the table.
    UnknownColumn(String),
    /// Underlying codec failure (corrupt block, misaligned range).
    Codec(x100_compress::CodecError),
    /// A block read from an open segment failed: the file changed, or the
    /// device faulted, after the open-time verification (kind-only so the
    /// error stays `Clone + Eq`).
    Io(std::io::ErrorKind),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::OutOfBounds { position, len } => {
                write!(
                    f,
                    "position {position} out of bounds for column of length {len}"
                )
            }
            StorageError::Misaligned { position, stride } => {
                write!(
                    f,
                    "range start {position} is not aligned to the entry-point stride {stride}"
                )
            }
            StorageError::UnknownColumn(name) => write!(f, "unknown column: {name}"),
            StorageError::Codec(e) => write!(f, "codec error: {e}"),
            StorageError::Io(kind) => write!(f, "segment block read failed: {kind}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<x100_compress::CodecError> for StorageError {
    fn from(e: x100_compress::CodecError) -> Self {
        StorageError::Codec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = StorageError::UnknownColumn("tf".into());
        assert!(e.to_string().contains("tf"));
        let e = StorageError::OutOfBounds {
            position: 9,
            len: 3,
        };
        assert!(e.to_string().contains('9'));
    }

    #[test]
    fn codec_error_converts() {
        let e: StorageError = x100_compress::CodecError::Truncated.into();
        assert!(matches!(e, StorageError::Codec(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
