//! Property tests for ColumnBM: columns round-trip under every codec, block
//! size and read pattern; the buffer manager's accounting stays consistent.

use proptest::prelude::*;
use x100_compress::{Codec, ENTRY_POINT_STRIDE};
use x100_storage::{BufferManager, BufferMode, Column, ColumnBuilder, ColumnScan, DiskModel};

fn any_codec() -> impl Strategy<Value = Codec> {
    prop_oneof![
        Just(Codec::Raw),
        // Width 0: each block picks its own.
        (0u8..=16).prop_map(|width| Codec::Pfor { width }),
        (0u8..=16).prop_map(|width| Codec::PforDelta { width }),
        (1u8..=10).prop_map(|width| Codec::Pdict { width }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn column_roundtrips_any_codec_and_block_size(
        values in prop::collection::vec(any::<u32>(), 0..4000),
        codec in any_codec(),
        blocks in 1usize..8,
    ) {
        let block_size = blocks * ENTRY_POINT_STRIDE;
        let mut b = ColumnBuilder::with_block_size("c", codec, block_size);
        b.extend(&values);
        let col = b.finish();
        prop_assert_eq!(col.read_all(), values);
    }

    #[test]
    fn scan_equals_read_all_at_any_vector_size(
        values in prop::collection::vec(0u32..1_000_000, 1..3000),
        vector_size in 1usize..600,
        blocks in 1usize..6,
    ) {
        let mut b = ColumnBuilder::with_block_size(
            "c",
            Codec::Pfor { width: 8 },
            blocks * ENTRY_POINT_STRIDE,
        );
        b.extend(&values);
        let col = b.finish();
        let bm = BufferManager::with_mode(DiskModel::instant(), BufferMode::Hot, 0);
        let mut scan = ColumnScan::new(&col, &bm, vector_size);
        let mut got = Vec::new();
        let mut v = Vec::new();
        while scan.next_into(&mut v).unwrap() > 0 {
            got.extend_from_slice(&v);
        }
        prop_assert_eq!(got, values);
    }

    #[test]
    fn seek_then_read_matches_slice(
        values in prop::collection::vec(0u32..1_000_000, 10..2000),
        seek_frac in 0.0f64..1.0,
        vector_size in 1usize..300,
    ) {
        let col = Column::from_values("c", Codec::Pfor { width: 8 }, &values);
        let bm = BufferManager::with_mode(DiskModel::instant(), BufferMode::Hot, 0);
        let mut scan = ColumnScan::new(&col, &bm, vector_size);
        let pos = ((values.len() as f64) * seek_frac) as usize;
        scan.seek(pos).unwrap();
        let mut v = Vec::new();
        let produced = scan.next_into(&mut v).unwrap();
        let expect = &values[pos..(pos + vector_size).min(values.len())];
        prop_assert_eq!(produced, expect.len());
        prop_assert_eq!(&v[..], expect);
    }

    #[test]
    fn pfor_delta_scan_from_an_entry_point_matches_slice(
        values in prop::collection::vec(any::<u32>(), 1..3000),
        start_stride in 0usize..20,
        len in 1usize..700,
    ) {
        let col = Column::from_values("c", Codec::PforDelta { width: 8 }, &values);
        let start = (start_stride * ENTRY_POINT_STRIDE).min(values.len());
        let start = start - start % ENTRY_POINT_STRIDE;
        let len = len.min(values.len() - start);
        let bm = BufferManager::with_mode(DiskModel::instant(), BufferMode::Hot, 0);
        let mut scan = ColumnScan::new(&col, &bm, len.max(1));
        scan.seek(start).unwrap();
        let mut out = Vec::new();
        scan.next_into(&mut out).unwrap();
        prop_assert_eq!(&out[..], &values[start..start + len]);
    }

    #[test]
    fn buffer_manager_accounting_is_consistent(
        touches in prop::collection::vec(0usize..12, 1..200),
        capacity_blocks in 1usize..12,
    ) {
        let values: Vec<u32> = (0..(12 * ENTRY_POINT_STRIDE) as u32).collect();
        let mut b = ColumnBuilder::with_block_size("c", Codec::Raw, ENTRY_POINT_STRIDE);
        b.extend(&values);
        let col = b.finish();
        let one_block = col.block(0).compressed_bytes();
        let bm = BufferManager::new(DiskModel::raid12(), one_block * capacity_blocks);
        for &t in &touches {
            bm.touch(&col, t);
            // Invariants after every operation:
            prop_assert!(bm.resident_bytes() <= one_block * capacity_blocks.max(1));
            prop_assert!(bm.resident_blocks() >= 1);
            prop_assert!(bm.resident_blocks() <= capacity_blocks.max(1));
        }
        // Total charged bytes equal miss count times block size.
        let stats = bm.stats();
        prop_assert_eq!(stats.bytes, stats.reads * one_block as u64);
        bm.evict_all();
        prop_assert_eq!(bm.resident_blocks(), 0);
        prop_assert_eq!(bm.resident_bytes(), 0);
    }
}
