//! Cross-crate property tests: the vectorized pipeline against straight-line
//! reference implementations.

use proptest::prelude::*;

use monetdb_x100::compress::Codec;
use monetdb_x100::exec::collect_batches;
use monetdb_x100::exec::prelude::*;
use monetdb_x100::storage::{BufferManager, BufferMode, Column, DiskModel, Table};
use monetdb_x100::vector::{Batch, ValueType, Vector};

/// Sorted unique docids with payloads — a posting list.
fn posting_list() -> impl Strategy<Value = Vec<(i32, i32)>> {
    prop::collection::btree_map(0i32..5000, 1i32..100, 0..300).prop_map(|m| m.into_iter().collect())
}

fn postings_op(rows: &[(i32, i32)]) -> Box<dyn Operator> {
    let docid: Vec<i32> = rows.iter().map(|&(d, _)| d).collect();
    let tf: Vec<i32> = rows.iter().map(|&(_, t)| t).collect();
    Box::new(MemSource::new(
        vec![Batch::new(vec![
            Vector::from_i32(&docid),
            Vector::from_i32(&tf),
        ])],
        vec![ValueType::I32, ValueType::I32],
    ))
}

fn rows_of(batches: &[Batch]) -> Vec<Vec<i32>> {
    let mut rows = Vec::new();
    for b in batches {
        for r in 0..b.num_rows() {
            rows.push(
                (0..b.num_columns())
                    .map(|c| b.column(c).as_i32()[r])
                    .collect(),
            );
        }
    }
    rows
}

proptest! {
    /// MergeJoin == sorted set intersection.
    #[test]
    fn merge_join_is_intersection(a in posting_list(), b in posting_list(), vs in 1usize..200) {
        let join = MergeJoin::new(postings_op(&a), postings_op(&b), 0, 0, vs).unwrap();
        let got: Vec<i32> = rows_of(&collect_batches(join).unwrap())
            .into_iter()
            .map(|r| r[0])
            .collect();
        let bset: std::collections::BTreeSet<i32> = b.iter().map(|&(d, _)| d).collect();
        let expect: Vec<i32> = a.iter().map(|&(d, _)| d).filter(|d| bset.contains(d)).collect();
        prop_assert_eq!(got, expect);
    }

    /// MergeOuterJoin == sorted set union, with zero-filled misses.
    #[test]
    fn merge_outer_join_is_union(a in posting_list(), b in posting_list(), vs in 1usize..200) {
        let join = MergeOuterJoin::new(postings_op(&a), postings_op(&b), 0, 0, vs).unwrap();
        let rows = rows_of(&collect_batches(join).unwrap());
        let got: Vec<i32> = rows.iter().map(|r| r[0].max(r[2])).collect();
        let mut expect: Vec<i32> = a
            .iter()
            .map(|&(d, _)| d)
            .chain(b.iter().map(|&(d, _)| d))
            .collect();
        expect.sort_unstable();
        expect.dedup();
        prop_assert_eq!(got, expect);
        // tf columns: 0 exactly when the side is missing.
        let aset: std::collections::BTreeMap<i32, i32> = a.iter().copied().collect();
        for r in &rows {
            let d = r[0].max(r[2]);
            match aset.get(&d) {
                Some(&tf) => prop_assert_eq!(r[1], tf),
                None => prop_assert_eq!(r[1], 0),
            }
        }
    }

    /// TopN == take(n) of the fully sorted input (with the same tie rule).
    #[test]
    fn topn_is_sort_prefix(
        scores in prop::collection::vec(-1000i32..1000, 0..400),
        n in 0usize..50,
        vs in 1usize..100,
    ) {
        let ids: Vec<i32> = (0..scores.len() as i32).collect();
        let src = Box::new(MemSource::new(
            vec![Batch::new(vec![
                Vector::from_i32(&ids),
                Vector::from_i32(&scores),
            ])],
            vec![ValueType::I32, ValueType::I32],
        ));
        let top = TopN::new(src, 1, n, vs).unwrap();
        let got: Vec<(i32, i32)> = rows_of(&collect_batches(top).unwrap())
            .into_iter()
            .map(|r| (r[0], r[1]))
            .collect();
        let mut expect: Vec<(i32, i32)> = ids.iter().copied().zip(scores.iter().copied()).collect();
        // Descending score; ties keep earlier (smaller id first).
        expect.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
        expect.truncate(n);
        prop_assert_eq!(got, expect);
    }

    /// A stored, compressed table scanned at any vector size round-trips.
    #[test]
    fn stored_scan_roundtrips(
        values in prop::collection::vec(0u32..1_000_000, 1..3000),
        vs in 1usize..300,
    ) {
        let mut sorted = values.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let mut table = Table::new("t");
        table.add_column(Column::from_values("docid", Codec::PforDelta { width: 8 }, &sorted));
        let bm = BufferManager::with_mode(DiskModel::instant(), BufferMode::Hot, 0);
        let scan = TableScan::new(&table, &bm, &["docid"], vs).unwrap();
        let got = monetdb_x100::exec::collect_i32_column(scan, 0).unwrap();
        let expect: Vec<i32> = sorted.iter().map(|&v| v as i32).collect();
        prop_assert_eq!(got, expect);
    }

    /// Project over the node shapes the ranked plans build == a scalar loop
    /// in the same operation order, bit for bit: the outer join's
    /// `MAX(docid, docid)`, computed BM25 (`gather_i32` → `cast_f32` →
    /// `mul` / `div` / `add` with `const_f32`) and the materialized sum
    /// (`f32_from_bits` + `cast_f32`).
    #[test]
    fn project_matches_iterator(
        rows in prop::collection::vec((0i32..64, 0i32..100, 0i32..64, 0i32..100, -1000.0f64..1000.0), 0..500),
        lens in prop::collection::vec(1i32..5000, 64..65),
        k in (0.5f64..2.0, 0.0f64..1.0, 1.0f64..500.0, 0.0f64..10.0, 0.0f64..10.0),
        vs in 1usize..100,
    ) {
        let (k1, b, avg, idf1, idf2) = (k.0 as f32, k.1 as f32, k.2 as f32, k.3 as f32, k.4 as f32);
        let col = |f: fn(&(i32, i32, i32, i32, f64)) -> i32| -> Vec<i32> { rows.iter().map(f).collect() };
        let cols = [
            col(|r| r.0),
            col(|r| r.1),
            col(|r| r.2),
            col(|r| r.3),
            col(|r| (r.4 as f32).to_bits() as i32),
        ];
        let batches: Vec<Batch> = (0..rows.len())
            .step_by(vs)
            .map(|at| {
                let end = (at + vs).min(rows.len());
                Batch::new(cols.iter().map(|c| Vector::from_i32(&c[at..end])).collect())
            })
            .collect();
        let src = Box::new(MemSource::new(batches, vec![ValueType::I32; 5]));

        let (c0, c1) = (k1 * (1.0 - b), k1 * b / avg);
        let lens = std::sync::Arc::new(lens);
        let doclen = Expr::cast_f32(Expr::gather_i32(lens.clone(), Expr::col_i32(0)));
        let norm = Expr::add(Expr::const_f32(c0), Expr::mul(Expr::const_f32(c1), doclen));
        let term = |col: usize, w: f32| {
            let tf = Expr::cast_f32(Expr::col_i32(col));
            Expr::mul(
                Expr::const_f32(w * (k1 + 1.0)),
                Expr::div(tf.clone(), Expr::add(tf, norm.clone())),
            )
        };
        let proj = Project::new(
            src,
            vec![
                Expr::max(Expr::col_i32(0), Expr::col_i32(2)),
                Expr::add(term(1, idf1), term(3, idf2)),
                Expr::add(Expr::f32_from_bits(Expr::col_i32(4)), Expr::cast_f32(Expr::col_i32(3))),
            ],
        );
        let batches = collect_batches(proj).unwrap();
        let mut got: Vec<(i32, u32, u32)> = Vec::new();
        for b in &batches {
            let (d, s, m) = (b.column(0).as_i32(), b.column(1).as_f32(), b.column(2).as_f32());
            for r in 0..b.num_rows() {
                got.push((d[r], s[r].to_bits(), m[r].to_bits()));
            }
        }

        let expect: Vec<(i32, u32, u32)> = rows
            .iter()
            .map(|&(d1, tf1, d2, tf2, stored)| {
                let dl = lens[d1 as usize] as f32;
                let norm = c0 + c1 * dl;
                let term = |tf: i32, w: f32| {
                    let tf = tf as f32;
                    (w * (k1 + 1.0)) * (tf / (tf + norm))
                };
                let score = term(tf1, idf1) + term(tf2, idf2);
                let materialized = stored as f32 + tf2 as f32;
                (d1.max(d2), score.to_bits(), materialized.to_bits())
            })
            .collect();
        prop_assert_eq!(got, expect);
    }
}
