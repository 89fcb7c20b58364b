//! Hand-building a vectorized X100 pipeline (§2, §3.2).
//!
//! ```text
//! cargo run --release --example relational_pipeline
//! ```
//!
//! The IR layer normally plans queries for you; this example drops one
//! level down and assembles, by hand, the operators those plans are made
//! of: two posting lists (in-memory stand-ins for `ScanSelect`), a merge
//! join for `AND` and an outer merge join for `OR`, a projection over
//! vectorized primitives, and a TopN.

use monetdb_x100::exec::prelude::*;
use monetdb_x100::vector::{Batch, ValueType, Vector};

/// A sorted (docid, tf) posting list as an in-memory operator.
fn postings(rows: &[(i32, i32)]) -> Box<dyn Operator> {
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

fn information() -> Box<dyn Operator> {
    postings(&[(1, 3), (4, 1), (7, 2), (9, 5), (12, 1)])
}

fn retrieval() -> Box<dyn Operator> {
    postings(&[(2, 1), (4, 2), (9, 1), (12, 4), (15, 2)])
}

/// Projects `[docid, score]` from a joined `[docid_l, tf1, docid_r, tf2]`,
/// with score = tf1 + 2*tf2 (a toy weighting) computed by vectorized map
/// primitives, then keeps the top 5 by score.
fn rank(joined: Box<dyn Operator>, docid: Expr) -> Vec<(i32, f32)> {
    let scored = Project::new(
        joined,
        vec![
            docid,
            Expr::add(
                Expr::cast_f32(Expr::col_i32(1)),
                Expr::mul(Expr::const_f32(2.0), Expr::cast_f32(Expr::col_i32(3))),
            ),
        ],
    );
    let top = TopN::new(Box::new(scored), 1, 5, 1024).expect("plan");
    let mut rows = Vec::new();
    for b in &collect_batches(top).expect("run") {
        let (ids, scores) = (b.column(0).as_i32(), b.column(1).as_f32());
        rows.extend(ids.iter().copied().zip(scores.iter().copied()));
    }
    rows
}

fn main() {
    // "information AND retrieval": both docids are equal; keep the left.
    let and = MergeJoin::new(information(), retrieval(), 0, 0, 1024).expect("plan");
    println!("TopN(Project(MergeJoin(information, retrieval))):");
    for (docid, score) in rank(Box::new(and), Expr::col_i32(0)) {
        println!("  docid {docid}  score {score}");
    }

    // "information OR retrieval": the missing side is zero-filled, so
    // MAX(docid_l, docid_r) recovers the docid and tf 0 adds nothing.
    let or = MergeOuterJoin::new(information(), retrieval(), 0, 0, 1024).expect("plan");
    println!("\nTopN(Project(MergeOuterJoin(information, retrieval))):");
    for (docid, score) in rank(Box::new(or), Expr::max(Expr::col_i32(0), Expr::col_i32(2))) {
        println!("  docid {docid}  score {score}");
    }
}
