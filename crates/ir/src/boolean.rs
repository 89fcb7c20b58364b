//! Nested boolean queries — the paper's `"information AND (storing OR
//! retrieval)"` example (§3.2).
//!
//! "Such a boolean retrieval approach can be formulated in relational
//! algebra as a series of join operations over inverted lists, with boolean
//! AND and OR mapping to Join and OuterJoin respectively":
//!
//! ```text
//! Join(
//!   ScanSelect( TD1=TD, TD1.term="information" ),
//!   OuterJoin(
//!     ScanSelect( TD2=TD, TD2.term="storing" ),
//!     ScanSelect( TD3=TD, TD3.term="retrieval" )))
//! ```
//!
//! [`BooleanQuery`] is the expression tree, [`parse`] a small query-string
//! parser (conventional precedence: `AND` binds tighter than `OR`,
//! parentheses override), and [`crate::QueryEngine::search_boolean`]
//! compiles the tree to exactly the nested plan above.
//!
//! Semantics note: unlike the flat ranked API (where unknown terms are
//! inert), boolean semantics are strict — a term matching nothing makes an
//! `AND` branch empty, as it should.

use std::fmt;

/// A nested boolean keyword query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BooleanQuery {
    /// A single keyword.
    Term(String),
    /// All branches must match (maps to `MergeJoin`).
    And(Vec<BooleanQuery>),
    /// Any branch may match (maps to `MergeOuterJoin`).
    Or(Vec<BooleanQuery>),
}

impl BooleanQuery {
    /// A term leaf.
    pub fn term(t: impl Into<String>) -> Self {
        BooleanQuery::Term(t.into())
    }

    /// Conjunction of sub-queries.
    pub fn and(parts: Vec<BooleanQuery>) -> Self {
        BooleanQuery::And(parts)
    }

    /// Disjunction of sub-queries.
    pub fn or(parts: Vec<BooleanQuery>) -> Self {
        BooleanQuery::Or(parts)
    }

    /// All distinct terms mentioned, in first-appearance order.
    pub fn terms(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_terms(&mut out);
        out
    }

    fn collect_terms<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            BooleanQuery::Term(t) => {
                if !out.contains(&t.as_str()) {
                    out.push(t);
                }
            }
            BooleanQuery::And(parts) | BooleanQuery::Or(parts) => {
                for p in parts {
                    p.collect_terms(out);
                }
            }
        }
    }

    /// Renders the paper-style relational plan for this query.
    pub fn plan_text(&self) -> String {
        match self {
            BooleanQuery::Term(t) => format!("ScanSelect( TD=TD, TD.term=\"{t}\" )"),
            BooleanQuery::And(parts) => nest("Join", parts),
            BooleanQuery::Or(parts) => nest("OuterJoin", parts),
        }
    }
}

fn nest(op: &str, parts: &[BooleanQuery]) -> String {
    match parts {
        [] => "Empty".to_owned(),
        [one] => one.plan_text(),
        [head, tail @ ..] => {
            let right = nest(op, tail);
            let left = head.plan_text();
            format!("{op}(\n  {},\n  {})", indent(&left), indent(&right))
        }
    }
}

fn indent(s: &str) -> String {
    s.replace('\n', "\n  ")
}

impl fmt::Display for BooleanQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BooleanQuery::Term(t) => f.write_str(t),
            BooleanQuery::And(parts) => write_infix(f, parts, " AND "),
            BooleanQuery::Or(parts) => write_infix(f, parts, " OR "),
        }
    }
}

fn write_infix(f: &mut fmt::Formatter<'_>, parts: &[BooleanQuery], op: &str) -> fmt::Result {
    for (i, p) in parts.iter().enumerate() {
        if i > 0 {
            f.write_str(op)?;
        }
        match p {
            BooleanQuery::Term(_) => write!(f, "{p}")?,
            _ => write!(f, "({p})")?,
        }
    }
    Ok(())
}

/// Parse error for boolean query strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Token index where it went wrong.
    pub at: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at token {})", self.message, self.at)
    }
}

impl std::error::Error for ParseError {}

/// Parses `"information AND (storing OR retrieval)"`-style query strings.
///
/// Grammar (conventional precedence — `AND` binds tighter than `OR`;
/// `AND`/`OR` are case-insensitive keywords, anything else is a term):
///
/// ```text
/// query  := andExpr ( OR  andExpr )*
/// andExpr:= atom    ( AND atom    )*
/// atom   := TERM | '(' query ')'
/// ```
pub fn parse(input: &str) -> Result<BooleanQuery, ParseError> {
    let tokens = tokenize(input);
    let mut p = Parser { tokens, pos: 0 };
    let q = p.parse_or()?;
    if p.pos != p.tokens.len() {
        return Err(ParseError {
            message: format!("unexpected trailing input '{}'", p.tokens[p.pos]),
            at: p.pos,
        });
    }
    Ok(q)
}

fn tokenize(input: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut cur = String::new();
    for ch in input.chars() {
        match ch {
            '(' | ')' => {
                if !cur.is_empty() {
                    tokens.push(std::mem::take(&mut cur));
                }
                tokens.push(ch.to_string());
            }
            c if c.is_whitespace() => {
                if !cur.is_empty() {
                    tokens.push(std::mem::take(&mut cur));
                }
            }
            c => cur.push(c),
        }
    }
    if !cur.is_empty() {
        tokens.push(cur);
    }
    tokens
}

struct Parser {
    tokens: Vec<String>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&str> {
        self.tokens.get(self.pos).map(String::as_str)
    }

    fn parse_or(&mut self) -> Result<BooleanQuery, ParseError> {
        let mut parts = vec![self.parse_and()?];
        while self.peek().is_some_and(|t| t.eq_ignore_ascii_case("or")) {
            self.pos += 1;
            parts.push(self.parse_and()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("one part")
        } else {
            BooleanQuery::Or(parts)
        })
    }

    fn parse_and(&mut self) -> Result<BooleanQuery, ParseError> {
        let mut parts = vec![self.parse_atom()?];
        while self.peek().is_some_and(|t| t.eq_ignore_ascii_case("and")) {
            self.pos += 1;
            parts.push(self.parse_atom()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("one part")
        } else {
            BooleanQuery::And(parts)
        })
    }

    fn parse_atom(&mut self) -> Result<BooleanQuery, ParseError> {
        match self.peek() {
            None => Err(ParseError {
                message: "expected a term or '('".into(),
                at: self.pos,
            }),
            Some("(") => {
                self.pos += 1;
                let inner = self.parse_or()?;
                if self.peek() != Some(")") {
                    return Err(ParseError {
                        message: "expected ')'".into(),
                        at: self.pos,
                    });
                }
                self.pos += 1;
                Ok(inner)
            }
            Some(")") => Err(ParseError {
                message: "unexpected ')'".into(),
                at: self.pos,
            }),
            Some(t) if t.eq_ignore_ascii_case("and") || t.eq_ignore_ascii_case("or") => {
                Err(ParseError {
                    message: format!("operator '{t}' where a term was expected"),
                    at: self.pos,
                })
            }
            Some(t) => {
                let term = BooleanQuery::term(t);
                self.pos += 1;
                Ok(term)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_papers_example() {
        let q = parse("information AND (storing OR retrieval)").unwrap();
        assert_eq!(
            q,
            BooleanQuery::and(vec![
                BooleanQuery::term("information"),
                BooleanQuery::or(vec![
                    BooleanQuery::term("storing"),
                    BooleanQuery::term("retrieval"),
                ]),
            ])
        );
        let plan = q.plan_text();
        assert!(plan.starts_with("Join("));
        assert!(plan.contains("OuterJoin("));
        assert!(plan.contains("TD.term=\"storing\""));
    }

    #[test]
    fn and_binds_tighter_than_or() {
        let q = parse("a OR b AND c").unwrap();
        assert_eq!(
            q,
            BooleanQuery::or(vec![
                BooleanQuery::term("a"),
                BooleanQuery::and(vec![BooleanQuery::term("b"), BooleanQuery::term("c")]),
            ])
        );
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert_eq!(parse("a and b").unwrap(), parse("a AND b").unwrap());
        assert_eq!(parse("a or b").unwrap(), parse("a OR b").unwrap());
    }

    #[test]
    fn single_term_and_nesting() {
        assert_eq!(parse("hello").unwrap(), BooleanQuery::term("hello"));
        assert_eq!(parse("((hello))").unwrap(), BooleanQuery::term("hello"));
    }

    #[test]
    fn display_roundtrips_through_parse() {
        for s in [
            "information AND (storing OR retrieval)",
            "a OR (b AND c) OR d",
            "x",
            "(a OR b) AND (c OR d) AND e",
        ] {
            let q = parse(s).unwrap();
            let rendered = q.to_string();
            assert_eq!(parse(&rendered).unwrap(), q, "{s} -> {rendered}");
        }
    }

    #[test]
    fn parse_errors_are_located() {
        assert!(parse("").is_err());
        assert!(parse("a AND").is_err());
        assert!(parse("(a OR b").is_err());
        assert!(parse("a b) c").is_err());
        assert!(parse("AND a").is_err());
        let e = parse("a AND AND b").unwrap_err();
        assert!(e.to_string().contains("operator"));
    }

    #[test]
    fn terms_deduplicated_in_order() {
        let q = parse("a AND (b OR a) AND c").unwrap();
        assert_eq!(q.terms(), vec!["a", "b", "c"]);
    }
}

#[cfg(test)]
mod engine_tests {
    use super::*;
    use crate::engine::{QueryEngine, SearchStrategy};
    use crate::index::{IndexConfig, InvertedIndex};
    use std::collections::BTreeSet;
    use x100_corpus::{CollectionConfig, SyntheticCollection};

    fn setup() -> (SyntheticCollection, InvertedIndex) {
        let c = SyntheticCollection::generate(&CollectionConfig::tiny());
        let idx = InvertedIndex::build(&c, &IndexConfig::compressed());
        (c, idx)
    }

    /// Reference evaluator: recursive set semantics over the raw collection.
    fn eval_sets(c: &SyntheticCollection, q: &BooleanQuery) -> BTreeSet<u32> {
        match q {
            BooleanQuery::Term(t) => {
                let Some(tid) = c.vocab.iter().position(|v| v == t) else {
                    return BTreeSet::new();
                };
                c.docs
                    .iter()
                    .filter(|d| {
                        d.terms
                            .binary_search_by_key(&(tid as u32), |&(t2, _)| t2)
                            .is_ok()
                    })
                    .map(|d| d.id)
                    .collect()
            }
            BooleanQuery::And(parts) => {
                let mut iter = parts.iter();
                let mut acc = iter.next().map(|p| eval_sets(c, p)).unwrap_or_default();
                for p in iter {
                    let s = eval_sets(c, p);
                    acc = acc.intersection(&s).copied().collect();
                }
                acc
            }
            BooleanQuery::Or(parts) => {
                let mut acc = BTreeSet::new();
                for p in parts {
                    acc.extend(eval_sets(c, p));
                }
                acc
            }
        }
    }

    #[test]
    fn nested_query_matches_set_semantics() {
        let (c, idx) = setup();
        let engine = QueryEngine::new(&idx);
        let queries = [
            "term5 AND (term9 OR term14)",
            "(term5 OR term6) AND (term9 OR term14) AND term3",
            "term5 OR (term6 AND term7) OR term8",
            "term5",
        ];
        for s in queries {
            let q = parse(s).unwrap();
            let got: Vec<u32> = engine
                .search_boolean(&q, usize::MAX)
                .unwrap()
                .results
                .iter()
                .map(|r| r.docid)
                .collect();
            let expect: Vec<u32> = eval_sets(&c, &q).into_iter().collect();
            assert_eq!(got, expect, "{s}");
        }
    }

    #[test]
    fn flat_and_agrees_with_strategy_bool_and() {
        let (c, idx) = setup();
        let engine = QueryEngine::new(&idx);
        let q = &c.eval_queries[0];
        let tree = BooleanQuery::and(
            q.terms
                .iter()
                .map(|&t| BooleanQuery::term(format!("term{t}")))
                .collect(),
        );
        let via_tree: Vec<u32> = engine
            .search_boolean(&tree, c.docs.len())
            .unwrap()
            .results
            .iter()
            .map(|r| r.docid)
            .collect();
        let via_flat: Vec<u32> = engine
            .search(&q.terms, SearchStrategy::BoolAnd, c.docs.len())
            .unwrap()
            .results
            .iter()
            .map(|r| r.docid)
            .collect();
        assert_eq!(via_tree, via_flat);
    }

    #[test]
    fn unknown_term_is_strict_in_and_inert_in_or() {
        let (c, idx) = setup();
        let engine = QueryEngine::new(&idx);
        let and = parse("term5 AND no-such-term").unwrap();
        assert!(engine.search_boolean(&and, 100).unwrap().results.is_empty());
        let or = parse("term5 OR no-such-term").unwrap();
        let or_hits = engine.search_boolean(&or, usize::MAX).unwrap().results;
        let solo = eval_sets(&c, &BooleanQuery::term("term5"));
        assert_eq!(or_hits.len(), solo.len());
    }

    #[test]
    fn zero_hits_asked_returns_none() {
        let (_, idx) = setup();
        let engine = QueryEngine::new(&idx);
        for s in ["term5 OR term6", "term5", "term5 AND (term9 OR term14)"] {
            let q = parse(s).unwrap();
            assert!(
                engine.search_boolean(&q, 0).unwrap().results.is_empty(),
                "{s}"
            );
        }
    }

    #[test]
    fn empty_node_is_a_plan_error() {
        let (_, idx) = setup();
        let engine = QueryEngine::new(&idx);
        assert!(engine
            .search_boolean(&BooleanQuery::And(vec![]), 10)
            .is_err());
    }
}
