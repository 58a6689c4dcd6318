//! Index summary structures for semantic routing tables.
//!
//! The multi-tree routing substrate of \[11\] keeps, at every node and for
//! every indexed static attribute, a compact summary of the values present
//! in each child subtree. Routing a content-addressed search message then
//! only descends into subtrees whose summary *may* contain a match.
//!
//! The paper's implementation supports 1-D intervals (as in TinyDB's
//! semantic routing trees), Bloom filters, multidimensional R-tree
//! rectangles and histograms (App. C). The three that an indexed attribute
//! builds are provided here behind a common [`Summary`] enum with a conservative `may_match` contract:
//! **no false negatives** — if any inserted value satisfies the constraint,
//! `may_match` returns `true`.

pub mod bloom;
pub mod constraint;
pub mod interval;
pub mod rtree;

pub use bloom::BloomFilter;
pub use constraint::Constraint;
pub use interval::IntervalSummary;
pub use rtree::RectSummary;

use sensor_net::Point;

/// Which summary structure to build for an indexed attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SummaryKind {
    /// Bloom filter over exact values (ids, group ids, grid cells).
    Bloom,
    /// Coalesced interval list (semantic routing tree style).
    Interval,
    /// Bounding rectangles over 2-D positions.
    Rects,
}

/// A summary of the set of values present in a subtree.
#[derive(Debug, Clone)]
pub enum Summary {
    Bloom(BloomFilter),
    Interval(IntervalSummary),
    Rects(RectSummary),
}

impl Summary {
    /// Create an empty summary of the given kind with default sizing
    /// (mote-scale: a handful of bytes per routing-table entry).
    pub fn empty(kind: SummaryKind) -> Summary {
        match kind {
            SummaryKind::Bloom => Summary::Bloom(BloomFilter::new(128, 3)),
            SummaryKind::Interval => Summary::Interval(IntervalSummary::new(4)),
            SummaryKind::Rects => Summary::Rects(RectSummary::new(3)),
        }
    }

    pub fn kind(&self) -> SummaryKind {
        match self {
            Summary::Bloom(_) => SummaryKind::Bloom,
            Summary::Interval(_) => SummaryKind::Interval,
            Summary::Rects(_) => SummaryKind::Rects,
        }
    }

    /// Record a scalar value. Debug-panics on spatial summaries.
    pub fn insert_value(&mut self, v: u16) {
        match self {
            Summary::Bloom(b) => b.insert(v),
            Summary::Interval(i) => i.insert(v),
            Summary::Rects(_) => {
                debug_assert!(false, "scalar insert into spatial summary");
            }
        }
    }

    /// Record a 2-D position. Debug-panics on scalar summaries.
    pub fn insert_point(&mut self, p: Point) {
        match self {
            Summary::Rects(r) => r.insert(p),
            _ => {
                debug_assert!(false, "spatial insert into scalar summary");
            }
        }
    }

    /// Merge another summary of the same kind into this one (subtree
    /// aggregation during tree construction).
    pub fn merge(&mut self, other: &Summary) {
        match (self, other) {
            (Summary::Bloom(a), Summary::Bloom(b)) => a.merge(b),
            (Summary::Interval(a), Summary::Interval(b)) => a.merge(b),
            (Summary::Rects(a), Summary::Rects(b)) => a.merge(b),
            _ => panic!("summary kind mismatch in merge"),
        }
    }

    /// Conservative containment test: `false` guarantees no inserted value
    /// satisfies `c`; `true` means a match is possible.
    pub fn may_match(&self, c: &Constraint) -> bool {
        match self {
            Summary::Bloom(b) => b.may_match(c),
            Summary::Interval(i) => i.may_match(c),
            Summary::Rects(r) => r.may_match(c),
        }
    }

    /// Wire size of the summary in bytes (for routing-table traffic
    /// accounting during tree maintenance / mobility experiments).
    pub fn size_bytes(&self) -> usize {
        match self {
            Summary::Bloom(b) => b.size_bytes(),
            Summary::Interval(i) => i.size_bytes(),
            Summary::Rects(r) => r.size_bytes(),
        }
    }

    pub fn is_empty(&self) -> bool {
        match self {
            Summary::Bloom(b) => b.is_empty(),
            Summary::Interval(i) => i.is_empty(),
            Summary::Rects(r) => r.is_empty(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summaries_match_nothing() {
        for kind in [SummaryKind::Bloom, SummaryKind::Interval] {
            let s = Summary::empty(kind);
            assert!(s.is_empty());
            assert!(!s.may_match(&Constraint::Eq(5)), "{kind:?}");
        }
        let s = Summary::empty(SummaryKind::Rects);
        assert!(!s.may_match(&Constraint::NearPoint {
            p: Point::new(0.0, 0.0),
            dist: 100.0
        }));
    }

    #[test]
    fn no_false_negatives_after_insert() {
        for kind in [SummaryKind::Bloom, SummaryKind::Interval] {
            let mut s = Summary::empty(kind);
            for v in [0u16, 7, 999, 65535] {
                s.insert_value(v);
            }
            for v in [0u16, 7, 999, 65535] {
                assert!(s.may_match(&Constraint::Eq(v)), "{kind:?} lost {v}");
            }
        }
    }

    #[test]
    fn merge_is_union() {
        let mut a = Summary::empty(SummaryKind::Interval);
        let mut b = Summary::empty(SummaryKind::Interval);
        a.insert_value(10);
        b.insert_value(1000);
        a.merge(&b);
        assert!(a.may_match(&Constraint::Eq(10)));
        assert!(a.may_match(&Constraint::Eq(1000)));
    }

    #[test]
    #[should_panic(expected = "kind mismatch")]
    fn merge_kind_mismatch_panics() {
        let mut a = Summary::empty(SummaryKind::Bloom);
        let b = Summary::empty(SummaryKind::Interval);
        a.merge(&b);
    }

    #[test]
    fn sizes_are_compact() {
        // Routing tables must fit mote RAM: every summary within tens of bytes.
        for kind in [
            SummaryKind::Bloom,
            SummaryKind::Interval,
            SummaryKind::Rects,
        ] {
            let s = Summary::empty(kind);
            assert!(s.size_bytes() <= 64, "{kind:?} = {}", s.size_bytes());
        }
    }
}
