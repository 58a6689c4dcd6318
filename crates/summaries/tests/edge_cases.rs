//! Merge/query edge cases of the summary structures: empty merges in
//! every direction, single-element contents, and
//! the degenerate capacities — the corners the property round-trips never
//! pin down exactly.

use sensor_net::{Point, Rect};
use sensor_summaries::{
    BloomFilter, Constraint, IntervalSummary, RectSummary, Summary, SummaryKind,
};

// ----- empty merges, every direction, every structure ------------------

#[test]
fn bloom_empty_merges() {
    let empty = BloomFilter::new(128, 3);
    // empty ∪ empty = empty.
    let mut a = empty.clone();
    a.merge(&empty);
    assert!(a.is_empty());
    assert_eq!(a.fill_ratio(), 0.0);
    assert!(!a.may_match(&Constraint::Eq(0)));
    // x ∪ empty = x (bitwise identical).
    let mut x = BloomFilter::new(128, 3);
    x.insert(42);
    let before = x.clone();
    x.merge(&empty);
    assert_eq!(x, before);
    // empty ∪ x ⊇ x.
    let mut e = empty.clone();
    e.merge(&before);
    assert!(!e.is_empty());
    assert!(e.contains(42));
}

#[test]
fn interval_empty_merges() {
    let empty = IntervalSummary::new(4);
    let mut a = empty.clone();
    a.merge(&empty);
    assert!(a.is_empty());
    assert_eq!(a.intervals(), &[]);
    assert!(!a.may_match(&Constraint::Range(0, 65535)));
    let mut x = IntervalSummary::new(4);
    x.insert_range(10, 20);
    let before = x.clone();
    x.merge(&empty);
    assert_eq!(x, before);
    let mut e = empty.clone();
    e.merge(&before);
    assert_eq!(e.intervals(), &[(10, 20)]);
}

#[test]
fn rtree_empty_merges() {
    let empty = RectSummary::new(3);
    let mut a = empty.clone();
    a.merge(&empty);
    assert!(a.is_empty());
    assert!(!a.may_match(&Constraint::NearPoint {
        p: Point::new(0.0, 0.0),
        dist: f64::MAX
    }));
    assert!(!a.may_match(&Constraint::InRect(Rect::new(
        f64::MIN,
        f64::MIN,
        f64::MAX,
        f64::MAX
    ))));
    let mut x = RectSummary::new(3);
    x.insert(Point::new(7.0, 9.0));
    x.merge(&empty);
    assert_eq!(x.rects().len(), 1);
    assert!(x.contains_point(Point::new(7.0, 9.0)));
    let mut e = empty.clone();
    e.merge(&x);
    assert!(e.contains_point(Point::new(7.0, 9.0)));
}

/// The `Summary` enum wrapper preserves the same empty-merge semantics
/// for every kind (the form routing-table aggregation actually uses).
#[test]
fn summary_enum_empty_merges_all_kinds() {
    for kind in [
        SummaryKind::Bloom,
        SummaryKind::Interval,
        SummaryKind::Rects,
    ] {
        let mut a = Summary::empty(kind);
        let b = Summary::empty(kind);
        a.merge(&b);
        assert!(a.is_empty(), "{kind:?}: empty ∪ empty not empty");
        // Populate one side and merge into a fresh empty.
        let mut populated = Summary::empty(kind);
        if kind == SummaryKind::Rects {
            populated.insert_point(Point::new(1.0, 2.0));
        } else {
            populated.insert_value(123);
        }
        let mut e = Summary::empty(kind);
        e.merge(&populated);
        assert!(!e.is_empty(), "{kind:?}: merge lost contents");
        let probe = if kind == SummaryKind::Rects {
            Constraint::NearPoint {
                p: Point::new(1.0, 2.0),
                dist: 0.5,
            }
        } else {
            Constraint::Eq(123)
        };
        assert!(e.may_match(&probe), "{kind:?}: merged value unmatchable");
    }
}

// ----- single-element contents -----------------------------------------

#[test]
fn interval_single_element_queries() {
    let mut s = IntervalSummary::new(1);
    s.insert(777);
    assert_eq!(s.intervals(), &[(777, 777)]);
    assert!(s.contains(777));
    assert!(!s.contains(776) && !s.contains(778));
    assert!(s.overlaps(777, 777));
    assert!(s.may_match(&Constraint::Range(700, 800)));
    // A single-point interval answers Mod exactly.
    assert!(s.may_match(&Constraint::Mod {
        modulus: 7,
        residue: 0 // 777 = 7 * 111
    }));
    assert!(!s.may_match(&Constraint::Mod {
        modulus: 7,
        residue: 3
    }));
    // Capacity 1: the next distant value coalesces into one wide span.
    s.insert(10_000);
    assert_eq!(s.intervals().len(), 1);
    assert!(s.contains(777) && s.contains(10_000));
}

#[test]
fn bloom_single_element_ranges() {
    let mut b = BloomFilter::new(128, 3);
    b.insert(500);
    // Width-1 ranges are probed exactly like Eq.
    assert!(b.may_match(&Constraint::Range(500, 500)));
    assert_eq!(
        b.may_match(&Constraint::Range(501, 501)),
        b.contains(501) // false positives allowed, negatives exact
    );
}

// ----- merge across different capacities / degenerate sizes ------------

#[test]
fn interval_merge_respects_destination_capacity() {
    // Source holds 4 disjoint intervals; destination caps at 2 — the
    // merge must coalesce, never overflow, never lose members.
    let mut src = IntervalSummary::new(4);
    for v in [0u16, 100, 10_000, 60_000] {
        src.insert(v);
    }
    assert_eq!(src.intervals().len(), 4);
    let mut dst = IntervalSummary::new(2);
    dst.merge(&src);
    assert!(dst.intervals().len() <= 2);
    for v in [0u16, 100, 10_000, 60_000] {
        assert!(dst.contains(v), "merge lost {v}");
    }
}

#[test]
fn rtree_merge_respects_destination_capacity() {
    let mut src = RectSummary::new(3);
    let pts = [
        Point::new(0.0, 0.0),
        Point::new(50.0, 50.0),
        Point::new(100.0, 0.0),
    ];
    for p in pts {
        src.insert(p);
    }
    let mut dst = RectSummary::new(1);
    dst.insert(Point::new(25.0, 25.0));
    dst.merge(&src);
    assert_eq!(dst.rects().len(), 1);
    for p in pts {
        assert!(dst.contains_point(p), "{p:?} lost in capacity-1 merge");
    }
}
