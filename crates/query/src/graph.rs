//! N-relation join graphs: the generalization of the two-relation
//! [`JoinQuerySpec`].
//!
//! A [`JoinGraph`] is a set of named stream relations (each an abstraction
//! over a group of sensors, selected by per-relation predicates), joined
//! pairwise by windowed *join edges*. The StreamSQL front end accepts the
//! same dialect as [`crate::parser`] with a multi-relation `FROM` list:
//!
//! ```sql
//! SELECT a.id, c.id
//! FROM A, B, C [windowsize=3 sampleinterval=100]
//! WHERE A.id < 25 AND B.rid = 2 AND C.id > 50
//!   AND A.u = B.u AND B.v = C.v
//! ```
//!
//! Every WHERE conjunct may reference at most two relations: zero/one
//! relation makes it a *selection* on that relation, two relations make it
//! a predicate on the join edge between them. Relations left unjoined
//! (cross products) and disconnected join graphs are rejected — the
//! in-network engine only executes joins it can anchor to producer pairs.
//!
//! Internally each edge stores its predicate in the classic two-sided form
//! ([`Side::S`] = the edge's first relation, [`Side::T`] = its second), so
//! an edge compiles directly into a pairwise [`JoinQuerySpec`]
//! ([`JoinGraph::edge_spec`]) and the whole two-relation machinery becomes
//! the degenerate case [`JoinGraph::pair_spec`].

use crate::expr::Side;
use crate::parser::{describe, lex, ParseError, Parser, Tok};
use crate::pred::BoolExpr;
use crate::schema::{AttrId, Schema, ATTR_ID, ATTR_LOCAL_TIME};
use crate::spec::JoinQuerySpec;

/// Upper bound on relations per graph: the plan optimizer enumerates
/// connected subsets as bitmasks and 8 relations is already far past any
/// workload in the paper's setting.
pub const MAX_RELATIONS: usize = 8;

/// One stream relation of a join graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    /// Lower-cased name from the `FROM` list ("s", "t", "a", ...).
    pub name: String,
    /// Conjunction of this relation's selection predicates, bound to
    /// [`Side::S`]. `None` = every node is eligible.
    pub selection: Option<BoolExpr>,
}

/// A windowed join edge between relations `a` and `b` (`a < b`); the
/// predicate binds `a` to [`Side::S`] and `b` to [`Side::T`].
#[derive(Debug, Clone, PartialEq)]
pub struct JoinEdge {
    pub a: usize,
    pub b: usize,
    pub predicate: BoolExpr,
}

/// An n-relation windowed join query: relations, join edges, projections.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinGraph {
    /// Human-readable name (graphs parsed from SQL are called "parsed").
    pub name: String,
    pub relations: Vec<Relation>,
    pub edges: Vec<JoinEdge>,
    /// Projected attributes, `(relation index, attribute)`.
    pub select: Vec<(usize, AttrId)>,
    /// Window size `w`, shared by every edge.
    pub window: usize,
    /// Transmission cycles between samples.
    pub sample_interval: u32,
}

/// Structural rejection reasons for a [`JoinGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// Fewer than two relations — not a join.
    TooFewRelations,
    /// More than [`MAX_RELATIONS`] relations.
    TooManyRelations(usize),
    /// Two `FROM` entries share a name.
    DuplicateRelation(String),
    /// A relation participates in no join edge (a cross product).
    CrossProduct(String),
    /// The join edges do not connect all relations.
    Disconnected,
    /// An edge references a relation index out of range.
    BadEdge(usize, usize),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::TooFewRelations => {
                write!(f, "a join graph needs at least two relations")
            }
            GraphError::TooManyRelations(n) => {
                write!(f, "{n} relations exceed the limit of {MAX_RELATIONS}")
            }
            GraphError::DuplicateRelation(r) => {
                write!(f, "relation '{r}' appears twice in FROM")
            }
            GraphError::CrossProduct(r) => write!(
                f,
                "relation '{r}' is not joined to any other relation \
                 (cross products are not supported)"
            ),
            GraphError::Disconnected => write!(
                f,
                "the join graph is disconnected: every relation must be \
                 reachable from every other through join predicates"
            ),
            GraphError::BadEdge(a, b) => {
                write!(f, "join edge ({a}, {b}) references an unknown relation")
            }
        }
    }
}

impl std::error::Error for GraphError {}

impl JoinGraph {
    /// Assemble and validate a graph. Edges are canonicalized to `a < b`
    /// (swapping predicate sides as needed) and sorted; edges on the same
    /// pair are merged into one conjunction.
    pub fn new(
        name: impl Into<String>,
        relations: Vec<Relation>,
        edges: Vec<JoinEdge>,
        select: Vec<(usize, AttrId)>,
        window: usize,
        sample_interval: u32,
    ) -> Result<JoinGraph, GraphError> {
        assert!(window >= 1, "window size must be at least 1");
        let n = relations.len();
        if n < 2 {
            return Err(GraphError::TooFewRelations);
        }
        if n > MAX_RELATIONS {
            return Err(GraphError::TooManyRelations(n));
        }
        for (i, r) in relations.iter().enumerate() {
            if relations[..i].iter().any(|o| o.name == r.name) {
                return Err(GraphError::DuplicateRelation(r.name.clone()));
            }
        }
        // Canonicalize + merge edges.
        let mut merged: std::collections::BTreeMap<(usize, usize), BoolExpr> =
            std::collections::BTreeMap::new();
        for e in edges {
            if e.a >= n || e.b >= n || e.a == e.b {
                return Err(GraphError::BadEdge(e.a, e.b));
            }
            let (key, pred) = if e.a < e.b {
                ((e.a, e.b), e.predicate)
            } else {
                ((e.b, e.a), e.predicate.swap_sides())
            };
            merged
                .entry(key)
                .and_modify(|acc| {
                    let prev = std::mem::replace(acc, BoolExpr::And(vec![]));
                    *acc = match prev {
                        BoolExpr::And(mut parts) => {
                            parts.push(pred.clone());
                            BoolExpr::And(parts)
                        }
                        other => BoolExpr::And(vec![other, pred.clone()]),
                    };
                })
                .or_insert(pred);
        }
        let edges: Vec<JoinEdge> = merged
            .into_iter()
            .map(|((a, b), predicate)| JoinEdge { a, b, predicate })
            .collect();
        // Connectivity: every relation joined, one component.
        let mut reach = vec![false; n];
        let mut stack = vec![0usize];
        reach[0] = true;
        while let Some(r) = stack.pop() {
            for e in &edges {
                for (x, y) in [(e.a, e.b), (e.b, e.a)] {
                    if x == r && !reach[y] {
                        reach[y] = true;
                        stack.push(y);
                    }
                }
            }
        }
        if let Some(r) = (0..n).find(|&r| !edges.iter().any(|e| e.a == r || e.b == r)) {
            return Err(GraphError::CrossProduct(relations[r].name.clone()));
        }
        if reach.iter().any(|&v| !v) {
            return Err(GraphError::Disconnected);
        }
        Ok(JoinGraph {
            name: name.into(),
            relations,
            edges,
            select,
            window,
            sample_interval,
        })
    }

    /// Number of relations.
    pub fn n_relations(&self) -> usize {
        self.relations.len()
    }

    /// Edge indices incident to relation `r`.
    pub fn edges_of(&self, r: usize) -> impl Iterator<Item = usize> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter(move |(_, e)| e.a == r || e.b == r)
            .map(|(i, _)| i)
    }

    /// Compile edge `i` into a standalone pairwise [`JoinQuerySpec`]: the
    /// edge predicate AND both endpoint selections, with the edge's `a`
    /// relation on [`Side::S`] and `b` on [`Side::T`]. Projections keep
    /// the graph's attributes that live on the two relations (defaulting
    /// to both ids so result tuples are never empty).
    pub fn edge_spec(&self, i: usize) -> JoinQuerySpec {
        let e = &self.edges[i];
        let mut parts = Vec::new();
        if let Some(sel) = &self.relations[e.a].selection {
            parts.push(sel.clone());
        }
        if let Some(sel) = &self.relations[e.b].selection {
            parts.push(sel.swap_sides());
        }
        parts.push(e.predicate.clone());
        let predicate = if parts.len() == 1 {
            parts.pop().unwrap()
        } else {
            BoolExpr::And(parts)
        };
        let mut select: Vec<(Side, AttrId)> = self
            .select
            .iter()
            .filter_map(|&(r, attr)| {
                if r == e.a {
                    Some((Side::S, attr))
                } else if r == e.b {
                    Some((Side::T, attr))
                } else {
                    None
                }
            })
            .collect();
        if select.is_empty() {
            select = vec![(Side::S, ATTR_ID), (Side::T, ATTR_ID)];
        }
        JoinQuerySpec::compile(
            format!(
                "{}:{}x{}",
                self.name, self.relations[e.a].name, self.relations[e.b].name
            ),
            select,
            self.window,
            self.sample_interval,
            predicate,
        )
    }

    /// The two-relation compatibility view: a graph with exactly two
    /// relations compiles to the classic pairwise spec (keeping the
    /// graph's name), so existing call sites run n=2 graphs unchanged.
    pub fn pair_spec(&self) -> Option<JoinQuerySpec> {
        if self.relations.len() != 2 {
            return None;
        }
        let mut spec = self.edge_spec(0);
        spec.name = self.name.clone();
        Some(spec)
    }
}

impl std::fmt::Display for JoinGraph {
    /// Canonical StreamSQL; `parse_join_graph` round-trips it.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SELECT ")?;
        if self.select.is_empty() {
            write!(f, "{}.id", self.relations[0].name)?;
        }
        for (i, (r, attr)) in self.select.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}.{}", self.relations[*r].name, Schema::name(*attr))?;
        }
        write!(f, " FROM ")?;
        for (i, r) in self.relations.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", r.name)?;
        }
        write!(
            f,
            " [windowsize={} sampleinterval={}] WHERE ",
            self.window, self.sample_interval
        )?;
        let mut first = true;
        let mut sep = |f: &mut std::fmt::Formatter<'_>| -> std::fmt::Result {
            if first {
                first = false;
                Ok(())
            } else {
                write!(f, " AND ")
            }
        };
        for r in &self.relations {
            if let Some(sel) = &r.selection {
                sep(f)?;
                // Selections reference one relation; both side names are
                // passed so even a malformed T reference stays printable.
                sel.fmt_with(f, &r.name, &r.name)?;
            }
        }
        for e in &self.edges {
            sep(f)?;
            match &e.predicate {
                // Top-level conjunctions flatten into the WHERE chain.
                BoolExpr::And(parts) => {
                    for p in parts {
                        sep(f)?;
                        match p {
                            BoolExpr::Or(_) | BoolExpr::And(_) => {
                                write!(f, "(")?;
                                p.fmt_with(
                                    f,
                                    &self.relations[e.a].name,
                                    &self.relations[e.b].name,
                                )?;
                                write!(f, ")")?;
                            }
                            _ => {
                                p.fmt_with(f, &self.relations[e.a].name, &self.relations[e.b].name)?
                            }
                        }
                    }
                }
                p => p.fmt_with(f, &self.relations[e.a].name, &self.relations[e.b].name)?,
            }
        }
        Ok(())
    }
}

/// Relation names the grammar reserves.
const RESERVED: &[&str] = &[
    "select",
    "from",
    "where",
    "and",
    "or",
    "not",
    "hash",
    "abs",
    "dist",
    "windowsize",
    "sampleinterval",
    "pos",
];

/// Parse a multi-relation StreamSQL join query into a [`JoinGraph`].
///
/// Two-relation inputs remain valid (`FROM S, T` parses to a graph whose
/// [`JoinGraph::pair_spec`] matches [`crate::parser::parse_query`]). The
/// WHERE clause must be a top-level conjunction; `OR` groups go in
/// parentheses so each conjunct's relation pair stays unambiguous.
pub fn parse_join_graph(input: &str) -> Result<JoinGraph, ParseError> {
    let lexer = lex(input)?;
    let tok_pos: Vec<usize> = lexer.toks.iter().map(|(p, _)| *p).collect();
    let mut p = Parser::new(lexer);
    // Byte position of the token about to be consumed (for diagnostics
    // raised later, once relation references are resolved).
    let pos_here = |p: &Parser| tok_pos.get(p.at).copied().unwrap_or(input.len());
    p.expect_kw("select")?;
    // Select items are collected as raw names first: the FROM list that
    // declares the relations comes after them.
    let mut raw_select: Vec<(String, AttrId, usize)> = Vec::new();
    loop {
        let rel_pos = pos_here(&p);
        let rel = match p.bump() {
            Some(Tok::Ident(id)) => id,
            other => {
                return Err(p.err_prev(format!(
                    "expected a relation name, found {}",
                    describe(other.as_ref())
                )));
            }
        };
        p.expect_sym(".")?;
        let attr = match p.bump() {
            Some(Tok::Ident(name)) => match name.as_str() {
                "time" => ATTR_LOCAL_TIME,
                other => Schema::by_name(other)
                    .ok_or_else(|| p.err_prev(format!("unknown attribute '{other}'")))?,
            },
            other => {
                return Err(p.err_prev(format!(
                    "expected attribute name, found {}",
                    describe(other.as_ref())
                )));
            }
        };
        raw_select.push((rel, attr, rel_pos));
        if !p.eat_sym(",") {
            break;
        }
    }
    p.expect_kw("from")?;
    let from_pos = pos_here(&p);
    let mut rels: Vec<String> = Vec::new();
    // Byte position of each FROM entry, for structural errors (cross
    // products, duplicates) that only surface after the whole query
    // parsed.
    let mut rel_pos: Vec<usize> = Vec::new();
    loop {
        let at = pos_here(&p);
        match p.bump() {
            Some(Tok::Ident(id)) => {
                if RESERVED.contains(&id.as_str()) {
                    return Err(
                        p.err_prev(format!("'{id}' is reserved and cannot name a relation"))
                    );
                }
                rels.push(id);
                rel_pos.push(at);
            }
            other => {
                return Err(p.err_prev(format!(
                    "expected a relation name, found {}",
                    describe(other.as_ref())
                )));
            }
        }
        if !p.eat_sym(",") {
            break;
        }
    }
    if rels.len() > MAX_RELATIONS {
        return Err(ParseError {
            pos: from_pos,
            message: format!(
                "{} relations exceed the limit of {MAX_RELATIONS}",
                rels.len()
            ),
        });
    }
    p.rels = rels.clone();
    let select: Vec<(usize, AttrId)> = raw_select
        .into_iter()
        .map(|(rel, attr, at)| match p.rel_index(&rel) {
            Some(r) => Ok((r, attr)),
            None => Err(ParseError {
                pos: at,
                message: format!("SELECT references '{rel}', which is not in the FROM list"),
            }),
        })
        .collect::<Result<_, _>>()?;
    let (window, sample_interval) = p.window_opts()?;
    let where_pos = pos_here(&p);
    p.expect_kw("where")?;
    // One conjunct at a time, with the side binding reset in between.
    let mut units: Vec<(BoolExpr, Vec<usize>)> = Vec::new();
    loop {
        p.bound.clear();
        let e = p.bool_not()?;
        if p.eat_kw("or") {
            return Err(p.err_prev(
                "top-level OR is ambiguous across relations; parenthesize the OR group",
            ));
        }
        units.push((e, p.bound.clone()));
        if !p.eat_kw("and") {
            break;
        }
    }
    if p.at != p.toks.len() {
        return Err(p.err("trailing input after WHERE clause"));
    }
    // Bucket conjuncts into selections and edges.
    let mut selections: Vec<Vec<BoolExpr>> = vec![Vec::new(); rels.len()];
    let mut edges: Vec<JoinEdge> = Vec::new();
    for (expr, bound) in units {
        match bound.len() {
            // A constant conjunct constrains nothing relation-specific;
            // it rides on relation 0's selection (it evaluates the same
            // everywhere).
            0 => selections[0].push(expr),
            1 => selections[bound[0]].push(expr),
            _ => edges.push(JoinEdge {
                a: bound[0],
                b: bound[1],
                predicate: expr,
            }),
        }
    }
    let relations: Vec<Relation> = rels
        .into_iter()
        .zip(selections)
        .map(|(name, sels)| Relation {
            name,
            selection: match sels.len() {
                0 => None,
                1 => Some(sels.into_iter().next().unwrap()),
                _ => Some(BoolExpr::And(sels)),
            },
        })
        .collect();
    JoinGraph::new("parsed", relations, edges, select, window, sample_interval).map_err(|e| {
        // Structural rejections happen after parsing; anchor each to the
        // most telling byte of the input (the dangling relation's FROM
        // entry, or the WHERE clause whose edges fail to connect).
        let pos = match &e {
            GraphError::CrossProduct(name) | GraphError::DuplicateRelation(name) => p
                .rels
                .iter()
                .position(|r| r == name)
                .map(|i| rel_pos[i])
                .unwrap_or(from_pos),
            GraphError::TooFewRelations | GraphError::TooManyRelations(_) => from_pos,
            GraphError::Disconnected | GraphError::BadEdge(..) => where_pos,
        };
        ParseError {
            pos,
            message: e.to_string(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    const CHAIN3: &str = "SELECT A.id, C.id FROM A, B, C [windowsize=3 sampleinterval=100] \
        WHERE A.id < 25 AND B.rid = 2 AND C.id > 50 AND A.u = B.u AND B.v = C.v";

    #[test]
    fn parses_three_way_chain() {
        let g = parse_join_graph(CHAIN3).expect("parse");
        assert_eq!(g.n_relations(), 3);
        assert_eq!(g.edges.len(), 2);
        assert_eq!(g.window, 3);
        assert_eq!((g.edges[0].a, g.edges[0].b), (0, 1));
        assert_eq!((g.edges[1].a, g.edges[1].b), (1, 2));
        assert!(g.relations.iter().all(|r| r.selection.is_some()));
        assert_eq!(g.select, vec![(0, ATTR_ID), (2, ATTR_ID)]);
    }

    #[test]
    fn round_trips_through_display() {
        for sql in [
            CHAIN3,
            "SELECT A.id, B.u, C.temp, D.id FROM A, B, C, D [windowsize=2 sampleinterval=50] \
             WHERE A.id < 10 AND (B.u = 1 OR B.u = 3) AND A.u = B.u AND B.x = C.y + 5 \
             AND hash(C.u) % 2 = 0 AND C.v = D.v AND NOT D.id = 7",
            "SELECT S.id, T.id FROM S, T [windowsize=1 sampleinterval=100] \
             WHERE S.id < 25 AND T.id > 50 AND S.u = T.u",
        ] {
            let g = parse_join_graph(sql).expect("parse original");
            let printed = g.to_string();
            let g2 = parse_join_graph(&printed)
                .unwrap_or_else(|e| panic!("reparse failed on {printed:?}: {e}"));
            assert_eq!(g, g2, "round trip changed the graph for {sql:?}");
        }
    }

    #[test]
    fn two_relation_graph_matches_classic_parser() {
        let sql = "SELECT S.id, T.id FROM S, T [windowsize=3] \
             WHERE S.id < 25 AND T.id > 50 AND S.x = T.y + 5 AND S.u = T.u";
        let g = parse_join_graph(sql).expect("graph parse");
        let pair = g.pair_spec().expect("two relations");
        let classic = parse_query(sql).expect("classic parse");
        assert_eq!(pair.window, classic.window);
        assert_eq!(pair.select, classic.select);
        // Same clause classification even though the graph form buckets
        // selections before compiling.
        assert_eq!(
            pair.analysis.s_static_sel.len(),
            classic.analysis.s_static_sel.len()
        );
        assert_eq!(
            pair.analysis.static_join.len(),
            classic.analysis.static_join.len()
        );
        assert_eq!(
            pair.analysis.dynamic_join.len(),
            classic.analysis.dynamic_join.len()
        );
    }

    #[test]
    fn rejects_cross_product() {
        let sql = "SELECT A.id FROM A, B, C WHERE A.id < 5 AND A.u = B.u AND C.id > 2";
        let err = parse_join_graph(sql).unwrap_err();
        assert!(err.message.contains("cross product"), "{}", err.message);
        // The position anchors the dangling relation's FROM entry — the
        // 'C' after "A, B, ".
        assert_eq!(err.pos, sql.find(", C").unwrap() + 2);
    }

    #[test]
    fn rejects_disconnected_graph() {
        let sql = "SELECT A.id FROM A, B, C, D WHERE A.u = B.u AND C.u = D.u";
        let err = parse_join_graph(sql).unwrap_err();
        assert!(err.message.contains("disconnected"), "{}", err.message);
        assert_eq!(err.pos, sql.find("WHERE").unwrap());
    }

    #[test]
    fn unknown_relation_position_points_at_token() {
        let sql = "SELECT A.id FROM A, B WHERE A.u = B.u AND Z.id < 5";
        let err = parse_join_graph(sql).unwrap_err();
        assert!(err.message.contains("unknown relation"), "{}", err.message);
        assert_eq!(err.pos, sql.find('Z').unwrap());
        let sql = "SELECT Q.id FROM A, B WHERE A.u = B.u";
        let err = parse_join_graph(sql).unwrap_err();
        assert!(err.message.contains("not in the FROM"), "{}", err.message);
        assert_eq!(err.pos, sql.find('Q').unwrap());
    }

    #[test]
    fn rejects_three_relation_predicate() {
        let err = parse_join_graph("SELECT A.id FROM A, B, C WHERE A.u + B.u = C.u AND B.v = C.v")
            .unwrap_err();
        assert!(
            err.message.contains("more than two relations"),
            "{}",
            err.message
        );
    }

    #[test]
    fn rejects_single_relation() {
        let err = parse_join_graph("SELECT A.id FROM A WHERE A.id < 5").unwrap_err();
        assert!(err.message.contains("at least two"), "{}", err.message);
    }

    #[test]
    fn rejects_top_level_or() {
        let err =
            parse_join_graph("SELECT A.id FROM A, B WHERE A.id < 5 OR B.id > 2 AND A.u = B.u")
                .unwrap_err();
        assert!(err.message.contains("parenthesize"), "{}", err.message);
    }

    #[test]
    fn edge_spec_bundles_selections() {
        let g = parse_join_graph(CHAIN3).expect("parse");
        let ab = g.edge_spec(0);
        // A.id < 25 (S side) and B.rid = 2 (T side) both ride along.
        assert_eq!(ab.analysis.s_static_sel.len(), 1);
        assert_eq!(ab.analysis.t_static_sel.len(), 1);
        assert_eq!(ab.analysis.dynamic_join.len(), 1);
        assert_eq!(ab.window, 3);
        assert_eq!(ab.name, "parsed:axb");
        // C's projection does not leak into the A⋈B spec.
        assert!(ab.select.iter().all(|&(_, attr)| attr == ATTR_ID));
    }

    #[test]
    fn reversed_edge_orientation_is_canonicalized() {
        // B referenced before A in the join conjunct: the edge must still
        // come out as (a=0, b=1) with sides swapped to match.
        let g = parse_join_graph(
            "SELECT A.id FROM A, B [windowsize=1] WHERE B.u = A.u + 1 AND A.id < 9",
        )
        .expect("parse");
        assert_eq!((g.edges[0].a, g.edges[0].b), (0, 1));
        let spec = g.edge_spec(0);
        // S binds to A: the selection A.id < 9 must classify as S-side.
        assert_eq!(spec.analysis.s_static_sel.len(), 1);
        assert_eq!(spec.analysis.t_static_sel.len(), 0);
    }

    #[test]
    fn shared_edge_conjuncts_merge() {
        let g =
            parse_join_graph("SELECT A.id FROM A, B WHERE A.u = B.u AND A.x = B.y AND A.id < 5")
                .expect("parse");
        assert_eq!(g.edges.len(), 1);
        let spec = g.edge_spec(0);
        assert_eq!(
            spec.analysis.dynamic_join.len() + spec.analysis.static_join.len(),
            2
        );
    }
}
