//! A small recursive-descent parser for the Appendix B StreamSQL dialect:
//!
//! ```sql
//! SELECT S.id, T.id, S.time
//! FROM S, T [windowsize=3 sampleinterval=100]
//! WHERE S.id < 25 AND hash(S.u) % 2 = 0
//!   AND T.id > 50 AND hash(T.u) % 2 = 0
//!   AND S.x = T.y + 5 AND S.u = T.u
//! ```

use crate::expr::{ArithOp, Expr, Side};
use crate::graph::JoinGraph;
use crate::pred::{BoolExpr, CmpOp, Pred};
use crate::schema::{AttrId, Schema, ATTR_LOCAL_TIME};
use crate::spec::JoinQuerySpec;

/// The single structured parse-error type of the StreamSQL front end:
/// a byte position into the input (pointing at the offending token, or at
/// the end of the input for truncated queries) and a human-readable
/// message. Machine consumers (the `aspen-serve` wire protocol) transmit
/// both fields verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub pos: usize,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Tok {
    Ident(String),
    Num(i64),
    Sym(&'static str),
}

/// Error-message rendering of a token slot ("end of input" for `None`).
pub(crate) fn describe(t: Option<&Tok>) -> String {
    match t {
        None => "end of input".to_string(),
        Some(Tok::Ident(id)) => format!("'{id}'"),
        Some(Tok::Num(n)) => format!("number {n}"),
        Some(Tok::Sym(s)) => format!("'{s}'"),
    }
}

pub(crate) struct Lexer {
    pub(crate) toks: Vec<(usize, Tok)>,
    /// Byte length of the input: the position truncated-input errors
    /// report.
    pub(crate) end: usize,
}

pub(crate) fn lex(input: &str) -> Result<Lexer, ParseError> {
    let bytes = input.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
            {
                i += 1;
            }
            toks.push((start, Tok::Ident(input[start..i].to_lowercase())));
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                i += 1;
            }
            let n: i64 = input[start..i].parse().map_err(|_| ParseError {
                pos: start,
                message: "number too large".into(),
            })?;
            toks.push((start, Tok::Num(n)));
            continue;
        }
        // Bytes, not `&input[i..i + 2]`: the next character may be
        // multi-byte, and a `str` slice through it panics.
        let sym: &'static str = match bytes.get(i..i + 2) {
            Some(b"<=") => "<=",
            Some(b">=") => ">=",
            Some(b"!=" | b"<>") => "!=",
            _ => match c {
                '<' => "<",
                '>' => ">",
                '=' => "=",
                '+' => "+",
                '-' => "-",
                '*' => "*",
                '/' => "/",
                '%' => "%",
                '(' => "(",
                ')' => ")",
                '[' => "[",
                ']' => "]",
                ',' => ",",
                '.' => ".",
                _ => {
                    // `i` is on a character boundary: only ASCII bytes
                    // are ever stepped over.
                    let other = input[i..].chars().next().unwrap_or(c);
                    return Err(ParseError {
                        pos: i,
                        message: format!("unexpected character '{other}'"),
                    });
                }
            },
        };
        i += sym.len();
        toks.push((i - sym.len(), Tok::Sym(sym)));
    }
    Ok(Lexer {
        toks,
        end: bytes.len(),
    })
}

pub(crate) struct Parser {
    pub(crate) toks: Vec<(usize, Tok)>,
    pub(crate) at: usize,
    /// Byte length of the input (error position for truncated queries).
    pub(crate) end: usize,
    /// Position of the most recently consumed token (errors raised right
    /// after a `bump` point here, at the offending token).
    last_pos: usize,
    /// Relation names from an n-way `FROM` list (lowercased). Empty in
    /// the classic two-relation mode, where `S`/`T` are hard-wired.
    pub(crate) rels: Vec<String>,
    /// Graph mode: relations referenced by the current WHERE conjunct, in
    /// first-use order. Position 0 binds to [`Side::S`], position 1 to
    /// [`Side::T`]; a third distinct relation in one conjunct is an error.
    pub(crate) bound: Vec<usize>,
}

impl Parser {
    pub(crate) fn new(lexer: Lexer) -> Parser {
        Parser {
            toks: lexer.toks,
            at: 0,
            end: lexer.end,
            last_pos: 0,
            rels: Vec::new(),
            bound: Vec::new(),
        }
    }

    pub(crate) fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.at).map(|(_, t)| t)
    }

    fn pos(&self) -> usize {
        self.toks.get(self.at).map(|(p, _)| *p).unwrap_or(self.end)
    }

    pub(crate) fn bump(&mut self) -> Option<Tok> {
        let slot = self.toks.get(self.at);
        self.last_pos = slot.map(|(p, _)| *p).unwrap_or(self.end);
        let t = slot.map(|(_, t)| t.clone());
        self.at += 1;
        t
    }

    /// Error at the *next* (not yet consumed) token.
    pub(crate) fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            pos: self.pos(),
            message: message.into(),
        }
    }

    /// Error at the most recently consumed token — for call sites that
    /// `bump` first and reject afterwards.
    pub(crate) fn err_prev(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            pos: self.last_pos,
            message: message.into(),
        }
    }

    pub(crate) fn expect_sym(&mut self, s: &str) -> Result<(), ParseError> {
        match self.bump() {
            Some(Tok::Sym(sym)) if sym == s => Ok(()),
            other => Err(self.err_prev(format!(
                "expected '{s}', found {}",
                describe(other.as_ref())
            ))),
        }
    }

    pub(crate) fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.bump() {
            Some(Tok::Ident(id)) if id == kw => Ok(()),
            other => Err(self.err_prev(format!(
                "expected keyword '{kw}', found {}",
                describe(other.as_ref())
            ))),
        }
    }

    pub(crate) fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Ident(id)) if id == kw) {
            self.last_pos = self.pos();
            self.at += 1;
            true
        } else {
            false
        }
    }

    pub(crate) fn eat_sym(&mut self, s: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Sym(sym)) if *sym == s) {
            self.last_pos = self.pos();
            self.at += 1;
            true
        } else {
            false
        }
    }

    /// Graph mode: resolve a relation name to its `FROM`-list index.
    pub(crate) fn rel_index(&self, name: &str) -> Option<usize> {
        self.rels.iter().position(|r| r == name)
    }

    /// Graph mode: bind relation `rel` to a side within the current
    /// conjunct (first distinct relation → S, second → T).
    fn bind_side(&mut self, rel: usize) -> Result<Side, ParseError> {
        if let Some(i) = self.bound.iter().position(|&r| r == rel) {
            return Ok(if i == 0 { Side::S } else { Side::T });
        }
        if self.bound.len() >= 2 {
            return Err(self.err(format!(
                "predicate references more than two relations ('{}' after '{}' and '{}')",
                self.rels[rel], self.rels[self.bound[0]], self.rels[self.bound[1]]
            )));
        }
        self.bound.push(rel);
        Ok(if self.bound.len() == 1 {
            Side::S
        } else {
            Side::T
        })
    }

    fn attr_ref(&mut self) -> Result<(Side, AttrId), ParseError> {
        let side = match self.bump() {
            Some(Tok::Ident(id)) if self.rels.is_empty() && id == "s" => Side::S,
            Some(Tok::Ident(id)) if self.rels.is_empty() && id == "t" => Side::T,
            Some(Tok::Ident(id)) if !self.rels.is_empty() => match self.rel_index(&id) {
                Some(r) => self.bind_side(r)?,
                None => {
                    return Err(
                        self.err_prev(format!("unknown relation '{id}' (not in the FROM list)"))
                    )
                }
            },
            other => {
                return Err(self.err_prev(format!(
                    "expected relation S or T, found {}",
                    describe(other.as_ref())
                )))
            }
        };
        self.expect_sym(".")?;
        let name = match self.bump() {
            Some(Tok::Ident(id)) => id,
            other => {
                return Err(self.err_prev(format!(
                    "expected attribute name, found {}",
                    describe(other.as_ref())
                )))
            }
        };
        let attr = match name.as_str() {
            "time" => ATTR_LOCAL_TIME,
            other => Schema::by_name(other)
                .ok_or_else(|| self.err_prev(format!("unknown attribute '{other}'")))?,
        };
        Ok((side, attr))
    }

    /// Graph mode: one `rel.pos` argument of `dist`, binding the relation.
    fn dist_arg(&mut self) -> Result<(), ParseError> {
        match self.bump() {
            Some(Tok::Ident(id)) => match self.rel_index(&id) {
                Some(r) => {
                    self.bind_side(r)?;
                }
                None => {
                    return Err(
                        self.err_prev(format!("unknown relation '{id}' (not in the FROM list)"))
                    )
                }
            },
            other => {
                return Err(self.err_prev(format!(
                    "expected a relation name, found {}",
                    describe(other.as_ref())
                )))
            }
        }
        self.expect_sym(".")?;
        self.expect_kw("pos")?;
        Ok(())
    }

    // --- expressions -----------------------------------------------------

    fn arith(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.term()?;
        loop {
            let op = if self.eat_sym("+") {
                ArithOp::Add
            } else if self.eat_sym("-") {
                ArithOp::Sub
            } else {
                break;
            };
            let rhs = self.term()?;
            lhs = Expr::Arith(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn term(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.factor()?;
        loop {
            let op = if self.eat_sym("*") {
                ArithOp::Mul
            } else if self.eat_sym("/") {
                ArithOp::Div
            } else if self.eat_sym("%") {
                ArithOp::Mod
            } else {
                break;
            };
            let rhs = self.factor()?;
            lhs = Expr::Arith(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn factor(&mut self) -> Result<Expr, ParseError> {
        match self.peek().cloned() {
            Some(Tok::Num(n)) => {
                self.bump();
                Ok(Expr::Const(n))
            }
            Some(Tok::Sym("(")) => {
                self.bump();
                let e = self.arith()?;
                self.expect_sym(")")?;
                Ok(e)
            }
            Some(Tok::Sym("-")) => {
                self.bump();
                let e = self.factor()?;
                Ok(Expr::sub(Expr::Const(0), e))
            }
            Some(Tok::Ident(id)) => match id.as_str() {
                "hash" => {
                    self.bump();
                    self.expect_sym("(")?;
                    let e = self.arith()?;
                    self.expect_sym(")")?;
                    Ok(Expr::hash(e))
                }
                "abs" => {
                    self.bump();
                    self.expect_sym("(")?;
                    let e = self.arith()?;
                    self.expect_sym(")")?;
                    Ok(Expr::abs(e))
                }
                "dist" => {
                    self.bump();
                    self.expect_sym("(")?;
                    if self.rels.is_empty() {
                        // dist(S.pos, T.pos) — argument order is fixed.
                        self.expect_kw("s")?;
                        self.expect_sym(".")?;
                        self.expect_kw("pos")?;
                        self.expect_sym(",")?;
                        self.expect_kw("t")?;
                        self.expect_sym(".")?;
                        self.expect_kw("pos")?;
                    } else {
                        // Graph mode: dist(A.pos, B.pos) binds both
                        // relations; Euclidean distance is symmetric, so
                        // the S/T orientation does not matter.
                        self.dist_arg()?;
                        self.expect_sym(",")?;
                        self.dist_arg()?;
                    }
                    self.expect_sym(")")?;
                    Ok(Expr::Dist)
                }
                "s" | "t" if self.rels.is_empty() => {
                    let (side, attr) = self.attr_ref()?;
                    Ok(Expr::attr(side, attr))
                }
                other if self.rel_index(other).is_some() => {
                    let (side, attr) = self.attr_ref()?;
                    Ok(Expr::attr(side, attr))
                }
                other if !self.rels.is_empty() => {
                    Err(self.err(format!("unknown relation '{other}' (not in the FROM list)")))
                }
                other => Err(self.err(format!("unexpected identifier '{other}'"))),
            },
            other => Err(self.err(format!(
                "expected an expression, found {}",
                describe(other.as_ref())
            ))),
        }
    }

    fn comparison(&mut self) -> Result<Pred, ParseError> {
        let lhs = self.arith()?;
        let op = match self.bump() {
            Some(Tok::Sym("=")) => CmpOp::Eq,
            Some(Tok::Sym("!=")) => CmpOp::Ne,
            Some(Tok::Sym("<")) => CmpOp::Lt,
            Some(Tok::Sym("<=")) => CmpOp::Le,
            Some(Tok::Sym(">")) => CmpOp::Gt,
            Some(Tok::Sym(">=")) => CmpOp::Ge,
            other => {
                return Err(self.err_prev(format!(
                    "expected comparison operator, found {}",
                    describe(other.as_ref())
                )))
            }
        };
        let rhs = self.arith()?;
        Ok(Pred::new(lhs, op, rhs))
    }

    // --- boolean layer ---------------------------------------------------

    pub(crate) fn bool_or(&mut self) -> Result<BoolExpr, ParseError> {
        let mut parts = vec![self.bool_and()?];
        while self.eat_kw("or") {
            parts.push(self.bool_and()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().unwrap()
        } else {
            BoolExpr::Or(parts)
        })
    }

    fn bool_and(&mut self) -> Result<BoolExpr, ParseError> {
        let mut parts = vec![self.bool_not()?];
        while self.eat_kw("and") {
            parts.push(self.bool_not()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().unwrap()
        } else {
            BoolExpr::And(parts)
        })
    }

    pub(crate) fn bool_not(&mut self) -> Result<BoolExpr, ParseError> {
        if self.eat_kw("not") {
            return Ok(BoolExpr::Not(Box::new(self.bool_not()?)));
        }
        // '(' is ambiguous: try boolean grouping first, fall back to an
        // arithmetic comparison.
        if matches!(self.peek(), Some(Tok::Sym("("))) {
            let (save_at, save_pos) = (self.at, self.last_pos);
            self.bump();
            if let Ok(inner) = self.bool_or() {
                if self.eat_sym(")") {
                    return Ok(inner);
                }
            }
            self.at = save_at;
            self.last_pos = save_pos;
        }
        Ok(BoolExpr::Atom(self.comparison()?))
    }

    // --- top level ---------------------------------------------------------

    /// The optional `[windowsize=N sampleinterval=M]` block.
    pub(crate) fn window_opts(&mut self) -> Result<(usize, u32), ParseError> {
        let mut window = 1usize;
        let mut sample_interval = 100u32;
        if self.eat_sym("[") {
            while !self.eat_sym("]") {
                match self.bump() {
                    Some(Tok::Ident(id)) if id == "windowsize" => {
                        self.expect_sym("=")?;
                        match self.bump() {
                            Some(Tok::Num(n)) if n >= 1 => window = n as usize,
                            _ => return Err(self.err("windowsize needs a positive integer")),
                        }
                    }
                    Some(Tok::Ident(id)) if id == "sampleinterval" => {
                        self.expect_sym("=")?;
                        match self.bump() {
                            Some(Tok::Num(n)) if n >= 1 => sample_interval = n as u32,
                            _ => return Err(self.err("sampleinterval needs a positive integer")),
                        }
                    }
                    other => {
                        return Err(self.err_prev(format!(
                            "unknown window option {}",
                            describe(other.as_ref())
                        )))
                    }
                }
            }
        }
        Ok((window, sample_interval))
    }

    fn query(&mut self) -> Result<JoinQuerySpec, ParseError> {
        self.expect_kw("select")?;
        let mut select = vec![self.attr_ref()?];
        while self.eat_sym(",") {
            select.push(self.attr_ref()?);
        }
        self.expect_kw("from")?;
        self.expect_kw("s")?;
        self.expect_sym(",")?;
        self.expect_kw("t")?;
        let (window, sample_interval) = self.window_opts()?;
        self.expect_kw("where")?;
        let predicate = self.bool_or()?;
        if self.at != self.toks.len() {
            return Err(self.err("trailing input after WHERE clause"));
        }
        Ok(JoinQuerySpec::compile(
            "parsed",
            select,
            window,
            sample_interval,
            predicate,
        ))
    }
}

/// Parse a StreamSQL-style join query over the classic two relations
/// `S`/`T`. For multi-relation `FROM` lists see
/// [`crate::graph::parse_join_graph`]; to accept both through one entry
/// point see [`parse`].
pub fn parse_query(input: &str) -> Result<JoinQuerySpec, ParseError> {
    let lexer = lex(input)?;
    Parser::new(lexer).query()
}

/// What [`parse`] produced: the classic pairwise spec, or an n-way join
/// graph.
#[derive(Debug, Clone)]
pub enum Parsed {
    /// A two-relation `FROM S, T` query (full classic grammar, including
    /// top-level `OR`). Boxed: the full spec dwarfs the graph variant.
    Pair(Box<JoinQuerySpec>),
    /// A multi-relation join graph.
    Graph(JoinGraph),
}

/// The unified StreamSQL entry point: dispatches on the `FROM` list.
/// `FROM S, T` goes through the classic two-relation grammar
/// ([`parse_query`]); any other relation list goes through the n-way
/// graph grammar ([`crate::graph::parse_join_graph`]). Both report
/// failures through the one structured [`ParseError`].
pub fn parse(input: &str) -> Result<Parsed, ParseError> {
    let lexer = lex(input)?;
    // Peek at the FROM list without committing to a grammar: the idents
    // between `FROM` and the window block / WHERE clause.
    let mut rels: Vec<&str> = Vec::new();
    let mut toks = lexer.toks.iter().map(|(_, t)| t);
    for t in toks.by_ref() {
        if matches!(t, Tok::Ident(id) if id == "from") {
            break;
        }
    }
    let mut expect_rel = true;
    for t in toks {
        match t {
            Tok::Ident(id) if expect_rel => {
                rels.push(id);
                expect_rel = false;
            }
            Tok::Sym(",") if !expect_rel => expect_rel = true,
            _ => break,
        }
    }
    if rels == ["s", "t"] {
        parse_query(input).map(|spec| Parsed::Pair(Box::new(spec)))
    } else {
        crate::graph::parse_join_graph(input).map(Parsed::Graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ATTR_CID, ATTR_ID, ATTR_U, ATTR_Y};

    const APPENDIX_B_QUERY: &str = "SELECT S.id, T.id, S.time \
        FROM S, T [windowsize=3 sampleinterval=100] \
        WHERE S.id < 25 AND hash(S.u) % 2 = 0 \
        AND T.id > 50 AND hash(T.u) % 2 = 0 \
        AND S.x = T.y + 5 AND S.u = T.u";

    #[test]
    fn parses_appendix_b_query() {
        let q = parse_query(APPENDIX_B_QUERY).expect("parse");
        assert_eq!(q.window, 3);
        assert_eq!(q.sample_interval, 100);
        assert_eq!(q.select.len(), 3);
        assert_eq!(q.analysis.s_static_sel.len(), 1);
        assert_eq!(q.analysis.t_static_sel.len(), 1);
        assert_eq!(q.analysis.s_dynamic_sel.len(), 1);
        assert_eq!(q.analysis.t_dynamic_sel.len(), 1);
        assert_eq!(q.analysis.static_join.len(), 1);
        assert_eq!(q.analysis.dynamic_join.len(), 1);
        // Pattern matcher: S.x = T.y+5 routes on y.
        assert!(q.plan.is_routable());
        assert_eq!(
            q.plan.components[0].route,
            crate::pattern::ComponentRoute::AttrEq(ATTR_Y)
        );
    }

    #[test]
    fn parses_perimeter_query() {
        let q = parse_query(
            "SELECT S.id, T.id FROM S, T [windowsize=1] \
             WHERE S.rid = 0 AND T.rid = 3 AND S.cid = T.cid \
             AND S.id % 4 = T.id % 4 AND S.u = T.u",
        )
        .expect("parse");
        assert_eq!(q.window, 1);
        assert_eq!(q.plan.components.len(), 2);
        let routes: Vec<_> = q.plan.components.iter().map(|c| c.route.clone()).collect();
        assert!(routes.contains(&crate::pattern::ComponentRoute::AttrEq(ATTR_CID)));
        assert!(routes.contains(&crate::pattern::ComponentRoute::AttrMod(ATTR_ID, 4)));
    }

    #[test]
    fn parses_region_query_with_dist_and_abs() {
        let q = parse_query(
            "SELECT S.id, T.id FROM S, T \
             WHERE dist(S.pos, T.pos) < 50 AND S.id < T.id AND abs(S.v - T.v) > 1000",
        )
        .expect("parse");
        assert!(q.plan.near.is_some());
        assert_eq!(q.plan.near.unwrap().dist_dm, 49);
        assert_eq!(q.analysis.dynamic_join.len(), 1);
    }

    #[test]
    fn parses_boolean_structure() {
        let q = parse_query(
            "SELECT S.id FROM S, T WHERE (S.id < 5 OR S.id > 60) AND NOT T.id = 3 AND S.u = T.u",
        )
        .expect("parse");
        // (a OR b) is one static selection clause with two disjuncts.
        assert_eq!(q.analysis.s_static_sel.len(), 1);
        assert_eq!(q.analysis.s_static_sel[0].preds.len(), 2);
        // NOT T.id = 3 becomes T.id != 3.
        assert_eq!(q.analysis.t_static_sel.len(), 1);
        assert_eq!(q.analysis.t_static_sel[0].preds[0].op, CmpOp::Ne);
    }

    #[test]
    fn parenthesized_arithmetic_is_not_boolean() {
        let q = parse_query("SELECT S.id FROM S, T WHERE (S.u + 1) % 2 = 0 AND S.u = T.u")
            .expect("parse");
        assert_eq!(q.analysis.s_dynamic_sel.len(), 1);
    }

    #[test]
    fn unknown_attribute_rejected() {
        let err = parse_query("SELECT S.bogus FROM S, T WHERE S.u = T.u").unwrap_err();
        assert!(err.message.contains("unknown attribute"));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let err = parse_query("SELECT S.id FROM S, T WHERE S.u = T.u GROUP BY 1").unwrap_err();
        assert!(err.message.contains("trailing"));
    }

    #[test]
    fn window_options_in_any_order() {
        let q =
            parse_query("SELECT S.id FROM S, T [sampleinterval=50 windowsize=7] WHERE S.u = T.u")
                .expect("parse");
        assert_eq!(q.window, 7);
        assert_eq!(q.sample_interval, 50);
    }

    #[test]
    fn time_maps_to_local_time() {
        let q = parse_query("SELECT S.time FROM S, T WHERE S.u = T.u").expect("parse");
        assert_eq!(q.select[0].1, crate::schema::ATTR_LOCAL_TIME);
        let _ = ATTR_U; // silence unused import in some cfgs
    }

    // --- structured-error regressions ------------------------------------
    // The three historically worst diagnostics: an empty predicate used to
    // report position usize::MAX, and post-bump rejections pointed one
    // token past the offender.

    #[test]
    fn empty_predicate_reports_end_of_input() {
        let sql = "SELECT S.id FROM S, T WHERE";
        let err = parse_query(sql).unwrap_err();
        assert_eq!(err.pos, sql.len());
        assert!(err.message.contains("end of input"), "{}", err.message);
    }

    #[test]
    fn error_position_points_at_offending_token() {
        let sql = "SELECT S.bogus FROM S, T WHERE S.u = T.u";
        let err = parse_query(sql).unwrap_err();
        assert_eq!(err.pos, sql.find("bogus").unwrap());
        assert!(err.message.contains("unknown attribute"), "{}", err.message);
        // A missing comparison operator points at the stray token, not
        // past it.
        let sql = "SELECT S.id FROM S, T WHERE S.u T.u";
        let err = parse_query(sql).unwrap_err();
        assert_eq!(err.pos, sql.rfind("T.u").unwrap());
    }

    #[test]
    fn multi_byte_characters_are_errors_not_panics() {
        // A symbol followed by a multi-byte character used to slice the
        // input through that character.
        for sql in ["SELECT S.id FROM S, T WHERE S.u <é", "<界", "é"] {
            let err = parse(sql).unwrap_err();
            let bad = sql.find(|c: char| !c.is_ascii()).unwrap();
            assert_eq!(err.pos, bad, "{sql}");
            let shown = sql[bad..].chars().next().unwrap();
            assert!(err.message.contains(shown), "{sql}: {}", err.message);
        }
    }

    #[test]
    fn messages_render_tokens_readably() {
        let err = parse_query("SELECT S.id FROM S WHERE S.u = T.u").unwrap_err();
        // `FROM S` is missing `, T`: the keyword expectation names the
        // found token plainly instead of a Debug dump.
        assert!(!err.message.contains("Ident("), "{}", err.message);
        assert!(!err.message.contains("Some("), "{}", err.message);
    }

    #[test]
    fn unified_parse_dispatches_on_from_list() {
        match parse("SELECT S.id FROM S, T WHERE S.u = T.u").expect("pair") {
            Parsed::Pair(spec) => assert_eq!(spec.select.len(), 1),
            other => panic!("expected a pairwise spec, got {other:?}"),
        }
        match parse("SELECT A.id FROM A, B, C WHERE A.id < 5 AND A.u = B.u AND B.v = C.v")
            .expect("graph")
        {
            Parsed::Graph(g) => assert_eq!(g.n_relations(), 3),
            other => panic!("expected a join graph, got {other:?}"),
        }
        // Pairwise-only syntax (top-level OR) stays reachable through the
        // unified entry point.
        assert!(matches!(
            parse("SELECT S.id FROM S, T WHERE S.id < 5 OR S.u = T.u").expect("or"),
            Parsed::Pair(_)
        ));
    }
}
