//! Tokenizer and recursive-descent parser for the portal dialect.
//!
//! Grammar (case-insensitive keywords):
//!
//! ```text
//! query      := SELECT agg FROM ident [ident]
//!               WHERE [qual.]LOCATION WITHIN shape
//!               (AND ([qual.]TIME BETWEEN NOW() '-' number AND NOW() unit
//!                     | [qual.]TYPE '=' number))*
//!               [CLUSTER number [ident]]
//!               [SAMPLESIZE number]
//! agg        := (COUNT '(' '*' ')') | ((SUM|AVG|MIN|MAX) '(' ident ')')
//! shape      := POLYGON '(' '(' point (',' point)* ')' ')'
//!             | RECT '(' number ',' number ',' number ',' number ')'
//!             | CIRCLE '(' number ',' number ',' number ')'
//! point      := number number
//! unit       := MINS | MINUTES | SECS | SECONDS | MS
//! ```

use std::fmt;

use colr_geo::{Point, Rect};
use colr_tree::TimeDelta;

use crate::ast::{AggSpec, SelectQuery, SpatialPredicate};

/// A parse failure with a human-readable message.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Token position (0-based) where the failure occurred.
    pub at: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at token {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Token<'a> {
    Ident(&'a str),
    Number(f64),
    Symbol(char),
}

/// Splits `input` into tokens that borrow from it.
fn tokenize(input: &str) -> Result<Vec<Token<'_>>, ParseError> {
    // Length of the longest prefix of `s` made of bytes satisfying `keep`
    // (ASCII classes only, so the cut is always a char boundary).
    fn run(s: &str, keep: impl Fn(u8) -> bool) -> usize {
        s.bytes().position(|b| !keep(b)).unwrap_or(s.len())
    }
    let mut tokens = Vec::new();
    let mut rest = input;
    while let Some(c) = rest.chars().next() {
        let len = if c.is_whitespace() {
            c.len_utf8()
        } else if c.is_ascii_alphabetic() || c == '_' {
            let len = run(rest, |b| b.is_ascii_alphanumeric() || b == b'_');
            tokens.push(Token::Ident(&rest[..len]));
            len
        } else if c.is_ascii_digit()
            || (c == '-'
                && matches!(rest.as_bytes().get(1), Some(d) if d.is_ascii_digit() || *d == b'.'))
        {
            let sign = usize::from(c == '-');
            // Digits, `.`, `e`/`E`, and one sign directly after the exponent
            // marker (`1e-3`).
            let body = &rest.as_bytes()[sign..];
            let len = sign
                + (0..body.len())
                    .position(|i| match body[i] {
                        b'0'..=b'9' | b'.' | b'e' | b'E' => false,
                        b'+' | b'-' => i == 0 || !matches!(body[i - 1], b'e' | b'E'),
                        _ => true,
                    })
                    .unwrap_or(body.len());
            let num = &rest[..len];
            let v = num.parse::<f64>().map_err(|_| ParseError {
                message: format!("bad number `{num}`"),
                at: tokens.len(),
            })?;
            tokens.push(Token::Number(v));
            len
        } else if "(),.*-+=".contains(c) {
            tokens.push(Token::Symbol(c));
            1
        } else {
            let at_byte = input.len() - rest.len();
            return Err(ParseError {
                message: format!("unexpected character `{c}` at byte {at_byte}"),
                at: tokens.len(),
            });
        };
        rest = &rest[len..];
    }
    Ok(tokens)
}

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: message.into(),
            at: self.pos,
        })
    }

    fn peek(&self) -> Option<&Token<'a>> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token<'a>> {
        let t = self.tokens.get(self.pos).copied();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw) => Ok(()),
            other => self.err(format!("expected `{kw}`, found {other:?}")),
        }
    }

    fn try_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn symbol(&mut self, c: char) -> Result<(), ParseError> {
        match self.next() {
            Some(Token::Symbol(s)) if s == c => Ok(()),
            other => self.err(format!("expected `{c}`, found {other:?}")),
        }
    }

    fn try_symbol(&mut self, c: char) -> bool {
        if matches!(self.peek(), Some(Token::Symbol(s)) if *s == c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn number(&mut self) -> Result<f64, ParseError> {
        match self.next() {
            Some(Token::Number(v)) => Ok(v),
            other => self.err(format!("expected number, found {other:?}")),
        }
    }

    fn ident(&mut self) -> Result<&'a str, ParseError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => self.err(format!("expected identifier, found {other:?}")),
        }
    }

    fn agg(&mut self) -> Result<AggSpec, ParseError> {
        let name = self.ident()?;
        let spec = match name.to_ascii_lowercase().as_str() {
            "count" => AggSpec::Count,
            "sum" => AggSpec::Sum,
            "avg" => AggSpec::Avg,
            "min" => AggSpec::Min,
            "max" => AggSpec::Max,
            other => return self.err(format!("unknown aggregate `{other}`")),
        };
        self.symbol('(')?;
        if spec == AggSpec::Count {
            // count(*) or count(col)
            if !self.try_symbol('*') {
                self.ident()?;
            }
        } else {
            self.ident()?;
        }
        self.symbol(')')?;
        Ok(spec)
    }

    /// Parses `[qualifier '.'] name`, requiring `name` to match.
    fn qualified(&mut self, name: &str) -> Result<(), ParseError> {
        let found = self.qualified_any()?;
        if found.eq_ignore_ascii_case(name) {
            Ok(())
        } else {
            self.err(format!("expected `{name}`, found `{found}`"))
        }
    }

    /// Parses `[qualifier '.'] name` and returns the field name.
    fn qualified_any(&mut self) -> Result<&'a str, ParseError> {
        let first = self.ident()?;
        if self.try_symbol('.') {
            self.ident()
        } else {
            Ok(first)
        }
    }

    fn shape(&mut self) -> Result<SpatialPredicate, ParseError> {
        let kind = self.ident()?;
        match kind.to_ascii_lowercase().as_str() {
            "polygon" => {
                self.symbol('(')?;
                self.symbol('(')?;
                let mut points = Vec::new();
                loop {
                    let x = self.number()?;
                    let y = self.number()?;
                    points.push(Point::new(x, y));
                    if !self.try_symbol(',') {
                        break;
                    }
                }
                self.symbol(')')?;
                self.symbol(')')?;
                if points.len() < 3 {
                    return self.err("polygon needs at least 3 vertices");
                }
                if ring_crosses_itself(&points) {
                    return self.err("polygon ring crosses itself");
                }
                Ok(SpatialPredicate::Polygon(points))
            }
            "rect" => {
                self.symbol('(')?;
                let min_x = self.number()?;
                self.symbol(',')?;
                let min_y = self.number()?;
                self.symbol(',')?;
                let max_x = self.number()?;
                self.symbol(',')?;
                let max_y = self.number()?;
                self.symbol(')')?;
                Ok(SpatialPredicate::Rect(Rect::from_coords(
                    min_x, min_y, max_x, max_y,
                )))
            }
            "circle" => {
                self.symbol('(')?;
                let cx = self.number()?;
                self.symbol(',')?;
                let cy = self.number()?;
                self.symbol(',')?;
                let r = self.number()?;
                self.symbol(')')?;
                if r < 0.0 {
                    return self.err("circle radius must be non-negative");
                }
                Ok(SpatialPredicate::Circle(colr_geo::Circle::new(
                    Point::new(cx, cy),
                    r,
                )))
            }
            other => self.err(format!("expected POLYGON, RECT or CIRCLE, found `{other}`")),
        }
    }

    /// Parses the remainder of `time BETWEEN now() - N AND now() UNIT`
    /// after the field name was consumed.
    fn time_clause(&mut self) -> Result<TimeDelta, ParseError> {
        self.keyword("between")?;
        self.keyword("now")?;
        self.symbol('(')?;
        self.symbol(')')?;
        // The `-N` may tokenize as a negative number or as `-` then `N`.
        let n = match self.next() {
            Some(Token::Symbol('-')) => self.number()?,
            Some(Token::Number(v)) if v < 0.0 => -v,
            other => return self.err(format!("expected `- <number>`, found {other:?}")),
        };
        self.keyword("and")?;
        self.keyword("now")?;
        self.symbol('(')?;
        self.symbol(')')?;
        let unit = self.ident()?;
        let ms = match unit.to_ascii_lowercase().as_str() {
            "mins" | "minutes" | "min" => n * 60_000.0,
            "secs" | "seconds" | "sec" => n * 1_000.0,
            "ms" | "millis" => n,
            other => return self.err(format!("unknown time unit `{other}`")),
        };
        if ms < 0.0 {
            return self.err("staleness must be non-negative");
        }
        Ok(TimeDelta::from_millis(ms.round() as u64))
    }

    fn query(&mut self) -> Result<SelectQuery, ParseError> {
        self.keyword("select")?;
        let agg = self.agg()?;
        self.keyword("from")?;
        let table = self.ident()?;
        if !table.eq_ignore_ascii_case("sensor") && !table.eq_ignore_ascii_case("sensors") {
            return self.err(format!("unknown table `{table}`"));
        }
        // Optional table alias (`sensor S`).
        if let Some(Token::Ident(s)) = self.peek() {
            if !s.eq_ignore_ascii_case("where") {
                self.pos += 1;
            }
        }
        self.keyword("where")?;
        self.qualified("location")?;
        self.keyword("within")?;
        let within = self.shape()?;

        let mut staleness = None;
        let mut sensor_type = None;
        while self.try_keyword("and") {
            let field = self.qualified_any()?;
            match field.to_ascii_lowercase().as_str() {
                "time" => {
                    if staleness.replace(self.time_clause()?).is_some() {
                        return self.err("duplicate time clause");
                    }
                }
                "type" => {
                    // `type = N`
                    match self.next() {
                        Some(Token::Symbol('=')) => {}
                        other => return self.err(format!("expected `=`, found {other:?}")),
                    }
                    let n = self.number()?;
                    if n < 0.0 || n.fract() != 0.0 || n > u16::MAX as f64 {
                        return self.err("sensor type must be a small non-negative integer");
                    }
                    if sensor_type.replace(n as u16).is_some() {
                        return self.err("duplicate type clause");
                    }
                }
                other => return self.err(format!("unknown predicate field `{other}`")),
            }
        }
        let mut cluster = None;
        if self.try_keyword("cluster") {
            let d = self.number()?;
            if d <= 0.0 {
                return self.err("CLUSTER distance must be positive");
            }
            cluster = Some(d);
            // Optional unit word (`miles`), accepted and ignored: the portal
            // works in map units.
            if let Some(Token::Ident(s)) = self.peek() {
                if s.eq_ignore_ascii_case("miles") || s.eq_ignore_ascii_case("units") {
                    self.pos += 1;
                }
            }
        }
        let mut sample_size = None;
        if self.try_keyword("samplesize") {
            let n = self.number()?;
            if n < 0.0 || n.fract() != 0.0 {
                return self.err("SAMPLESIZE must be a non-negative integer");
            }
            sample_size = Some(n as usize);
        }
        if self.pos != self.tokens.len() {
            return self.err(format!("trailing tokens: {:?}", &self.tokens[self.pos..]));
        }
        Ok(SelectQuery {
            agg,
            within,
            staleness,
            cluster,
            sample_size,
            sensor_type,
        })
    }
}

/// `true` when two edges of the closed ring `ring` cross at a point interior
/// to both. Such a ring has lobes of opposite winding, and everything that
/// weighs a polygon by the area of its clipped ring (overlap fractions, so the
/// router's and the LSM's target splits) would see them cancel. All pairs of
/// edges: a ring is a handful of vertices.
fn ring_crosses_itself(ring: &[Point]) -> bool {
    // Twice the signed area of the triangle `a b c`: its sign is the side of
    // `a → b` that `c` lies on.
    let side = |a: Point, b: Point, c: Point| (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
    let n = ring.len();
    let edge = |i: usize| (ring[i], ring[(i + 1) % n]);
    (0..n).any(|i| {
        let (a, b) = edge(i);
        (i + 1..n).any(|j| {
            let (c, d) = edge(j);
            side(a, b, c) * side(a, b, d) < 0.0 && side(c, d, a) * side(c, d, b) < 0.0
        })
    })
}

/// Parses one portal query.
///
/// ```
/// use colr_engine::parse;
///
/// let q = parse(
///     "SELECT avg(value) FROM sensor S \
///      WHERE S.location WITHIN RECT(0, 0, 100, 100) \
///      AND S.time BETWEEN now()-5 AND now() mins \
///      CLUSTER 10 SAMPLESIZE 30",
/// )?;
/// assert_eq!(q.sample_size, Some(30));
/// assert_eq!(q.cluster, Some(10.0));
/// # Ok::<_, colr_engine::PortalError>(())
/// ```
pub fn parse(input: &str) -> Result<SelectQuery, ParseError> {
    let tokens = tokenize(input)?;
    Parser { tokens, pos: 0 }.query()
}

/// A parsed portal statement: either a plain query or an `EXPLAIN [ANALYZE]`
/// wrapper around one.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// Execute the query and return its results.
    Select(SelectQuery),
    /// Describe the plan; with `analyze`, also execute the query under an
    /// always-on flight recorder and return the captured stage tree.
    Explain {
        /// `EXPLAIN ANALYZE ...` (vs plain `EXPLAIN ...`).
        analyze: bool,
        /// The wrapped query.
        query: SelectQuery,
    },
}

/// Parses a statement of the portal dialect: `[EXPLAIN [ANALYZE]] SELECT ...`.
///
/// ```
/// use colr_engine::{parse_statement, Statement};
///
/// let s = parse_statement(
///     "EXPLAIN ANALYZE SELECT avg(temp) FROM sensor \
///      WHERE location WITHIN Rect(0, 0, 10, 10) SAMPLESIZE 20",
/// )?;
/// assert!(matches!(s, Statement::Explain { analyze: true, .. }));
/// # Ok::<_, colr_engine::PortalError>(())
/// ```
pub fn parse_statement(input: &str) -> Result<Statement, ParseError> {
    let tokens = tokenize(input)?;
    let mut p = Parser { tokens, pos: 0 };
    if p.try_keyword("explain") {
        let analyze = p.try_keyword("analyze");
        let query = p.query()?;
        Ok(Statement::Explain { analyze, query })
    } else {
        Ok(Statement::Select(p.query()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_paper_example() {
        // The exact query of Section III-B (with coordinates filled in).
        let q = parse(
            "SELECT count(*) FROM sensor S \
             WHERE S.location WITHIN Polygon((0 0, 10 0, 10 10, 0 10)) \
             AND S.time BETWEEN now()-10 AND now() mins \
             CLUSTER 10 miles \
             SAMPLESIZE 30",
        )
        .expect("parses");
        assert_eq!(q.agg, AggSpec::Count);
        assert!(matches!(q.within, SpatialPredicate::Polygon(ref pts) if pts.len() == 4));
        assert_eq!(q.staleness, Some(TimeDelta::from_mins(10)));
        assert_eq!(q.cluster, Some(10.0));
        assert_eq!(q.sample_size, Some(30));
    }

    #[test]
    fn parses_explain_and_explain_analyze_statements() {
        let sql = "SELECT count(*) FROM sensor WHERE location WITHIN RECT(0,0,4,4)";
        match parse_statement(sql).expect("plain select") {
            Statement::Select(q) => assert_eq!(q.agg, AggSpec::Count),
            other => panic!("expected Select, got {other:?}"),
        }
        match parse_statement(&format!("EXPLAIN {sql}")).expect("explain") {
            Statement::Explain { analyze, query } => {
                assert!(!analyze);
                assert_eq!(query.agg, AggSpec::Count);
            }
            other => panic!("expected Explain, got {other:?}"),
        }
        match parse_statement(&format!("explain ANALYZE {sql}")).expect("explain analyze") {
            Statement::Explain { analyze, .. } => assert!(analyze),
            other => panic!("expected Explain, got {other:?}"),
        }
        // EXPLAIN requires a complete query after it.
        assert!(parse_statement("EXPLAIN ANALYZE").is_err());
        // `analyze` alone is not a statement starter.
        assert!(parse_statement(&format!("ANALYZE {sql}")).is_err());
    }

    #[test]
    fn parses_minimal_rect_query() {
        let q = parse("SELECT avg(value) FROM sensors WHERE location WITHIN RECT(0, 0, 5, 5)")
            .expect("parses");
        assert_eq!(q.agg, AggSpec::Avg);
        assert_eq!(
            q.within,
            SpatialPredicate::Rect(Rect::from_coords(0.0, 0.0, 5.0, 5.0))
        );
        assert_eq!(q.staleness, None);
        assert_eq!(q.cluster, None);
        assert_eq!(q.sample_size, None);
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let q = parse("select MIN(value) from SENSOR where LOCATION within rect(0,0,1,1)")
            .expect("parses");
        assert_eq!(q.agg, AggSpec::Min);
    }

    #[test]
    fn parses_seconds_unit() {
        let q = parse(
            "SELECT count(*) FROM sensor WHERE location WITHIN RECT(0,0,1,1) \
             AND time BETWEEN now()-30 AND now() secs",
        )
        .expect("parses");
        assert_eq!(q.staleness, Some(TimeDelta::from_secs(30)));
    }

    #[test]
    fn rejects_unknown_aggregate() {
        let err = parse("SELECT median(value) FROM sensor WHERE location WITHIN RECT(0,0,1,1)")
            .unwrap_err();
        assert!(err.message.contains("unknown aggregate"));
    }

    #[test]
    fn rejects_unknown_table() {
        let err = parse("SELECT count(*) FROM restaurants WHERE location WITHIN RECT(0,0,1,1)")
            .unwrap_err();
        assert!(err.message.contains("unknown table"));
    }

    #[test]
    fn rejects_degenerate_polygon() {
        let err = parse("SELECT count(*) FROM sensor WHERE location WITHIN POLYGON((0 0, 1 1))")
            .unwrap_err();
        assert!(err.message.contains("3 vertices"));
    }

    #[test]
    fn rejects_a_ring_that_crosses_itself() {
        let within = |ring: &str| {
            parse(&format!(
                "SELECT count(*) FROM sensor WHERE location WITHIN POLYGON(({ring}))"
            ))
        };
        // A bow-tie, from either end, and a pentagram.
        for ring in [
            "0 0, 10 10, 0 10, 10 0",
            "10 0, 0 0, 10 10, 0 10",
            "0 3, 6 3, 1 0, 3 5, 5 0",
        ] {
            let err = within(ring).unwrap_err();
            assert!(err.message.contains("crosses itself"), "{ring}: {err}");
        }
        // Simple rings parse as before: convex, concave, clockwise, with a
        // repeated vertex, with collinear and zero-length edges, touching
        // itself at a vertex without crossing, closed WKT-style, and with
        // infinite corners.
        for ring in [
            "0 0, 10 0, 10 10, 0 10",
            "0 10, 10 10, 10 0, 0 0",
            "0 0, 10 0, 10 10, 5 2, 0 10",
            "0 0, 5 0, 10 0, 10 10, 10 10, 0 10",
            "0 0, 4 0, 2 2, 4 4, 0 4, 2 2",
            "0 0, 1 1, 2 2",
            "0 0, 10 0, 10 10, 0 10, 0 0",
            "-1e999 -1e999, 1e999 -1e999, 0 1e999",
        ] {
            assert!(within(ring).is_ok(), "{ring}");
        }
    }

    #[test]
    fn rejects_negative_samplesize_and_fractional() {
        assert!(parse(
            "SELECT count(*) FROM sensor WHERE location WITHIN RECT(0,0,1,1) SAMPLESIZE 1.5"
        )
        .is_err());
    }

    #[test]
    fn rejects_trailing_tokens() {
        let err = parse("SELECT count(*) FROM sensor WHERE location WITHIN RECT(0,0,1,1) GARBAGE")
            .unwrap_err();
        assert!(err.message.contains("trailing"));
    }

    #[test]
    fn rejects_zero_cluster() {
        assert!(
            parse("SELECT count(*) FROM sensor WHERE location WITHIN RECT(0,0,1,1) CLUSTER 0")
                .is_err()
        );
    }

    #[test]
    fn error_display_mentions_position() {
        let err = parse("SELECT").unwrap_err();
        assert!(err.to_string().contains("parse error at token"));
    }

    #[test]
    fn parses_type_filter() {
        let q = parse(
            "SELECT count(*) FROM sensor S WHERE S.location WITHIN RECT(0,0,1,1) \
             AND S.type = 3",
        )
        .expect("parses");
        assert_eq!(q.sensor_type, Some(3));
        assert_eq!(q.staleness, None);
    }

    #[test]
    fn parses_type_and_time_in_either_order() {
        let a = parse(
            "SELECT count(*) FROM sensor WHERE location WITHIN RECT(0,0,1,1) \
             AND type = 1 AND time BETWEEN now()-5 AND now() mins",
        )
        .expect("parses");
        let b = parse(
            "SELECT count(*) FROM sensor WHERE location WITHIN RECT(0,0,1,1) \
             AND time BETWEEN now()-5 AND now() mins AND type = 1",
        )
        .expect("parses");
        assert_eq!(a.sensor_type, b.sensor_type);
        assert_eq!(a.staleness, b.staleness);
    }

    #[test]
    fn rejects_duplicate_clauses() {
        assert!(parse(
            "SELECT count(*) FROM sensor WHERE location WITHIN RECT(0,0,1,1) \
             AND type = 1 AND type = 2",
        )
        .is_err());
    }

    #[test]
    fn parses_circle_shape() {
        let q = parse("SELECT count(*) FROM sensor WHERE location WITHIN CIRCLE(5, 5, 2.5)")
            .expect("parses");
        match q.within {
            SpatialPredicate::Circle(c) => {
                assert_eq!(c.center, Point::new(5.0, 5.0));
                assert_eq!(c.radius, 2.5);
            }
            other => panic!("expected circle, got {other:?}"),
        }
    }

    #[test]
    fn exponent_sign_belongs_to_the_number() {
        let q = parse(
            "SELECT count(*) FROM sensor WHERE location WITHIN RECT(1e-3, -2E+1, 1e3, 5) \
             CLUSTER 1e-3",
        )
        .expect("parses");
        assert_eq!(
            q.within,
            SpatialPredicate::Rect(Rect::from_coords(0.001, -20.0, 1000.0, 5.0))
        );
        assert_eq!(q.cluster, Some(0.001));
        // One sign, directly after the marker; a bare exponent is no number.
        for bad in ["1e", "1e-", "1e--3"] {
            let sql =
                format!("SELECT count(*) FROM sensor WHERE location WITHIN RECT({bad},0,1,1)");
            assert!(parse(&sql).is_err(), "{bad} parsed");
        }
    }

    #[test]
    fn negative_coordinates_parse() {
        let q = parse("SELECT count(*) FROM sensor WHERE location WITHIN RECT(-10, -5, -1, -2)")
            .expect("parses");
        assert_eq!(
            q.within,
            SpatialPredicate::Rect(Rect::from_coords(-10.0, -5.0, -1.0, -2.0))
        );
    }
}
