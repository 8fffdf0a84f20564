// srclint: allow(R002): every hit is the parser's own Result-returning expect(&Tok) combinator
//! SPARQL parser: recursive descent over the tokens of module `lexer`,
//! with property paths and FILTER expressions in module `expr`.

mod expr;
mod lexer;

use std::collections::HashMap;

use crate::error::{Error, Result};
use crate::term::Term;

use super::ast::*;
use expr::Verb;
use lexer::{lex, Tok};

/// Parse a SPARQL SELECT query.
pub fn parse_query(src: &str) -> Result<Query> {
    match parse_any(src)? {
        ParsedQuery::Select(q) => Ok(q),
        _ => Err(Error::parse("expected a SELECT query", 0)),
    }
}

/// Parse any SPARQL query form (SELECT / ASK / CONSTRUCT).
pub fn parse_any(src: &str) -> Result<ParsedQuery> {
    let mut p = Parser::new(src)?;
    let q = p.any_query()?;
    p.expect_eof()?;
    Ok(q)
}


// ---- parser ---------------------------------------------------------------


struct Parser {
    toks: Vec<(Tok, usize)>,
    pos: usize,
    prefixes: HashMap<String, String>,
}

impl Parser {
    fn new(src: &str) -> Result<Self> {
        Ok(Parser { toks: lex(src)?, pos: 0, prefixes: HashMap::new() })
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos].0
    }

    fn offset(&self) -> usize {
        self.toks[self.pos].1
    }

    fn advance(&mut self) -> Tok {
        let t = self.toks[self.pos].0.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == t {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok) -> Result<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(Error::parse(
                format!("expected {t:?}, found {:?}", self.peek()),
                self.offset(),
            ))
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Tok::Word(w) = self.peek() {
            if w.eq_ignore_ascii_case(kw) {
                self.advance();
                return true;
            }
        }
        false
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(Error::parse(
                format!("expected `{}`, found {:?}", kw.to_uppercase(), self.peek()),
                self.offset(),
            ))
        }
    }

    fn expect_eof(&self) -> Result<()> {
        if matches!(self.peek(), Tok::Eof) {
            Ok(())
        } else {
            Err(Error::parse(
                format!("unexpected trailing input {:?}", self.peek()),
                self.offset(),
            ))
        }
    }

    fn any_query(&mut self) -> Result<ParsedQuery> {
        self.prefixes_block()?;
        if self.eat_kw("ask") {
            // The WHERE keyword is optional in SPARQL's ASK form.
            self.eat_kw("where");
            let pattern = self.group_graph_pattern()?;
            return Ok(ParsedQuery::Ask(pattern));
        }
        if self.eat_kw("construct") {
            let template = self.construct_template()?;
            self.expect_kw("where")?;
            let pattern = self.group_graph_pattern()?;
            return Ok(ParsedQuery::Construct { template, pattern });
        }
        Ok(ParsedQuery::Select(self.query()?))
    }

    /// The `{ triples }` template of a CONSTRUCT query (no FILTER/OPTIONAL).
    fn construct_template(&mut self) -> Result<Vec<PatternTriple>> {
        self.expect(&Tok::LBrace)?;
        let mut out = Vec::new();
        while !self.eat(&Tok::RBrace) {
            let subject = self.pattern_term()?;
            loop {
                let predicate = self.pattern_term()?;
                loop {
                    let object = self.pattern_term()?;
                    out.push(PatternTriple::new(
                        subject.clone(),
                        predicate.clone(),
                        object,
                    ));
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
                if !self.eat(&Tok::Semicolon) {
                    break;
                }
                if matches!(self.peek(), Tok::Dot | Tok::RBrace) {
                    break;
                }
            }
            self.eat(&Tok::Dot);
        }
        Ok(out)
    }

    fn prefixes_block(&mut self) -> Result<()> {
        while self.eat_kw("prefix") {
            let (name, iri) = match self.advance() {
                Tok::Prefixed(p, local) if local.is_empty() => {
                    match self.advance() {
                        Tok::Iri(i) => (p, i),
                        other => {
                            return Err(Error::parse(
                                format!("expected IRI after PREFIX, found {other:?}"),
                                self.offset(),
                            ))
                        }
                    }
                }
                other => {
                    return Err(Error::parse(
                        format!("expected `name:` after PREFIX, found {other:?}"),
                        self.offset(),
                    ))
                }
            };
            self.prefixes.insert(name, iri);
        }
        Ok(())
    }

    fn query(&mut self) -> Result<Query> {
        // Accept (and record) a PREFIX block here too so parse_query
        // remains usable standalone.
        self.prefixes_block()?;
        self.expect_kw("select")?;
        let distinct = self.eat_kw("distinct");
        let mut variables = Vec::new();
        let mut projections = Vec::new();
        if !self.eat(&Tok::Star) {
            loop {
                match self.peek().clone() {
                    Tok::Var(v) => {
                        self.advance();
                        variables.push(v.clone());
                        projections.push(Projection::Var(v));
                    }
                    Tok::LParen => {
                        self.advance();
                        projections.push(Projection::Agg(self.agg_projection()?));
                    }
                    _ => break,
                }
            }
            if projections.is_empty() {
                return Err(Error::parse("SELECT needs variables or `*`", self.offset()));
            }
        }
        self.expect_kw("where")?;
        let pattern = self.group_graph_pattern()?;

        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            while let Tok::Var(v) = self.peek().clone() {
                self.advance();
                group_by.push(v);
            }
            if group_by.is_empty() {
                return Err(Error::parse("GROUP BY needs at least one variable", self.offset()));
            }
        }
        let having = if self.eat_kw("having") {
            self.expect(&Tok::LParen)?;
            let e = self.expr()?;
            self.expect(&Tok::RParen)?;
            Some(e)
        } else {
            None
        };

        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let (variable, ascending) = if self.eat_kw("desc") {
                    self.expect(&Tok::LParen)?;
                    let v = self.variable()?;
                    self.expect(&Tok::RParen)?;
                    (v, false)
                } else if self.eat_kw("asc") {
                    self.expect(&Tok::LParen)?;
                    let v = self.variable()?;
                    self.expect(&Tok::RParen)?;
                    (v, true)
                } else if matches!(self.peek(), Tok::Var(_)) {
                    (self.variable()?, true)
                } else {
                    break;
                };
                order_by.push(OrderCond { variable, ascending });
            }
            if order_by.is_empty() {
                return Err(Error::parse("ORDER BY needs at least one key", self.offset()));
            }
        }

        let mut limit = None;
        let mut offset = None;
        loop {
            if self.eat_kw("limit") {
                limit = Some(self.number_usize()?);
            } else if self.eat_kw("offset") {
                offset = Some(self.number_usize()?);
            } else {
                break;
            }
        }

        let q = Query {
            distinct,
            variables,
            projections,
            pattern,
            group_by,
            having,
            order_by,
            limit,
            offset,
        };
        if q.having.is_some() && !q.is_aggregate() {
            return Err(Error::parse("HAVING requires GROUP BY or aggregates", self.offset()));
        }
        Ok(q)
    }

    /// Parse the inside of an aggregate projection after its opening paren:
    /// `FUNC([DISTINCT] ?v | *) AS ?alias)`.
    fn agg_projection(&mut self) -> Result<AggProj> {
        let func = match self.advance() {
            Tok::Word(w) => AggFunc::parse(&w).ok_or_else(|| {
                Error::parse(format!("unknown aggregate `{w}`"), self.offset())
            })?,
            other => {
                return Err(Error::parse(
                    format!("expected aggregate function, found {other:?}"),
                    self.offset(),
                ))
            }
        };
        self.expect(&Tok::LParen)?;
        let distinct = self.eat_kw("distinct");
        let var = if self.eat(&Tok::Star) {
            if func != AggFunc::Count {
                return Err(Error::parse("`*` is only valid in COUNT", self.offset()));
            }
            None
        } else {
            Some(self.variable()?)
        };
        self.expect(&Tok::RParen)?;
        self.expect_kw("as")?;
        let alias = self.variable()?;
        self.expect(&Tok::RParen)?;
        Ok(AggProj { func, var, distinct, alias })
    }

    fn variable(&mut self) -> Result<String> {
        match self.advance() {
            Tok::Var(v) => Ok(v),
            other => Err(Error::parse(
                format!("expected variable, found {other:?}"),
                self.offset(),
            )),
        }
    }

    fn number_usize(&mut self) -> Result<usize> {
        match self.advance() {
            Tok::Num(n) => n
                .parse()
                .map_err(|_| Error::parse(format!("bad number `{n}`"), self.offset())),
            other => Err(Error::parse(
                format!("expected number, found {other:?}"),
                self.offset(),
            )),
        }
    }

    fn group_graph_pattern(&mut self) -> Result<GraphPattern> {
        self.expect(&Tok::LBrace)?;
        let mut current: Option<GraphPattern> = None;
        let mut filters: Vec<SparqlExpr> = Vec::new();
        let mut bgp: Vec<PatternTriple> = Vec::new();

        fn flush(current: &mut Option<GraphPattern>, bgp: &mut Vec<PatternTriple>) {
            if !bgp.is_empty() {
                let b = GraphPattern::Bgp(std::mem::take(bgp));
                *current = Some(match current.take() {
                    None => b,
                    Some(c) => GraphPattern::Join(Box::new(c), Box::new(b)),
                });
            }
        }

        loop {
            if self.eat(&Tok::RBrace) {
                break;
            }
            if self.eat_kw("filter") {
                self.expect(&Tok::LParen)?;
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                filters.push(e);
                self.eat(&Tok::Dot);
                continue;
            }
            if self.eat_kw("optional") {
                flush(&mut current, &mut bgp);
                let inner = self.group_graph_pattern()?;
                let left = current.take().unwrap_or(GraphPattern::Bgp(vec![]));
                current = Some(GraphPattern::Optional(Box::new(left), Box::new(inner)));
                self.eat(&Tok::Dot);
                continue;
            }
            if self.eat_kw("minus") {
                flush(&mut current, &mut bgp);
                let inner = self.group_graph_pattern()?;
                let left = current.take().unwrap_or(GraphPattern::Bgp(vec![]));
                current = Some(GraphPattern::Minus(Box::new(left), Box::new(inner)));
                self.eat(&Tok::Dot);
                continue;
            }
            if self.eat_kw("values") {
                flush(&mut current, &mut bgp);
                let values = self.values_block()?;
                current = Some(match current.take() {
                    None => values,
                    Some(c) => GraphPattern::Join(Box::new(c), Box::new(values)),
                });
                self.eat(&Tok::Dot);
                continue;
            }
            if matches!(self.peek(), Tok::LBrace) {
                flush(&mut current, &mut bgp);
                let mut grp = self.group_graph_pattern()?;
                while self.eat_kw("union") {
                    let rhs = self.group_graph_pattern()?;
                    grp = GraphPattern::Union(Box::new(grp), Box::new(rhs));
                }
                current = Some(match current.take() {
                    None => grp,
                    Some(c) => GraphPattern::Join(Box::new(c), Box::new(grp)),
                });
                self.eat(&Tok::Dot);
                continue;
            }
            // triples block: subject (path object (',' object)*)
            // (';' path object ...)* '.'
            let subject = self.pattern_term()?;
            loop {
                let verb = self.path_or_predicate()?;
                loop {
                    let object = self.pattern_term()?;
                    let triple = match &verb {
                        Verb::Simple(predicate, path) => {
                            PatternTriple::new(subject.clone(), predicate.clone(), object)
                                .with_path(*path)
                        }
                        Verb::Path(p) => {
                            PatternTriple::new(
                                subject.clone(),
                                PatternTerm::Const(Term::iri("")),
                                object,
                            )
                            .with_complex_path(p.clone())
                        }
                    };
                    bgp.push(triple);
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
                if !self.eat(&Tok::Semicolon) {
                    break;
                }
                // allow trailing `;` before `.`
                if matches!(self.peek(), Tok::Dot | Tok::RBrace) {
                    break;
                }
            }
            self.eat(&Tok::Dot);
        }

        flush(&mut current, &mut bgp);
        let mut pattern = current.unwrap_or(GraphPattern::Bgp(vec![]));
        for f in filters {
            pattern = GraphPattern::Filter(Box::new(pattern), f);
        }
        Ok(pattern)
    }

    fn resolve_prefixed(&self, prefix: &str, local: &str) -> Result<Term> {
        // Well-known prefixes are built in so queries generated by the
        // SESQL layer need no PREFIX preamble.
        let base = self.prefixes.get(prefix).map(String::as_str).or(match prefix {
            "rdf" => Some("http://www.w3.org/1999/02/22-rdf-syntax-ns#"),
            "rdfs" => Some("http://www.w3.org/2000/01/rdf-schema#"),
            "xsd" => Some("http://www.w3.org/2001/XMLSchema#"),
            "smg" => Some(crate::schema::SMG_NS),
            _ => None,
        });
        match base {
            Some(b) => Ok(Term::iri(format!("{b}{local}"))),
            None => Err(Error::parse(
                format!("unknown prefix `{prefix}:`"),
                self.offset(),
            )),
        }
    }

    /// Parse a `VALUES` block after the keyword: `?v { t ... }` or
    /// `(?a ?b) { (t t) ... }` with `UNDEF` for unbound cells.
    fn values_block(&mut self) -> Result<GraphPattern> {
        let mut vars = Vec::new();
        let multi = self.eat(&Tok::LParen);
        if multi {
            while matches!(self.peek(), Tok::Var(_)) {
                vars.push(self.variable()?);
            }
            self.expect(&Tok::RParen)?;
        } else {
            vars.push(self.variable()?);
        }
        if vars.is_empty() {
            return Err(Error::parse("VALUES needs at least one variable", self.offset()));
        }
        self.expect(&Tok::LBrace)?;
        let mut rows = Vec::new();
        while !self.eat(&Tok::RBrace) {
            if multi {
                self.expect(&Tok::LParen)?;
                let mut row = Vec::with_capacity(vars.len());
                for _ in 0..vars.len() {
                    row.push(self.values_term()?);
                }
                self.expect(&Tok::RParen)?;
                rows.push(row);
            } else {
                rows.push(vec![self.values_term()?]);
            }
        }
        Ok(GraphPattern::Values { vars, rows })
    }

    fn values_term(&mut self) -> Result<Option<Term>> {
        if let Tok::Word(w) = self.peek() {
            if w.eq_ignore_ascii_case("undef") {
                self.advance();
                return Ok(None);
            }
        }
        match self.pattern_term()? {
            PatternTerm::Const(t) => Ok(Some(t)),
            PatternTerm::Var(_) | PatternTerm::Param(_) => {
                Err(Error::parse("VALUES data must be constant", self.offset()))
            }
        }
    }

    fn pattern_term(&mut self) -> Result<PatternTerm> {
        match self.advance() {
            Tok::Var(v) => Ok(PatternTerm::Var(v)),
            Tok::Param(p) => Ok(PatternTerm::Param(p)),
            Tok::Iri(i) => Ok(PatternTerm::Const(Term::iri(i))),
            Tok::Str(s) => {
                // optional datatype
                if self.eat(&Tok::DtMarker) {
                    match self.advance() {
                        Tok::Iri(dt) => Ok(PatternTerm::Const(Term::typed_lit(s, dt))),
                        Tok::Prefixed(p, l) => {
                            let t = self.resolve_prefixed(&p, &l)?;
                            let Term::Iri(dt) = t else { unreachable!() };
                            Ok(PatternTerm::Const(Term::typed_lit(s, dt)))
                        }
                        other => Err(Error::parse(
                            format!("expected datatype IRI, found {other:?}"),
                            self.offset(),
                        )),
                    }
                } else {
                    Ok(PatternTerm::Const(Term::lit(s)))
                }
            }
            Tok::Num(n) => Ok(PatternTerm::Const(Term::lit(n))),
            Tok::Prefixed(p, l) => {
                if p.eq_ignore_ascii_case("a") && l.is_empty() {
                    return Ok(PatternTerm::Const(Term::iri(
                        "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
                    )));
                }
                Ok(PatternTerm::Const(self.resolve_prefixed(&p, &l)?))
            }
            Tok::Word(w) if w == "a" => Ok(PatternTerm::Const(Term::iri(
                "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
            ))),
            other => Err(Error::parse(
                format!("expected a term, found {other:?}"),
                self.offset(),
            )),
        }
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_bgp() {
        let q = parse_query("SELECT ?s ?o WHERE { ?s <dangerLevel> ?o . }").unwrap();
        assert_eq!(q.variables, vec!["s", "o"]);
        let GraphPattern::Bgp(ts) = &q.pattern else { panic!() };
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].predicate, PatternTerm::Const(Term::iri("dangerLevel")));
    }

    #[test]
    fn select_star_distinct() {
        let q = parse_query("SELECT DISTINCT * WHERE { ?s ?p ?o }").unwrap();
        assert!(q.distinct);
        assert!(q.variables.is_empty());
    }

    #[test]
    fn prefixes_and_a_keyword() {
        let q = parse_query(
            "PREFIX ex: <http://ex.org/> \
             SELECT ?x WHERE { ?x a ex:Element . ?x ex:danger \"5\" }",
        )
        .unwrap();
        let GraphPattern::Bgp(ts) = &q.pattern else { panic!() };
        assert_eq!(
            ts[0].predicate,
            PatternTerm::Const(Term::iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"))
        );
        assert_eq!(ts[1].predicate, PatternTerm::Const(Term::iri("http://ex.org/danger")));
    }

    #[test]
    fn builtin_prefixes() {
        let q = parse_query("SELECT ?x WHERE { ?x rdf:type rdfs:Class }").unwrap();
        let GraphPattern::Bgp(ts) = &q.pattern else { panic!() };
        assert!(matches!(
            &ts[0].predicate,
            PatternTerm::Const(Term::Iri(i)) if i.ends_with("#type")
        ));
    }

    #[test]
    fn unknown_prefix_errors() {
        assert!(parse_query("SELECT ?x WHERE { ?x nope:p ?y }").is_err());
    }

    #[test]
    fn filter_with_comparison_and_logic() {
        let q = parse_query(
            "SELECT ?e WHERE { ?e <dangerLevel> ?d . FILTER(?d >= 3 && ?e != <Hg>) }",
        )
        .unwrap();
        let GraphPattern::Filter(_, e) = &q.pattern else { panic!() };
        assert!(matches!(e, SparqlExpr::And(..)));
    }

    #[test]
    fn optional_and_union() {
        let q = parse_query(
            "SELECT ?s WHERE { ?s <p> ?o . OPTIONAL { ?s <q> ?z } }",
        )
        .unwrap();
        assert!(matches!(q.pattern, GraphPattern::Optional(..)));

        let q = parse_query(
            "SELECT ?s WHERE { { ?s <p> ?o } UNION { ?s <q> ?o } }",
        )
        .unwrap();
        assert!(matches!(q.pattern, GraphPattern::Union(..)));
    }

    #[test]
    fn predicate_object_lists() {
        let q = parse_query(
            "SELECT ?s WHERE { ?s <p> ?a , ?b ; <q> ?c . }",
        )
        .unwrap();
        let GraphPattern::Bgp(ts) = &q.pattern else { panic!() };
        assert_eq!(ts.len(), 3);
        assert_eq!(ts[0].subject, ts[2].subject);
    }

    #[test]
    fn order_limit_offset() {
        let q = parse_query(
            "SELECT ?s ?d WHERE { ?s <p> ?d } ORDER BY DESC(?d) ?s LIMIT 10 OFFSET 5",
        )
        .unwrap();
        assert_eq!(q.order_by.len(), 2);
        assert!(!q.order_by[0].ascending);
        assert!(q.order_by[1].ascending);
        assert_eq!(q.limit, Some(10));
        assert_eq!(q.offset, Some(5));
    }

    #[test]
    fn typed_literal() {
        let q = parse_query(
            "SELECT ?s WHERE { ?s <p> \"3\"^^xsd:integer }",
        )
        .unwrap();
        let GraphPattern::Bgp(ts) = &q.pattern else { panic!() };
        assert!(matches!(
            &ts[0].object,
            PatternTerm::Const(Term::Literal { datatype: Some(dt), .. })
                if dt.ends_with("integer")
        ));
    }

    #[test]
    fn bound_regex_str() {
        let q = parse_query(
            "SELECT ?s WHERE { ?s <p> ?o . FILTER(BOUND(?o) && REGEX(STR(?o), \"merc\")) }",
        )
        .unwrap();
        assert!(matches!(q.pattern, GraphPattern::Filter(..)));
    }

    #[test]
    fn errors() {
        assert!(parse_query("SELECT WHERE { ?s ?p ?o }").is_err());
        assert!(parse_query("SELECT ?s { ?s ?p ?o }").is_err()); // missing WHERE
        assert!(parse_query("SELECT ?s WHERE { ?s ?p }").is_err());
        assert!(parse_query("SELECT ?s WHERE { ?s ?p ?o ").is_err());
        assert!(parse_query("SELECT ?s WHERE { ?s ?p ?o } LIMIT x").is_err());
    }

    #[test]
    fn comments_are_skipped() {
        let q = parse_query(
            "# a comment\nSELECT ?s WHERE { ?s ?p ?o } # trailing",
        )
        .unwrap();
        assert_eq!(q.variables, vec!["s"]);
    }

    #[test]
    fn aggregate_projection_parses() {
        let q = parse_query(
            "SELECT ?d (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s <p> ?d } \
             GROUP BY ?d HAVING(?n > 1) ORDER BY ?n LIMIT 5",
        )
        .unwrap();
        assert!(q.is_aggregate());
        assert_eq!(q.projections.len(), 2);
        match &q.projections[1] {
            Projection::Agg(a) => {
                assert_eq!(a.func, AggFunc::Count);
                assert!(a.distinct);
                assert_eq!(a.alias, "n");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(q.group_by, vec!["d"]);
        assert!(q.having.is_some());
    }

    #[test]
    fn count_star_parses_and_star_elsewhere_rejected() {
        let q = parse_query("SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }").unwrap();
        let Projection::Agg(a) = &q.projections[0] else { panic!() };
        assert!(a.var.is_none());
        assert!(parse_query("SELECT (SUM(*) AS ?n) WHERE { ?s ?p ?o }").is_err());
        assert!(parse_query("SELECT (NOPE(?x) AS ?n) WHERE { ?s ?p ?o }").is_err());
        assert!(parse_query("SELECT (COUNT(?x) ?n) WHERE { ?s ?p ?o }").is_err());
    }

    #[test]
    fn having_without_aggregation_rejected() {
        assert!(parse_query("SELECT ?s WHERE { ?s ?p ?o } HAVING(?s > 1)").is_err());
    }

    #[test]
    fn minus_and_values_parse() {
        let q = parse_query(
            "SELECT ?s WHERE { ?s <p> ?o . MINUS { ?s <q> ?z } }",
        )
        .unwrap();
        assert!(matches!(q.pattern, GraphPattern::Minus(..)));

        let q = parse_query(
            "SELECT ?s WHERE { VALUES ?s { <a> <b> } ?s <p> ?o }",
        )
        .unwrap();
        let vars = q.pattern.variables();
        assert!(vars.contains(&"s".to_string()));

        let q = parse_query(
            "SELECT ?a WHERE { VALUES (?a ?b) { (<x> \"1\") (UNDEF \"2\") } ?a <p> ?b }",
        )
        .unwrap();
        fn find_values(p: &GraphPattern) -> Option<(usize, usize)> {
            match p {
                GraphPattern::Values { vars, rows } => Some((vars.len(), rows.len())),
                GraphPattern::Join(a, b) => find_values(a).or_else(|| find_values(b)),
                _ => None,
            }
        }
        assert_eq!(find_values(&q.pattern), Some((2, 2)));
    }

    #[test]
    fn values_rejects_variables_in_data() {
        assert!(parse_query("SELECT ?s WHERE { VALUES ?s { ?x } }").is_err());
    }

    #[test]
    fn property_path_forms_parse() {
        for src in [
            "SELECT ?x WHERE { ?x <p>/<q> ?y }",
            "SELECT ?x WHERE { ?x <p>|<q> ?y }",
            "SELECT ?x WHERE { ?x ^<p> ?y }",
            "SELECT ?x WHERE { ?x (<p>|<q>)+ ?y }",
            "SELECT ?x WHERE { ?x <p>/^<q> ?y }",
            "SELECT ?x WHERE { ?x <p>+/<q> ?y }",
            "SELECT ?x WHERE { ?x <p>/<q>|<r> ?y }",
        ] {
            let q = parse_query(src).unwrap_or_else(|e| panic!("{src}: {e}"));
            let GraphPattern::Bgp(ts) = &q.pattern else { panic!("{src}") };
            assert!(ts[0].complex.is_some(), "{src} should build a complex path");
        }
        // Simple predicates (with or without closure) keep the old shape.
        let q = parse_query("SELECT ?x WHERE { ?x <p>+ ?y }").unwrap();
        let GraphPattern::Bgp(ts) = &q.pattern else { panic!() };
        assert!(ts[0].complex.is_none());
        assert_eq!(ts[0].path, PathMod::OneOrMore);
    }

    #[test]
    fn path_with_variable_element_rejected() {
        assert!(parse_query("SELECT ?x WHERE { ?x <p>/?v ?y }").is_err());
        assert!(parse_query("SELECT ?x WHERE { ?x ^?v ?y }").is_err());
    }

    #[test]
    fn negative_number_literal() {
        let q = parse_query("SELECT ?s WHERE { ?s <p> -3.5 }").unwrap();
        let GraphPattern::Bgp(ts) = &q.pattern else { panic!() };
        assert_eq!(ts[0].object, PatternTerm::Const(Term::lit("-3.5")));
    }
}
