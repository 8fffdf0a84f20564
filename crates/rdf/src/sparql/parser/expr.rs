// srclint: allow(R002): every hit is the parser's own Result-returning expect(&Tok) combinator
//! Property paths in the verb position and the FILTER expression grammar.

use crate::error::{Error, Result};
use crate::term::Term;

use super::super::ast::*;
use super::lexer::Tok;
use super::Parser;

/// The verb position of a triple pattern.
pub(super) enum Verb {
    /// Plain predicate (possibly a variable) with an optional closure.
    Simple(PatternTerm, PathMod),
    /// Structured property path.
    Path(PropertyPath),
}

impl Parser {
    /// Parse the verb (predicate) position of a triple: either a simple
    /// predicate (variable or constant, with an optional `+`/`*` closure)
    /// or a structured property path.
    pub(super) fn path_or_predicate(&mut self) -> Result<Verb> {
        if matches!(self.peek(), Tok::Caret | Tok::LParen) {
            return Ok(Verb::Path(self.path_alternative()?));
        }
        let first = self.pattern_term()?;
        let path = if self.eat(&Tok::Plus) {
            PathMod::OneOrMore
        } else if self.eat(&Tok::Star) {
            PathMod::ZeroOrMore
        } else {
            PathMod::One
        };
        if path != PathMod::One && !matches!(first, PatternTerm::Const(_)) {
            return Err(Error::parse(
                "path modifiers require a constant predicate",
                self.offset(),
            ));
        }
        if matches!(self.peek(), Tok::Slash | Tok::Pipe) {
            let PatternTerm::Const(t) = first else {
                return Err(Error::parse(
                    "property paths require constant predicates",
                    self.offset(),
                ));
            };
            let mut head = PropertyPath::Pred(t);
            if path != PathMod::One {
                head = PropertyPath::Closure(Box::new(head), path);
            }
            let mut seq = vec![head];
            while self.eat(&Tok::Slash) {
                seq.push(self.path_elt_or_inverse()?);
            }
            let mut p = if seq.len() == 1 {
                seq.pop().expect("non-empty")
            } else {
                PropertyPath::Sequence(seq)
            };
            if *self.peek() == Tok::Pipe {
                let mut alts = vec![p];
                while self.eat(&Tok::Pipe) {
                    alts.push(self.path_sequence()?);
                }
                p = PropertyPath::Alternative(alts);
            }
            return Ok(Verb::Path(p));
        }
        Ok(Verb::Simple(first, path))
    }

    fn path_alternative(&mut self) -> Result<PropertyPath> {
        let mut alts = vec![self.path_sequence()?];
        while self.eat(&Tok::Pipe) {
            alts.push(self.path_sequence()?);
        }
        Ok(if alts.len() == 1 {
            alts.pop().expect("non-empty")
        } else {
            PropertyPath::Alternative(alts)
        })
    }

    fn path_sequence(&mut self) -> Result<PropertyPath> {
        let mut seq = vec![self.path_elt_or_inverse()?];
        while self.eat(&Tok::Slash) {
            seq.push(self.path_elt_or_inverse()?);
        }
        Ok(if seq.len() == 1 {
            seq.pop().expect("non-empty")
        } else {
            PropertyPath::Sequence(seq)
        })
    }

    fn path_elt_or_inverse(&mut self) -> Result<PropertyPath> {
        if self.eat(&Tok::Caret) {
            return Ok(PropertyPath::Inverse(Box::new(self.path_elt()?)));
        }
        self.path_elt()
    }

    fn path_elt(&mut self) -> Result<PropertyPath> {
        let primary = if self.eat(&Tok::LParen) {
            let p = self.path_alternative()?;
            self.expect(&Tok::RParen)?;
            p
        } else {
            match self.pattern_term()? {
                PatternTerm::Const(t @ Term::Iri(_)) => PropertyPath::Pred(t),
                other => {
                    return Err(Error::parse(
                        format!("property paths require IRI predicates, found {other:?}"),
                        self.offset(),
                    ))
                }
            }
        };
        if self.eat(&Tok::Plus) {
            Ok(PropertyPath::Closure(Box::new(primary), PathMod::OneOrMore))
        } else if self.eat(&Tok::Star) {
            Ok(PropertyPath::Closure(Box::new(primary), PathMod::ZeroOrMore))
        } else {
            Ok(primary)
        }
    }

    // FILTER expression grammar: or > and > not > cmp > primary
    pub(super) fn expr(&mut self) -> Result<SparqlExpr> {
        let mut left = self.and_expr()?;
        while self.eat(&Tok::OrOr) {
            let right = self.and_expr()?;
            left = SparqlExpr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<SparqlExpr> {
        let mut left = self.not_expr()?;
        while self.eat(&Tok::AndAnd) {
            let right = self.not_expr()?;
            left = SparqlExpr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<SparqlExpr> {
        if self.eat(&Tok::Bang) {
            let e = self.not_expr()?;
            return Ok(SparqlExpr::Not(Box::new(e)));
        }
        self.cmp_expr()
    }

    fn cmp_expr(&mut self) -> Result<SparqlExpr> {
        let left = self.primary_expr()?;
        let op = match self.peek() {
            Tok::Eq => CmpOp::Eq,
            Tok::NotEq => CmpOp::NotEq,
            Tok::Lt => CmpOp::Lt,
            Tok::LtEq => CmpOp::LtEq,
            Tok::Gt => CmpOp::Gt,
            Tok::GtEq => CmpOp::GtEq,
            _ => return Ok(left),
        };
        self.advance();
        let right = self.primary_expr()?;
        Ok(SparqlExpr::Cmp(Box::new(left), op, Box::new(right)))
    }

    fn primary_expr(&mut self) -> Result<SparqlExpr> {
        if self.eat(&Tok::LParen) {
            let e = self.expr()?;
            self.expect(&Tok::RParen)?;
            return Ok(e);
        }
        if self.eat_kw("bound") {
            self.expect(&Tok::LParen)?;
            let v = self.variable()?;
            self.expect(&Tok::RParen)?;
            return Ok(SparqlExpr::Bound(v));
        }
        if self.eat_kw("regex") {
            self.expect(&Tok::LParen)?;
            let e = self.expr()?;
            self.expect(&Tok::Comma)?;
            let pat = match self.advance() {
                Tok::Str(s) => s,
                other => {
                    return Err(Error::parse(
                        format!("REGEX pattern must be a string, found {other:?}"),
                        self.offset(),
                    ))
                }
            };
            self.expect(&Tok::RParen)?;
            return Ok(SparqlExpr::Regex(Box::new(e), pat));
        }
        if self.eat_kw("str") {
            self.expect(&Tok::LParen)?;
            let e = self.expr()?;
            self.expect(&Tok::RParen)?;
            return Ok(SparqlExpr::Str(Box::new(e)));
        }
        match self.advance() {
            Tok::Var(v) => Ok(SparqlExpr::Var(v)),
            Tok::Param(p) => Ok(SparqlExpr::Param(p)),
            Tok::Iri(i) => Ok(SparqlExpr::Const(Term::iri(i))),
            Tok::Str(s) => Ok(SparqlExpr::Const(Term::lit(s))),
            Tok::Num(n) => Ok(SparqlExpr::Const(Term::lit(n))),
            Tok::Prefixed(p, l) => Ok(SparqlExpr::Const(self.resolve_prefixed(&p, &l)?)),
            other => Err(Error::parse(
                format!("expected expression, found {other:?}"),
                self.offset(),
            )),
        }
    }
}
