//! Compile a parsed query into the physical operator tree a
//! [`Prepared`](super::Prepared) handle holds.
//!
//! Compilation runs once per handle and settles everything that depends
//! only on the query text:
//!
//! * variable names become row slots ([`Plan::vars`]);
//! * constant terms go into one de-duplicated term table, after the
//!   parameter slots, so a triple position, a FILTER comparand or a
//!   VALUES cell is an index into that table ([`Slot::Term`]) and a
//!   parameter is a leaf like any constant instead of a substituted term;
//! * FILTER and HAVING become [`CExpr`];
//! * every error the text alone decides (an unknown ORDER BY variable, an
//!   ungrouped projection, a path over a variable predicate, an unknown
//!   VALUES variable) is raised here, at prepare time.
//!
//! What depends on the data (dictionary ids, cardinality estimates, the
//! probe order) is resolved per execution by [`super::ops`].

use std::collections::HashMap;

use crate::error::{Error, Result};
use crate::term::Term;

use super::ast::{
    AggFunc, CmpOp, GraphPattern, ParsedQuery, PathMod, PatternTerm, PatternTriple,
    Projection, PropertyPath, Query, SparqlExpr,
};

/// A compiled query: operator tree, output stage and the tables they
/// index.
#[derive(Debug)]
pub(crate) struct Plan {
    /// Row slot names; a solution row has one binding per entry.
    pub vars: Vec<String>,
    /// Parameter names in binding order (`#<n>` = positional). Parameter
    /// `k` is term-table entry `k`.
    pub params: Vec<String>,
    /// Constant terms, de-duplicated; constant `k` is term-table entry
    /// `params.len() + k`.
    pub consts: Vec<Term>,
    /// Number of BGP leaves; each carries a distinct id below this.
    pub bgps: usize,
    pub root: Op,
    pub output: Output,
    pub form: Form,
}

/// The query form, deciding what a caller of `query_any` gets back.
#[derive(Debug)]
pub(crate) enum Form {
    Select,
    Ask,
    /// The template is instantiated over the solution columns, which are
    /// all of the pattern's variables.
    Construct(Vec<PatternTriple>),
}

/// A term position: a row slot or a term-table entry.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Slot {
    Var(usize),
    Term(usize),
}

/// Graph-pattern operators. Each maps a batch of input rows to the rows
/// extending them.
#[derive(Debug)]
pub(crate) enum Op {
    Bgp(Bgp),
    Join(Box<Op>, Box<Op>),
    /// OPTIONAL: every left row, extended by the right side where it can be.
    LeftJoin(Box<Op>, Box<Op>),
    Union(Box<Op>, Box<Op>),
    Minus(Box<Op>, Box<Op>),
    Filter(Box<Op>, CExpr),
    /// Inline data; cells are term-table entries, `None` is UNDEF.
    Values { slots: Vec<usize>, rows: Vec<Vec<Option<usize>>> },
}

/// A basic graph pattern leaf.
#[derive(Debug)]
pub(crate) struct Bgp {
    /// Index of this leaf's per-execution plan (estimates, probe orders).
    pub id: usize,
    pub triples: Vec<CTriple>,
}

#[derive(Debug)]
pub(crate) struct CTriple {
    /// Subject, predicate, object. For a structured path the predicate is
    /// the path's display rendering; only the estimate reads it.
    pub slots: [Slot; 3],
    pub kind: Kind,
}

#[derive(Debug)]
pub(crate) enum Kind {
    Simple,
    /// `p+` / `p*` over the constant predicate in `slots[1]`.
    Closure(PathMod),
    Path(CPath),
}

/// A structured property path over term-table predicates.
#[derive(Debug)]
pub(crate) enum CPath {
    Pred(usize),
    Inverse(Box<CPath>),
    Sequence(Vec<CPath>),
    Alternative(Vec<CPath>),
    Closure(Box<CPath>, PathMod),
}

/// A compiled FILTER or HAVING expression. Its slots index the solution
/// row (FILTER) or the group's key and aggregate values (HAVING).
#[derive(Debug)]
pub(crate) enum CExpr {
    And(Box<CExpr>, Box<CExpr>),
    Or(Box<CExpr>, Box<CExpr>),
    Not(Box<CExpr>),
    Bound(usize),
    Regex(CTerm, String),
    Cmp(CTerm, CmpOp, CTerm),
}

/// A term-valued expression inside a [`CExpr`].
#[derive(Debug)]
pub(crate) enum CTerm {
    Var(usize),
    Term(usize),
    Str(Box<CTerm>),
}

/// What happens to the pattern's rows: sorted and projected, or grouped;
/// then DISTINCT and the LIMIT/OFFSET slice.
#[derive(Debug)]
pub(crate) struct Output {
    pub names: Vec<String>,
    pub shape: Shape,
    pub distinct: bool,
    pub offset: usize,
    pub limit: Option<usize>,
}

#[derive(Debug)]
pub(crate) enum Shape {
    /// Sort on `(row slot, ascending)` keys, then keep `project` slots.
    Rows { order: Vec<(usize, bool)>, project: Vec<usize> },
    Groups(Grouping),
}

/// GROUP BY / aggregates / HAVING. A group's environment is its key
/// values followed by its aggregate values.
#[derive(Debug)]
pub(crate) struct Grouping {
    pub keys: Vec<usize>,
    pub aggs: Vec<CAgg>,
    pub having: Option<CExpr>,
    /// Environment index of each output column.
    pub project: Vec<usize>,
    /// Sort on `(output column, ascending)` keys.
    pub order: Vec<(usize, bool)>,
}

#[derive(Debug)]
pub(crate) struct CAgg {
    pub func: AggFunc,
    /// Aggregated row slot; `None` is `COUNT(*)`.
    pub var: Option<usize>,
    pub distinct: bool,
}

/// Compile any query form.
pub(crate) fn compile(parsed: &ParsedQuery) -> Result<Plan> {
    match parsed {
        ParsedQuery::Select(q) => compile_select(q),
        ParsedQuery::Ask(pattern) => {
            let mut c = Compiler::new(&[], pattern, params_of(pattern));
            let root = c.pattern(pattern)?;
            let shape = Shape::Rows { order: Vec::new(), project: Vec::new() };
            Ok(c.finish(root, output(Vec::new(), shape, false, None, Some(1)), Form::Ask))
        }
        ParsedQuery::Construct { template, pattern } => {
            let mut c = Compiler::new(&[], pattern, params_of(pattern));
            let root = c.pattern(pattern)?;
            let shape = Shape::Rows { order: Vec::new(), project: (0..c.vars.len()).collect() };
            let out = output(c.vars.clone(), shape, false, None, None);
            Ok(c.finish(root, out, Form::Construct(template.clone())))
        }
    }
}

fn compile_select(q: &Query) -> Result<Plan> {
    let mut c = Compiler::new(&q.variables, &q.pattern, q.params());
    let root = c.pattern(&q.pattern)?;
    let (names, shape) = if q.is_aggregate() {
        c.grouping(q)?
    } else {
        let order = q
            .order_by
            .iter()
            .map(|o| {
                let slot = c.var(&o.variable).map_err(|_| {
                    Error::eval(format!(
                        "ORDER BY variable `?{}` does not occur in the pattern",
                        o.variable
                    ))
                })?;
                Ok((slot, o.ascending))
            })
            .collect::<Result<_>>()?;
        // SELECT * projects every variable.
        let names = if q.variables.is_empty() { c.vars.clone() } else { q.variables.clone() };
        let project = names.iter().map(|v| c.var(v)).collect::<Result<_>>()?;
        (names, Shape::Rows { order, project })
    };
    Ok(c.finish(root, output(names, shape, q.distinct, q.offset, q.limit), Form::Select))
}

fn output(
    names: Vec<String>,
    shape: Shape,
    distinct: bool,
    offset: Option<usize>,
    limit: Option<usize>,
) -> Output {
    Output { names, shape, distinct, offset: offset.unwrap_or(0), limit }
}

fn params_of(pattern: &GraphPattern) -> Vec<String> {
    let mut out = Vec::new();
    pattern.collect_params(&mut out);
    out
}

/// Where an expression's variables resolve.
#[derive(Clone, Copy)]
enum Scope<'a> {
    Row,
    /// HAVING: the group environment's names, keys then aggregate aliases.
    Group(&'a [String]),
}

struct Compiler {
    vars: Vec<String>,
    params: Vec<String>,
    consts: Vec<Term>,
    const_index: HashMap<Term, usize>,
    bgps: usize,
}

impl Compiler {
    /// The slot table: projected variables first, then the pattern's
    /// others in first-appearance order.
    fn new(projected: &[String], pattern: &GraphPattern, params: Vec<String>) -> Self {
        let mut vars: Vec<String> = Vec::new();
        for v in projected.iter().cloned().chain(pattern.variables()) {
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
        Compiler { vars, params, consts: Vec::new(), const_index: HashMap::new(), bgps: 0 }
    }

    fn finish(self, root: Op, output: Output, form: Form) -> Plan {
        Plan {
            vars: self.vars,
            params: self.params,
            consts: self.consts,
            bgps: self.bgps,
            root,
            output,
            form,
        }
    }

    fn var(&self, v: &str) -> Result<usize> {
        self.vars
            .iter()
            .position(|x| x == v)
            .ok_or_else(|| Error::eval(format!("unknown variable `?{v}`")))
    }

    fn constant(&mut self, t: &Term) -> usize {
        let k = match self.const_index.get(t) {
            Some(&k) => k,
            None => {
                self.consts.push(t.clone());
                self.const_index.insert(t.clone(), self.consts.len() - 1);
                self.consts.len() - 1
            }
        };
        self.params.len() + k
    }

    fn param(&self, p: &str) -> Result<usize> {
        self.params
            .iter()
            .position(|x| x == p)
            .ok_or_else(|| Error::eval(format!("unknown parameter `{p}`")))
    }

    fn slot(&mut self, pt: &PatternTerm) -> Result<Slot> {
        Ok(match pt {
            PatternTerm::Var(v) => Slot::Var(self.var(v)?),
            PatternTerm::Const(t) => Slot::Term(self.constant(t)),
            PatternTerm::Param(p) => Slot::Term(self.param(p)?),
        })
    }

    fn pair(&mut self, a: &GraphPattern, b: &GraphPattern) -> Result<(Box<Op>, Box<Op>)> {
        Ok((Box::new(self.pattern(a)?), Box::new(self.pattern(b)?)))
    }

    fn pattern(&mut self, p: &GraphPattern) -> Result<Op> {
        Ok(match p {
            GraphPattern::Bgp(triples) => {
                let triples = triples.iter().map(|t| self.triple(t)).collect::<Result<_>>()?;
                self.bgps += 1;
                Op::Bgp(Bgp { id: self.bgps - 1, triples })
            }
            GraphPattern::Join(a, b) => {
                let (a, b) = self.pair(a, b)?;
                Op::Join(a, b)
            }
            GraphPattern::Optional(a, b) => {
                let (a, b) = self.pair(a, b)?;
                Op::LeftJoin(a, b)
            }
            GraphPattern::Union(a, b) => {
                let (a, b) = self.pair(a, b)?;
                Op::Union(a, b)
            }
            GraphPattern::Minus(a, b) => {
                let (a, b) = self.pair(a, b)?;
                Op::Minus(a, b)
            }
            GraphPattern::Filter(inner, e) => {
                Op::Filter(Box::new(self.pattern(inner)?), self.expr(e, Scope::Row)?)
            }
            GraphPattern::Values { vars, rows } => Op::Values {
                slots: vars
                    .iter()
                    .map(|v| {
                        self.var(v).map_err(|_| {
                            Error::eval(format!("unknown VALUES variable `?{v}`"))
                        })
                    })
                    .collect::<Result<_>>()?,
                rows: rows
                    .iter()
                    .map(|row| row.iter().map(|c| c.as_ref().map(|t| self.constant(t))).collect())
                    .collect(),
            },
        })
    }

    fn triple(&mut self, t: &PatternTriple) -> Result<CTriple> {
        let slots = [self.slot(&t.subject)?, self.slot(&t.predicate)?, self.slot(&t.object)?];
        let kind = if let Some(path) = &t.complex {
            Kind::Path(self.path(path))
        } else if t.path != PathMod::One {
            if matches!(slots[1], Slot::Var(_)) {
                return Err(Error::eval("path modifiers require a constant predicate"));
            }
            Kind::Closure(t.path)
        } else {
            Kind::Simple
        };
        Ok(CTriple { slots, kind })
    }

    fn path(&mut self, p: &PropertyPath) -> CPath {
        match p {
            PropertyPath::Pred(t) => CPath::Pred(self.constant(t)),
            PropertyPath::Inverse(p) => CPath::Inverse(Box::new(self.path(p))),
            PropertyPath::Sequence(ps) => CPath::Sequence(ps.iter().map(|p| self.path(p)).collect()),
            PropertyPath::Alternative(ps) => {
                CPath::Alternative(ps.iter().map(|p| self.path(p)).collect())
            }
            PropertyPath::Closure(p, m) => CPath::Closure(Box::new(self.path(p)), *m),
        }
    }

    fn scoped_var(&self, v: &str, scope: Scope) -> Result<usize> {
        match scope {
            Scope::Row => self.var(v),
            // An aggregate alias shadows a key of the same name; the last
            // alias wins.
            Scope::Group(env) => env
                .iter()
                .rposition(|n| n == v)
                .ok_or_else(|| Error::eval(format!("unknown variable `?{v}` in HAVING"))),
        }
    }

    fn expr(&mut self, e: &SparqlExpr, scope: Scope) -> Result<CExpr> {
        Ok(match e {
            SparqlExpr::And(a, b) => {
                CExpr::And(Box::new(self.expr(a, scope)?), Box::new(self.expr(b, scope)?))
            }
            SparqlExpr::Or(a, b) => {
                CExpr::Or(Box::new(self.expr(a, scope)?), Box::new(self.expr(b, scope)?))
            }
            SparqlExpr::Not(inner) => CExpr::Not(Box::new(self.expr(inner, scope)?)),
            SparqlExpr::Bound(v) => CExpr::Bound(self.scoped_var(v, scope)?),
            SparqlExpr::Regex(inner, pattern) => {
                CExpr::Regex(self.cterm(inner, scope)?, pattern.clone())
            }
            SparqlExpr::Cmp(a, op, b) => {
                CExpr::Cmp(self.cterm(a, scope)?, *op, self.cterm(b, scope)?)
            }
            SparqlExpr::Var(_) | SparqlExpr::Const(_) | SparqlExpr::Str(_) | SparqlExpr::Param(_) => {
                return Err(Error::eval(match scope {
                    Scope::Row => "expression is not boolean",
                    Scope::Group(_) => "HAVING expression is not boolean",
                }))
            }
        })
    }

    fn cterm(&mut self, e: &SparqlExpr, scope: Scope) -> Result<CTerm> {
        Ok(match e {
            SparqlExpr::Var(v) => CTerm::Var(self.scoped_var(v, scope)?),
            SparqlExpr::Const(t) => CTerm::Term(self.constant(t)),
            SparqlExpr::Param(p) => CTerm::Term(self.param(p)?),
            SparqlExpr::Str(inner) => CTerm::Str(Box::new(self.cterm(inner, scope)?)),
            other => {
                return Err(Error::eval(format!("expected a term expression, got {other:?}")))
            }
        })
    }

    /// The grouped output stage: keys, aggregates, HAVING, projection and
    /// ORDER BY over the output columns, all resolved here.
    fn grouping(&mut self, q: &Query) -> Result<(Vec<String>, Shape)> {
        for p in &q.projections {
            if let Projection::Var(v) = p {
                if !q.group_by.contains(v) {
                    return Err(Error::eval(format!(
                        "variable `?{v}` must appear in GROUP BY or inside an aggregate"
                    )));
                }
            }
        }
        let keys = q
            .group_by
            .iter()
            .map(|v| {
                self.var(v).map_err(|_| {
                    Error::eval(format!("GROUP BY variable `?{v}` not in pattern"))
                })
            })
            .collect::<Result<Vec<_>>>()?;
        let mut env: Vec<String> = q.group_by.clone();
        let mut aggs = Vec::new();
        for p in &q.projections {
            if let Projection::Agg(a) = p {
                let var = match &a.var {
                    None => None,
                    Some(v) => Some(self.var(v).map_err(|_| {
                        Error::eval(format!("aggregate variable `?{v}` not in pattern"))
                    })?),
                };
                aggs.push(CAgg { func: a.func, var, distinct: a.distinct });
                env.push(a.alias.clone());
            }
        }
        let having = match &q.having {
            Some(h) => Some(self.expr(h, Scope::Group(&env))?),
            None => None,
        };
        let names: Vec<String> = q
            .projections
            .iter()
            .map(|p| match p {
                Projection::Var(v) => v.clone(),
                Projection::Agg(a) => a.alias.clone(),
            })
            .collect();
        let project = names
            .iter()
            .map(|n| self.scoped_var(n, Scope::Group(&env)))
            .collect::<Result<_>>()?;
        let order = q
            .order_by
            .iter()
            .map(|o| {
                names.iter().position(|n| *n == o.variable).map(|i| (i, o.ascending)).ok_or_else(
                    || Error::eval(format!("ORDER BY variable `?{}` is not projected", o.variable)),
                )
            })
            .collect::<Result<_>>()?;
        Ok((names, Shape::Groups(Grouping { keys, aggs, having, project, order })))
    }
}
