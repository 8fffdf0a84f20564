//! Execute a compiled [`Plan`]: the per-execution half of a prepared
//! query.
//!
//! An execution starts by resolving the plan's term table (bound
//! parameters, then constants) through the dictionary under one read
//! guard. Nothing of that resolution outlives the execution: the
//! dictionary grows between runs, so a constant the store had not seen
//! when the handle was compiled is found once a triple names it. A term
//! the dictionary has never seen gets an id that lives only for this
//! execution ([`Exec::term`] turns it back into its term at output), so
//! reading never grows the dictionary; the store holds no triple with
//! such an id, so a probe for it matches nothing.
//!
//! The operator tree then runs over id rows. Each BGP leaf of more than
//! one triple takes its cardinality estimates once per execution and
//! chooses its greedy probe order once per distinct set of input-bound
//! slots, so the right side of an OPTIONAL, evaluated once per left row,
//! is planned once. Probes are
//! index-nested-loop: input rows are sorted on their bound probe prefix so
//! consecutive range scans hit warm B-tree nodes, and an identical
//! consecutive probe reuses the previous scan. Everything runs on the
//! caller's thread.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use crosse_exec::CancelToken;

use crate::error::Result;
use crate::store::{IdPattern, IdTriple, Prober, TripleStore};
use crate::term::{DictReader, Term, TermId};

use super::ast::CmpOp;
use super::compile::{Bgp, CExpr, CTerm, CTriple, Kind, Op, Plan, Shape, Slot};
use super::eval::Solutions;

/// A (partial) solution row: one optional binding per variable slot.
pub(super) type Bindings = Vec<Option<TermId>>;

/// A triple position resolved for one execution.
#[derive(Debug, Clone, Copy)]
pub(super) enum Pos {
    Id(TermId),
    Var(usize),
}

/// A term value during FILTER / HAVING evaluation: an id (no
/// materialisation), a borrowed term (HAVING's computed values), or an
/// owned synthesised term (only `STR(...)` produces these).
pub(super) enum RTerm<'t> {
    Id(TermId),
    Term(&'t Term),
    Owned(Term),
}

/// Input rows the probe loop handles between two cancellation checks.
const CANCEL_CHECK_EVERY: usize = 1024;

/// A BGP leaf's plan for one execution.
#[derive(Default)]
struct BgpPlan {
    estimates: Option<Vec<usize>>,
    /// Probe orders chosen so far, keyed by which slots the input binds.
    orders: Vec<(Vec<bool>, Rc<[usize]>)>,
}

/// One execution of a plan.
pub(super) struct Exec<'a> {
    pub(super) plan: &'a Plan,
    pub(super) store: &'a TripleStore,
    pub(super) graphs: &'a [&'a str],
    /// Term-table ids for this execution.
    ids: Vec<TermId>,
    /// Terms the dictionary has never seen; entry `i` has id `u32::MAX - i`.
    locals: Vec<Term>,
    /// Numeric interpretations memoised per term id (FILTER hot path).
    nums: RefCell<HashMap<TermId, Option<f64>>>,
    bgps: RefCell<Vec<BgpPlan>>,
    cancel: CancelToken,
}

/// Run `plan` with its parameters bound to `bound` (term-table order).
pub(super) fn execute(
    plan: &Plan,
    store: &TripleStore,
    graphs: &[&str],
    bound: &[Term],
) -> Result<Solutions> {
    let exec = Exec::new(plan, store, graphs, bound);
    let rows = exec.run(&plan.root, vec![vec![None; plan.vars.len()]])?;
    let out = &plan.output;
    let rows = match &out.shape {
        Shape::Rows { order, project } => exec.rows(rows, order, project),
        Shape::Groups(g) => exec.groups(g, rows)?,
    };
    Ok(Solutions { variables: out.names.clone(), rows })
}

/// The LIMIT/OFFSET window of `rows`.
pub(super) fn window<T>(rows: &[T], offset: usize, limit: Option<usize>) -> &[T] {
    let start = offset.min(rows.len());
    let end = limit.map_or(rows.len(), |l| (start + l).min(rows.len()));
    &rows[start..end]
}

impl<'a> Exec<'a> {
    fn new(
        plan: &'a Plan,
        store: &'a TripleStore,
        graphs: &'a [&'a str],
        bound: &[Term],
    ) -> Self {
        let mut locals: Vec<Term> = Vec::new();
        let ids = {
            let reader = store.dictionary().reader();
            bound
                .iter()
                .chain(&plan.consts)
                .map(|t| {
                    reader.id_of(t).unwrap_or_else(|| {
                        // The constants are de-duplicated at compile time,
                        // so one unseen term has one id across VALUES
                        // blocks; a parameter may get a second id for the
                        // same term, which compares equal by term.
                        locals.push(t.clone());
                        TermId(u32::MAX - (locals.len() - 1) as u32)
                    })
                })
                .collect()
        };
        Exec {
            plan,
            store,
            graphs,
            ids,
            locals,
            nums: RefCell::new(HashMap::new()),
            bgps: RefCell::new((0..plan.bgps).map(|_| BgpPlan::default()).collect()),
            cancel: CancelToken::current(),
        }
    }

    /// The term of a query-local id, if `id` is one.
    fn local(&self, id: TermId) -> Option<&Term> {
        self.locals.get((u32::MAX - id.0) as usize)
    }

    /// The term behind an id, query-local or interned.
    pub(super) fn term<'r>(&'r self, reader: &'r DictReader, id: TermId) -> &'r Term {
        self.local(id).unwrap_or_else(|| reader.term(id))
    }

    pub(super) fn pos(&self, slot: Slot) -> Pos {
        match slot {
            Slot::Var(v) => Pos::Var(v),
            Slot::Term(k) => Pos::Id(self.ids[k]),
        }
    }

    /// The id of a term-table entry the store holds, `None` when the
    /// dictionary has never seen it.
    pub(super) fn known(&self, k: usize) -> Option<TermId> {
        Some(self.ids[k]).filter(|&id| self.local(id).is_none())
    }

    fn unseen(&self, slot: Slot) -> bool {
        matches!(slot, Slot::Term(k) if self.known(k).is_none())
    }

    fn run(&self, op: &Op, input: Vec<Bindings>) -> Result<Vec<Bindings>> {
        match op {
            Op::Bgp(bgp) => self.bgp(bgp, input),
            Op::Join(a, b) => {
                let left = self.run(a, input)?;
                self.run(b, left)
            }
            Op::LeftJoin(a, b) => {
                let left = self.run(a, input)?;
                let mut out = Vec::new();
                for row in left {
                    let extended = self.run(b, vec![row.clone()])?;
                    if extended.is_empty() {
                        out.push(row);
                    } else {
                        out.extend(extended);
                    }
                }
                Ok(out)
            }
            Op::Union(a, b) => {
                let mut left = self.run(a, input.clone())?;
                left.extend(self.run(b, input)?);
                Ok(left)
            }
            Op::Filter(inner, e) => {
                let mut rows = self.run(inner, input)?;
                if rows.is_empty() {
                    return Ok(rows);
                }
                // One dictionary read guard serves the whole batch.
                let reader = self.store.dictionary().reader();
                rows.retain(|row| self.test(e, &|v| row[v].map(RTerm::Id), &reader) == Some(true));
                Ok(rows)
            }
            Op::Minus(a, b) => {
                let left = self.run(a, input)?;
                // The right side is evaluated independently (fresh scope),
                // per the SPARQL 1.1 MINUS definition.
                let right = self.run(b, vec![vec![None; self.plan.vars.len()]])?;
                Ok(left
                    .into_iter()
                    .filter(|l| {
                        !right.iter().any(|r| {
                            let mut shares = false;
                            for (lv, rv) in l.iter().zip(r.iter()) {
                                match (lv, rv) {
                                    (Some(x), Some(y)) if x == y => shares = true,
                                    (Some(_), Some(_)) => return false, // incompatible
                                    _ => {}
                                }
                            }
                            shares // compatible and sharing ≥1 binding → remove
                        })
                    })
                    .collect())
            }
            Op::Values { slots, rows } => {
                let data: Vec<Vec<Option<TermId>>> = rows
                    .iter()
                    .map(|cells| cells.iter().map(|c| c.map(|k| self.ids[k])).collect())
                    .collect();
                let mut out = Vec::new();
                for row in &input {
                    'data: for cells in &data {
                        let mut new_row = row.clone();
                        for (&vi, cell) in slots.iter().zip(cells) {
                            let Some(id) = *cell else { continue }; // UNDEF
                            match new_row[vi] {
                                None => new_row[vi] = Some(id),
                                Some(existing) if existing == id => {}
                                Some(_) => continue 'data,
                            }
                        }
                        out.push(new_row);
                    }
                }
                Ok(out)
            }
        }
    }

    /// Join the input rows with every triple of a BGP, in the probe order
    /// planned for this execution.
    fn bgp(&self, bgp: &Bgp, mut rows: Vec<Bindings>) -> Result<Vec<Bindings>> {
        if bgp.triples.is_empty() || rows.is_empty() {
            return Ok(rows);
        }
        // A plain triple naming a term the store has never seen matches
        // nothing, so neither does the conjunction.
        if bgp
            .triples
            .iter()
            .any(|t| matches!(t.kind, Kind::Simple) && t.slots.iter().any(|&s| self.unseen(s)))
        {
            return Ok(Vec::new());
        }
        // One triple has one order; only a conjunction needs estimates.
        let planned;
        let order: &[usize] = if bgp.triples.len() == 1 {
            &[0]
        } else {
            planned = self.probe_order(bgp, &rows[0]);
            &planned
        };
        for &i in order {
            // Probe-batch boundary: each extension walks the whole batch,
            // so a cancelled query stops here with a typed error.
            self.cancel.check()?;
            let t = &bgp.triples[i];
            rows = match &t.kind {
                Kind::Simple => self.extend_simple(t, rows),
                Kind::Closure(mode) => self.extend_closure(t, *mode, rows),
                Kind::Path(path) => self.extend_path(path, t, rows),
            };
            if rows.is_empty() {
                break;
            }
        }
        Ok(rows)
    }

    /// The greedy probe order for input rows binding the slots `first`
    /// binds, chosen once per execution and set of bound slots.
    fn probe_order(&self, bgp: &Bgp, first: &Bindings) -> Rc<[usize]> {
        let mut plans = self.bgps.borrow_mut();
        let plan = &mut plans[bgp.id];
        let same = |b: &[bool]| b.iter().zip(first).all(|(b, v)| *b == v.is_some());
        if let Some((_, order)) = plan.orders.iter().find(|(b, _)| same(b)) {
            return order.clone();
        }
        let estimates = plan
            .estimates
            .get_or_insert_with(|| bgp.triples.iter().map(|t| self.estimate(t)).collect());
        let bound: Vec<bool> = first.iter().map(Option::is_some).collect();
        let order = greedy_order(&bgp.triples, estimates, bound.clone());
        plan.orders.push((bound, order.clone()));
        order
    }

    /// Estimated result cardinality of one pattern: the index count for
    /// its constant positions (variables wildcard). The walk is capped;
    /// the estimate only breaks ties, so relative size up to the cap is
    /// all the ordering needs.
    fn estimate(&self, t: &CTriple) -> usize {
        const EST_CAP: usize = 256;
        let known = |s: Slot| match s {
            Slot::Term(k) => self.known(k),
            Slot::Var(_) => None,
        };
        let pat = match t.kind {
            Kind::Simple => (known(t.slots[0]), known(t.slots[1]), known(t.slots[2])),
            // Path patterns scan their predicate's extension.
            Kind::Closure(_) | Kind::Path(_) => match t.slots[1] {
                Slot::Term(k) => match self.known(k) {
                    Some(p) => (None, Some(p), None),
                    None => return 0,
                },
                Slot::Var(_) => (None, None, None),
            },
        };
        self.store.count_id_pattern(self.graphs, pat, EST_CAP)
    }

    /// Join every input row with one plain pattern. The per-row loop is
    /// id-native: no dictionary lookups and one scratch buffer for every
    /// probe.
    fn extend_simple(&self, t: &CTriple, mut rows: Vec<Bindings>) -> Vec<Bindings> {
        let pos = t.slots.map(|s| self.pos(s));
        if rows.len() > 16 && pos.iter().any(|p| matches!(p, Pos::Var(_))) {
            rows.sort_by_cached_key(|row| probe(&pos, row));
        }
        self.store.with_prober(self.graphs, |prober| probe_rows(&pos, prober, rows, &self.cancel))
    }

    /// Evaluate a compiled FILTER / HAVING expression, three-valued: an
    /// unbound comparand makes the comparison undefined (`None`), which
    /// drops the row.
    pub(super) fn test<'t>(
        &self,
        e: &CExpr,
        var: &dyn Fn(usize) -> Option<RTerm<'t>>,
        reader: &DictReader,
    ) -> Option<bool> {
        match e {
            CExpr::And(a, b) => match (self.test(a, var, reader), self.test(b, var, reader)) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            CExpr::Or(a, b) => match (self.test(a, var, reader), self.test(b, var, reader)) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
            CExpr::Not(inner) => self.test(inner, var, reader).map(|b| !b),
            CExpr::Bound(v) => Some(var(*v).is_some()),
            CExpr::Regex(ct, pattern) => {
                let value = self.value(ct, var, reader)?;
                Some(simple_regex_match(self.rterm(&value, reader).lexical_form(), pattern))
            }
            CExpr::Cmp(a, op, b) => {
                let va = self.value(a, var, reader)?;
                let vb = self.value(b, var, reader)?;
                Some(self.compare(&va, *op, &vb, reader))
            }
        }
    }

    fn value<'t>(
        &self,
        ct: &CTerm,
        var: &dyn Fn(usize) -> Option<RTerm<'t>>,
        reader: &DictReader,
    ) -> Option<RTerm<'t>> {
        match ct {
            CTerm::Var(v) => var(*v),
            CTerm::Term(k) => Some(RTerm::Id(self.ids[*k])),
            CTerm::Str(inner) => {
                let value = self.value(inner, var, reader)?;
                let lex = self.rterm(&value, reader).lexical_form().to_string();
                Some(RTerm::Owned(Term::lit(lex)))
            }
        }
    }

    fn rterm<'r>(&'r self, r: &'r RTerm, reader: &'r DictReader) -> &'r Term {
        match r {
            RTerm::Id(id) => self.term(reader, *id),
            RTerm::Term(t) => t,
            RTerm::Owned(t) => t,
        }
    }

    fn num_of(&self, r: &RTerm, reader: &DictReader) -> Option<f64> {
        let RTerm::Id(id) = r else {
            return self.rterm(r, reader).as_f64();
        };
        if let Some(&v) = self.nums.borrow().get(id) {
            return v;
        }
        let v = self.term(reader, *id).as_f64();
        self.nums.borrow_mut().insert(*id, v);
        v
    }

    /// Compare two values with the semantics of [`compare_terms`]: ids are
    /// compared before any term is read, and terms are borrowed, never
    /// cloned, when the id fast paths cannot decide.
    fn compare(&self, a: &RTerm, op: CmpOp, b: &RTerm, reader: &DictReader) -> bool {
        if let (Some(x), Some(y)) = (self.num_of(a, reader), self.num_of(b, reader)) {
            return match op {
                CmpOp::Eq => x == y,
                CmpOp::NotEq => x != y,
                _ => ordering_holds(op, x.partial_cmp(&y).unwrap_or(Ordering::Equal)),
            };
        }
        // Identical ids ⇒ identical terms.
        if let (RTerm::Id(x), RTerm::Id(y)) = (a, b) {
            if x == y && matches!(op, CmpOp::Eq | CmpOp::NotEq) {
                return op == CmpOp::Eq;
            }
        }
        compare_terms(self.rterm(a, reader), op, self.rterm(b, reader))
    }

    /// ORDER BY, projection, DISTINCT and the slice over id rows, then one
    /// dictionary guard to materialise the window.
    fn rows(
        &self,
        mut rows: Vec<Bindings>,
        order: &[(usize, bool)],
        project: &[usize],
    ) -> Vec<Vec<Option<Term>>> {
        let reader = self.store.dictionary().reader();
        if !order.is_empty() {
            // Decode each sort key once per row; the comparator never
            // touches the dictionary.
            let mut decorated: Vec<(Vec<SortKey>, Bindings)> = rows
                .into_iter()
                .map(|r| {
                    let keys = order
                        .iter()
                        .map(|&(i, _)| {
                            r[i].map(|id| {
                                let t = self.term(&reader, id);
                                (t.as_f64(), t.lexical_form().to_string())
                            })
                        })
                        .collect();
                    (keys, r)
                })
                .collect();
            decorated.sort_by(|a, b| {
                for (j, &(_, asc)) in order.iter().enumerate() {
                    let ord = cmp_sort_key(&a.0[j], &b.0[j]);
                    let ord = if asc { ord } else { ord.reverse() };
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                Ordering::Equal
            });
            rows = decorated.into_iter().map(|(_, r)| r).collect();
        }
        let mut projected: Vec<Bindings> =
            rows.into_iter().map(|r| project.iter().map(|&i| r[i]).collect()).collect();
        let out = &self.plan.output;
        if out.distinct {
            let mut seen = HashSet::new();
            projected.retain(|r| seen.insert(r.clone()));
        }
        window(&projected, out.offset, out.limit)
            .iter()
            .map(|r| r.iter().map(|id| id.map(|i| self.term(&reader, i).clone())).collect())
            .collect()
    }
}

/// The greedy probe order: repeatedly take the pattern with the most
/// positions that are terms or already-bound variables (2 each); ties go
/// to the smaller estimated cardinality, then to the later pattern.
fn greedy_order(triples: &[CTriple], estimates: &[usize], mut bound: Vec<bool>) -> Rc<[usize]> {
    let score = |t: &CTriple, bound: &[bool]| -> usize {
        t.slots
            .iter()
            .map(|s| match s {
                Slot::Term(_) => 2,
                Slot::Var(v) if bound[*v] => 2,
                Slot::Var(_) => 0,
            })
            .sum()
    };
    let mut remaining: Vec<usize> = (0..triples.len()).collect();
    let mut order = Vec::with_capacity(triples.len());
    while !remaining.is_empty() {
        let best = remaining
            .iter()
            .enumerate()
            .max_by(|(_, &a), (_, &b)| {
                score(&triples[a], &bound)
                    .cmp(&score(&triples[b], &bound))
                    .then_with(|| estimates[b].cmp(&estimates[a]))
            })
            .map_or(0, |(i, _)| i);
        let chosen = remaining.remove(best);
        for s in triples[chosen].slots {
            if let Slot::Var(v) = s {
                bound[v] = true;
            }
        }
        order.push(chosen);
    }
    order.into()
}

/// The probe pattern for one input row: terms stay fixed, bound variables
/// contribute their binding, free variables stay wildcards.
#[inline]
fn probe(pos: &[Pos; 3], row: &Bindings) -> IdPattern {
    let v = |p: Pos| match p {
        Pos::Id(id) => Some(id),
        Pos::Var(vi) => row[vi],
    };
    (v(pos[0]), v(pos[1]), v(pos[2]))
}

/// The probe loop of [`Exec::extend_simple`].
fn probe_rows(
    pos: &[Pos; 3],
    prober: &Prober<'_>,
    rows: Vec<Bindings>,
    cancel: &CancelToken,
) -> Vec<Bindings> {
    let mut out = Vec::with_capacity(rows.len());
    let mut scratch: Vec<IdTriple> = Vec::new();
    let mut last: Option<IdPattern> = None;
    let mut since_check = 0usize;
    // Bind the free positions of `row` to one match; false if a repeated
    // variable (e.g. ?x <p> ?x) disagrees.
    let bind = |row: &mut Bindings, (s, p, o): IdTriple| -> bool {
        for (slot, id) in [(pos[0], s), (pos[1], p), (pos[2], o)] {
            if let Pos::Var(vi) = slot {
                match row[vi] {
                    None => row[vi] = Some(id),
                    Some(existing) if existing == id => {}
                    Some(_) => return false,
                }
            }
        }
        true
    };
    for mut row in rows {
        // Stop early on cancellation: the partial output is discarded by
        // the typed error the BGP loop raises at its next batch boundary.
        since_check += 1;
        if since_check >= CANCEL_CHECK_EVERY {
            since_check = 0;
            if cancel.check().is_err() {
                return out;
            }
        }
        let pat = probe(pos, &row);
        if last != Some(pat) {
            scratch.clear();
            prober.probe(pat, &mut scratch);
            last = Some(pat);
        }
        // All matches but the last extend a clone of the input row; the
        // last consumes the row itself, so the common 1-match-per-row
        // join allocates nothing.
        if let [head @ .., tail] = scratch.as_slice() {
            for &m in head {
                let mut new_row = row.clone();
                if bind(&mut new_row, m) {
                    out.push(new_row);
                }
            }
            if bind(&mut row, *tail) {
                out.push(row);
            }
        }
    }
    out
}

/// Cached ORDER BY key for one binding: `None` for unbound, else the
/// numeric interpretation (if any) plus the lexical form.
type SortKey = Option<(Option<f64>, String)>;

fn cmp_sort_key(a: &SortKey, b: &SortKey) -> Ordering {
    match (a, b) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => Ordering::Less,
        (Some(_), None) => Ordering::Greater,
        (Some((na, la)), Some((nb, lb))) => match (na, nb) {
            (Some(x), Some(y)) => x.total_cmp(y),
            _ => la.cmp(lb),
        },
    }
}

fn ordering_holds(op: CmpOp, ord: Ordering) -> bool {
    match op {
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::LtEq => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::GtEq => ord != Ordering::Less,
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::NotEq => ord != Ordering::Equal,
    }
}

/// Term comparison: numeric when both sides parse as numbers, term
/// equality for `=`/`!=` (an IRI equals a literal of the same text),
/// lexical otherwise.
pub(crate) fn compare_terms(a: &Term, op: CmpOp, b: &Term) -> bool {
    if matches!(op, CmpOp::Eq | CmpOp::NotEq) {
        let eq = match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => x == y,
            _ => a == b || (a.is_iri() ^ b.is_iri() && a.lexical_form() == b.lexical_form()),
        };
        return if op == CmpOp::Eq { eq } else { !eq };
    }
    let ord = match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or(Ordering::Equal),
        _ => a.lexical_form().cmp(b.lexical_form()),
    };
    ordering_holds(op, ord)
}

/// A deliberately small REGEX subset: `^` anchors the start, `$` the end,
/// everything else matches literally (substring search). Covers the
/// highlight / snippet use cases of the paper without a regex dependency.
pub(crate) fn simple_regex_match(s: &str, pattern: &str) -> bool {
    let (anchored_start, p) = match pattern.strip_prefix('^') {
        Some(rest) => (true, rest),
        None => (false, pattern),
    };
    let (anchored_end, p) = match p.strip_suffix('$') {
        Some(rest) => (true, rest),
        None => (false, p),
    };
    match (anchored_start, anchored_end) {
        (true, true) => s == p,
        (true, false) => s.starts_with(p),
        (false, true) => s.ends_with(p),
        (false, false) => s.contains(p),
    }
}
