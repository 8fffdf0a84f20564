//! Property-path operators: `p+` / `p*` closures over one predicate and
//! structured paths (`p1/p2`, `p1|p2`, `^p`, nested closures).
//!
//! Each pattern materialises its edge list or pair set once per batch,
//! not once per row, and closures memoise reachability across rows.

use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use crate::term::TermId;

use super::ast::PathMod;
use super::compile::{CPath, CTriple, Slot};
use super::ops::{Bindings, Exec, Pos};

impl Exec<'_> {
    /// Resolve a path endpoint; `None` when it names a term the store has
    /// never seen (the pattern then matches nothing).
    fn end(&self, slot: Slot) -> Option<Pos> {
        match slot {
            Slot::Term(k) => self.known(k).map(Pos::Id),
            Slot::Var(v) => Some(Pos::Var(v)),
        }
    }

    /// Evaluate a transitive path pattern (`p+` / `p*`) against every input
    /// row. The predicate's edge list and adjacency maps are built once per
    /// batch and reachability sets are memoised across rows.
    pub(super) fn extend_closure(
        &self,
        t: &CTriple,
        mode: PathMod,
        rows: Vec<Bindings>,
    ) -> Vec<Bindings> {
        let Slot::Term(pk) = t.slots[1] else {
            return Vec::new(); // compilation rejects a variable predicate
        };
        let (Some(p), Some(s_end), Some(o_end)) =
            (self.known(pk), self.end(t.slots[0]), self.end(t.slots[2]))
        else {
            return Vec::new(); // predicate or constant endpoint never seen
        };

        let mut edges: Vec<(TermId, TermId, TermId)> = Vec::new();
        self.store.match_id_pattern(self.graphs, (None, Some(p), None), &mut edges);
        let mut forward: HashMap<TermId, Vec<TermId>> = HashMap::new();
        let mut backward: HashMap<TermId, Vec<TermId>> = HashMap::new();
        let mut nodes: Vec<TermId> = Vec::new();
        let mut node_set: HashSet<TermId> = HashSet::new();
        for &(s, _, o) in &edges {
            forward.entry(s).or_default().push(o);
            backward.entry(o).or_default().push(s);
            if node_set.insert(s) {
                nodes.push(s);
            }
            if node_set.insert(o) {
                nodes.push(o);
            }
        }
        let include_zero = mode == PathMod::ZeroOrMore;

        let mut reach_memo: HashMap<TermId, Rc<ReachSet>> = HashMap::new();
        let mut back_memo: HashMap<TermId, Rc<HashSet<TermId>>> = HashMap::new();

        let mut out = Vec::new();
        for row in &rows {
            let emit = |s: TermId, o: TermId, out: &mut Vec<Bindings>| {
                let mut new_row = row.clone();
                if let Pos::Var(vi) = s_end {
                    new_row[vi] = Some(s);
                }
                if let Pos::Var(vi) = o_end {
                    match new_row[vi] {
                        None => new_row[vi] = Some(o),
                        Some(existing) if existing == o => {}
                        Some(_) => return,
                    }
                }
                out.push(new_row);
            };

            match (value(s_end, row), value(o_end, row)) {
                (Some(s), Some(o)) => {
                    let r = reachable(&forward, include_zero, &mut reach_memo, s);
                    if r.set.contains(&o) {
                        emit(s, o, &mut out);
                    }
                }
                (Some(s), None) => {
                    let r = reachable(&forward, include_zero, &mut reach_memo, s);
                    for &o in &r.order {
                        emit(s, o, &mut out);
                    }
                }
                (None, Some(o)) => {
                    // Backward reachability: nodes from which `o` is
                    // reachable, in node-first-seen order.
                    let sources =
                        back_reachable(&backward, &node_set, include_zero, &mut back_memo, o);
                    for &s in &nodes {
                        if sources.contains(&s) {
                            emit(s, o, &mut out);
                        }
                    }
                }
                (None, None) => {
                    for &s in &nodes {
                        let r = reachable(&forward, include_zero, &mut reach_memo, s);
                        for &o in &r.order {
                            emit(s, o, &mut out);
                        }
                    }
                }
            }
        }
        out
    }

    /// Bind the endpoints of a structured property path against its pair
    /// set, built once per batch together with its endpoint indexes.
    pub(super) fn extend_path(&self, path: &CPath, t: &CTriple, rows: Vec<Bindings>) -> Vec<Bindings> {
        let (Some(s_end), Some(o_end)) = (self.end(t.slots[0]), self.end(t.slots[2])) else {
            return Vec::new(); // constant endpoint never seen
        };
        let pairs = self.path_pairs(path);
        let mut by_s: HashMap<TermId, Vec<TermId>> = HashMap::new();
        let mut by_o: HashMap<TermId, Vec<TermId>> = HashMap::new();
        let mut pair_set: HashSet<(TermId, TermId)> = HashSet::with_capacity(pairs.len());
        for &(s, o) in &pairs {
            by_s.entry(s).or_default().push(o);
            by_o.entry(o).or_default().push(s);
            pair_set.insert((s, o));
        }

        let mut out = Vec::new();
        for row in &rows {
            let emit = |s: TermId, o: TermId, out: &mut Vec<Bindings>| {
                let mut new_row = row.clone();
                for (end, id) in [(s_end, s), (o_end, o)] {
                    if let Pos::Var(vi) = end {
                        match new_row[vi] {
                            None => new_row[vi] = Some(id),
                            Some(existing) if existing == id => {}
                            Some(_) => return,
                        }
                    }
                }
                out.push(new_row);
            };

            match (value(s_end, row), value(o_end, row)) {
                (Some(s), Some(o)) => {
                    if pair_set.contains(&(s, o)) {
                        emit(s, o, &mut out);
                    }
                }
                (Some(s), None) => {
                    for &o in by_s.get(&s).map(Vec::as_slice).unwrap_or(&[]) {
                        emit(s, o, &mut out);
                    }
                }
                (None, Some(o)) => {
                    for &s in by_o.get(&o).map(Vec::as_slice).unwrap_or(&[]) {
                        emit(s, o, &mut out);
                    }
                }
                (None, None) => {
                    for &(s, o) in &pairs {
                        emit(s, o, &mut out);
                    }
                }
            }
        }
        out
    }

    /// Materialise the (subject, object) pair set of a structured property
    /// path. Pair sets stay small because they are evaluated against
    /// per-user knowledge bases, not the relational databank.
    fn path_pairs(&self, path: &CPath) -> Vec<(TermId, TermId)> {
        match path {
            CPath::Pred(k) => {
                let Some(p) = self.known(*k) else {
                    return Vec::new();
                };
                let mut matches = Vec::new();
                self.store.match_id_pattern(self.graphs, (None, Some(p), None), &mut matches);
                matches.into_iter().map(|(s, _, o)| (s, o)).collect()
            }
            CPath::Inverse(p) => self.path_pairs(p).into_iter().map(|(s, o)| (o, s)).collect(),
            CPath::Alternative(ps) => {
                let mut seen = HashSet::new();
                let mut out = Vec::new();
                for p in ps {
                    for pair in self.path_pairs(p) {
                        if seen.insert(pair) {
                            out.push(pair);
                        }
                    }
                }
                out
            }
            CPath::Sequence(ps) => {
                let mut acc: Option<Vec<(TermId, TermId)>> = None;
                for p in ps {
                    let next = self.path_pairs(p);
                    acc = Some(match acc {
                        None => next,
                        Some(cur) => {
                            let mut by_subject: HashMap<TermId, Vec<TermId>> = HashMap::new();
                            for (s, o) in next {
                                by_subject.entry(s).or_default().push(o);
                            }
                            let mut seen = HashSet::new();
                            let mut out = Vec::new();
                            for (a, b) in cur {
                                for &c in by_subject.get(&b).map(Vec::as_slice).unwrap_or(&[]) {
                                    if seen.insert((a, c)) {
                                        out.push((a, c));
                                    }
                                }
                            }
                            out
                        }
                    });
                    if acc.as_ref().is_some_and(Vec::is_empty) {
                        break;
                    }
                }
                acc.unwrap_or_default()
            }
            CPath::Closure(p, mode) => {
                let base = self.path_pairs(p);
                let mut forward: HashMap<TermId, Vec<TermId>> = HashMap::new();
                let mut nodes: HashSet<TermId> = HashSet::new();
                for &(s, o) in &base {
                    forward.entry(s).or_default().push(o);
                    nodes.insert(s);
                    nodes.insert(o);
                }
                let mut seen = HashSet::new();
                let mut out = Vec::new();
                for &start in &nodes {
                    // BFS from each node.
                    let mut frontier = vec![start];
                    let mut reached: HashSet<TermId> = HashSet::new();
                    while let Some(n) = frontier.pop() {
                        for &next in forward.get(&n).map(Vec::as_slice).unwrap_or(&[]) {
                            if reached.insert(next) {
                                frontier.push(next);
                            }
                        }
                    }
                    if *mode == PathMod::ZeroOrMore {
                        reached.insert(start);
                    }
                    for o in reached {
                        if seen.insert((start, o)) {
                            out.push((start, o));
                        }
                    }
                }
                out
            }
        }
    }
}

/// An endpoint's value in one row: its term, its binding, or `None` for a
/// free variable.
fn value(end: Pos, row: &Bindings) -> Option<TermId> {
    match end {
        Pos::Id(id) => Some(id),
        Pos::Var(vi) => row[vi],
    }
}

/// A memoised forward-reachability result: insertion order (for stable
/// emission order) plus a set (for O(1) membership).
struct ReachSet {
    order: Vec<TermId>,
    set: HashSet<TermId>,
}

/// Nodes reachable from `start` over `forward` edges (≥1 step; `start`
/// itself included when `include_zero`). Memoised per start node.
fn reachable(
    forward: &HashMap<TermId, Vec<TermId>>,
    include_zero: bool,
    memo: &mut HashMap<TermId, Rc<ReachSet>>,
    start: TermId,
) -> Rc<ReachSet> {
    if let Some(r) = memo.get(&start) {
        return r.clone();
    }
    let mut set: HashSet<TermId> = HashSet::new();
    let mut order: Vec<TermId> = Vec::new();
    let mut frontier = vec![start];
    while let Some(n) = frontier.pop() {
        for &next in forward.get(&n).map(Vec::as_slice).unwrap_or(&[]) {
            if set.insert(next) {
                order.push(next);
                frontier.push(next);
            }
        }
    }
    if include_zero && set.insert(start) {
        order.push(start);
    }
    let rc = Rc::new(ReachSet { order, set });
    memo.insert(start, rc.clone());
    rc
}

/// Nodes from which `target` is reachable (≥1 step; `target` itself
/// included when `include_zero` and it occurs in the edge set). Memoised
/// per target node.
fn back_reachable(
    backward: &HashMap<TermId, Vec<TermId>>,
    node_set: &HashSet<TermId>,
    include_zero: bool,
    memo: &mut HashMap<TermId, Rc<HashSet<TermId>>>,
    target: TermId,
) -> Rc<HashSet<TermId>> {
    if let Some(r) = memo.get(&target) {
        return r.clone();
    }
    let mut set: HashSet<TermId> = HashSet::new();
    let mut frontier = vec![target];
    while let Some(n) = frontier.pop() {
        for &prev in backward.get(&n).map(Vec::as_slice).unwrap_or(&[]) {
            if set.insert(prev) {
                frontier.push(prev);
            }
        }
    }
    if include_zero && node_set.contains(&target) {
        set.insert(target);
    }
    let rc = Rc::new(set);
    memo.insert(target, rc.clone());
    rc
}
