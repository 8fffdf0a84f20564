//! The triple store: named graphs with SPO/POS/OSP indexes.
//!
//! The store holds one graph per name (CroSSE gives each user a personal
//! graph plus a shared/common graph) over a single shared term dictionary.
//! Each graph keeps the classic three orderings so any triple-pattern shape
//! resolves through a range scan:
//!
//! * `(s ? ?)`, `(s p ?)`, `(s p o)` → SPO
//! * `(? p ?)`, `(? p o)`           → POS
//! * `(? ? o)`, `(s ? o)`           → OSP
//! * `(? ? ?)`                      → SPO full scan

use std::collections::BTreeSet;
use std::ops::Bound;
use std::sync::Arc;

use crosse_wal::RedoLog;
use parking_lot::RwLock;

use crate::error::{Error, Result};
use crate::persist::{encode_rdf_op, RdfOp};
use crate::term::{Dictionary, Term, TermId};

/// A concrete triple of terms.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Triple {
    pub subject: Term,
    pub predicate: Term,
    pub object: Term,
}

impl Triple {
    pub fn new(subject: Term, predicate: Term, object: Term) -> Self {
        Triple { subject, predicate, object }
    }
}

impl std::fmt::Display for Triple {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {} {} .", self.subject, self.predicate, self.object)
    }
}

/// An interned triple.
pub(crate) type IdTriple = (TermId, TermId, TermId);

/// Pattern over interned ids; `None` is a wildcard.
pub(crate) type IdPattern = (Option<TermId>, Option<TermId>, Option<TermId>);

#[derive(Debug, Default)]
struct GraphData {
    spo: BTreeSet<(TermId, TermId, TermId)>,
    pos: BTreeSet<(TermId, TermId, TermId)>,
    osp: BTreeSet<(TermId, TermId, TermId)>,
}

impl GraphData {
    fn insert(&mut self, (s, p, o): IdTriple) -> bool {
        let fresh = self.spo.insert((s, p, o));
        if fresh {
            self.pos.insert((p, o, s));
            self.osp.insert((o, s, p));
        }
        fresh
    }

    fn remove(&mut self, (s, p, o): IdTriple) -> bool {
        let removed = self.spo.remove(&(s, p, o));
        if removed {
            self.pos.remove(&(p, o, s));
            self.osp.remove(&(o, s, p));
        }
        removed
    }

    fn len(&self) -> usize {
        self.spo.len()
    }

    fn contains(&self, t: IdTriple) -> bool {
        self.spo.contains(&t)
    }

    /// Match a pattern; pushes results (in SPO component order) into `out`.
    fn matching(&self, (s, p, o): IdPattern, out: &mut Vec<IdTriple>) {
        fn range<F: Fn((TermId, TermId, TermId)) -> IdTriple>(
            set: &BTreeSet<(TermId, TermId, TermId)>,
            first: TermId,
            second: Option<TermId>,
            reorder: F,
            out: &mut Vec<IdTriple>,
        ) {
            let lo;
            let hi;
            match second {
                None => {
                    lo = (first, TermId(0), TermId(0));
                    hi = (TermId(first.0.wrapping_add(1)), TermId(0), TermId(0));
                }
                Some(snd) => {
                    lo = (first, snd, TermId(0));
                    hi = (first, TermId(snd.0.wrapping_add(1)), TermId(0));
                }
            }
            for &t in set.range((Bound::Included(lo), Bound::Excluded(hi))) {
                out.push(reorder(t));
            }
        }
        match (s, p, o) {
            (Some(s), Some(p), Some(o)) => {
                if self.contains((s, p, o)) {
                    out.push((s, p, o));
                }
            }
            (Some(s), p, None) => range(&self.spo, s, p, |t| t, out),
            (Some(s), None, Some(o)) => {
                range(&self.osp, o, Some(s), |(o, s, p)| (s, p, o), out)
            }
            (None, Some(p), o) => range(&self.pos, p, o, |(p, o, s)| (s, p, o), out),
            (None, None, Some(o)) => range(&self.osp, o, None, |(o, s, p)| (s, p, o), out),
            (None, None, None) => out.extend(self.spo.iter().copied()),
        }
    }

    /// Number of triples matching a pattern (same index selection as
    /// [`Self::matching`]), without materialising them, walking at most
    /// `cap` entries — the evaluator's cardinality estimator only needs
    /// relative sizes, so anything ≥ `cap` reports as `cap`.
    fn count(&self, (s, p, o): IdPattern, cap: usize) -> usize {
        fn count_range(
            set: &BTreeSet<(TermId, TermId, TermId)>,
            first: TermId,
            second: Option<TermId>,
            cap: usize,
        ) -> usize {
            let (lo, hi) = match second {
                None => (
                    (first, TermId(0), TermId(0)),
                    (TermId(first.0.wrapping_add(1)), TermId(0), TermId(0)),
                ),
                Some(snd) => (
                    (first, snd, TermId(0)),
                    (first, TermId(snd.0.wrapping_add(1)), TermId(0)),
                ),
            };
            set.range((Bound::Included(lo), Bound::Excluded(hi)))
                .take(cap)
                .count()
        }
        match (s, p, o) {
            (Some(s), Some(p), Some(o)) => usize::from(self.contains((s, p, o))),
            (Some(s), p, None) => count_range(&self.spo, s, p, cap),
            (Some(s), None, Some(o)) => count_range(&self.osp, o, Some(s), cap),
            (None, Some(p), o) => count_range(&self.pos, p, o, cap),
            (None, None, Some(o)) => count_range(&self.osp, o, None, cap),
            (None, None, None) => self.len().min(cap),
        }
    }
}

/// A probe handle over pre-resolved graphs (see [`TripleStore::with_prober`]).
pub(crate) struct Prober<'a> {
    graphs: Vec<&'a GraphData>,
}

impl Prober<'_> {
    /// Match a pattern into `out` (appending), deduplicating across graphs
    /// in place when more than one graph is probed.
    pub(crate) fn probe(&self, pat: IdPattern, out: &mut Vec<IdTriple>) {
        let before = out.len();
        for g in &self.graphs {
            g.matching(pat, out);
        }
        if self.graphs.len() > 1 {
            dedup_tail(out, before);
        }
    }
}

/// Sort and deduplicate `out[before..]` in place (no side allocation) —
/// the cross-graph union step shared by every multi-graph probe.
fn dedup_tail(out: &mut Vec<IdTriple>, before: usize) {
    if out.len() <= before + 1 {
        return;
    }
    out[before..].sort_unstable();
    let mut w = before + 1;
    for r in (before + 1)..out.len() {
        if out[r] != out[w - 1] {
            out[w] = out[r];
            w += 1;
        }
    }
    out.truncate(w);
}

// ---- write steps ------------------------------------------------------------
//
// One step per kind of write, each on the graph map under its held write
// lock, so a write logs and applies under that one lock and log order is
// apply order. A logged write checks, logs, then runs its step; redo
// replay (`TripleStore::apply`) and snapshot restore run the same step.
// Dropping a graph is `Graphs::remove` itself.

/// Add id-triples to `graph`, creating the graph if absent; returns how
/// many were new.
fn add(graphs: &mut Graphs, graph: &str, triples: impl IntoIterator<Item = IdTriple>) -> usize {
    let g = graphs.entry(graph.to_string()).or_default();
    triples.into_iter().filter(|&t| g.insert(t)).count()
}

/// Take one triple out of `graph`; whether it was there.
fn take(graphs: &mut Graphs, graph: &str, triple: IdTriple) -> bool {
    graphs.get_mut(graph).is_some_and(|g| g.remove(triple))
}

/// A pattern of concrete terms with wildcards.
#[derive(Debug, Clone, Default)]
pub struct TriplePattern {
    pub subject: Option<Term>,
    pub predicate: Option<Term>,
    pub object: Option<Term>,
}

/// Every graph of a store, by name.
type Graphs = std::collections::BTreeMap<String, GraphData>;

/// The multi-graph triple store. Cheap to clone (shared interior).
#[derive(Debug, Clone)]
pub struct TripleStore {
    dict: Dictionary,
    graphs: Arc<RwLock<Graphs>>,
    /// Mutation counter: bumped by every state-changing operation, so
    /// query-result caches (e.g. the SESQL engine's SPARQL-leg cache) can
    /// validate entries without diffing graphs.
    version: Arc<std::sync::atomic::AtomicU64>,
    /// Where mutations log (detached on an in-memory store); shared
    /// across clones.
    sink: Arc<RwLock<RedoLog>>,
}

impl Default for TripleStore {
    fn default() -> Self {
        TripleStore {
            dict: Dictionary::default(),
            graphs: Arc::new(RwLock::new_labeled(
                "rdf.graphs",
                std::collections::BTreeMap::new(),
            )),
            version: Arc::new(std::sync::atomic::AtomicU64::new(0)),
            sink: Arc::new(RwLock::new_labeled("rdf.sink", RedoLog::default())),
        }
    }
}

impl TripleStore {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn dictionary(&self) -> &Dictionary {
        &self.dict
    }

    /// Current mutation version. Any change to any graph increases it.
    pub fn version(&self) -> u64 {
        self.version.load(std::sync::atomic::Ordering::Acquire)
    }

    fn bump_version(&self) {
        self.version.fetch_add(1, std::sync::atomic::Ordering::AcqRel);
    }

    fn sink(&self) -> RedoLog {
        self.sink.read().clone()
    }

    /// Attach a redo log: all future mutations log through it. Called
    /// once, right after recovery has replayed the log into this store.
    pub fn attach_sink(&self, sink: RedoLog) {
        *self.sink.write() = sink;
    }

    /// Create a graph if absent (inserting into a missing graph also
    /// creates it; this is for explicitly registering empty graphs).
    pub fn ensure_graph(&self, name: &str) -> Result<()> {
        let sink = self.sink();
        {
            let _barrier = sink.guard();
            let mut graphs = self.graphs.write();
            if graphs.contains_key(name) {
                return Ok(());
            }
            sink.log(|| encode_rdf_op(&RdfOp::EnsureGraph { graph: name }))?;
            add(&mut graphs, name, []);
        }
        Ok(sink.flush()?)
    }

    pub fn graph_names(&self) -> Vec<String> {
        self.graphs.read().keys().cloned().collect()
    }

    pub fn has_graph(&self, name: &str) -> bool {
        self.graphs.read().contains_key(name)
    }

    pub fn drop_graph(&self, name: &str) -> Result<()> {
        let sink = self.sink();
        {
            let _barrier = sink.guard();
            let mut graphs = self.graphs.write();
            if !graphs.contains_key(name) {
                return Err(Error::store(format!("graph `{name}` does not exist")));
            }
            sink.log(|| encode_rdf_op(&RdfOp::DropGraph { graph: name }))?;
            graphs.remove(name);
            drop(graphs);
            self.bump_version();
        }
        Ok(sink.flush()?)
    }

    /// Insert a triple into a graph; returns false if it was already there.
    pub fn insert(&self, graph: &str, triple: &Triple) -> Result<bool> {
        Ok(self.insert_all(graph, std::iter::once(triple))? == 1)
    }

    /// Insert many triples; returns how many were new. One redo record
    /// covers the whole batch, so recovery replays it all-or-nothing.
    pub fn insert_all<'t>(
        &self,
        graph: &str,
        triples: impl IntoIterator<Item = &'t Triple>,
    ) -> Result<usize> {
        let ids: Vec<IdTriple> = triples.into_iter().map(|t| self.intern(t)).collect();
        self.insert_ids(graph, ids)
    }

    /// Insert already-interned triples (ids must come from this store's
    /// dictionary); returns how many were new. The reasoner writes its
    /// closure through this, skipping re-interning entirely. When a log
    /// is attached the ids are resolved back to terms for the redo record
    /// (the log speaks terms, never ids — ids are not stable across
    /// recovery).
    pub(crate) fn insert_ids(
        &self,
        graph: &str,
        triples: impl IntoIterator<Item = IdTriple>,
    ) -> Result<usize> {
        let batch: Vec<IdTriple> = triples.into_iter().collect();
        let sink = self.sink();
        let fresh = {
            let _barrier = sink.guard();
            self.bump_version();
            let mut graphs = self.graphs.write();
            if !batch.is_empty() || !graphs.contains_key(graph) {
                sink.log(|| {
                    let reader = self.dict.reader();
                    let terms: Vec<Triple> = batch
                        .iter()
                        .map(|&(s, p, o)| {
                            Triple::new(
                                reader.term(s).clone(),
                                reader.term(p).clone(),
                                reader.term(o).clone(),
                            )
                        })
                        .collect();
                    drop(reader);
                    encode_rdf_op(&RdfOp::InsertAll { graph, triples: &terms })
                })?;
            }
            add(&mut graphs, graph, batch)
        };
        sink.flush()?;
        Ok(fresh)
    }

    /// Remove a triple; returns true if present.
    pub fn remove(&self, graph: &str, triple: &Triple) -> Result<bool> {
        let sink = self.sink();
        let removed = {
            let _barrier = sink.guard();
            let Some(id) = self.id_of(triple) else {
                return Ok(false);
            };
            self.bump_version();
            let mut graphs = self.graphs.write();
            if !graphs.get(graph).is_some_and(|g| g.contains(id)) {
                return Ok(false);
            }
            sink.log(|| encode_rdf_op(&RdfOp::Remove { graph, triple }))?;
            take(&mut graphs, graph, id)
        };
        sink.flush()?;
        Ok(removed)
    }

    /// Apply one write without logging: the step its logged form runs,
    /// with the same version move. This is redo replay (no log is
    /// attached to a recovering store), and how a new in-memory knowledge
    /// base registers its graphs.
    pub(crate) fn apply(&self, op: &RdfOp<'_>) {
        let mut graphs = self.graphs.write();
        match *op {
            RdfOp::InsertAll { graph, triples } => {
                self.bump_version();
                add(&mut graphs, graph, triples.iter().map(|t| self.intern(t)));
            }
            RdfOp::Remove { graph, triple } => {
                if let Some(id) = self.id_of(triple) {
                    self.bump_version();
                    take(&mut graphs, graph, id);
                }
            }
            RdfOp::DropGraph { graph } => {
                graphs.remove(graph);
                self.bump_version();
            }
            RdfOp::EnsureGraph { graph } => {
                add(&mut graphs, graph, []);
            }
        }
    }

    /// Restore one graph of a checkpoint snapshot: the insert step over
    /// already-interned triples (ids must come from this store's
    /// dictionary).
    pub(crate) fn restore_graph(&self, graph: &str, triples: Vec<IdTriple>) {
        self.bump_version();
        add(&mut self.graphs.write(), graph, triples);
    }

    fn intern(&self, t: &Triple) -> IdTriple {
        (self.dict.intern(&t.subject), self.dict.intern(&t.predicate), self.dict.intern(&t.object))
    }

    /// The ids of a triple's terms; `None` if one was never interned, so
    /// no graph can hold the triple.
    fn id_of(&self, t: &Triple) -> Option<IdTriple> {
        let id = |term| self.dict.id_of(term);
        Some((id(&t.subject)?, id(&t.predicate)?, id(&t.object)?))
    }

    pub fn contains(&self, graph: &str, triple: &Triple) -> bool {
        let Some(id) = self.id_of(triple) else {
            return false;
        };
        self.graphs.read().get(graph).is_some_and(|g| g.contains(id))
    }

    /// Triple count of one graph.
    pub fn graph_len(&self, graph: &str) -> usize {
        self.graphs.read().get(graph).map(|g| g.len()).unwrap_or(0)
    }

    /// Total triples across all graphs.
    pub fn len(&self) -> usize {
        self.graphs.read().values().map(|g| g.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn to_id_pattern(&self, pattern: &TriplePattern) -> Option<IdPattern> {
        let conv = |t: &Option<Term>| -> Option<Option<TermId>> {
            match t {
                None => Some(None),
                // A constant term that was never interned matches nothing.
                Some(term) => self.dict.id_of(term).map(Some),
            }
        };
        Some((
            conv(&pattern.subject)?,
            conv(&pattern.predicate)?,
            conv(&pattern.object)?,
        ))
    }

    /// Match a pattern against the union of `graphs` (deduplicated).
    pub fn match_pattern(&self, graphs: &[&str], pattern: &TriplePattern) -> Vec<Triple> {
        let mut ids = Vec::new();
        self.match_pattern_ids(graphs, pattern, &mut ids);
        ids.into_iter()
            .map(|(s, p, o)| {
                Triple::new(self.dict.term_of(s), self.dict.term_of(p), self.dict.term_of(o))
            })
            .collect()
    }

    pub(crate) fn match_pattern_ids(
        &self,
        graphs: &[&str],
        pattern: &TriplePattern,
        out: &mut Vec<IdTriple>,
    ) {
        let Some(pat) = self.to_id_pattern(pattern) else {
            return;
        };
        self.match_id_pattern(graphs, pat, out);
    }

    pub(crate) fn match_id_pattern(
        &self,
        graphs: &[&str],
        pat: IdPattern,
        out: &mut Vec<IdTriple>,
    ) {
        let store = self.graphs.read();
        let before = out.len();
        for name in graphs {
            if let Some(g) = store.get(*name) {
                g.matching(pat, out);
            }
        }
        if graphs.len() > 1 {
            // Deduplicate across graphs (a triple may be asserted by
            // several users).
            dedup_tail(out, before);
        }
    }

    /// Run `f` with a [`Prober`] that has resolved `graphs` once: batch
    /// probe loops pay the store lock and the graph-name lookups a single
    /// time instead of once per probe. The store's graph map is read-locked
    /// for the duration of `f` — do not mutate the store inside.
    pub(crate) fn with_prober<R>(
        &self,
        graphs: &[&str],
        f: impl FnOnce(&Prober<'_>) -> R,
    ) -> R {
        let guard = self.graphs.read();
        let resolved: Vec<&GraphData> =
            graphs.iter().filter_map(|name| guard.get(*name)).collect();
        f(&Prober { graphs: resolved })
    }

    /// Number of triples matching an id pattern across `graphs`, walking
    /// at most `cap` index entries per graph. Triples shared between
    /// graphs are counted once per graph — the evaluator uses this as a
    /// relative cardinality estimate, not an exact union size.
    pub(crate) fn count_id_pattern(
        &self,
        graphs: &[&str],
        pat: IdPattern,
        cap: usize,
    ) -> usize {
        let store = self.graphs.read();
        graphs
            .iter()
            .filter_map(|name| store.get(*name))
            .map(|g| g.count(pat, cap))
            .sum()
    }

    /// Pin every graph's id-triples (SPO order) for a checkpoint. Runs
    /// under the checkpoint barrier, so the copy is a consistent cut; the
    /// cost is one memcpy-ish walk of the indexes, no term cloning.
    pub(crate) fn pin_graphs(&self) -> Vec<(String, Vec<IdTriple>)> {
        self.graphs
            .read()
            .iter()
            .map(|(name, g)| (name.clone(), g.spo.iter().copied().collect()))
            .collect()
    }

    /// Dump a whole graph as concrete triples (sorted by id order).
    pub fn graph_triples(&self, graph: &str) -> Vec<Triple> {
        self.match_pattern(&[graph], &TriplePattern::default())
    }

    /// Distinct predicate terms across `graphs` (walks the POS index, so
    /// cost is proportional to the number of distinct (p, o) prefixes, not
    /// to the full triple count for typical ontologies).
    pub fn distinct_predicates(&self, graphs: &[&str]) -> Vec<Term> {
        let store = self.graphs.read();
        let mut ids: Vec<TermId> = Vec::new();
        for name in graphs {
            if let Some(g) = store.get(*name) {
                for &(p, _, _) in &g.pos {
                    if ids.last() != Some(&p) && !ids.contains(&p) {
                        ids.push(p);
                    }
                }
            }
        }
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter().map(|id| self.dict.term_of(id)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(Term::iri(s), Term::iri(p), Term::lit(o))
    }

    fn store_with_data() -> TripleStore {
        let store = TripleStore::new();
        store.insert("u1", &t("Hg", "dangerLevel", "5")).unwrap();
        store.insert("u1", &t("Pb", "dangerLevel", "4")).unwrap();
        store.insert("u1", &t("Hg", "isA", "element")).unwrap();
        store.insert("u2", &t("Hg", "dangerLevel", "5")).unwrap();
        store.insert("u2", &t("As", "dangerLevel", "5")).unwrap();
        store
    }

    #[test]
    fn insert_dedupes() {
        let store = TripleStore::new();
        assert!(store.insert("g", &t("a", "b", "c")).unwrap());
        assert!(!store.insert("g", &t("a", "b", "c")).unwrap());
        assert_eq!(store.graph_len("g"), 1);
    }

    #[test]
    fn all_pattern_shapes() {
        let store = store_with_data();
        let g = ["u1"];
        let m = |s: Option<&str>, p: Option<&str>, o: Option<&str>| {
            store
                .match_pattern(
                    &g,
                    &TriplePattern {
                        subject: s.map(Term::iri),
                        predicate: p.map(Term::iri),
                        object: o.map(Term::lit),
                    },
                )
                .len()
        };
        assert_eq!(m(None, None, None), 3);
        assert_eq!(m(Some("Hg"), None, None), 2);
        assert_eq!(m(Some("Hg"), Some("dangerLevel"), None), 1);
        assert_eq!(m(Some("Hg"), Some("dangerLevel"), Some("5")), 1);
        assert_eq!(m(None, Some("dangerLevel"), None), 2);
        assert_eq!(m(None, Some("dangerLevel"), Some("5")), 1);
        assert_eq!(m(None, None, Some("5")), 1);
        assert_eq!(m(Some("Hg"), None, Some("5")), 1);
        assert_eq!(m(Some("Hg"), Some("isA"), Some("nope")), 0);
    }

    #[test]
    fn union_across_graphs_dedupes() {
        let store = store_with_data();
        let found = store.match_pattern(
            &["u1", "u2"],
            &TriplePattern {
                subject: None,
                predicate: Some(Term::iri("dangerLevel")),
                object: None,
            },
        );
        // Hg/5 appears in both graphs but must be reported once.
        assert_eq!(found.len(), 3);
    }

    #[test]
    fn unknown_constant_matches_nothing() {
        let store = store_with_data();
        let found = store.match_pattern(
            &["u1"],
            &TriplePattern {
                subject: Some(Term::iri("NeverSeen")),
                predicate: None,
                object: None,
            },
        );
        assert!(found.is_empty());
    }

    #[test]
    fn missing_graph_is_empty() {
        let store = store_with_data();
        assert_eq!(store.graph_len("nope"), 0);
        assert!(store.match_pattern(&["nope"], &TriplePattern::default()).is_empty());
    }

    #[test]
    fn remove_works() {
        let store = store_with_data();
        assert!(store.remove("u1", &t("Hg", "isA", "element")).unwrap());
        assert!(!store.remove("u1", &t("Hg", "isA", "element")).unwrap());
        assert_eq!(store.graph_len("u1"), 2);
        // Other indexes updated too: object lookup no longer finds it.
        let found = store.match_pattern(
            &["u1"],
            &TriplePattern {
                subject: None,
                predicate: None,
                object: Some(Term::lit("element")),
            },
        );
        assert!(found.is_empty());
    }

    #[test]
    fn drop_graph() {
        let store = store_with_data();
        store.drop_graph("u2").unwrap();
        assert!(!store.has_graph("u2"));
        assert!(store.drop_graph("u2").is_err());
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn contains_and_counts() {
        let store = store_with_data();
        assert!(store.contains("u1", &t("Hg", "dangerLevel", "5")));
        assert!(!store.contains("u2", &t("Pb", "dangerLevel", "4")));
        assert_eq!(store.len(), 5);
        assert!(!store.is_empty());
    }

    #[test]
    fn literal_vs_iri_objects_are_distinct() {
        let store = TripleStore::new();
        store.insert(
            "g",
            &Triple::new(Term::iri("a"), Term::iri("p"), Term::iri("x")),
        ).unwrap();
        let found = store.match_pattern(
            &["g"],
            &TriplePattern {
                subject: None,
                predicate: None,
                object: Some(Term::lit("x")),
            },
        );
        assert!(found.is_empty(), "literal \"x\" must not match IRI <x>");
    }

    #[test]
    fn graph_triples_dump() {
        let store = store_with_data();
        let all = store.graph_triples("u1");
        assert_eq!(all.len(), 3);
        assert!(all.iter().all(|tr| tr.predicate.is_iri()));
    }

    #[test]
    fn version_bumps_on_every_mutation() {
        let store = TripleStore::new();
        let v0 = store.version();
        let t = Triple::new(Term::iri("a"), Term::iri("p"), Term::iri("b"));
        store.insert("g", &t).unwrap();
        let v1 = store.version();
        assert!(v1 > v0);
        let t2 = Triple::new(Term::iri("a"), Term::iri("p"), Term::iri("c"));
        store.insert_all("g", std::iter::once(&t2)).unwrap();
        let v2 = store.version();
        assert!(v2 > v1);
        store.remove("g", &t).unwrap();
        let v3 = store.version();
        assert!(v3 > v2);
        store.drop_graph("g").unwrap();
        assert!(store.version() > v3);
    }

    #[test]
    fn clones_share_the_version_counter() {
        let store = TripleStore::new();
        let clone = store.clone();
        let v0 = clone.version();
        store.insert("g", &Triple::new(Term::iri("a"), Term::iri("p"), Term::iri("b"))).unwrap();
        assert!(clone.version() > v0, "caches on clones must observe mutations");
    }
}
