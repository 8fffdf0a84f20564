//! RDFS forward-chaining reasoner.
//!
//! CroSSE's ontological knowledge "may represent identity or hierarchy
//! information" (paper Sec. I-A). The reasoner materialises the standard
//! RDFS entailments that matter for such hierarchies:
//!
//! * `rdfs:subClassOf` transitivity (rdfs11)
//! * type inheritance through subclassing (rdfs9)
//! * `rdfs:subPropertyOf` transitivity (rdfs5)
//! * property inheritance: `<s p o>` and `p rdfs:subPropertyOf q` entail
//!   `<s q o>` (rdfs7)
//! * `rdfs:domain` / `rdfs:range` typing (rdfs2, rdfs3)
//!
//! Inferred triples are written into a separate graph so user assertions
//! stay distinguishable from entailments (the SESQL layer queries the
//! union).
//!
//! The closure is computed **id-natively and semi-naively**: the five
//! schema terms are interned once up front, all source triples are pulled
//! as interned `(s, p, o)` id triples, and a worklist drives derivation —
//! each fact is popped exactly once, indexed into incrementally-maintained
//! join indexes (super/sub class & property maps, per-class instance
//! lists, per-predicate extensions), and joined only against what is
//! already indexed. Every rule is written in both join orders, so no round
//! ever re-derives from the full fact set and no `Term` is cloned on the
//! hot path.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::error::Result;
use crate::schema;
use crate::store::{IdTriple, TripleStore};
use crate::term::{Term, TermId};

/// Compute the RDFS closure of the union of `source_graphs` and write any
/// *new* triples into `target_graph`. Returns the number of inferred
/// triples added, or the store's redo error.
pub fn materialize_rdfs(
    store: &TripleStore,
    source_graphs: &[&str],
    target_graph: &str,
) -> Result<usize> {
    let dict = store.dictionary();
    // Intern the schema vocabulary exactly once. (Interning is safe: it
    // adds terms to the dictionary without asserting triples.)
    let sub_class = dict.intern(&schema::rdfs_subclass_of());
    let sub_prop = dict.intern(&schema::rdfs_subproperty_of());
    let rdf_type = dict.intern(&schema::rdf_type());
    let domain = dict.intern(&schema::rdfs_domain());
    let range = dict.intern(&schema::rdfs_range());

    // Source facts as interned triples (deduplicated across graphs).
    let mut source: Vec<IdTriple> = Vec::new();
    store.match_id_pattern(source_graphs, (None, None, None), &mut source);

    // Derivation only recombines ids that already exist, so a literal-flag
    // snapshot taken now covers every id the loop will ever see.
    let literal = dict.literal_flags();
    let is_literal =
        |id: TermId| literal.get(id.0 as usize).copied().unwrap_or(false);

    let mut all: HashSet<IdTriple> = source.iter().copied().collect();
    let original = all.clone();
    let mut queue: VecDeque<IdTriple> = source.into_iter().collect();

    // Incremental join indexes over the processed prefix of `all`.
    let mut supers_c: HashMap<TermId, Vec<TermId>> = HashMap::new(); // class → superclasses
    let mut subs_c: HashMap<TermId, Vec<TermId>> = HashMap::new(); // class → subclasses
    let mut supers_p: HashMap<TermId, Vec<TermId>> = HashMap::new(); // prop → superprops
    let mut subs_p: HashMap<TermId, Vec<TermId>> = HashMap::new(); // prop → subprops
    let mut dom: HashMap<TermId, Vec<TermId>> = HashMap::new(); // prop → domain classes
    let mut rng: HashMap<TermId, Vec<TermId>> = HashMap::new(); // prop → range classes
    let mut instances: HashMap<TermId, Vec<TermId>> = HashMap::new(); // class → members
    let mut ext: HashMap<TermId, Vec<(TermId, TermId)>> = HashMap::new(); // prop → (s, o)

    while let Some((s, p, o)) = queue.pop_front() {
        // Index the fact first, so rules below can join it with itself.
        ext.entry(p).or_default().push((s, o));
        if p == sub_class {
            supers_c.entry(s).or_default().push(o);
            subs_c.entry(o).or_default().push(s);
        } else if p == sub_prop {
            supers_p.entry(s).or_default().push(o);
            subs_p.entry(o).or_default().push(s);
        } else if p == rdf_type {
            instances.entry(o).or_default().push(s);
        } else if p == domain {
            dom.entry(s).or_default().push(o);
        } else if p == range {
            rng.entry(s).or_default().push(o);
        }

        let mut derive = |t: IdTriple| {
            if all.insert(t) {
                queue.push_back(t);
            }
        };

        if p == sub_class {
            // rdfs11, (s ⊑ o) joined both ways with the indexed edges;
            // self-loops (A ⊑ A) are never derived.
            for &c in supers_c.get(&o).map(Vec::as_slice).unwrap_or(&[]) {
                if c != s {
                    derive((s, sub_class, c));
                }
            }
            for &x in subs_c.get(&s).map(Vec::as_slice).unwrap_or(&[]) {
                if x != o {
                    derive((x, sub_class, o));
                }
            }
            // rdfs9, schema side: members of the subclass gain the type.
            for &x in instances.get(&s).map(Vec::as_slice).unwrap_or(&[]) {
                derive((x, rdf_type, o));
            }
        } else if p == sub_prop {
            // rdfs5, both join orders.
            for &q in supers_p.get(&o).map(Vec::as_slice).unwrap_or(&[]) {
                if q != s {
                    derive((s, sub_prop, q));
                }
            }
            for &x in subs_p.get(&s).map(Vec::as_slice).unwrap_or(&[]) {
                if x != o {
                    derive((x, sub_prop, o));
                }
            }
            // rdfs7, schema side: the subproperty's extension lifts.
            for &(s2, o2) in ext.get(&s).map(Vec::as_slice).unwrap_or(&[]) {
                derive((s2, o, o2));
            }
        } else if p == rdf_type {
            // rdfs9, data side.
            for &d in supers_c.get(&o).map(Vec::as_slice).unwrap_or(&[]) {
                derive((s, rdf_type, d));
            }
        } else if p == domain {
            // rdfs2, schema side: retype existing subjects of the property.
            for &(s2, _) in ext.get(&s).map(Vec::as_slice).unwrap_or(&[]) {
                if !is_literal(s2) {
                    derive((s2, rdf_type, o));
                }
            }
        } else if p == range {
            // rdfs3, schema side.
            for &(_, o2) in ext.get(&s).map(Vec::as_slice).unwrap_or(&[]) {
                if !is_literal(o2) {
                    derive((o2, rdf_type, o));
                }
            }
        }

        // Data-side rules that apply to *every* fact.
        // rdfs7: (s p o), (p ⊑ q) ⊢ (s q o).
        for &q in supers_p.get(&p).map(Vec::as_slice).unwrap_or(&[]) {
            derive((s, q, o));
        }
        // rdfs2 / rdfs3: domain & range typing.
        if !is_literal(s) {
            for &c in dom.get(&p).map(Vec::as_slice).unwrap_or(&[]) {
                derive((s, rdf_type, c));
            }
        }
        if !is_literal(o) {
            for &c in rng.get(&p).map(Vec::as_slice).unwrap_or(&[]) {
                derive((o, rdf_type, c));
            }
        }
    }

    store.insert_ids(
        target_graph,
        all.into_iter().filter(|t| !original.contains(t)),
    )
}

/// All superclasses of `class` (transitive), not including itself, looked
/// up in the (already materialised or raw) graphs. Id-native: the walk
/// only materialises terms for its final answer.
pub fn superclasses(store: &TripleStore, graphs: &[&str], class: &Term) -> Vec<Term> {
    let dict = store.dictionary();
    let (Some(start), Some(sub_class)) =
        (dict.id_of(class), dict.id_of(&schema::rdfs_subclass_of()))
    else {
        return Vec::new();
    };
    let mut out: Vec<TermId> = Vec::new();
    let mut seen: HashSet<TermId> = HashSet::new();
    let mut frontier = vec![start];
    let mut matches = Vec::new();
    while let Some(c) = frontier.pop() {
        matches.clear();
        store.match_id_pattern(graphs, (Some(c), Some(sub_class), None), &mut matches);
        for &(_, _, sup) in &matches {
            if sup != start && seen.insert(sup) {
                out.push(sup);
                frontier.push(sup);
            }
        }
    }
    let reader = dict.reader();
    out.into_iter().map(|id| reader.term(id).clone()).collect()
}

/// All instances of `class`, including through subclasses (query-time
/// alternative to materialisation). Id-native walk, terms materialised
/// once at the end.
pub fn instances_of(store: &TripleStore, graphs: &[&str], class: &Term) -> Vec<Term> {
    let dict = store.dictionary();
    let Some(start) = dict.id_of(class) else {
        return Vec::new();
    };
    let rdf_type = dict.id_of(&schema::rdf_type());
    let sub_class = dict.id_of(&schema::rdfs_subclass_of());

    // classes = {class} ∪ subclasses*
    let mut classes = vec![start];
    let mut seen: HashSet<TermId> = std::iter::once(start).collect();
    let mut matches = Vec::new();
    if let Some(sub_class) = sub_class {
        let mut frontier = vec![start];
        while let Some(c) = frontier.pop() {
            matches.clear();
            store.match_id_pattern(graphs, (None, Some(sub_class), Some(c)), &mut matches);
            for &(sub, _, _) in &matches {
                if seen.insert(sub) {
                    classes.push(sub);
                    frontier.push(sub);
                }
            }
        }
    }
    let Some(rdf_type) = rdf_type else {
        return Vec::new();
    };
    let mut out: Vec<TermId> = Vec::new();
    let mut out_seen: HashSet<TermId> = HashSet::new();
    for c in classes {
        matches.clear();
        store.match_id_pattern(graphs, (None, Some(rdf_type), Some(c)), &mut matches);
        for &(inst, _, _) in &matches {
            if out_seen.insert(inst) {
                out.push(inst);
            }
        }
    }
    let reader = dict.reader();
    out.into_iter().map(|id| reader.term(id).clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Triple;

    fn iri(s: &str) -> Term {
        Term::iri(s)
    }

    fn setup() -> TripleStore {
        let store = TripleStore::new();
        let g = "kb";
        let sc = schema::rdfs_subclass_of();
        let ty = schema::rdf_type();
        store.insert(g, &Triple::new(iri("Metal"), sc.clone(), iri("Element"))).unwrap();
        store.insert(g, &Triple::new(iri("HeavyMetal"), sc.clone(), iri("Metal"))).unwrap();
        store.insert(g, &Triple::new(iri("Hg"), ty.clone(), iri("HeavyMetal"))).unwrap();
        store
    }

    #[test]
    fn subclass_transitivity() {
        let store = setup();
        let n = materialize_rdfs(&store, &["kb"], "inf").unwrap();
        assert!(n >= 1);
        assert!(store.contains(
            "inf",
            &Triple::new(iri("HeavyMetal"), schema::rdfs_subclass_of(), iri("Element"))
        ));
    }

    #[test]
    fn type_inheritance() {
        let store = setup();
        materialize_rdfs(&store, &["kb"], "inf").unwrap();
        let ty = schema::rdf_type();
        assert!(store.contains("inf", &Triple::new(iri("Hg"), ty.clone(), iri("Metal"))));
        assert!(store.contains("inf", &Triple::new(iri("Hg"), ty, iri("Element"))));
    }

    #[test]
    fn subproperty_inheritance() {
        let store = TripleStore::new();
        let sp = schema::rdfs_subproperty_of();
        store.insert("kb", &Triple::new(iri("oreAssemblage"), sp, iri("relatedTo"))).unwrap();
        store.insert(
            "kb",
            &Triple::new(iri("Hg"), iri("oreAssemblage"), iri("As")),
        ).unwrap();
        materialize_rdfs(&store, &["kb"], "inf").unwrap();
        assert!(store.contains("inf", &Triple::new(iri("Hg"), iri("relatedTo"), iri("As"))));
    }

    #[test]
    fn domain_and_range_typing() {
        let store = TripleStore::new();
        store.insert(
            "kb",
            &Triple::new(iri("analysedBy"), schema::rdfs_domain(), iri("Landfill")),
        ).unwrap();
        store.insert(
            "kb",
            &Triple::new(iri("analysedBy"), schema::rdfs_range(), iri("Lab")),
        ).unwrap();
        store.insert("kb", &Triple::new(iri("BasseDiStura"), iri("analysedBy"), iri("ArpaLab"))).unwrap();
        materialize_rdfs(&store, &["kb"], "inf").unwrap();
        let ty = schema::rdf_type();
        assert!(store.contains(
            "inf",
            &Triple::new(iri("BasseDiStura"), ty.clone(), iri("Landfill"))
        ));
        assert!(store.contains("inf", &Triple::new(iri("ArpaLab"), ty, iri("Lab"))));
    }

    #[test]
    fn idempotent_second_run() {
        let store = setup();
        let n1 = materialize_rdfs(&store, &["kb", "inf"], "inf").unwrap();
        assert!(n1 > 0);
        let n2 = materialize_rdfs(&store, &["kb", "inf"], "inf").unwrap();
        assert_eq!(n2, 0, "closure reached, nothing new");
    }

    #[test]
    fn cycle_terminates() {
        let store = TripleStore::new();
        let sc = schema::rdfs_subclass_of();
        store.insert("kb", &Triple::new(iri("A"), sc.clone(), iri("B"))).unwrap();
        store.insert("kb", &Triple::new(iri("B"), sc.clone(), iri("A"))).unwrap();
        // Must not loop forever.
        materialize_rdfs(&store, &["kb"], "inf").unwrap();
    }

    #[test]
    fn chain_closure_has_exact_size() {
        // A subclass chain C0 ⊑ C1 ⊑ … ⊑ C(n-1) with k instances of C0:
        // closure adds n(n-1)/2 − (n−1) subclass pairs and k·(n−1) types.
        let n = 12usize;
        let k = 7usize;
        let store = TripleStore::new();
        let sc = schema::rdfs_subclass_of();
        let ty = schema::rdf_type();
        for i in 0..n - 1 {
            store.insert(
                "kb",
                &Triple::new(iri(&format!("C{i}")), sc.clone(), iri(&format!("C{}", i + 1))),
            ).unwrap();
        }
        for j in 0..k {
            store.insert("kb", &Triple::new(iri(&format!("x{j}")), ty.clone(), iri("C0"))).unwrap();
        }
        let added = materialize_rdfs(&store, &["kb"], "inf").unwrap();
        let expected_subclass = n * (n - 1) / 2 - (n - 1);
        let expected_types = k * (n - 1);
        assert_eq!(added, expected_subclass + expected_types);
        // Spot check the farthest derivation.
        assert!(store.contains(
            "inf",
            &Triple::new(iri("x0"), ty, iri(&format!("C{}", n - 1)))
        ));
    }

    #[test]
    fn superclasses_query() {
        let store = setup();
        let sup = superclasses(&store, &["kb"], &iri("HeavyMetal"));
        assert_eq!(sup.len(), 2);
        assert!(sup.contains(&iri("Metal")));
        assert!(sup.contains(&iri("Element")));
    }

    #[test]
    fn instances_of_walks_subclasses() {
        let store = setup();
        let inst = instances_of(&store, &["kb"], &iri("Element"));
        assert_eq!(inst, vec![iri("Hg")]);
        let inst = instances_of(&store, &["kb"], &iri("HeavyMetal"));
        assert_eq!(inst, vec![iri("Hg")]);
    }
}
