//! Durability for the triple store: redo records and checkpoint
//! snapshots (channel [`crosse_wal::CHAN_RDF`] of the shared log).
//!
//! The log speaks **terms, never ids**: a redo record carries concrete
//! [`Term`]s, and replay re-interns them, so dictionary ids need not be
//! stable across recovery. The snapshot, by contrast, is id-based for
//! compactness — it serialises the dictionary (terms in id order) followed
//! by each graph's triples as `3×u32` ids, and restoring into a fresh
//! store re-interns the dictionary densely so the ids line up.

use crosse_wal::{Decoder, Encoder};

use crate::error::{Error, Result};
use crate::store::{Triple, TripleStore};
use crate::term::Term;

const OP_INSERT_ALL: u8 = 1;
const OP_REMOVE: u8 = 2;
const OP_DROP_GRAPH: u8 = 3;
const OP_ENSURE_GRAPH: u8 = 4;

/// One loggable triple-store mutation, borrowing the caller's data.
#[derive(Debug)]
pub enum RdfOp<'a> {
    /// One batch of triples inserted into `graph`; replayed all-or-nothing
    /// (set semantics make replay idempotent).
    InsertAll { graph: &'a str, triples: &'a [Triple] },
    Remove { graph: &'a str, triple: &'a Triple },
    DropGraph { graph: &'a str },
    EnsureGraph { graph: &'a str },
}

/// Serialise an op to its log payload.
pub fn encode_rdf_op(op: &RdfOp<'_>) -> Vec<u8> {
    let mut e = Encoder::new();
    match op {
        RdfOp::InsertAll { graph, triples } => {
            e.u8(OP_INSERT_ALL);
            e.str(graph);
            e.u32(triples.len() as u32);
            for t in *triples {
                encode_triple(&mut e, t);
            }
        }
        RdfOp::Remove { graph, triple } => {
            e.u8(OP_REMOVE);
            e.str(graph);
            encode_triple(&mut e, triple);
        }
        RdfOp::DropGraph { graph } => {
            e.u8(OP_DROP_GRAPH);
            e.str(graph);
        }
        RdfOp::EnsureGraph { graph } => {
            e.u8(OP_ENSURE_GRAPH);
            e.str(graph);
        }
    }
    e.into_vec()
}

/// Decode one payload and apply it to `store` **without re-logging** —
/// the replay path (no log is attached to a recovering store). The record
/// runs the same step its logged write ran (`TripleStore::apply`).
pub fn apply_rdf_op(store: &TripleStore, payload: &[u8]) -> Result<()> {
    let mut d = Decoder::new(payload);
    let tag = d.u8().map_err(Error::from)?;
    match tag {
        OP_INSERT_ALL => {
            let graph = d.str().map_err(Error::from)?;
            let n = d.u32().map_err(Error::from)?;
            let mut triples = Vec::with_capacity(n as usize);
            for _ in 0..n {
                triples.push(decode_triple(&mut d)?);
            }
            d.finish().map_err(Error::from)?;
            store.apply(&RdfOp::InsertAll { graph: &graph, triples: &triples });
        }
        OP_REMOVE => {
            let graph = d.str().map_err(Error::from)?;
            let triple = decode_triple(&mut d)?;
            d.finish().map_err(Error::from)?;
            store.apply(&RdfOp::Remove { graph: &graph, triple: &triple });
        }
        OP_DROP_GRAPH => {
            let graph = d.str().map_err(Error::from)?;
            d.finish().map_err(Error::from)?;
            store.apply(&RdfOp::DropGraph { graph: &graph });
        }
        OP_ENSURE_GRAPH => {
            let graph = d.str().map_err(Error::from)?;
            d.finish().map_err(Error::from)?;
            store.apply(&RdfOp::EnsureGraph { graph: &graph });
        }
        other => {
            return Err(Error::storage(format!("unknown RDF redo op tag {other}")))
        }
    }
    Ok(())
}

// ---- term / triple codec --------------------------------------------------

const TERM_IRI: u8 = 0;
const TERM_LIT: u8 = 1;
const TERM_TYPED_LIT: u8 = 2;
const TERM_BLANK: u8 = 3;

fn encode_term(e: &mut Encoder, t: &Term) {
    match t {
        Term::Iri(i) => {
            e.u8(TERM_IRI);
            e.str(i);
        }
        Term::Literal { value, datatype: None } => {
            e.u8(TERM_LIT);
            e.str(value);
        }
        Term::Literal { value, datatype: Some(dt) } => {
            e.u8(TERM_TYPED_LIT);
            e.str(value);
            e.str(dt);
        }
        Term::Blank(b) => {
            e.u8(TERM_BLANK);
            e.str(b);
        }
    }
}

fn decode_term(d: &mut Decoder<'_>) -> Result<Term> {
    Ok(match d.u8().map_err(Error::from)? {
        TERM_IRI => Term::Iri(d.str().map_err(Error::from)?),
        TERM_LIT => Term::Literal { value: d.str().map_err(Error::from)?, datatype: None },
        TERM_TYPED_LIT => {
            let value = d.str().map_err(Error::from)?;
            let dt = d.str().map_err(Error::from)?;
            Term::Literal { value, datatype: Some(dt) }
        }
        TERM_BLANK => Term::Blank(d.str().map_err(Error::from)?),
        other => return Err(Error::storage(format!("unknown term tag {other}"))),
    })
}

fn encode_triple(e: &mut Encoder, t: &Triple) {
    encode_term(e, &t.subject);
    encode_term(e, &t.predicate);
    encode_term(e, &t.object);
}

fn decode_triple(d: &mut Decoder<'_>) -> Result<Triple> {
    Ok(Triple::new(decode_term(d)?, decode_term(d)?, decode_term(d)?))
}

// ---- snapshot --------------------------------------------------------------

/// One pinned graph: name plus its id-triples.
type GraphPin = (String, Vec<(u32, u32, u32)>);

/// A frozen copy of the whole store: dictionary terms in id order plus
/// each graph's id-triples. Produced by [`pin_store`] under the checkpoint
/// barrier; serialised off-thread by [`encode_store`].
#[derive(Debug)]
pub struct StorePin {
    terms: Vec<Term>,
    graphs: Vec<GraphPin>,
}

/// Freeze the store. Graphs are pinned first, the dictionary after — the
/// dictionary only grows, so every id referenced by a pinned graph
/// resolves. Under the barrier the two reads are one consistent cut
/// anyway; the ordering makes the pin safe even for barrier-less callers
/// (tests).
pub fn pin_store(store: &TripleStore) -> StorePin {
    let graphs = store
        .pin_graphs()
        .into_iter()
        .map(|(name, ts)| {
            (name, ts.into_iter().map(|(s, p, o)| (s.0, p.0, o.0)).collect())
        })
        .collect();
    let terms = store.dictionary().terms_snapshot();
    StorePin { terms, graphs }
}

/// Serialise a pinned store to one snapshot section body.
pub fn encode_store(pin: &StorePin) -> Vec<u8> {
    let mut e = Encoder::with_capacity(4096);
    e.u32(pin.terms.len() as u32);
    for t in &pin.terms {
        encode_term(&mut e, t);
    }
    e.u32(pin.graphs.len() as u32);
    for (name, triples) in &pin.graphs {
        e.str(name);
        e.u64(triples.len() as u64);
        for &(s, p, o) in triples {
            e.u32(s);
            e.u32(p);
            e.u32(o);
        }
    }
    e.into_vec()
}

/// Rebuild a store from an encoded snapshot section. The store must be
/// fresh (empty dictionary) so that re-interning the dictionary in order
/// reproduces the snapshot's dense ids.
pub fn decode_store(store: &TripleStore, bytes: &[u8]) -> Result<()> {
    if !store.dictionary().is_empty() || !store.graph_names().is_empty() {
        return Err(Error::storage(
            "snapshot must be restored into a fresh triple store",
        ));
    }
    let mut d = Decoder::new(bytes);
    let nterms = d.u32().map_err(Error::from)?;
    let dict = store.dictionary();
    for i in 0..nterms {
        let term = decode_term(&mut d)?;
        let id = dict.intern(&term);
        if id.0 != i {
            return Err(Error::storage(format!(
                "snapshot dictionary has duplicate term at id {i}"
            )));
        }
    }
    let ngraphs = d.u32().map_err(Error::from)?;
    for _ in 0..ngraphs {
        let name = d.str().map_err(Error::from)?;
        let ntriples = d.u64().map_err(Error::from)?;
        let mut ids = Vec::with_capacity(ntriples.min(1 << 20) as usize);
        for _ in 0..ntriples {
            let s = d.u32().map_err(Error::from)?;
            let p = d.u32().map_err(Error::from)?;
            let o = d.u32().map_err(Error::from)?;
            if s >= nterms || p >= nterms || o >= nterms {
                return Err(Error::storage(format!(
                    "snapshot triple references unknown term id in graph `{name}`"
                )));
            }
            ids.push((
                crate::term::TermId(s),
                crate::term::TermId(p),
                crate::term::TermId(o),
            ));
        }
        store.restore_graph(&name, ids);
    }
    d.finish().map_err(Error::from)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::TriplePattern;
    use crosse_wal::{RedoLog, WalOptions, WalStore, CHAN_RDF};

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(Term::iri(s), Term::iri(p), Term::lit(o))
    }

    fn seeded() -> TripleStore {
        let store = TripleStore::new();
        store.insert("u1", &t("Hg", "dangerLevel", "5")).unwrap();
        store.insert("u1", &t("Pb", "dangerLevel", "4")).unwrap();
        store.insert("u2", &t("Hg", "dangerLevel", "5")).unwrap();
        store.insert(
            "u2",
            &Triple::new(
                Term::blank("b0"),
                Term::iri("p"),
                Term::typed_lit("3", "http://www.w3.org/2001/XMLSchema#integer"),
            ),
        ).unwrap();
        store.ensure_graph("empty").unwrap();
        store
    }

    #[test]
    fn redo_ops_roundtrip_through_apply() {
        let src = seeded();
        let dst = TripleStore::new();
        // Rebuild dst from ops only.
        for graph in src.graph_names() {
            apply_rdf_op(&dst, &encode_rdf_op(&RdfOp::EnsureGraph { graph: &graph }))
                .unwrap();
            let triples = src.graph_triples(&graph);
            apply_rdf_op(
                &dst,
                &encode_rdf_op(&RdfOp::InsertAll { graph: &graph, triples: &triples }),
            )
            .unwrap();
        }
        assert_eq!(dst.len(), src.len());
        assert!(dst.has_graph("empty"));
        assert!(dst.contains("u1", &t("Hg", "dangerLevel", "5")));

        apply_rdf_op(
            &dst,
            &encode_rdf_op(&RdfOp::Remove { graph: "u1", triple: &t("Pb", "dangerLevel", "4") }),
        )
        .unwrap();
        assert!(!dst.contains("u1", &t("Pb", "dangerLevel", "4")));
        apply_rdf_op(&dst, &encode_rdf_op(&RdfOp::DropGraph { graph: "u2" })).unwrap();
        assert!(!dst.has_graph("u2"));
    }

    #[test]
    fn logged_writes_replay_to_the_same_graphs_and_version_moves() {
        let dir = std::env::temp_dir()
            .join(format!("crosse-rdfwal-{}-replay", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (wal, _) = WalStore::open(&dir, WalOptions::default()).unwrap();
        let src = TripleStore::new();
        src.attach_sink(RedoLog::new(wal, CHAN_RDF));
        let (a, b) = (t("Hg", "dangerLevel", "5"), t("Pb", "dangerLevel", "4"));
        let mut logged_moves: Vec<u64> = Vec::new();
        let mut write = |write: &dyn Fn(&TripleStore)| {
            let before = src.version();
            write(&src);
            logged_moves.push(src.version() - before);
        };
        write(&|s| s.ensure_graph("empty").unwrap());
        write(&|s| assert_eq!(s.insert_all("g", [&a, &b]).unwrap(), 2));
        write(&|s| assert_eq!(s.insert_all("g", [&a]).unwrap(), 0));
        write(&|s| {
            let id = |term| s.dictionary().id_of(term).unwrap();
            let ids = (id(&a.subject), id(&a.predicate), id(&a.object));
            assert_eq!(s.insert_ids("h", [ids]).unwrap(), 1);
        });
        write(&|s| assert!(s.remove("g", &b).unwrap()));
        write(&|s| s.drop_graph("h").unwrap());
        // An empty batch into a missing graph creates it, so it logs.
        write(&|s| assert_eq!(s.insert_all("fresh", []).unwrap(), 0));
        let (_, recovered) = WalStore::open(&dir, WalOptions::default()).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(recovered.records.len(), logged_moves.len(), "each write logs one record");
        let replayed = TripleStore::new();
        let replayed_moves: Vec<u64> = recovered
            .records
            .iter()
            .map(|record| {
                let before = replayed.version();
                apply_rdf_op(&replayed, &record.payload).unwrap();
                replayed.version() - before
            })
            .collect();
        assert_eq!(replayed_moves, logged_moves);
        assert_eq!(replayed.graph_names(), ["empty", "fresh", "g"]);
        assert_eq!(replayed.graph_names(), src.graph_names());
        for graph in src.graph_names() {
            assert_eq!(replayed.graph_triples(&graph), src.graph_triples(&graph), "{graph}");
        }
        assert_eq!(replayed.graph_triples("g"), std::slice::from_ref(&a));
    }

    #[test]
    fn snapshot_roundtrip_preserves_graphs_and_term_kinds() {
        let src = seeded();
        let bytes = encode_store(&pin_store(&src));
        let dst = TripleStore::new();
        decode_store(&dst, &bytes).unwrap();
        assert_eq!(dst.len(), src.len());
        assert!(dst.has_graph("empty"));
        // Term kinds survive: the typed literal matches only as itself.
        let found = dst.match_pattern(
            &["u2"],
            &TriplePattern {
                subject: None,
                predicate: Some(Term::iri("p")),
                object: None,
            },
        );
        assert_eq!(found.len(), 1);
        assert_eq!(
            found[0].object,
            Term::typed_lit("3", "http://www.w3.org/2001/XMLSchema#integer")
        );
        assert!(matches!(found[0].subject, Term::Blank(_)));
    }

    #[test]
    fn snapshot_into_dirty_store_is_rejected() {
        let src = seeded();
        let bytes = encode_store(&pin_store(&src));
        let dst = TripleStore::new();
        dst.insert("g", &t("a", "p", "c")).unwrap();
        let err = decode_store(&dst, &bytes).unwrap_err();
        assert!(matches!(err, Error::Storage(_)), "{err}");
    }

    #[test]
    fn corrupt_payloads_are_typed_errors() {
        let src = seeded();
        let snap = encode_store(&pin_store(&src));
        for cut in [1usize, 5, snap.len() - 2] {
            let dst = TripleStore::new();
            let err = decode_store(&dst, &snap[..cut]).unwrap_err();
            assert!(matches!(err, Error::Storage(_)), "{err}");
        }
        let op = encode_rdf_op(&RdfOp::Remove { graph: "g", triple: &t("a", "b", "c") });
        let dst = TripleStore::new();
        for cut in [1usize, 3, op.len() - 1] {
            let err = apply_rdf_op(&dst, &op[..cut]).unwrap_err();
            assert!(matches!(err, Error::Storage(_)), "{err}");
        }
        assert!(apply_rdf_op(&dst, &[77]).is_err());
    }

    #[test]
    fn snapshot_with_out_of_range_id_is_typed_error() {
        let mut e = Encoder::new();
        e.u32(1); // one term
        e.u8(0);
        e.str("a");
        e.u32(1); // one graph
        e.str("g");
        e.u64(1);
        e.u32(0);
        e.u32(9); // unknown id
        e.u32(0);
        let dst = TripleStore::new();
        let err = decode_store(&dst, e.as_slice()).unwrap_err();
        assert!(err.to_string().contains("unknown term id"), "{err}");
    }
}
