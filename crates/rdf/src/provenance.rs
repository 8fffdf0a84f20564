//! Per-user knowledge bases with statement provenance (paper Fig. 4).
//!
//! Every user statement is stored twice, mirroring the CroSSE design:
//!
//! 1. as a **direct triple** in the asserting user's personal graph — this
//!    is what SESQL queries against as the user's context;
//! 2. as a **reified statement** in the shared metadata graph, typed
//!    `smg:Statement` with `rdf:subject` / `rdf:predicate` / `rdf:object`,
//!    connected to its author by `smg:userStatement`.
//!
//! Statements are public: any user can browse them and *accept* one as
//! their own, which records an `smg:userBelief` edge and copies the direct
//! triple into the accepting user's personal graph ("It is the personal
//! knowledge base that will constitute the context in which a user's query
//! will be evaluated", Sec. III-A).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::persist::RdfOp;
use crate::schema;
use crate::store::{Triple, TriplePattern, TripleStore};
use crate::term::Term;

/// Identifier of a reified statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StatementId(pub u64);

/// Name of the shared metadata graph.
pub const META_GRAPH: &str = "crosse:meta";
/// Name of the shared/common ontology graph visible to all users.
pub const COMMON_GRAPH: &str = "crosse:common";
/// Graph holding RDFS-inferred triples over the common ontology.
pub const INFERRED_GRAPH: &str = "crosse:inferred";

/// Personal graph name for a user.
pub fn user_graph(user: &str) -> String {
    format!("crosse:user:{user}")
}

/// A public statement listing entry.
#[derive(Debug, Clone, PartialEq)]
pub struct StatementInfo {
    pub id: StatementId,
    pub author: String,
    pub triple: Triple,
    /// Users who accepted this statement as their own belief.
    pub believers: Vec<String>,
}

/// The CroSSE knowledge base: a triple store plus provenance management.
#[derive(Debug, Clone)]
pub struct KnowledgeBase {
    store: TripleStore,
    next_statement: Arc<AtomicU64>,
}

impl Default for KnowledgeBase {
    fn default() -> Self {
        Self::new()
    }
}

impl KnowledgeBase {
    pub fn new() -> Self {
        let store = TripleStore::new();
        store.apply(&RdfOp::EnsureGraph { graph: META_GRAPH });
        store.apply(&RdfOp::EnsureGraph { graph: COMMON_GRAPH });
        KnowledgeBase { store, next_statement: Arc::new(AtomicU64::new(0)) }
    }

    /// Access the underlying store (the SESQL layer evaluates SPARQL on it).
    pub fn store(&self) -> &TripleStore {
        &self.store
    }

    /// Wrap a recovered [`TripleStore`] as a knowledge base. The statement
    /// counter is not persisted separately — it is rebuilt by scanning the
    /// metadata graph for reified statement nodes and continuing after the
    /// highest id, so recovered knowledge bases never re-mint a used id.
    /// Fails if the store cannot log the two graphs it creates.
    pub fn from_store(store: TripleStore) -> Result<Self> {
        store.ensure_graph(META_GRAPH)?;
        store.ensure_graph(COMMON_GRAPH)?;
        let next = store
            .match_pattern(
                &[META_GRAPH],
                &TriplePattern {
                    subject: None,
                    predicate: Some(schema::rdf_type()),
                    object: Some(schema::statement_class()),
                },
            )
            .iter()
            .filter_map(|t| parse_statement_node(&t.subject))
            .map(|id| id.0 + 1)
            .max()
            .unwrap_or(0);
        Ok(KnowledgeBase { store, next_statement: Arc::new(AtomicU64::new(next)) })
    }

    /// Register a user; idempotent.
    pub fn register_user(&self, user: &str) -> Result<()> {
        self.store.ensure_graph(&user_graph(user))?;
        self.store.insert(
            META_GRAPH,
            &Triple::new(schema::user_iri(user), schema::rdf_type(), schema::user_class()),
        )?;
        Ok(())
    }

    pub fn is_registered(&self, user: &str) -> bool {
        self.store.contains(
            META_GRAPH,
            &Triple::new(schema::user_iri(user), schema::rdf_type(), schema::user_class()),
        )
    }

    /// All registered user names (local names of `smg:User` instances).
    pub fn users(&self) -> Vec<String> {
        self.store
            .match_pattern(
                &[META_GRAPH],
                &TriplePattern {
                    subject: None,
                    predicate: Some(schema::rdf_type()),
                    object: Some(schema::user_class()),
                },
            )
            .into_iter()
            .map(|t| {
                t.subject
                    .local_name()
                    .to_string()
            })
            .collect()
    }

    fn require_user(&self, user: &str) -> Result<()> {
        if self.is_registered(user) {
            Ok(())
        } else {
            Err(Error::store(format!("user `{user}` is not registered")))
        }
    }

    /// Assert a statement: direct triple in the user's graph + reified
    /// statement with provenance in the metadata graph.
    pub fn assert_statement(&self, user: &str, triple: &Triple) -> Result<StatementId> {
        self.require_user(user)?;
        // If this user already asserted the identical triple, return the
        // existing statement instead of minting a duplicate.
        if let Some(existing) = self.find_statement(triple) {
            let stmt_node = schema::statement_iri(existing.0);
            let already_author = self.store.contains(
                META_GRAPH,
                &Triple::new(schema::user_iri(user), schema::user_statement(), stmt_node),
            );
            if already_author {
                return Ok(existing);
            }
            // Statement exists from another author: record this user as an
            // additional asserter and copy the direct triple.
            self.store.insert(
                META_GRAPH,
                &Triple::new(
                    schema::user_iri(user),
                    schema::user_statement(),
                    schema::statement_iri(existing.0),
                ),
            )?;
            self.store.insert(&user_graph(user), triple)?;
            return Ok(existing);
        }

        let id = StatementId(self.next_statement.fetch_add(1, Ordering::Relaxed));
        let node = schema::statement_iri(id.0);
        // The whole reification cluster goes in as one batch: one redo
        // record instead of five, so a recovered log never holds a
        // half-reified statement and group commit amortises the writes.
        let meta = [
            Triple::new(node.clone(), schema::rdf_type(), schema::statement_class()),
            Triple::new(node.clone(), schema::rdf_subject(), triple.subject.clone()),
            Triple::new(node.clone(), schema::rdf_predicate(), triple.predicate.clone()),
            Triple::new(node.clone(), schema::rdf_object(), triple.object.clone()),
            Triple::new(schema::user_iri(user), schema::user_statement(), node),
        ];
        self.store.insert_all(META_GRAPH, &meta)?;
        self.store.insert(&user_graph(user), triple)?;
        Ok(id)
    }

    /// Find a reified statement matching the triple exactly.
    pub fn find_statement(&self, triple: &Triple) -> Option<StatementId> {
        // statements with matching rdf:subject
        let with_subject = self.store.match_pattern(
            &[META_GRAPH],
            &TriplePattern {
                subject: None,
                predicate: Some(schema::rdf_subject()),
                object: Some(triple.subject.clone()),
            },
        );
        for t in with_subject {
            let node = t.subject;
            let p_ok = self.store.contains(
                META_GRAPH,
                &Triple::new(node.clone(), schema::rdf_predicate(), triple.predicate.clone()),
            );
            let o_ok = self.store.contains(
                META_GRAPH,
                &Triple::new(node.clone(), schema::rdf_object(), triple.object.clone()),
            );
            if p_ok && o_ok {
                return parse_statement_node(&node);
            }
        }
        None
    }

    /// Reconstruct the triple of a statement.
    pub fn statement_triple(&self, id: StatementId) -> Result<Triple> {
        let node = schema::statement_iri(id.0);
        let get = |pred: Term| -> Result<Term> {
            self.store
                .match_pattern(
                    &[META_GRAPH],
                    &TriplePattern {
                        subject: Some(node.clone()),
                        predicate: Some(pred),
                        object: None,
                    },
                )
                .pop()
                .map(|t| t.object)
                .ok_or_else(|| Error::store(format!("statement {} not found", id.0)))
        };
        Ok(Triple::new(
            get(schema::rdf_subject())?,
            get(schema::rdf_predicate())?,
            get(schema::rdf_object())?,
        ))
    }

    /// Accept another user's statement as one's own belief: records the
    /// `userBelief` edge and copies the direct triple into the accepting
    /// user's personal graph.
    pub fn accept_statement(&self, user: &str, id: StatementId) -> Result<()> {
        self.require_user(user)?;
        let triple = self.statement_triple(id)?;
        self.store.insert(
            META_GRAPH,
            &Triple::new(
                schema::user_iri(user),
                schema::user_belief(),
                schema::statement_iri(id.0),
            ),
        )?;
        self.store.insert(&user_graph(user), &triple)?;
        Ok(())
    }

    /// Retract a user's belief/assertion: removes the direct triple from
    /// the personal graph and the user's provenance edge. The reified
    /// statement stays (other users may still believe it).
    pub fn retract(&self, user: &str, id: StatementId) -> Result<()> {
        self.require_user(user)?;
        let triple = self.statement_triple(id)?;
        self.store.remove(&user_graph(user), &triple)?;
        let node = schema::statement_iri(id.0);
        self.store.remove(
            META_GRAPH,
            &Triple::new(schema::user_iri(user), schema::user_statement(), node.clone()),
        )?;
        self.store.remove(
            META_GRAPH,
            &Triple::new(schema::user_iri(user), schema::user_belief(), node),
        )?;
        Ok(())
    }

    /// Public statement browser: all reified statements with authorship and
    /// believer lists (crowdsourced annotation scenario, Sec. III-A).
    pub fn public_statements(&self) -> Vec<StatementInfo> {
        let nodes = self.store.match_pattern(
            &[META_GRAPH],
            &TriplePattern {
                subject: None,
                predicate: Some(schema::rdf_type()),
                object: Some(schema::statement_class()),
            },
        );
        let mut out = Vec::new();
        for n in nodes {
            let Some(id) = parse_statement_node(&n.subject) else { continue };
            let Ok(triple) = self.statement_triple(id) else { continue };
            let author = self
                .edge_users(schema::user_statement(), &n.subject)
                .into_iter()
                .next()
                .unwrap_or_default();
            let believers = self.edge_users(schema::user_belief(), &n.subject);
            out.push(StatementInfo { id, author, triple, believers });
        }
        out.sort_by_key(|s| s.id);
        out
    }

    fn edge_users(&self, predicate: Term, node: &Term) -> Vec<String> {
        let mut users: Vec<String> = self
            .store
            .match_pattern(
                &[META_GRAPH],
                &TriplePattern {
                    subject: None,
                    predicate: Some(predicate),
                    object: Some(node.clone()),
                },
            )
            .into_iter()
            .map(|t| t.subject.local_name().to_string())
            .collect();
        users.sort();
        users
    }

    /// Statements authored by a user.
    pub fn statements_by(&self, user: &str) -> Vec<StatementId> {
        let mut ids: Vec<StatementId> = self
            .store
            .match_pattern(
                &[META_GRAPH],
                &TriplePattern {
                    subject: Some(schema::user_iri(user)),
                    predicate: Some(schema::user_statement()),
                    object: None,
                },
            )
            .into_iter()
            .filter_map(|t| parse_statement_node(&t.object))
            .collect();
        ids.sort();
        ids
    }

    /// Statements a user accepted from others.
    pub fn beliefs_of(&self, user: &str) -> Vec<StatementId> {
        let mut ids: Vec<StatementId> = self
            .store
            .match_pattern(
                &[META_GRAPH],
                &TriplePattern {
                    subject: Some(schema::user_iri(user)),
                    predicate: Some(schema::user_belief()),
                    object: None,
                },
            )
            .into_iter()
            .filter_map(|t| parse_statement_node(&t.object))
            .collect();
        ids.sort();
        ids
    }

    /// Attach a bibliographic reference to a statement (Fig. 4's
    /// `smg:Reference` with title / author / link).
    pub fn attach_reference(
        &self,
        id: StatementId,
        title: &str,
        author: &str,
        link: &str,
    ) -> Result<()> {
        // Reference nodes reuse the statement id — one reference per call
        // is enough for the reproduction; multiple calls add more triples
        // onto the same node.
        self.statement_triple(id)?; // existence check
        let node = schema::reference_iri(id.0);
        let stmt = schema::statement_iri(id.0);
        self.store.insert(
            META_GRAPH,
            &Triple::new(node.clone(), schema::rdf_type(), schema::reference_class()),
        )?;
        self.store.insert(META_GRAPH, &Triple::new(stmt, schema::stm_reference(), node.clone()))?;
        self.store
            .insert(META_GRAPH, &Triple::new(node.clone(), schema::ref_title(), Term::lit(title)))?;
        self.store
            .insert(META_GRAPH, &Triple::new(node.clone(), schema::ref_author(), Term::lit(author)))?;
        self.store.insert(META_GRAPH, &Triple::new(node, schema::ref_link(), Term::lit(link)))?;
        Ok(())
    }

    /// Load shared ontology triples into the common graph.
    pub fn load_common(&self, triples: &[Triple]) -> Result<usize> {
        self.store.insert_all(COMMON_GRAPH, triples.iter())
    }

    /// Run RDFS materialisation over common + a user's graph into the
    /// shared inferred graph.
    pub fn materialize_inferences(&self) -> Result<usize> {
        crate::reasoner::materialize_rdfs(
            &self.store,
            &[COMMON_GRAPH],
            INFERRED_GRAPH,
        )
    }

    /// The graphs forming a user's query context: personal graph (own +
    /// accepted statements), the common ontology, and inferences.
    pub fn context_graphs(&self, user: &str) -> Vec<String> {
        vec![
            user_graph(user),
            COMMON_GRAPH.to_string(),
            INFERRED_GRAPH.to_string(),
        ]
    }

    /// Prepare and execute a parameter-free SPARQL SELECT in a user's
    /// context.
    pub fn query_as(
        &self,
        user: &str,
        sparql: &str,
    ) -> Result<crate::sparql::eval::Solutions> {
        self.require_user(user)?;
        let graphs = self.context_graphs(user);
        let refs: Vec<&str> = graphs.iter().map(String::as_str).collect();
        crate::sparql::eval::query(&self.store, &refs, sparql)
    }

    /// Number of direct triples in a user's personal graph.
    pub fn personal_size(&self, user: &str) -> usize {
        self.store.graph_len(&user_graph(user))
    }
}

fn parse_statement_node(node: &Term) -> Option<StatementId> {
    let Term::Iri(iri) = node else { return None };
    let local = iri.rsplit('/').next()?;
    local.parse().ok().map(StatementId)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
    }

    fn kb() -> KnowledgeBase {
        let kb = KnowledgeBase::new();
        kb.register_user("alice").unwrap();
        kb.register_user("bob").unwrap();
        kb
    }

    #[test]
    fn register_and_list_users() {
        let kb = kb();
        let mut users = kb.users();
        users.sort();
        assert_eq!(users, vec!["alice", "bob"]);
        assert!(kb.is_registered("alice"));
        assert!(!kb.is_registered("carol"));
    }

    #[test]
    fn unregistered_user_cannot_assert() {
        let kb = kb();
        assert!(kb.assert_statement("carol", &t("a", "b", "c")).is_err());
    }

    #[test]
    fn assert_creates_direct_and_reified() {
        let kb = kb();
        let id = kb.assert_statement("alice", &t("Hg", "isA", "HazardousWaste")).unwrap();
        // direct triple in alice's graph
        assert_eq!(kb.personal_size("alice"), 1);
        // reified statement reconstructable
        assert_eq!(kb.statement_triple(id).unwrap(), t("Hg", "isA", "HazardousWaste"));
        // provenance
        assert_eq!(kb.statements_by("alice"), vec![id]);
        assert!(kb.statements_by("bob").is_empty());
    }

    #[test]
    fn duplicate_assert_returns_same_id() {
        let kb = kb();
        let a = kb.assert_statement("alice", &t("x", "p", "y")).unwrap();
        let b = kb.assert_statement("alice", &t("x", "p", "y")).unwrap();
        assert_eq!(a, b);
        assert_eq!(kb.public_statements().len(), 1);
    }

    #[test]
    fn same_triple_from_two_users_shares_statement() {
        let kb = kb();
        let a = kb.assert_statement("alice", &t("x", "p", "y")).unwrap();
        let b = kb.assert_statement("bob", &t("x", "p", "y")).unwrap();
        assert_eq!(a, b);
        assert_eq!(kb.statements_by("bob"), vec![b]);
        assert_eq!(kb.personal_size("bob"), 1);
    }

    #[test]
    fn accept_copies_triple_and_records_belief() {
        let kb = kb();
        let id = kb.assert_statement("alice", &t("Hg", "dangerLevel", "5")).unwrap();
        assert_eq!(kb.personal_size("bob"), 0);
        kb.accept_statement("bob", id).unwrap();
        assert_eq!(kb.personal_size("bob"), 1);
        assert_eq!(kb.beliefs_of("bob"), vec![id]);
        // Bob's context now answers queries over the accepted triple.
        let sols = kb
            .query_as("bob", "SELECT ?o WHERE { <Hg> <dangerLevel> ?o }")
            .unwrap();
        assert_eq!(sols.len(), 1);
    }

    #[test]
    fn contexts_are_isolated() {
        let kb = kb();
        kb.assert_statement("alice", &t("Hg", "dangerLevel", "5")).unwrap();
        let sols = kb
            .query_as("bob", "SELECT ?o WHERE { <Hg> <dangerLevel> ?o }")
            .unwrap();
        assert!(sols.is_empty(), "bob has not accepted alice's statement");
    }

    #[test]
    fn conflicting_statements_coexist() {
        // "no centralized control on the correctness and/or consistency of
        // the crowdsourced knowledge" (Sec. III-A).
        let kb = kb();
        kb.assert_statement("alice", &t("Hg", "dangerLevel", "5")).unwrap();
        kb.assert_statement("bob", &t("Hg", "dangerLevel", "1")).unwrap();
        let a = kb.query_as("alice", "SELECT ?o WHERE { <Hg> <dangerLevel> ?o }").unwrap();
        let b = kb.query_as("bob", "SELECT ?o WHERE { <Hg> <dangerLevel> ?o }").unwrap();
        assert_eq!(a.rows[0][0].as_ref().unwrap().lexical_form(), "5");
        assert_eq!(b.rows[0][0].as_ref().unwrap().lexical_form(), "1");
    }

    #[test]
    fn retract_removes_direct_but_keeps_statement_for_believers() {
        let kb = kb();
        let id = kb.assert_statement("alice", &t("x", "p", "y")).unwrap();
        kb.accept_statement("bob", id).unwrap();
        kb.retract("alice", id).unwrap();
        assert_eq!(kb.personal_size("alice"), 0);
        // Bob still believes it.
        assert_eq!(kb.personal_size("bob"), 1);
        assert_eq!(kb.statement_triple(id).unwrap(), t("x", "p", "y"));
    }

    #[test]
    fn public_statement_listing() {
        let kb = kb();
        let id1 = kb.assert_statement("alice", &t("Hg", "isA", "Hazard")).unwrap();
        let id2 = kb.assert_statement("bob", &t("Pb", "isA", "Hazard")).unwrap();
        kb.accept_statement("bob", id1).unwrap();
        let stmts = kb.public_statements();
        assert_eq!(stmts.len(), 2);
        let s1 = stmts.iter().find(|s| s.id == id1).unwrap();
        assert_eq!(s1.author, "alice");
        assert_eq!(s1.believers, vec!["bob"]);
        let s2 = stmts.iter().find(|s| s.id == id2).unwrap();
        assert_eq!(s2.author, "bob");
        assert!(s2.believers.is_empty());
    }

    #[test]
    fn references_attach() {
        let kb = kb();
        let id = kb.assert_statement("alice", &t("Hg", "isA", "Hazard")).unwrap();
        kb.attach_reference(id, "WHO guidelines", "WHO", "http://who.int").unwrap();
        let refs = kb.store().match_pattern(
            &[META_GRAPH],
            &TriplePattern {
                subject: Some(schema::statement_iri(id.0)),
                predicate: Some(schema::stm_reference()),
                object: None,
            },
        );
        assert_eq!(refs.len(), 1);
        assert!(kb.attach_reference(StatementId(999), "x", "y", "z").is_err());
    }

    #[test]
    fn from_store_resumes_statement_ids_after_the_highest() {
        let kb = kb();
        let a = kb.assert_statement("alice", &t("x", "p", "y")).unwrap();
        let b = kb.assert_statement("alice", &t("x", "p", "z")).unwrap();
        assert!(b > a);
        // Simulate recovery: rebuild the KB from the store alone.
        let recovered = KnowledgeBase::from_store(kb.store().clone()).unwrap();
        let c = recovered.assert_statement("alice", &t("x", "p", "w")).unwrap();
        assert!(c > b, "recovered counter must not re-mint {b:?}");
        assert_eq!(recovered.statement_triple(a).unwrap(), t("x", "p", "y"));
        assert_eq!(recovered.public_statements().len(), 3);
    }

    #[test]
    fn common_graph_visible_to_all() {
        let kb = kb();
        kb.load_common(&[t("Torino", "inCountry", "Italy")]).unwrap();
        let a = kb.query_as("alice", "SELECT ?c WHERE { <Torino> <inCountry> ?c }").unwrap();
        let b = kb.query_as("bob", "SELECT ?c WHERE { <Torino> <inCountry> ?c }").unwrap();
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn inference_over_common() {
        let kb = kb();
        kb.load_common(&[
            Triple::new(Term::iri("HeavyMetal"), schema::rdfs_subclass_of(), Term::iri("Hazard")),
            Triple::new(Term::iri("Hg"), schema::rdf_type(), Term::iri("HeavyMetal")),
        ]).unwrap();
        let n = kb.materialize_inferences().unwrap();
        assert!(n >= 1);
        let sols = kb
            .query_as("alice", "SELECT ?x WHERE { ?x rdf:type <Hazard> }")
            .unwrap();
        assert_eq!(sols.len(), 1);
    }
}
