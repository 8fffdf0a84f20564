//! Named stored SPARQL queries.
//!
//! Paper Example 4.5 enriches a WHERE clause via `dangerQuery`, "not a
//! property name occurring in stored triples, while it refers to a SPARQL
//! query which extracts from the contextual ontology the list of dangerous
//! elements". This registry holds such queries, validated at registration
//! time.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::error::{Error, Result};
use crate::sparql::ast::ParsedQuery;
use crate::sparql::parser::parse_query;
use crate::sparql::Prepared;

/// A registry of named, compiled SPARQL queries. Cheap to clone.
#[derive(Debug, Clone)]
pub struct StoredQueries {
    inner: Arc<RwLock<HashMap<String, Arc<StoredQuery>>>>,
}

impl Default for StoredQueries {
    fn default() -> Self {
        StoredQueries {
            inner: Arc::new(RwLock::new_labeled("rdf.stored_queries", HashMap::new())),
        }
    }
}

/// A registered query and its metadata.
#[derive(Debug)]
pub struct StoredQuery {
    pub name: String,
    pub sparql: String,
    /// The compiled query; every execution resolves it against the store
    /// afresh.
    pub prepared: Prepared,
    /// The variable whose bindings form the query's "result list". Defaults
    /// to the first projected variable.
    pub output_variable: String,
}

impl StoredQueries {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) a stored query. The query must project at
    /// least one variable explicitly (SELECT * is rejected: the consumer
    /// needs a deterministic output column).
    pub fn register(&self, name: &str, sparql: &str) -> Result<()> {
        let query = parse_query(sparql)?;
        let Some(first) = query.variables.first().cloned() else {
            return Err(Error::store(format!(
                "stored query `{name}` must project an explicit variable (not `*`)"
            )));
        };
        let sq = StoredQuery {
            name: name.to_string(),
            sparql: sparql.to_string(),
            prepared: Prepared::compile(&ParsedQuery::Select(query))?,
            output_variable: first,
        };
        self.inner.write().insert(name.to_string(), Arc::new(sq));
        Ok(())
    }

    pub fn get(&self, name: &str) -> Option<Arc<StoredQuery>> {
        self.inner.read().get(name).cloned()
    }

    pub fn contains(&self, name: &str) -> bool {
        self.inner.read().contains_key(name)
    }

    pub fn remove(&self, name: &str) -> Result<()> {
        self.inner
            .write()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| Error::store(format!("no stored query named `{name}`")))
    }

    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.inner.read().keys().cloned().collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DANGER_QUERY: &str =
        "SELECT ?e WHERE { ?e <dangerLevel> ?d . FILTER(?d >= 4) }";

    #[test]
    fn register_and_get() {
        let reg = StoredQueries::new();
        reg.register("dangerQuery", DANGER_QUERY).unwrap();
        let q = reg.get("dangerQuery").unwrap();
        assert_eq!(q.output_variable, "e");
        assert_eq!(q.name, "dangerQuery");
        assert!(reg.contains("dangerQuery"));
        assert!(!reg.contains("other"));
    }

    #[test]
    fn invalid_sparql_rejected() {
        let reg = StoredQueries::new();
        assert!(reg.register("bad", "SELECT WHERE {").is_err());
        assert!(!reg.contains("bad"));
    }

    #[test]
    fn select_star_rejected() {
        let reg = StoredQueries::new();
        assert!(reg.register("star", "SELECT * WHERE { ?s ?p ?o }").is_err());
    }

    #[test]
    fn replace_and_remove() {
        let reg = StoredQueries::new();
        reg.register("q", DANGER_QUERY).unwrap();
        reg.register("q", "SELECT ?x WHERE { ?x <isA> <Hazard> }").unwrap();
        assert_eq!(reg.get("q").unwrap().output_variable, "x");
        reg.remove("q").unwrap();
        assert!(reg.remove("q").is_err());
    }

    #[test]
    fn held_stored_query_sees_terms_inserted_later() {
        use crate::sparql::eval::EvalOptions;
        use crate::sparql::SparqlParams;
        use crate::store::{Triple, TripleStore};
        use crate::term::Term;

        let reg = StoredQueries::new();
        reg.register("q", "SELECT ?e WHERE { ?e <isA> <Hazard> }").unwrap();
        let q = reg.get("q").unwrap();
        let store = TripleStore::new();
        let run = || {
            q.prepared
                .execute(&store, &["kb"], &SparqlParams::new(), &EvalOptions::default())
                .unwrap()
        };
        assert!(run().is_empty(), "<Hazard> is not in the store yet");
        store.insert("kb", &Triple::new(Term::iri("Hg"), Term::iri("isA"), Term::iri("Hazard")));
        assert_eq!(run().column("e").unwrap(), vec![Term::iri("Hg")]);
    }

    #[test]
    fn names_sorted() {
        let reg = StoredQueries::new();
        reg.register("b", DANGER_QUERY).unwrap();
        reg.register("a", DANGER_QUERY).unwrap();
        assert_eq!(reg.names(), vec!["a", "b"]);
    }

    #[test]
    fn clone_shares_registry() {
        let reg = StoredQueries::new();
        let reg2 = reg.clone();
        reg.register("q", DANGER_QUERY).unwrap();
        assert!(reg2.contains("q"));
    }
}
