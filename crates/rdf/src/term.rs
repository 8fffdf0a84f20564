//! RDF terms and the interning dictionary.
//!
//! Terms are interned into dense `u32` ids so triples are three machine
//! words and index lookups compare integers. This mirrors how production
//! triple stores (and Jena's TDB, the paper's backend) organise their node
//! tables.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;

/// An RDF term.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// An IRI, stored without angle brackets.
    Iri(String),
    /// A literal with an optional datatype IRI.
    Literal { value: String, datatype: Option<String> },
    /// A blank node with a local label.
    Blank(String),
}

impl Term {
    pub fn iri(v: impl Into<String>) -> Term {
        Term::Iri(v.into())
    }

    pub fn lit(v: impl Into<String>) -> Term {
        Term::Literal { value: v.into(), datatype: None }
    }

    pub fn typed_lit(v: impl Into<String>, datatype: impl Into<String>) -> Term {
        Term::Literal { value: v.into(), datatype: Some(datatype.into()) }
    }

    pub fn blank(v: impl Into<String>) -> Term {
        Term::Blank(v.into())
    }

    pub fn is_literal(&self) -> bool {
        matches!(self, Term::Literal { .. })
    }

    pub fn is_iri(&self) -> bool {
        matches!(self, Term::Iri(_))
    }

    /// The lexical form: literal value, IRI text, or blank label.
    ///
    /// SESQL's enrichment pass compares relational values against RDF
    /// terms through this form, and for IRIs falls back to the *local
    /// name* (the part after the last `#` or `/`) — see
    /// [`Term::matches_lexical`].
    pub fn lexical_form(&self) -> &str {
        match self {
            Term::Iri(i) => i,
            Term::Literal { value, .. } => value,
            Term::Blank(b) => b,
        }
    }

    /// Local name of an IRI (text after the last `#` or `/`); the full text
    /// for other terms.
    pub fn local_name(&self) -> &str {
        match self {
            Term::Iri(i) => i.rsplit(['#', '/']).next().unwrap_or(i),
            other => other.lexical_form(),
        }
    }

    /// Whether a plain string (e.g. a relational value) denotes this term:
    /// exact lexical match, or — for IRIs — local-name match. This is the
    /// resource-mapping rule CroSSE's XML mapping file encodes (Fig. 6).
    pub fn matches_lexical(&self, s: &str) -> bool {
        self.lexical_form() == s || (self.is_iri() && self.local_name() == s)
    }

    /// Numeric interpretation of a literal, if it parses.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Term::Literal { value, .. } => value.trim().parse().ok(),
            _ => None,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(i) => write!(f, "<{i}>"),
            Term::Literal { value, datatype: None } => {
                write!(f, "\"{}\"", value.replace('"', "\\\""))
            }
            Term::Literal { value, datatype: Some(dt) } => {
                write!(f, "\"{}\"^^<{dt}>", value.replace('"', "\\\""))
            }
            Term::Blank(b) => write!(f, "_:{b}"),
        }
    }
}

/// Dense term identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

/// Bidirectional Term ↔ TermId dictionary. Cheap to clone (shared).
#[derive(Debug, Clone)]
pub struct Dictionary {
    inner: Arc<RwLock<DictInner>>,
}

impl Default for Dictionary {
    fn default() -> Self {
        Dictionary {
            inner: Arc::new(RwLock::new_labeled("rdf.dict", DictInner::default())),
        }
    }
}

#[derive(Debug, Default)]
struct DictInner {
    terms: Vec<Term>,
    ids: HashMap<Term, TermId>,
}

impl Dictionary {
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a term, returning its id (existing or fresh).
    pub fn intern(&self, term: &Term) -> TermId {
        {
            let inner = self.inner.read();
            if let Some(&id) = inner.ids.get(term) {
                return id;
            }
        }
        let mut inner = self.inner.write();
        if let Some(&id) = inner.ids.get(term) {
            return id;
        }
        let id = TermId(inner.terms.len() as u32);
        inner.terms.push(term.clone());
        inner.ids.insert(term.clone(), id);
        id
    }

    /// Look up an already-interned term.
    pub fn id_of(&self, term: &Term) -> Option<TermId> {
        self.inner.read().ids.get(term).copied()
    }

    /// Resolve an id back to its term.
    pub fn term_of(&self, id: TermId) -> Term {
        self.inner.read().terms[id.0 as usize].clone()
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.inner.read().terms.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A read guard over the dictionary for batch resolution: one lock
    /// acquisition serves any number of `term(id)` borrows, and nothing is
    /// cloned until the caller decides to. Do not intern while holding a
    /// reader (the write would deadlock against the read guard).
    pub fn reader(&self) -> DictReader<'_> {
        DictReader { guard: self.inner.read() }
    }

    /// All interned terms in id order (index = id). Checkpoint pinning
    /// uses this to serialise the dictionary; pinned *after* the graphs
    /// (under the same barrier) so every id in any pinned graph resolves.
    pub fn terms_snapshot(&self) -> Vec<Term> {
        self.inner.read().terms.clone()
    }

    /// Literal-kind flag per id (index = id). Covers every term interned
    /// at call time; used by the reasoner to test literalness without
    /// locking per triple.
    pub fn literal_flags(&self) -> Vec<bool> {
        self.inner.read().terms.iter().map(Term::is_literal).collect()
    }

    /// All interned IRI terms a plain string denotes under the resource-
    /// mapping rule (exact text or local-name match; see
    /// [`Term::matches_lexical`]). Lets query generators push a lexical
    /// constant into a SPARQL pattern as concrete IRIs instead of
    /// fetching everything and filtering client-side.
    pub fn iris_matching_lexical(&self, name: &str) -> Vec<Term> {
        self.inner
            .read()
            .terms
            .iter()
            .filter(|t| t.is_iri() && t.matches_lexical(name))
            .cloned()
            .collect()
    }
}

/// Borrowed view of the dictionary (see [`Dictionary::reader`]).
pub struct DictReader<'a> {
    guard: parking_lot::RwLockReadGuard<'a, DictInner>,
}

impl DictReader<'_> {
    /// Resolve an id to its term without cloning.
    pub fn term(&self, id: TermId) -> &Term {
        &self.guard.terms[id.0 as usize]
    }

    /// Look up an already-interned term.
    pub fn id_of(&self, term: &Term) -> Option<TermId> {
        self.guard.ids.get(term).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let d = Dictionary::new();
        let a = d.intern(&Term::iri("http://smg.eu/Mercury"));
        let b = d.intern(&Term::iri("http://smg.eu/Mercury"));
        assert_eq!(a, b);
        assert_eq!(d.len(), 1);
        assert_eq!(d.term_of(a), Term::iri("http://smg.eu/Mercury"));
    }

    #[test]
    fn distinct_terms_get_distinct_ids() {
        let d = Dictionary::new();
        let a = d.intern(&Term::lit("Mercury"));
        let b = d.intern(&Term::iri("Mercury"));
        assert_ne!(a, b, "literal and IRI with same text are different terms");
    }

    #[test]
    fn local_name_extraction() {
        assert_eq!(Term::iri("http://smg.eu/onto#Mercury").local_name(), "Mercury");
        assert_eq!(Term::iri("http://smg.eu/onto/Lead").local_name(), "Lead");
        assert_eq!(Term::iri("Mercury").local_name(), "Mercury");
        assert_eq!(Term::lit("plain").local_name(), "plain");
    }

    #[test]
    fn matches_lexical_rules() {
        let t = Term::iri("http://smg.eu/onto#Mercury");
        assert!(t.matches_lexical("Mercury"));
        assert!(t.matches_lexical("http://smg.eu/onto#Mercury"));
        assert!(!t.matches_lexical("Lead"));
        let l = Term::lit("Mercury");
        assert!(l.matches_lexical("Mercury"));
        assert!(!l.matches_lexical("mercury"), "literal match is case-sensitive");
    }

    #[test]
    fn numeric_literals() {
        assert_eq!(Term::lit("3.5").as_f64(), Some(3.5));
        assert_eq!(Term::lit(" 42 ").as_f64(), Some(42.0));
        assert_eq!(Term::lit("abc").as_f64(), None);
        assert_eq!(Term::iri("3").as_f64(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Term::iri("x").to_string(), "<x>");
        assert_eq!(Term::lit("a\"b").to_string(), "\"a\\\"b\"");
        assert_eq!(
            Term::typed_lit("3", "http://www.w3.org/2001/XMLSchema#integer").to_string(),
            "\"3\"^^<http://www.w3.org/2001/XMLSchema#integer>"
        );
        assert_eq!(Term::blank("b0").to_string(), "_:b0");
    }

    #[test]
    fn dictionary_shared_across_clones() {
        let d = Dictionary::new();
        let d2 = d.clone();
        let id = d.intern(&Term::lit("x"));
        assert_eq!(d2.id_of(&Term::lit("x")), Some(id));
    }
}
