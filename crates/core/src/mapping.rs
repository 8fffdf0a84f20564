//! Resource mapping between relational values and RDF terms, exported
//! from [`crate::sqm`].
//!
//! Fig. 6 of the paper: "A JoinManager module combines the partial results
//! returned by the two independent queries, leveraging the resource mapping
//! described in an XML file." Here the enrichment pass (`sqm::enrich`)
//! does that combining. The mapping says, per relational column, how its
//! values denote RDF resources. We keep the declarative spirit with a
//! plain-text format instead of XML:
//!
//! ```text
//! # table.column  ->  strategy [namespace]
//! elem_contained.elem_name -> iri http://smartground.eu/elem/
//! landfill.city            -> local-name
//! analysis.report_code     -> literal
//! ```
//!
//! Strategies:
//! * `literal`    — the value matches plain literals with the same text.
//! * `local-name` — the value matches IRIs whose local name equals it
//!   (default when a column has no explicit rule).
//! * `iri <ns>`   — the value `v` denotes exactly the IRI `<ns>v`.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crosse_rdf::term::Term;
use crosse_relational::{Error, Result, Value};

/// How a column's values denote RDF terms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapStrategy {
    Literal,
    LocalName,
    IriPrefix(String),
}

impl MapStrategy {
    /// Does `value` denote `term` under this strategy? Borrows the value's
    /// text — no allocation per probe for text columns.
    pub fn matches(&self, value: &Value, term: &Term) -> bool {
        if value.is_null() {
            return false;
        }
        let v = value.lexical();
        match self {
            MapStrategy::Literal => term.is_literal() && term.lexical_form() == v.as_ref(),
            MapStrategy::LocalName => term.matches_lexical(&v),
            MapStrategy::IriPrefix(ns) => matches!(
                term,
                Term::Iri(i) if i.strip_prefix(ns.as_str()) == Some(v.as_ref())
            ),
        }
    }

    /// The lexical keys `term` is found under: `matches(value, term)`
    /// holds exactly when `value` is not NULL and `value.lexical()` is one
    /// of them. `LocalName` gives the lexical form plus an IRI's local
    /// name, `Literal` a literal's lexical form, `IriPrefix(ns)` the IRI
    /// with `ns` removed. This turns the match into one hash lookup per
    /// value.
    pub fn keys<'t>(&self, term: &'t Term) -> impl Iterator<Item = &'t str> {
        let (key, local) = match self {
            MapStrategy::Literal => (term.is_literal().then(|| term.lexical_form()), None),
            MapStrategy::LocalName => {
                let lexical = term.lexical_form();
                let local = Some(term.local_name()).filter(|l| term.is_iri() && *l != lexical);
                (Some(lexical), local)
            }
            MapStrategy::IriPrefix(ns) => match term {
                Term::Iri(i) => (i.strip_prefix(ns.as_str()), None),
                _ => (None, None),
            },
        };
        key.into_iter().chain(local)
    }

    /// The canonical term a value denotes (used to *construct* SPARQL
    /// constants from relational values).
    pub fn to_term(&self, value: &Value) -> Term {
        let v = value.lexical_form();
        match self {
            MapStrategy::Literal => Term::lit(v),
            // Without a namespace the best constant is the bare IRI; the
            // local-name fallback at match time covers namespaced data.
            MapStrategy::LocalName => Term::iri(v),
            MapStrategy::IriPrefix(ns) => Term::iri(format!("{ns}{v}")),
        }
    }
}

/// Column-level resource mapping registry. Cheap to clone.
#[derive(Debug, Clone)]
pub struct ResourceMapping {
    rules: Arc<RwLock<HashMap<(String, String), MapStrategy>>>,
}

impl Default for ResourceMapping {
    fn default() -> Self {
        ResourceMapping {
            rules: Arc::new(RwLock::new_labeled("fdw.mapping_rules", HashMap::new())),
        }
    }
}

impl ResourceMapping {
    pub fn new() -> Self {
        Self::default()
    }

    fn key(table: &str, column: &str) -> (String, String) {
        (table.to_ascii_lowercase(), column.to_ascii_lowercase())
    }

    pub fn set(&self, table: &str, column: &str, strategy: MapStrategy) {
        self.rules.write().insert(Self::key(table, column), strategy);
    }

    /// Strategy for a column; [`MapStrategy::LocalName`] when unmapped.
    pub fn strategy(&self, table: &str, column: &str) -> MapStrategy {
        self.rules
            .read()
            .get(&Self::key(table, column))
            .cloned()
            .unwrap_or(MapStrategy::LocalName)
    }

    pub fn len(&self) -> usize {
        self.rules.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Parse the text format described in the module docs.
    pub fn parse(text: &str) -> Result<Self> {
        let mapping = ResourceMapping::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |what: String| Error::parse(format!("line {}: {what}", lineno + 1), 0);
            let (lhs, rhs) = line.split_once("->").ok_or_else(|| err("missing `->`".into()))?;
            let (table, column) =
                lhs.trim().split_once('.').ok_or_else(|| err("expected `table.column`".into()))?;
            let mut parts = rhs.split_whitespace();
            let strategy = match parts.next() {
                Some("literal") => MapStrategy::Literal,
                Some("local-name") => MapStrategy::LocalName,
                Some("iri") => {
                    let ns = parts.next().ok_or_else(|| err("`iri` needs a namespace".into()))?;
                    MapStrategy::IriPrefix(ns.to_string())
                }
                other => return Err(err(format!("unknown strategy {other:?}"))),
            };
            if parts.next().is_some() {
                return Err(err("trailing tokens".into()));
            }
            mapping.set(table.trim(), column.trim(), strategy);
        }
        Ok(mapping)
    }

    /// Serialise back to the text format (sorted for determinism).
    pub fn to_text(&self) -> String {
        let rules = self.rules.read();
        let mut lines: Vec<String> = rules
            .iter()
            .map(|((t, c), s)| {
                let rhs = match s {
                    MapStrategy::Literal => "literal".to_string(),
                    MapStrategy::LocalName => "local-name".to_string(),
                    MapStrategy::IriPrefix(ns) => format!("iri {ns}"),
                };
                format!("{t}.{c} -> {rhs}")
            })
            .collect();
        lines.sort();
        lines.join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_strategy_is_local_name() {
        let m = ResourceMapping::new();
        assert_eq!(m.strategy("t", "c"), MapStrategy::LocalName);
        assert!(m.is_empty());
    }

    #[test]
    fn literal_strategy_matching() {
        let s = MapStrategy::Literal;
        assert!(s.matches(&Value::from("Hg"), &Term::lit("Hg")));
        assert!(!s.matches(&Value::from("Hg"), &Term::iri("Hg")));
        assert!(!s.matches(&Value::Null, &Term::lit("")));
        assert_eq!(s.to_term(&Value::from("Hg")), Term::lit("Hg"));
    }

    #[test]
    fn local_name_strategy_matching() {
        let s = MapStrategy::LocalName;
        assert!(s.matches(&Value::from("Hg"), &Term::iri("http://x/onto#Hg")));
        assert!(s.matches(&Value::from("Hg"), &Term::lit("Hg")));
        assert!(!s.matches(&Value::from("Hg"), &Term::iri("http://x/onto#Pb")));
    }

    #[test]
    fn iri_prefix_strategy() {
        let s = MapStrategy::IriPrefix("http://smg.eu/elem/".into());
        assert!(s.matches(&Value::from("Hg"), &Term::iri("http://smg.eu/elem/Hg")));
        assert!(!s.matches(&Value::from("Hg"), &Term::iri("http://other/Hg")));
        assert_eq!(
            s.to_term(&Value::from("Hg")),
            Term::iri("http://smg.eu/elem/Hg")
        );
    }

    #[test]
    fn numeric_values_use_lexical_form() {
        let s = MapStrategy::Literal;
        assert!(s.matches(&Value::Int(5), &Term::lit("5")));
        assert!(s.matches(&Value::Float(2.0), &Term::lit("2.0")));
    }

    #[test]
    fn parse_round_trip() {
        let text = "\
# comment
elem_contained.elem_name -> iri http://smg.eu/elem/
landfill.city -> local-name
analysis.code -> literal";
        let m = ResourceMapping::parse(text).unwrap();
        assert_eq!(m.len(), 3);
        assert_eq!(
            m.strategy("elem_contained", "ELEM_NAME"),
            MapStrategy::IriPrefix("http://smg.eu/elem/".into())
        );
        assert_eq!(m.strategy("analysis", "code"), MapStrategy::Literal);
        let text2 = m.to_text();
        let m2 = ResourceMapping::parse(&text2).unwrap();
        assert_eq!(m2.len(), 3);
        assert_eq!(m2.strategy("landfill", "city"), MapStrategy::LocalName);
    }

    #[test]
    fn parse_errors() {
        assert!(ResourceMapping::parse("landfill.city local-name").is_err());
        assert!(ResourceMapping::parse("landfillcity -> literal").is_err());
        assert!(ResourceMapping::parse("a.b -> frobnicate").is_err());
        assert!(ResourceMapping::parse("a.b -> iri").is_err());
        assert!(ResourceMapping::parse("a.b -> literal extra").is_err());
    }
}
