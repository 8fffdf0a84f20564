//! SESQL abstract syntax (paper Fig. 5).
//!
//! A SESQL query is a SQL SELECT followed by `ENRICH` and one or more
//! enrichment clauses. Four clauses reshape the SELECT's output schema,
//! two rewrite tagged WHERE-clause conditions.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crosse_relational::sql::ast::{Expr, Select};
use crosse_relational::sql::parser::ParamSlot;

/// One enrichment clause.
#[derive(Debug, Clone, PartialEq)]
pub enum Enrichment {
    /// `SCHEMAEXTENSION(attr, prop)` — add a column with the objects of
    /// `prop` for each value of `attr` (paper Sec. IV-A.1).
    SchemaExtension { attr: String, property: String },
    /// `SCHEMAREPLACEMENT(attr, prop)` — replace `attr` with the mapped
    /// objects (Sec. IV-A.2).
    SchemaReplacement { attr: String, property: String },
    /// `BOOLSCHEMAEXTENSION(attr, prop, concept)` — add a boolean column:
    /// is `attr` related to `concept` through `prop`? (Sec. IV-A.3).
    BoolSchemaExtension { attr: String, property: String, concept: String },
    /// `BOOLSCHEMAREPLACEMENT(attr, prop, concept)` — same, replacing
    /// `attr` (Sec. IV-A.4).
    BoolSchemaReplacement { attr: String, property: String, concept: String },
    /// `REPLACECONSTANT(cond, const, prop)` — in tagged condition `cond`,
    /// replace the ontology constant by the value set delivered by `prop`
    /// (a property or a stored SPARQL query) (Sec. IV-A.5).
    ReplaceConstant { cond: String, constant: String, property: String },
    /// `REPLACEVARIABLE(cond, attr, prop)` — in tagged condition `cond`,
    /// the column `attr` also matches through values related to it by
    /// `prop` (Sec. IV-A.6).
    ReplaceVariable { cond: String, attr: String, property: String },
}

impl Enrichment {
    /// The clause keyword as written in the grammar.
    pub fn keyword(&self) -> &'static str {
        match self {
            Enrichment::SchemaExtension { .. } => "SCHEMAEXTENSION",
            Enrichment::SchemaReplacement { .. } => "SCHEMAREPLACEMENT",
            Enrichment::BoolSchemaExtension { .. } => "BOOLSCHEMAEXTENSION",
            Enrichment::BoolSchemaReplacement { .. } => "BOOLSCHEMAREPLACEMENT",
            Enrichment::ReplaceConstant { .. } => "REPLACECONSTANT",
            Enrichment::ReplaceVariable { .. } => "REPLACEVARIABLE",
        }
    }

    /// Whether this clause affects the WHERE clause (vs the result schema).
    pub fn is_where_enrichment(&self) -> bool {
        matches!(
            self,
            Enrichment::ReplaceConstant { .. } | Enrichment::ReplaceVariable { .. }
        )
    }

    /// The property (or stored-query name) the clause draws its values
    /// from.
    pub fn property(&self) -> &str {
        match self {
            Enrichment::SchemaExtension { property, .. }
            | Enrichment::SchemaReplacement { property, .. }
            | Enrichment::BoolSchemaExtension { property, .. }
            | Enrichment::BoolSchemaReplacement { property, .. }
            | Enrichment::ReplaceConstant { property, .. }
            | Enrichment::ReplaceVariable { property, .. } => property,
        }
    }

    /// Condition id referenced, if any.
    pub fn condition_id(&self) -> Option<&str> {
        match self {
            Enrichment::ReplaceConstant { cond, .. }
            | Enrichment::ReplaceVariable { cond, .. } => Some(cond),
            _ => None,
        }
    }
}

impl fmt::Display for Enrichment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Enrichment::SchemaExtension { attr, property } => {
                write!(f, "SCHEMAEXTENSION({attr}, {property})")
            }
            Enrichment::SchemaReplacement { attr, property } => {
                write!(f, "SCHEMAREPLACEMENT({attr}, {property})")
            }
            Enrichment::BoolSchemaExtension { attr, property, concept } => {
                write!(f, "BOOLSCHEMAEXTENSION({attr}, {property}, {concept})")
            }
            Enrichment::BoolSchemaReplacement { attr, property, concept } => {
                write!(f, "BOOLSCHEMAREPLACEMENT({attr}, {property}, {concept})")
            }
            Enrichment::ReplaceConstant { cond, constant, property } => {
                write!(f, "REPLACECONSTANT({cond}, {constant}, {property})")
            }
            Enrichment::ReplaceVariable { cond, attr, property } => {
                write!(f, "REPLACEVARIABLE({cond}, {attr}, {property})")
            }
        }
    }
}

/// A fully parsed SESQL query: the cleaned SQL part, the tagged conditions
/// recovered by the scanner, and the enrichment list.
#[derive(Debug, Clone, PartialEq)]
pub struct SesqlQuery {
    /// The SELECT with `${...:id}` markers stripped (paper Remark 4.1:
    /// "the query is then 'cleaned' ... so that a syntactically correct SQL
    /// query can be processed"). Shared with the relational handle a
    /// prepared statement compiles from it.
    pub select: Arc<Select>,
    /// Cleaned SQL text.
    pub clean_sql: String,
    /// Tagged conditions by id, as parsed expressions.
    pub conditions: HashMap<String, Expr>,
    /// Enrichment clauses in source order.
    pub enrichments: Vec<Enrichment>,
    /// Parameter placeholder slots (`$name` / `?`) of the SQL part, in
    /// slot-index order. Condition expressions share these slots (their
    /// text is embedded in the cleaned SQL).
    pub params: Vec<ParamSlot>,
}

impl SesqlQuery {
    /// Whether any enrichment clause is present (a bare SQL query is valid
    /// SESQL).
    pub fn is_enriched(&self) -> bool {
        !self.enrichments.is_empty()
    }

    /// Whether the query has parameter placeholders (and therefore needs
    /// binding before execution).
    pub fn has_params(&self) -> bool {
        !self.params.is_empty()
    }
}

impl fmt::Display for SesqlQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.select)?;
        if !self.enrichments.is_empty() {
            write!(f, " ENRICH")?;
            for e in &self.enrichments {
                write!(f, " {e}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_and_kinds() {
        let e = Enrichment::SchemaExtension { attr: "a".into(), property: "p".into() };
        assert_eq!(e.keyword(), "SCHEMAEXTENSION");
        assert!(!e.is_where_enrichment());
        assert_eq!(e.condition_id(), None);

        let e = Enrichment::ReplaceConstant {
            cond: "cond1".into(),
            constant: "HazardousWaste".into(),
            property: "dangerQuery".into(),
        };
        assert!(e.is_where_enrichment());
        assert_eq!(e.condition_id(), Some("cond1"));
    }

    #[test]
    fn display_round_trip_shape() {
        let e = Enrichment::BoolSchemaExtension {
            attr: "elem_name".into(),
            property: "isA".into(),
            concept: "HazardousWaste".into(),
        };
        assert_eq!(
            e.to_string(),
            "BOOLSCHEMAEXTENSION(elem_name, isA, HazardousWaste)"
        );
    }
}
