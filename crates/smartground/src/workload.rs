//! SESQL workloads: the paper's six examples, parameterised, plus the
//! hand-written plain-SQL baselines the benchmark harness compares against.

use crosse_core::sqm::SesqlEngine;
use crosse_rdf::provenance::KnowledgeBase;
use crosse_relational::Database;

use crate::datagen::{generate, populate, SmartGroundConfig};
use crate::ontogen::director_ontology;

/// One workload query: a name, the SESQL text, and (when meaningful) a
/// plain-SQL baseline computing the un-enriched part.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadQuery {
    pub name: &'static str,
    pub sesql: String,
    /// The SQL part alone (what a user without CroSSE would run).
    pub baseline_sql: String,
}

/// The six paper examples instantiated against a generated landfill name.
pub fn paper_examples(landfill: &str) -> Vec<WorkloadQuery> {
    vec![
        WorkloadQuery {
            name: "ex4.1-schema-extension",
            sesql: format!(
                "SELECT elem_name, landfill_name FROM elem_contained \
                 WHERE landfill_name = '{landfill}' \
                 ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)"
            ),
            baseline_sql: format!(
                "SELECT elem_name, landfill_name FROM elem_contained \
                 WHERE landfill_name = '{landfill}'"
            ),
        },
        WorkloadQuery {
            name: "ex4.2-schema-replacement",
            sesql: "SELECT name, city FROM landfill \
                    ENRICH SCHEMAREPLACEMENT(city, inCountry)"
                .to_string(),
            baseline_sql: "SELECT name, city FROM landfill".to_string(),
        },
        WorkloadQuery {
            name: "ex4.3-bool-extension",
            sesql: format!(
                "SELECT elem_name FROM elem_contained WHERE landfill_name = '{landfill}' \
                 ENRICH BOOLSCHEMAEXTENSION(elem_name, isA, HazardousWaste)"
            ),
            baseline_sql: format!(
                "SELECT elem_name FROM elem_contained WHERE landfill_name = '{landfill}'"
            ),
        },
        WorkloadQuery {
            name: "ex4.4-bool-replacement",
            sesql: "SELECT name, city FROM landfill \
                    ENRICH BOOLSCHEMAREPLACEMENT(city, inCountry, Italy)"
                .to_string(),
            baseline_sql: "SELECT name, city FROM landfill".to_string(),
        },
        WorkloadQuery {
            name: "ex4.5-replace-constant",
            sesql: "SELECT landfill_name FROM elem_contained \
                    WHERE ${elem_name = HazardousWaste:cond1} \
                    ENRICH REPLACECONSTANT(cond1, HazardousWaste, dangerQuery)"
                .to_string(),
            baseline_sql: "SELECT landfill_name FROM elem_contained".to_string(),
        },
        WorkloadQuery {
            name: "ex4.6-replace-variable",
            sesql: "SELECT e1.landfill_name AS l1, e2.landfill_name AS l2, e1.elem_name \
                    FROM elem_contained AS e1, elem_contained AS e2 \
                    WHERE e1.landfill_name <> e2.landfill_name AND \
                          ${ e1.elem_name = e2.elem_name :cond1} \
                    ENRICH REPLACEVARIABLE(cond1, e2.elem_name, oreAssemblage)"
                .to_string(),
            baseline_sql: "SELECT e1.landfill_name AS l1, e2.landfill_name AS l2, \
                           e1.elem_name \
                           FROM elem_contained AS e1, elem_contained AS e2 \
                           WHERE e1.landfill_name <> e2.landfill_name AND \
                                 e1.elem_name = e2.elem_name"
                .to_string(),
        },
    ]
}

/// The stored SPARQL query of Example 4.5.
pub const DANGER_QUERY_SPARQL: &str =
    "SELECT ?e WHERE { ?e <dangerLevel> ?d . FILTER(?d >= 4) }";

/// A ready-to-query engine: generated databank + director ontology +
/// registered `dangerQuery`. The standard fixture for examples, tests and
/// benches.
pub fn standard_engine(config: &SmartGroundConfig, user: &str) -> crosse_core::Result<SesqlEngine> {
    let db: Database = generate(config)?;
    let kb = KnowledgeBase::new();
    kb.register_user(user)?;
    director_ontology(&kb, user)?;
    let engine = SesqlEngine::new(db, kb);
    engine.stored_queries().register("dangerQuery", DANGER_QUERY_SPARQL)?;
    Ok(engine)
}

/// [`standard_engine`] persisted at `dir`: open (or create) a durable
/// engine and seed the databank + ontology only on first contact — an
/// already-populated directory recovers as-is, since re-seeding would
/// duplicate rows and statements. Stored queries live in an in-process
/// registry (not the stores), so they are re-registered on every open.
/// The CLI's `--data-dir` and the crash-recovery harness both build their
/// engines through this.
pub fn standard_engine_at(
    config: &SmartGroundConfig,
    user: &str,
    dir: impl AsRef<std::path::Path>,
) -> crosse_core::Result<SesqlEngine> {
    standard_engine_at_with(config, user, dir, crosse_core::WalOptions::default())
}

/// [`standard_engine_at`] with explicit WAL options (sync policy).
pub fn standard_engine_at_with(
    config: &SmartGroundConfig,
    user: &str,
    dir: impl AsRef<std::path::Path>,
    opts: crosse_core::WalOptions,
) -> crosse_core::Result<SesqlEngine> {
    let engine = SesqlEngine::open_with(dir, opts)?;
    if !engine.database().catalog().has_table("landfill") {
        populate(engine.database(), config)?;
    }
    let kb = engine.knowledge_base();
    if !kb.is_registered(user) {
        kb.register_user(user)?;
        director_ontology(kb, user)?;
    }
    engine.stored_queries().register("dangerQuery", DANGER_QUERY_SPARQL)?;
    Ok(engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::landfill_name;

    #[test]
    fn all_examples_parse() {
        for q in paper_examples("LF00000") {
            crosse_core::parse_sesql(&q.sesql)
                .unwrap_or_else(|e| panic!("{} failed to parse: {e}", q.name));
            if !q.baseline_sql.is_empty() {
                crosse_relational::sql::parser::parse_statement(&q.baseline_sql)
                    .unwrap_or_else(|e| panic!("{} baseline: {e}", q.name));
            }
        }
    }

    #[test]
    fn all_examples_execute_on_standard_engine() {
        let engine = standard_engine(&SmartGroundConfig::tiny(), "director").unwrap();
        for q in paper_examples(&landfill_name(0)) {
            let r = engine
                .execute("director", &q.sesql)
                .unwrap_or_else(|e| panic!("{} failed: {e}", q.name));
            // 4.5 may legitimately return few rows; others track the base.
            if q.name != "ex4.5-replace-constant" {
                assert!(
                    r.report.result_rows >= r.report.base_rows.min(1),
                    "{}: {} rows from {} base",
                    q.name,
                    r.report.result_rows,
                    r.report.base_rows
                );
            }
        }
    }

    #[test]
    fn enrichment_changes_results_vs_baseline() {
        let engine = standard_engine(&SmartGroundConfig::tiny(), "director").unwrap();
        let q = &paper_examples(&landfill_name(0))[0]; // ex4.1
        let enriched = engine.execute("director", &q.sesql).unwrap();
        let baseline = engine.database().query(&q.baseline_sql).unwrap();
        assert_eq!(
            enriched.rows.schema.len(),
            baseline.schema.len() + 1,
            "extension adds exactly one column"
        );
    }

    #[test]
    fn replace_constant_filters_to_dangerous() {
        let engine = standard_engine(&SmartGroundConfig::tiny(), "director").unwrap();
        let q = paper_examples(&landfill_name(0))
            .into_iter()
            .find(|q| q.name == "ex4.5-replace-constant")
            .unwrap();
        let enriched = engine.execute("director", &q.sesql).unwrap();
        let all = engine.database().query(&q.baseline_sql).unwrap();
        assert!(
            enriched.rows.len() < all.len(),
            "danger filter must restrict the result ({} vs {})",
            enriched.rows.len(),
            all.len()
        );
    }
}
