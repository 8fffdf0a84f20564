//! The CroSSE platform: users, annotation scenarios, query log.
//!
//! Sec. III-A of the paper distinguishes three annotation scenarios:
//!
//! * **Integrated** — the annotated subject must be "a concept extracted
//!   from the original data source": the platform verifies the value
//!   actually occurs in the named table/column before asserting.
//! * **Independent** — "the freedom to insert any additional knowledge".
//! * **Crowdsourced** — annotations are public; users browse others'
//!   statements and import them into their own knowledge base.
//!
//! The platform also keeps a per-user query log, the raw material for the
//! Sec. I-B "personal activity context" (peer discovery and context-aware
//! ranking, implemented in [`crate::recommend`]).

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crosse_rdf::provenance::{KnowledgeBase, StatementId, StatementInfo};
use crosse_rdf::store::Triple;
use crosse_rdf::term::Term;
use crosse_relational::sql::ast::{Expr, SelectItem, TableRef};
use crosse_relational::{Database, Value};

use crate::error::{Error, Result};
use crate::sqm::{EnrichedResult, SesqlEngine};

/// One logged query with the concepts it touched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    pub user: String,
    pub sesql: String,
    /// Concept vocabulary extracted from the query: table names, column
    /// names, string constants, enrichment properties and concepts.
    pub concepts: Vec<String>,
    /// Monotone sequence number (the platform's logical clock).
    pub seq: u64,
}

/// The platform facade wiring the SESQL engine to user-facing services.
#[derive(Clone)]
pub struct CrossePlatform {
    engine: SesqlEngine,
    log: Arc<RwLock<Vec<LogEntry>>>,
}

impl CrossePlatform {
    pub fn new(db: Database, kb: KnowledgeBase) -> Self {
        CrossePlatform {
            engine: SesqlEngine::new(db, kb),
            log: Arc::new(RwLock::new_labeled("platform.activity_log", Vec::new())),
        }
    }

    pub fn from_engine(engine: SesqlEngine) -> Self {
        CrossePlatform {
            engine,
            log: Arc::new(RwLock::new_labeled("platform.activity_log", Vec::new())),
        }
    }

    pub fn engine(&self) -> &SesqlEngine {
        &self.engine
    }

    pub fn knowledge_base(&self) -> &KnowledgeBase {
        self.engine.knowledge_base()
    }

    pub fn database(&self) -> &Database {
        self.engine.database()
    }

    // ---- user management -------------------------------------------------

    pub fn register_user(&self, user: &str) -> Result<()> {
        check_user_name(user)?;
        Ok(self.knowledge_base().register_user(user)?)
    }

    pub fn users(&self) -> Vec<String> {
        let mut u = self.knowledge_base().users();
        u.sort();
        u
    }

    // ---- annotation scenarios (paper Sec. III-A) --------------------------

    /// Integrated annotation: the subject must occur in `table.column` of
    /// the databank.
    pub fn integrated_annotation(
        &self,
        user: &str,
        table: &str,
        column: &str,
        subject_value: &str,
        property: &str,
        object: Term,
    ) -> Result<StatementId> {
        let t = self.database().catalog().get_table(table)?;
        let idx = t.schema.resolve(None, column)?;
        let found = t.snapshot().rows().iter().any(|row| row[idx].lexical_form() == subject_value);
        if !found {
            return Err(Error::platform(format!(
                "integrated annotation requires `{subject_value}` to occur in \
                 {table}.{column}, but it does not"
            )));
        }
        let triple = Triple::new(Term::iri(subject_value), Term::iri(property), object);
        Ok(self.knowledge_base().assert_statement(user, &triple)?)
    }

    /// Independent annotation: any `<subject, property, object>` triple.
    pub fn independent_annotation(
        &self,
        user: &str,
        subject: Term,
        property: Term,
        object: Term,
    ) -> Result<StatementId> {
        Ok(self
            .knowledge_base()
            .assert_statement(user, &Triple::new(subject, property, object))?)
    }

    /// A free-text note attached to a concept ("general notes the user is
    /// interested in storing for future use, for exploration purposes
    /// only").
    pub fn attach_note(&self, user: &str, concept: &str, text: &str) -> Result<StatementId> {
        let triple = Triple::new(
            Term::iri(concept),
            Term::iri(format!("{}note", crosse_rdf::schema::SMG_NS)),
            Term::lit(text),
        );
        Ok(self.knowledge_base().assert_statement(user, &triple)?)
    }

    /// Crowdsourced browsing: all public statements, excluding the user's
    /// own (those are not "available from peers").
    pub fn browse_peer_statements(&self, user: &str) -> Vec<StatementInfo> {
        self.knowledge_base()
            .public_statements()
            .into_iter()
            .filter(|s| s.author != user)
            .collect()
    }

    /// Import (accept) a peer statement into the user's knowledge base.
    pub fn import_statement(&self, user: &str, id: StatementId) -> Result<()> {
        Ok(self.knowledge_base().accept_statement(user, id)?)
    }

    // ---- querying ----------------------------------------------------------

    /// Execute a SESQL query as `user`, recording it in the query log:
    /// [`SesqlEngine::prepare`] then [`CrossePlatform::query_prepared`].
    pub fn query(&self, user: &str, sesql: &str) -> Result<EnrichedResult> {
        let prepared = self.engine.prepare(sesql)?;
        self.query_prepared(user, &prepared, &crosse_relational::Params::new())
    }

    /// Execute a prepared SESQL query as `user` with bound parameters,
    /// recording its text (as written, still parameterised) in the query
    /// log — repeated executions of one handle profile like repeated
    /// queries of one shape, which is exactly the activity-context signal
    /// the recommender wants.
    pub fn query_prepared(
        &self,
        user: &str,
        prepared: &crate::sqm::PreparedSesql,
        params: &crosse_relational::Params,
    ) -> Result<EnrichedResult> {
        let result = prepared.execute(user, params)?;
        let concepts = concepts_of_query(prepared.query());
        self.log_entry(user, prepared.text().to_string(), concepts);
        Ok(result)
    }

    fn log_entry(&self, user: &str, sesql: String, concepts: Vec<String>) {
        let mut log = self.log.write();
        let seq = log.len() as u64;
        log.push(LogEntry { user: user.to_string(), sesql, concepts, seq });
    }

    /// The full query log (all users; the paper's annotations are public
    /// and so is activity-derived context in our reproduction).
    pub fn query_log(&self) -> Vec<LogEntry> {
        self.log.read().clone()
    }

    /// Concept-frequency profile of a user, derived from their query log —
    /// the "personal activity context" of Sec. I-B(a).
    pub fn user_profile(&self, user: &str) -> HashMap<String, usize> {
        let mut profile = HashMap::new();
        for entry in self.log.read().iter().filter(|e| e.user == user) {
            for c in &entry.concepts {
                *profile.entry(c.clone()).or_insert(0) += 1;
            }
        }
        profile
    }
}

/// The user-name rule of every surface that creates users (the platform,
/// [`Session::login`](crate::session::Session::login), the server's
/// `HELLO`): one or more of `[A-Za-z0-9_]`.
pub fn check_user_name(user: &str) -> Result<()> {
    if user.is_empty() || !user.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return Err(Error::platform(format!(
            "invalid user name `{user}` (alphanumeric and `_` only)"
        )));
    }
    Ok(())
}

/// The concept vocabulary of a parsed SESQL query: table names, column
/// names, string constants, and enrichment arguments.
pub fn concepts_of_query(q: &crate::sesql::ast::SesqlQuery) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut push = |s: &str| {
        let s = s.trim();
        if !s.is_empty() && !out.iter().any(|x| x.eq_ignore_ascii_case(s)) {
            out.push(s.to_string());
        }
    };

    fn walk_tables(tr: &TableRef, push: &mut impl FnMut(&str)) {
        match tr {
            TableRef::Table { name, .. } => push(name),
            TableRef::Join { left, right, .. } => {
                walk_tables(left, push);
                walk_tables(right, push);
            }
        }
    }
    for tr in &q.select.from {
        walk_tables(tr, &mut push);
    }

    let push_expr = |e: &Expr, push: &mut dyn FnMut(&str)| {
        e.visit(&mut |node| match node {
            Expr::Column { name, .. } => push(name),
            Expr::Literal(Value::Str(s)) => push(s),
            _ => {}
        });
    };
    for item in &q.select.projections {
        if let SelectItem::Expr { expr, .. } = item {
            push_expr(expr, &mut push);
        }
    }
    if let Some(f) = &q.select.filter {
        push_expr(f, &mut push);
    }
    for e in &q.enrichments {
        use crate::sesql::ast::Enrichment::*;
        match e {
            SchemaExtension { attr, property } | SchemaReplacement { attr, property } => {
                push(attr);
                push(property);
            }
            BoolSchemaExtension { attr, property, concept }
            | BoolSchemaReplacement { attr, property, concept } => {
                push(attr);
                push(property);
                push(concept);
            }
            ReplaceConstant { constant, property, .. } => {
                push(constant);
                push(property);
            }
            ReplaceVariable { attr, property, .. } => {
                push(attr);
                push(property);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sesql::parser::parse_sesql;

    fn platform() -> CrossePlatform {
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE elem_contained (elem_name TEXT, landfill_name TEXT);
             INSERT INTO elem_contained VALUES ('Hg','a'), ('Pb','a'), ('Cu','b');",
        )
        .unwrap();
        let kb = KnowledgeBase::new();
        let p = CrossePlatform::new(db, kb);
        p.register_user("alice").unwrap();
        p.register_user("bob").unwrap();
        p
    }

    #[test]
    fn register_validates_names() {
        let p = platform();
        assert!(p.register_user("carol_2").is_ok());
        assert!(p.register_user("").is_err());
        assert!(p.register_user("has space").is_err());
        assert_eq!(p.users().len(), 3);
    }

    #[test]
    fn integrated_annotation_checks_the_databank() {
        let p = platform();
        let id = p
            .integrated_annotation(
                "alice",
                "elem_contained",
                "elem_name",
                "Hg",
                "dangerLevel",
                Term::lit("5"),
            )
            .unwrap();
        assert_eq!(p.knowledge_base().statements_by("alice"), vec![id]);
        let err = p
            .integrated_annotation(
                "alice",
                "elem_contained",
                "elem_name",
                "Xx",
                "dangerLevel",
                Term::lit("1"),
            )
            .unwrap_err();
        assert!(err.to_string().contains("Xx"), "{err}");
        assert!(p
            .integrated_annotation("alice", "nope", "c", "Hg", "p", Term::lit("1"))
            .is_err());
        assert!(p
            .integrated_annotation("alice", "elem_contained", "nope", "Hg", "p", Term::lit("1"))
            .is_err());
    }

    #[test]
    fn independent_annotation_is_free() {
        let p = platform();
        // "Xx" is nowhere in the databank, still fine independently.
        p.independent_annotation("alice", Term::iri("Xx"), Term::iri("isA"), Term::iri("Y"))
            .unwrap();
        assert_eq!(p.knowledge_base().personal_size("alice"), 1);
    }

    #[test]
    fn notes_are_statements() {
        let p = platform();
        p.attach_note("alice", "Hg", "check the 2017 report").unwrap();
        assert_eq!(p.knowledge_base().personal_size("alice"), 1);
    }

    #[test]
    fn crowdsourced_browse_and_import() {
        let p = platform();
        let id = p
            .independent_annotation("alice", Term::iri("Hg"), Term::iri("isA"), Term::iri("H"))
            .unwrap();
        p.independent_annotation("bob", Term::iri("Pb"), Term::iri("isA"), Term::iri("H"))
            .unwrap();
        let seen = p.browse_peer_statements("bob");
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].author, "alice");
        p.import_statement("bob", id).unwrap();
        assert_eq!(p.knowledge_base().personal_size("bob"), 2);
    }

    #[test]
    fn query_logs_concepts() {
        let p = platform();
        p.independent_annotation(
            "alice",
            Term::iri("Hg"),
            Term::iri("dangerLevel"),
            Term::lit("5"),
        )
        .unwrap();
        p.query(
            "alice",
            "SELECT elem_name FROM elem_contained WHERE landfill_name = 'a' \
             ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)",
        )
        .unwrap();
        let log = p.query_log();
        assert_eq!(log.len(), 1);
        assert!(log[0].concepts.iter().any(|c| c == "elem_contained"));
        assert!(log[0].concepts.iter().any(|c| c == "dangerLevel"));
        assert!(log[0].concepts.iter().any(|c| c == "a"));
        let profile = p.user_profile("alice");
        assert_eq!(profile["dangerLevel"], 1);
        assert!(p.user_profile("bob").is_empty());
    }

    #[test]
    fn failed_queries_are_not_logged() {
        let p = platform();
        assert!(p.query("alice", "SELECT nope FROM nowhere").is_err());
        assert!(p.query_log().is_empty());
    }

    #[test]
    fn extract_concepts_covers_enrichments() {
        let cs = concepts_of_query(&parse_sesql(
            "SELECT name, city FROM landfill \
             WHERE ${city = Pollution:c1} \
             ENRICH BOOLSCHEMAREPLACEMENT(city, inCountry, Italy) \
                    REPLACECONSTANT(c1, Pollution, pollutionQuery)",
        )
        .unwrap());
        for expected in
            ["landfill", "name", "city", "inCountry", "Italy", "Pollution", "pollutionQuery"]
        {
            assert!(cs.iter().any(|c| c == expected), "missing {expected} in {cs:?}");
        }
    }

    #[test]
    fn concepts_deduplicate_case_insensitively() {
        let cs = concepts_of_query(&parse_sesql("SELECT City, CITY FROM landfill").unwrap());
        assert_eq!(cs.iter().filter(|c| c.eq_ignore_ascii_case("city")).count(), 1);
    }
}
