// srclint: allow(R002): the generated SPARQL always projects the ?s/?o variables the expects look up
//! The SPARQL legs of the pipeline and the caches in front of them: the
//! version-checked leg (solutions) cache, the REPLACEVARIABLE pairs cache
//! whose entries own their materialised tables, the generated SPARQL text
//! and the predicate/subject resolution behind it.

use super::rewrite::variable_expansion_select;
use super::*;

/// Version-checked, LRU-bounded cache of SPARQL-leg solutions, keyed by
/// the user's context graphs and the generated SPARQL text. Entries are
/// valid only while the triple store's mutation version is unchanged, so
/// any annotation, import or retraction invalidates the whole view at
/// zero bookkeeping cost; the LRU bound keeps adversarial traffic (many
/// distinct generated legs) from growing memory without limit.
#[derive(Debug)]
pub(super) struct SparqlLegCache {
    pub(super) entries: Mutex<Lru<(String, String), (u64, Solutions)>>,
    /// REPLACEVARIABLE pairs tables, keyed by (context graphs, property +
    /// expansion direction) and version-checked like `entries`: a hit
    /// skips the SPARQL leg *and* the term→value conversion + dedup that
    /// builds the relational pairs table. Only hits touch the counters —
    /// a pairs miss falls through to the solution-cache path, which
    /// counts the leg itself, keeping "one leg, one counter event".
    pub(super) pairs: Mutex<Lru<(String, String), CachedPairs>>,
    // Hit/miss counters live outside the LRUs: a version-stale entry is a
    // *miss* for the caller even though the LRU lookup succeeded.
    hits: AtomicU64,
    misses: AtomicU64,
}

/// One cached REPLACEVARIABLE pairs table.
#[derive(Debug, Clone)]
pub(super) struct CachedPairs {
    /// KB version the rows were built against.
    version: u64,
    /// The SPARQL leg text that produced them (for reporting).
    sparql: String,
    /// Solution count of that leg (reported on hits, so warm and cold
    /// runs of one query show the same `SparqlRun::solutions`).
    solutions: usize,
    /// The relational table the oriented, deduplicated pairs rows are
    /// materialised under. It stays in the catalog while this entry (or a
    /// query reading it) holds the guard, so a warm REPLACEVARIABLE run
    /// joins against it directly — no re-materialisation, no catalog
    /// version churn (which would invalidate every plan template
    /// engine-wide).
    pub(super) table: Arc<PairsTable>,
}

/// A materialised `__kb_pairs_N` table, owned by whoever holds this guard
/// — the pairs-cache entry and every query reading the table. The last
/// holder to let go drops the table from the catalog, so a query never
/// loses its table to an eviction, a replacement or `clear_cache`, and no
/// path (capacity 0, a shrunk cache) can strand one.
#[derive(Debug)]
pub(super) struct PairsTable {
    catalog: crosse_relational::storage::Catalog,
    pub(super) name: String,
}

impl Drop for PairsTable {
    fn drop(&mut self) {
        // Already gone only if a user dropped it by name.
        let _ = self.catalog.drop_table(&self.name);
    }
}

impl Default for SparqlLegCache {
    fn default() -> Self {
        SparqlLegCache {
            entries: Mutex::new_labeled("sqm.leg_cache", Lru::new(DEFAULT_CACHE_CAPACITY)),
            pairs: Mutex::new_labeled("sqm.pairs_cache", Lru::new(DEFAULT_CACHE_CAPACITY)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl SparqlLegCache {
    fn key(graphs: &[&str], second: &str) -> (String, String) {
        (graphs.join("\u{1f}"), second.to_string())
    }

    fn get(&self, graphs: &[&str], sparql: &str, version: u64) -> Option<Solutions> {
        let key = Self::key(graphs, sparql);
        match self.entries.lock().get(&key) {
            Some((v, sols)) if *v == version => {
                self.hits.fetch_add(1, AtomicOrdering::Relaxed);
                Some(sols.clone())
            }
            _ => {
                self.misses.fetch_add(1, AtomicOrdering::Relaxed);
                None
            }
        }
    }

    fn put(&self, graphs: &[&str], sparql: &str, version: u64, sols: &Solutions) {
        self.entries
            .lock()
            .put(Self::key(graphs, sparql), (version, sols.clone()));
    }

    /// Version-valid cached pairs. Nothing is counted here: the caller
    /// counts a *hit* once it has seen the table is still there, and
    /// otherwise falls through to `run_sparql_leg`, whose own cache lookup
    /// counts the event (one leg executed = one hit-or-miss, warm or cold).
    fn get_pairs(&self, graphs: &[&str], prop_key: &str, version: u64) -> Option<CachedPairs> {
        let key = Self::key(graphs, prop_key);
        self.pairs.lock().get(&key).filter(|c| c.version == version).cloned()
    }

    /// Version-valid cached pairs without touching recency or the
    /// hit/miss counters — the diagnostic (`EXPLAIN`) lookup.
    pub(super) fn peek_pairs(&self, graphs: &[&str], prop_key: &str, version: u64) -> Option<CachedPairs> {
        match self.pairs.lock().peek(&Self::key(graphs, prop_key)) {
            Some(cached) if cached.version == version => Some(cached.clone()),
            _ => None,
        }
    }

    /// Publish a pairs entry. What it displaces (the replaced entry, LRU
    /// evictions) is released after the cache lock: a guard's drop takes
    /// the catalog lock. The caller still holds its own clone of the new
    /// entry's guard, so nothing is dropped under the lock at capacity 0
    /// either.
    fn put_pairs(&self, graphs: &[&str], prop_key: &str, cached: CachedPairs) {
        let displaced = self.pairs.lock().put_evicting(Self::key(graphs, prop_key), cached);
        drop(displaced);
    }

    pub(super) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(AtomicOrdering::Relaxed),
            misses: self.misses.load(AtomicOrdering::Relaxed),
            evictions: self.entries.lock().stats().evictions
                + self.pairs.lock().stats().evictions,
        }
    }
}

impl SesqlEngine {
    /// Parse a SPARQL SELECT once per distinct text, returning the shared
    /// compiled AST (bounded LRU — generated leg texts vary with the live
    /// predicate set, so old entries age out instead of accumulating).
    fn parse_cached(&self, sparql: &str) -> Result<Arc<crosse_rdf::sparql::ast::Query>> {
        if let Some(q) = self.parsed.lock().get(sparql) {
            return Ok(q.clone());
        }
        let q = Arc::new(crosse_rdf::sparql::parser::parse_query(sparql)?);
        self.parsed.lock().put(sparql.to_string(), q.clone());
        Ok(q)
    }

    /// Evaluate one SPARQL leg with version-checked caching and record it
    /// in the pipeline report.
    fn run_sparql_leg(
        &self,
        graphs: &[&str],
        sparql: &str,
        parsed: Option<&crosse_rdf::sparql::ast::Query>,
        purpose: String,
        report: &mut PipelineReport,
    ) -> Result<Solutions> {
        let version = self.kb.store().version();
        let t = Instant::now();
        // The compiled AST is cached per query text, so repeated legs skip
        // the parser even when the solution cache is invalidated.
        let opts =
            crosse_rdf::sparql::eval::EvalOptions { threads: self.exec_threads(), ..Default::default() };
        let evaluate = |parsed: Option<&crosse_rdf::sparql::ast::Query>| -> Result<Solutions> {
            match parsed {
                Some(q) => Ok(crosse_rdf::sparql::eval::evaluate_with(
                    self.kb.store(),
                    graphs,
                    q,
                    &opts,
                )?),
                None => {
                    let q = self.parse_cached(sparql)?;
                    Ok(crosse_rdf::sparql::eval::evaluate_with(
                        self.kb.store(),
                        graphs,
                        &q,
                        &opts,
                    )?)
                }
            }
        };
        let (sols, cached) = match self.cache.get(graphs, sparql, version) {
            Some(s) => (s, true),
            None => {
                let s = evaluate(parsed)?;
                self.cache.put(graphs, sparql, version, &s);
                (s, false)
            }
        };
        let duration = t.elapsed();
        report.sparql_exec += duration;
        report.sparql_runs.push(SparqlRun {
            purpose,
            sparql: sparql.to_string(),
            solutions: sols.len(),
            duration,
            cached,
            shared: false,
        });
        Ok(sols)
    }

    /// Generate + run the SPARQL leg returning (subject, object) pairs for
    /// a property name in the user's context.
    pub(super) fn property_pairs(
        &self,
        user: &str,
        property: &str,
        purpose: String,
        report: &mut PipelineReport,
    ) -> Result<Solutions> {
        let graphs = self.kb.context_graphs(user);
        let refs: Vec<&str> = graphs.iter().map(String::as_str).collect();
        let predicates = self.resolve_predicates(&refs, property);
        let sparql = sparql_pairs_query(&predicates, property);
        self.run_sparql_leg(&refs, &sparql, None, purpose, report)
    }

    /// Resolve a property argument to concrete predicate IRIs: an argument
    /// containing `://` is used verbatim; otherwise every predicate in the
    /// user's context whose local name equals the argument matches.
    pub(super) fn resolve_predicates(&self, graphs: &[&str], property: &str) -> Vec<Term> {
        if property.contains("://") {
            return vec![Term::iri(property)];
        }
        let matching: Vec<Term> = self
            .kb
            .store()
            .distinct_predicates(graphs)
            .into_iter()
            .filter(|p| p.matches_lexical(property))
            .collect();
        if matching.is_empty() {
            // Keep the literal name: the generated query still runs (and
            // returns no solutions), which is the honest outcome for an
            // unknown property.
            vec![Term::iri(property)]
        } else {
            matching
        }
    }

    /// Resolve a constant argument to concrete subject IRIs: an argument
    /// containing `://` is used verbatim; otherwise every IRI in the
    /// store's dictionary whose local name (or full text) equals the
    /// argument is a candidate — the ID-native evaluator short-circuits
    /// candidates that never occur as subjects, so over-approximating
    /// costs nothing.
    pub(super) fn resolve_constant_subjects(&self, constant: &str) -> Vec<Term> {
        if constant.contains("://") {
            return vec![Term::iri(constant)];
        }
        let matching = self.kb.store().dictionary().iris_matching_lexical(constant);
        if matching.is_empty() {
            // Keep the literal name: the generated query still runs (and
            // returns no solutions), the honest outcome for an unknown
            // constant.
            vec![Term::iri(constant)]
        } else {
            matching
        }
    }

    /// Values replacing an ontology constant (paper Sec. IV-A.5): a stored
    /// SPARQL query's output if `property` names one, else the objects of
    /// `<constant> <property> ?o` — with the constant resolved and pushed
    /// into the SPARQL pattern, so the leg fetches only the constant's own
    /// objects instead of every (s, o) pair of the property.
    pub(super) fn replacement_values(
        &self,
        user: &str,
        constant: &str,
        property: &str,
        e: &Enrichment,
        report: &mut PipelineReport,
    ) -> Result<Vec<Value>> {
        let interner = self.db.interner();
        if let Some(stored) = self.stored.get(property) {
            let graphs = self.kb.context_graphs(user);
            let refs: Vec<&str> = graphs.iter().map(String::as_str).collect();
            let sols = self.run_sparql_leg(
                &refs,
                &stored.sparql,
                Some(&stored.query),
                e.to_string(),
                report,
            )?;
            let terms = sols.column(&stored.output_variable)?;
            return Ok(terms.iter().map(|t| term_to_value_in(t, interner)).collect());
        }
        // Property-based: objects of (constant, property, ?o).
        let graphs = self.kb.context_graphs(user);
        let refs: Vec<&str> = graphs.iter().map(String::as_str).collect();
        let predicates = self.resolve_predicates(&refs, property);
        let subjects = self.resolve_constant_subjects(constant);
        let sparql = sparql_objects_query(&subjects, &predicates);
        let sols = self.run_sparql_leg(&refs, &sparql, None, e.to_string(), report)?;
        let o_idx = sols.var_index("o").expect("objects query binds ?o");
        let mut seen: std::collections::HashSet<Value> =
            std::collections::HashSet::with_capacity(sols.rows.len());
        let mut out = Vec::with_capacity(sols.rows.len());
        for row in &sols.rows {
            if let Some(o) = &row[o_idx] {
                let v = term_to_value_in(o, interner);
                if seen.insert(v.clone()) {
                    out.push(v);
                }
            }
        }
        Ok(out)
    }

    /// The materialised relational pairs table for `property` in `user`'s
    /// context — the oriented, deduplicated KB pairs rows of the
    /// REPLACEVARIABLE expansion. A row (a, b) means "a value equal to
    /// `a` may also match as `b`"; the expansion direction decides the
    /// orientation(s). The cache entry (keyed by context graphs,
    /// property + direction, KB version) keeps the table alive in the
    /// catalog across executions: a warm run skips the SPARQL leg, the
    /// term→value conversion *and* the re-materialisation (no catalog
    /// version churn), reporting the leg as `cached + shared`. The caller
    /// holds the returned guard for as long as it reads the table.
    fn pairs_table(
        &self,
        user: &str,
        property: &str,
        purpose: String,
        report: &mut PipelineReport,
    ) -> Result<Arc<PairsTable>> {
        let graphs = self.kb.context_graphs(user);
        let refs: Vec<&str> = graphs.iter().map(String::as_str).collect();
        let version = self.kb.store().version();
        let prop_key = format!("{property}\u{1f}{:?}", self.options.expand);
        // A table a user dropped by name is a miss: the leg cache still
        // holds the solutions to rebuild it from.
        if let Some(cached) = self
            .cache
            .get_pairs(&refs, &prop_key, version)
            .filter(|c| self.db.catalog().has_table(&c.table.name))
        {
            self.cache.hits.fetch_add(1, AtomicOrdering::Relaxed);
            report.sparql_runs.push(SparqlRun {
                purpose,
                sparql: cached.sparql,
                solutions: cached.solutions,
                duration: Duration::ZERO,
                cached: true,
                shared: true,
            });
            return Ok(cached.table);
        }
        let sols = self.property_pairs(user, property, purpose, report)?;
        let sparql = report
            .sparql_runs
            .last()
            .map(|r| r.sparql.clone())
            .unwrap_or_default();
        let s_idx = sols.var_index("s").expect("pairs query binds ?s");
        let o_idx = sols.var_index("o").expect("pairs query binds ?o");
        let interner = self.db.interner();
        let symmetric = self.options.expand == ExpandDirection::Symmetric;
        let capacity = sols.rows.len() * if symmetric { 2 } else { 1 };
        // Hash-dedup (first-seen order) instead of sort+dedup: O(n) with
        // cheap interned keys, and no O(n log n) comparison pass.
        let mut seen: std::collections::HashSet<(Value, Value)> =
            std::collections::HashSet::with_capacity(capacity);
        let mut rows: Vec<Row> = Vec::with_capacity(capacity);
        let mut push = |a: Value, b: Value, rows: &mut Vec<Row>| {
            if seen.insert((a.clone(), b.clone())) {
                rows.push(vec![a, b]);
            }
        };
        for r in &sols.rows {
            if let (Some(s), Some(o)) = (&r[s_idx], &r[o_idx]) {
                let (sv, ov) = (term_to_value_in(s, interner), term_to_value_in(o, interner));
                match self.options.expand {
                    ExpandDirection::Forward => push(sv, ov, &mut rows),
                    ExpandDirection::Inverse => push(ov, sv, &mut rows),
                    ExpandDirection::Symmetric => {
                        push(sv.clone(), ov.clone(), &mut rows);
                        push(ov, sv, &mut rows);
                    }
                }
            }
        }
        // Unique per materialisation: concurrent REPLACEVARIABLE queries
        // (and successive KB versions) never collide on a table name.
        static PAIRS_SEQ: std::sync::atomic::AtomicU64 =
            std::sync::atomic::AtomicU64::new(0);
        let name = format!(
            "__kb_pairs_{}",
            PAIRS_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        );
        self.db.materialise_owned(&name, &pairs_table_schema(), rows)?;
        let table = Arc::new(PairsTable { catalog: self.db.catalog().clone(), name });
        self.cache.put_pairs(
            &refs,
            &prop_key,
            CachedPairs { version, sparql, solutions: sols.len(), table: Arc::clone(&table) },
        );
        Ok(table)
    }

    /// REPLACEVARIABLE execution strategy: the ontology pairs for `prop`
    /// are materialised as a relational table; a rewritten query joins
    /// through it so the tagged condition also matches through related
    /// values; when `include_self` is set the original query's rows are
    /// united in (deduplicated).
    pub(super) fn execute_with_variable_expansion(
        &self,
        user: &str,
        select: &Select,
        cond_expr: &Expr,
        attr: &str,
        property: &str,
        report: &mut PipelineReport,
    ) -> Result<RowSet> {
        let purpose = format!("REPLACEVARIABLE(_, {attr}, {property})");
        // Held until the rows are collected: the table cannot leave the
        // catalog under this query, whatever happens to its cache entry.
        let table = self.pairs_table(user, property, purpose, report)?;
        let query = variable_expansion_select(
            select,
            cond_expr,
            attr,
            &table.name,
            self.options.include_self,
        )?;
        let rows = self.db.compile(Arc::new(query)).execute_once(&crosse_relational::Params::new())?;
        Ok(rows.collect_rows()?)
    }
}

/// Schema of a materialised REPLACEVARIABLE pairs table.
pub(super) fn pairs_table_schema() -> Schema {
    Schema::new(vec![
        Column::new("subj", DataType::Text),
        Column::new("obj", DataType::Text),
    ])
}

/// A term as it appears inside a generated SPARQL pattern.
fn pattern_iri(t: &Term) -> &str {
    match t {
        Term::Iri(i) => i,
        other => other.lexical_form(),
    }
}

/// Generate the pairs SPARQL text for a set of candidate predicates.
pub(super) fn sparql_pairs_query(predicates: &[Term], property: &str) -> String {
    let branch = |p: &Term| format!("?s <{}> ?o", pattern_iri(p));
    match predicates {
        [] => format!("SELECT ?s ?o WHERE {{ ?s <{property}> ?o }}"),
        [single] => format!("SELECT ?s ?o WHERE {{ {} }}", branch(single)),
        many => {
            let branches: Vec<String> =
                many.iter().map(|p| format!("{{ {} }}", branch(p))).collect();
            format!("SELECT ?s ?o WHERE {{ {} }}", branches.join(" UNION "))
        }
    }
}

/// Generate the objects SPARQL text for resolved constant subjects ×
/// candidate predicates: `SELECT ?o WHERE { <s> <p> ?o }`, UNION-ing over
/// every (subject, predicate) combination. This pushes a REPLACECONSTANT
/// argument into the pattern, so the knowledge base is probed by constant
/// instead of streamed and filtered client-side.
pub(super) fn sparql_objects_query(subjects: &[Term], predicates: &[Term]) -> String {
    let mut branches: Vec<String> = Vec::with_capacity(subjects.len() * predicates.len());
    for s in subjects {
        for p in predicates {
            branches.push(format!("<{}> <{}> ?o", pattern_iri(s), pattern_iri(p)));
        }
    }
    match branches.as_slice() {
        [single] => format!("SELECT ?o WHERE {{ {single} }}"),
        many => {
            let parts: Vec<String> = many.iter().map(|b| format!("{{ {b} }}")).collect();
            format!("SELECT ?o WHERE {{ {} }}", parts.join(" UNION "))
        }
    }
}

/// Apply the multi-value policy to (s, o) solutions.
pub(super) fn apply_multi_policy(sols: Solutions, policy: MultiValuePolicy) -> Solutions {
    if policy == MultiValuePolicy::RowPerMatch {
        return sols;
    }
    let s_idx = sols.var_index("s").expect("pairs query binds ?s");
    let o_idx = sols.var_index("o").expect("pairs query binds ?o");
    let mut order: Vec<Term> = Vec::new();
    let mut objects: std::collections::HashMap<Term, Vec<Term>> =
        std::collections::HashMap::new();
    for row in &sols.rows {
        if let (Some(s), Some(o)) = (&row[s_idx], &row[o_idx]) {
            let entry = objects.entry(s.clone()).or_insert_with(|| {
                order.push(s.clone());
                Vec::new()
            });
            entry.push(o.clone());
        }
    }
    let rows = order
        .into_iter()
        .map(|s| {
            let os = &objects[&s];
            let o = match policy {
                MultiValuePolicy::FirstMatch => os[0].clone(),
                MultiValuePolicy::Concatenate => {
                    if os.len() == 1 {
                        os[0].clone()
                    } else {
                        Term::lit(
                            os.iter()
                                .map(|t| t.lexical_form().to_string())
                                .collect::<Vec<_>>()
                                .join("; "),
                        )
                    }
                }
                MultiValuePolicy::RowPerMatch => unreachable!(),
            };
            let mut row = vec![None; sols.variables.len()];
            row[s_idx] = Some(s);
            row[o_idx] = Some(o);
            row
        })
        .collect();
    Solutions { variables: sols.variables, rows }
}

/// Subjects related to `concept` in (s, o) solutions.
pub(super) fn concept_subjects(sols: &Solutions, concept: &str) -> Result<Vec<Term>> {
    let s_idx = sols
        .var_index("s")
        .ok_or_else(|| Error::sqm("pairs query must bind ?s"))?;
    let o_idx = sols
        .var_index("o")
        .ok_or_else(|| Error::sqm("pairs query must bind ?o"))?;
    let mut out = Vec::new();
    for row in &sols.rows {
        if let (Some(s), Some(o)) = (&row[s_idx], &row[o_idx]) {
            if o.matches_lexical(concept) && !out.contains(s) {
                out.push(s.clone());
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::super::tests::*;
    use super::*;

    #[test]
    fn repeated_query_hits_sparql_cache() {
        let e = engine();
        let r1 = e.execute("director", CACHED_QUERY).unwrap();
        assert!(!r1.report.sparql_runs[0].cached);
        let r2 = e.execute("director", CACHED_QUERY).unwrap();
        assert!(r2.report.sparql_runs[0].cached);
        assert_eq!(r1.rows.rows, r2.rows.rows);
        let stats = e.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn kb_mutation_invalidates_cache() {
        let e = engine();
        let r1 = e.execute("director", CACHED_QUERY).unwrap();
        let nulls_before = r1
            .rows
            .column_values("dangerLevel")
            .unwrap()
            .iter()
            .filter(|v| v.is_null())
            .count();
        e.knowledge_base()
            .assert_statement(
                "director",
                &Triple::new(iri("Sn"), iri("dangerLevel"), lit("2")),
            )
            .unwrap();
        let r2 = e.execute("director", CACHED_QUERY).unwrap();
        assert!(!r2.report.sparql_runs[0].cached, "stale entry must not serve");
        let nulls_after = r2
            .rows
            .column_values("dangerLevel")
            .unwrap()
            .iter()
            .filter(|v| v.is_null())
            .count();
        assert!(nulls_after < nulls_before, "Sn's new danger level is visible");
    }

    #[test]
    fn cache_is_per_user_context() {
        let e = engine();
        e.knowledge_base().register_user("other");
        e.execute("director", CACHED_QUERY).unwrap();
        let r = e.execute("other", CACHED_QUERY).unwrap();
        // `other` has an empty context — different graphs, no false hit.
        assert!(!r.report.sparql_runs[0].cached);
        assert!(r.rows.column_values("dangerLevel").unwrap().iter().all(Value::is_null));
    }

    #[test]
    fn clear_cache_forces_reevaluation() {
        let e = engine();
        e.execute("director", CACHED_QUERY).unwrap();
        e.clear_cache();
        let r = e.execute("director", CACHED_QUERY).unwrap();
        assert!(!r.report.sparql_runs[0].cached);
    }

    #[test]
    fn stored_query_leg_is_cached_too() {
        let e = engine();
        e.stored_queries()
            .register(
                "dangerQuery",
                "SELECT ?e WHERE { ?e <dangerLevel> ?d . FILTER(?d >= 4) }",
            )
            .unwrap();
        let q = "SELECT landfill_name FROM elem_contained \
                 WHERE ${elem_name = HazardousWaste:cond1} \
                 ENRICH REPLACECONSTANT(cond1, HazardousWaste, dangerQuery)";
        let r1 = e.execute("director", q).unwrap();
        assert!(!r1.report.sparql_runs[0].cached);
        let r2 = e.execute("director", q).unwrap();
        assert!(r2.report.sparql_runs[0].cached);
        assert_eq!(r1.rows.rows, r2.rows.rows);
    }
}
