// srclint: allow(R002): the generated SPARQL always projects the ?s/?o variables the expects look up
//! The SPARQL legs of the pipeline and the cache in front of them: one
//! version-checked LRU holding each leg's solutions, the keyed
//! SCHEMA*/BOOL* legs built from them and the REPLACEVARIABLE pairs
//! tables (standalone relational tables that no catalog holds), the
//! generated SPARQL text and the predicate/subject resolution behind it.

use crosse_relational::storage::Table;

use super::enrich::{Clause, KeyedLeg};
use super::rewrite::variable_expansion_select;
use super::*;

/// The FROM name a REPLACEVARIABLE rewrite gives its pairs table. The
/// table is bound to the rewritten statement's handle, never to the
/// catalog; an unquoted identifier cannot spell the name, and a catalog
/// table a quoted one spells makes the rewrite a planning error rather
/// than a shadow.
const PAIRS_TABLE: &str = "kb:pairs";

/// Version-checked, LRU-bounded cache of SPARQL legs in every form the
/// pipeline reuses one, keyed by the user's context graphs. Entries are
/// valid only while the triple store's mutation version is unchanged, so
/// any annotation, import or retraction invalidates the whole view at
/// zero bookkeeping cost; the LRU bound keeps adversarial traffic (many
/// distinct generated legs) from growing memory without limit. Entries
/// hold `Arc`s, so a hit copies no rows.
///
/// One counting rule: a valid entry counts a hit, an evaluated leg counts
/// a miss. A keyed or pairs lookup that finds nothing valid counts
/// nothing itself; its leg then runs through the solutions entry, so one
/// leg is one hit or one miss, warm or cold.
#[derive(Debug)]
pub(super) struct SparqlLegCache {
    entries: Mutex<Lru<LegKey, (u64, Leg)>>,
    // Hit/miss counters live outside the LRU: a version-stale entry is a
    // *miss* for the caller even though the LRU lookup succeeded.
    hits: AtomicU64,
    misses: AtomicU64,
}

/// What a cached leg depends on besides the KB version. `graphs` is the
/// user's context graphs, `\u{1f}`-joined.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum LegKey {
    /// A leg's solutions, by its SPARQL text.
    Solutions { graphs: String, sparql: String },
    /// A keyed SCHEMA*/BOOL* leg. Engine clones made by `with_options` /
    /// `with_mapping` share the cache, so the multi-value policy and the
    /// attribute's mapping strategy are part of the key.
    Keyed {
        graphs: String,
        property: String,
        concept: Option<String>,
        strategy: MapStrategy,
        policy: MultiValuePolicy,
    },
    /// A REPLACEVARIABLE leg's pairs table.
    Pairs { graphs: String, property: String },
}

/// One cached leg. A keyed leg and a pairs table carry the SPARQL text
/// and solution count of the leg they were built from, reported on hits
/// so warm and cold runs of one query show the same `SparqlRun`.
#[derive(Debug, Clone)]
enum Leg {
    Solutions(Arc<Solutions>),
    Keyed { sparql: String, solutions: usize, leg: Arc<KeyedLeg> },
    Pairs { sparql: String, solutions: usize, table: Arc<Table> },
}

impl Default for SparqlLegCache {
    fn default() -> Self {
        SparqlLegCache {
            entries: Mutex::new_labeled("sqm.leg_cache", Lru::new(DEFAULT_CACHE_CAPACITY)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl SparqlLegCache {
    /// A version-valid entry, refreshed and counted as a hit.
    fn get(&self, key: &LegKey, version: u64) -> Option<Leg> {
        let leg = self.entries.lock().get(key).filter(|(v, _)| *v == version)?.1.clone();
        self.hits.fetch_add(1, AtomicOrdering::Relaxed);
        Some(leg)
    }

    /// A version-valid entry without touching recency or the counters —
    /// the diagnostic (`EXPLAIN`) lookup.
    fn peek(&self, key: &LegKey, version: u64) -> Option<Leg> {
        Some(self.entries.lock().peek(key).filter(|(v, _)| *v == version)?.1.clone())
    }

    fn put(&self, key: LegKey, version: u64, leg: Leg) {
        self.entries.lock().put(key, (version, leg));
    }

    pub(super) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(AtomicOrdering::Relaxed),
            misses: self.misses.load(AtomicOrdering::Relaxed),
            evictions: self.entries.lock().stats().evictions,
        }
    }

    pub(super) fn set_capacity(&self, capacity: usize) {
        self.entries.lock().set_capacity(capacity);
    }

    pub(super) fn clear(&self) {
        self.entries.lock().clear();
    }
}

fn graphs_key(graphs: &[&str]) -> String {
    graphs.join("\u{1f}")
}

impl SesqlEngine {
    /// Compile a generated SPARQL leg once per distinct text (bounded LRU:
    /// generated leg texts vary with the live predicate set, so old
    /// entries age out instead of accumulating). A handle never goes
    /// stale: each execution resolves it against the store afresh.
    fn compiled_leg(&self, sparql: &str) -> Result<Arc<PreparedSparql>> {
        if let Some(p) = self.compiled_legs.lock().get(sparql) {
            return Ok(p.clone());
        }
        let p = Arc::new(crosse_rdf::sparql::prepare(sparql)?);
        self.compiled_legs.lock().put(sparql.to_string(), p.clone());
        Ok(p)
    }

    /// Execute one SPARQL leg behind the version-checked solution cache,
    /// and record it in the pipeline report. `sparql` is its text;
    /// `stored` is a stored query's precompiled handle. A generated leg
    /// (`None`) is compiled through `compiled_leg` only when its solutions
    /// miss, so a warm leg never touches the compiled-leg LRU.
    fn run_sparql_leg(
        &self,
        graphs: &[&str],
        sparql: &str,
        stored: Option<&PreparedSparql>,
        purpose: String,
        report: &mut PipelineReport,
    ) -> Result<Arc<Solutions>> {
        let version = self.kb.store().version();
        let t = Instant::now();
        let key = LegKey::Solutions { graphs: graphs_key(graphs), sparql: sparql.to_string() };
        let (sols, cached) = match self.cache.get(&key, version) {
            Some(Leg::Solutions(s)) => (s, true),
            _ => {
                self.cache.misses.fetch_add(1, AtomicOrdering::Relaxed);
                let generated;
                let prepared = match stored {
                    Some(p) => p,
                    None => {
                        generated = self.compiled_leg(sparql)?;
                        &*generated
                    }
                };
                let s = Arc::new(prepared.execute(self.kb.store(), graphs, &SparqlParams::new())?);
                self.cache.put(key, version, Leg::Solutions(Arc::clone(&s)));
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
    /// a property name in the user's context; returns the leg's text too.
    fn property_pairs(
        &self,
        user: &str,
        property: &str,
        purpose: String,
        report: &mut PipelineReport,
    ) -> Result<(String, Arc<Solutions>)> {
        let graphs = self.kb.context_graphs(user);
        let refs: Vec<&str> = graphs.iter().map(String::as_str).collect();
        let predicates = self.resolve_predicates(&refs, property);
        let sparql = sparql_pairs_query(&predicates, property);
        let sols = self.run_sparql_leg(&refs, &sparql, None, purpose, report)?;
        Ok((sparql, sols))
    }

    /// Clause `clause`'s keyed leg over the context graphs `graphs`
    /// (`\u{1f}`-joined). Warm, it is one lookup. Cold, the pairs leg runs
    /// through `property_pairs` (which counts its hit or miss), is keyed
    /// (a SCHEMA* clause's objects per key under the engine's multi-value
    /// policy) and published under the KB version read before it ran.
    /// Keying counts towards `report.join`.
    pub(super) fn keyed_leg(
        &self,
        user: &str,
        graphs: &str,
        clause: &Clause,
        purpose: String,
        report: &mut PipelineReport,
    ) -> Result<Arc<KeyedLeg>> {
        let policy = self.options.multi;
        let key = LegKey::Keyed {
            graphs: graphs.to_string(),
            property: clause.property.to_string(),
            concept: clause.concept.map(str::to_string),
            strategy: clause.strategy.clone(),
            policy,
        };
        let version = self.kb.store().version();
        let t = Instant::now();
        if let Some(Leg::Keyed { sparql, solutions, leg }) = self.cache.get(&key, version) {
            let duration = t.elapsed();
            report.sparql_exec += duration;
            report.sparql_runs.push(SparqlRun {
                purpose,
                sparql,
                solutions,
                duration,
                cached: true,
                shared: false,
            });
            return Ok(leg);
        }
        let (sparql, sols) = self.property_pairs(user, clause.property, purpose, report)?;
        let t = Instant::now();
        let solutions = sols.len();
        let leg = Arc::new(KeyedLeg::new(clause, &sols, policy, self.db.interner()));
        self.cache.put(key, version, Leg::Keyed { sparql, solutions, leg: Arc::clone(&leg) });
        report.join += t.elapsed();
        Ok(leg)
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
                Some(&stored.prepared),
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

    /// The relational pairs table for `property` in `user`'s context —
    /// the oriented, deduplicated KB pairs rows of the REPLACEVARIABLE
    /// expansion, in a standalone table no catalog holds. A row (a, b)
    /// means "a value equal to `a` may also match as `b`"; the expansion
    /// is symmetric, so every KB pair appears in both orientations. The
    /// leg cache keeps the table across executions: a warm run skips the
    /// SPARQL leg, the term→value conversion *and* the table build,
    /// reporting the leg as `cached + shared`.
    fn pairs_table(
        &self,
        user: &str,
        property: &str,
        purpose: String,
        report: &mut PipelineReport,
    ) -> Result<Arc<Table>> {
        let graphs = self.kb.context_graphs(user);
        let refs: Vec<&str> = graphs.iter().map(String::as_str).collect();
        let version = self.kb.store().version();
        let key = LegKey::Pairs { graphs: graphs_key(&refs), property: property.to_string() };
        if let Some(Leg::Pairs { sparql, solutions, table }) = self.cache.get(&key, version) {
            report.sparql_runs.push(SparqlRun {
                purpose,
                sparql,
                solutions,
                duration: Duration::ZERO,
                cached: true,
                shared: true,
            });
            return Ok(table);
        }
        let (sparql, sols) = self.property_pairs(user, property, purpose, report)?;
        let s_idx = sols.var_index("s").expect("pairs query binds ?s");
        let o_idx = sols.var_index("o").expect("pairs query binds ?o");
        let interner = self.db.interner();
        let capacity = sols.rows.len() * 2;
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
                push(sv.clone(), ov.clone(), &mut rows);
                push(ov, sv, &mut rows);
            }
        }
        let table = Arc::new(Table::new(PAIRS_TABLE, pairs_table_schema()));
        table.insert_many(rows)?;
        let solutions = sols.len();
        self.cache.put(key, version, Leg::Pairs { sparql, solutions, table: Arc::clone(&table) });
        Ok(table)
    }

    /// The pairs table an `EXPLAIN` of a REPLACEVARIABLE query plans
    /// against: the cached one while it is valid (found without touching
    /// recency or the counters), else an empty standalone table. Either
    /// way nothing is evaluated and the catalog is not touched.
    pub(super) fn explain_pairs_table(&self, graphs: &[&str], property: &str) -> Arc<Table> {
        let key = LegKey::Pairs { graphs: graphs_key(graphs), property: property.to_string() };
        match self.cache.peek(&key, self.kb.store().version()) {
            Some(Leg::Pairs { table, .. }) => table,
            _ => Arc::new(Table::new(PAIRS_TABLE, pairs_table_schema())),
        }
    }

    /// REPLACEVARIABLE execution strategy: the ontology pairs for `prop`
    /// are built into a standalone relational table; a rewritten query,
    /// compiled with that table bound to its handle, joins through it so
    /// the tagged condition also matches through related values; when
    /// `include_self` is set the original query's rows are united in
    /// (deduplicated).
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
        let table = self.pairs_table(user, property, purpose, report)?;
        let query = variable_expansion_select(
            select,
            cond_expr,
            attr,
            &table.name,
            self.options.include_self,
        )?;
        let rows = self
            .db
            .compile(Arc::new(query))
            .with_table(table)
            .execute_once(&crosse_relational::Params::new())?;
        Ok(rows.collect_rows()?)
    }
}

/// Schema of a REPLACEVARIABLE pairs table.
fn pairs_table_schema() -> Schema {
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

#[cfg(test)]
mod tests {
    use super::super::tests::*;
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn repeated_query_hits_sparql_cache() {
        let e = engine();
        let r1 = e.execute("director", CACHED_QUERY).unwrap();
        assert!(!r1.report.sparql_runs[0].cached);
        let compiled = e.ast_cache_stats();
        let r2 = e.execute("director", CACHED_QUERY).unwrap();
        assert!(r2.report.sparql_runs[0].cached);
        assert_eq!(r1.rows.rows, r2.rows.rows);
        // The warm clause is one keyed-leg lookup: no compiled-leg probe.
        assert_eq!(e.ast_cache_stats(), compiled);
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
        e.knowledge_base().register_user("other").unwrap();
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
        // The leg's solutions and the keyed leg built from them.
        assert_eq!(e.cache.entries.lock().len(), 2);
        e.clear_cache();
        assert_eq!(e.cache.entries.lock().len(), 0);
        let r = e.execute("director", CACHED_QUERY).unwrap();
        assert!(!r.report.sparql_runs[0].cached);
    }

    fn col_strings(rows: &RowSet, name: &str) -> Vec<String> {
        let mut v: Vec<String> =
            rows.column_values(name).unwrap().iter().map(Value::lexical_form).collect();
        v.sort();
        v
    }

    #[test]
    fn warm_replace_constant_leg_is_not_recompiled() {
        // A generated leg is compiled only when its solutions miss: the
        // warm run is one solutions lookup and never probes the
        // compiled-leg LRU.
        let e = engine();
        let q = "SELECT landfill_name FROM elem_contained \
                 WHERE ${elem_name = Hg:c} ENRICH REPLACECONSTANT(c, Hg, oreAssemblage)";
        let cold = e.execute("director", q).unwrap();
        assert!(!cold.report.sparql_runs[0].cached);
        let compiled = e.ast_cache_stats();
        let warm = e.execute("director", q).unwrap();
        assert!(warm.report.sparql_runs[0].cached);
        assert_eq!(e.ast_cache_stats(), compiled);
        assert_eq!(col_strings(&warm.rows, "landfill_name"), vec!["b"]); // As is in b
        assert_eq!(warm.rows.rows, cold.rows.rows);
    }

    #[test]
    fn cached_compiled_leg_sees_terms_asserted_later() {
        // A compiled leg is reused, never its resolution: the leg's
        // constants are unknown to the store on the first run and found on
        // the second, from the same cached handle.
        let e = engine();
        let q = "SELECT landfill_name FROM elem_contained \
                 WHERE ${elem_name = DangerList:cond1} \
                 ENRICH REPLACECONSTANT(cond1, DangerList, includes)";
        assert_eq!(e.execute("director", q).unwrap().rows.len(), 0);
        let compiled = e.ast_cache_stats();
        e.knowledge_base()
            .assert_statement("director", &Triple::new(iri("DangerList"), iri("includes"), iri("Hg")))
            .unwrap();
        let r = e.execute("director", q).unwrap();
        assert!(!r.report.sparql_runs[0].cached);
        let after = e.ast_cache_stats();
        assert_eq!(after.misses, compiled.misses, "the leg is not recompiled");
        assert!(after.hits > compiled.hits);
        assert_eq!(col_strings(&r.rows, "landfill_name"), vec!["a", "c"]); // Hg is in a and c

        // The same for a stored query registered before its terms exist.
        e.stored_queries().register("toxicQuery", "SELECT ?e WHERE { ?e <isA> <Toxic> }").unwrap();
        let q = "SELECT landfill_name FROM elem_contained \
                 WHERE ${elem_name = Toxic:c} ENRICH REPLACECONSTANT(c, Toxic, toxicQuery)";
        assert_eq!(e.execute("director", q).unwrap().rows.len(), 0);
        e.knowledge_base()
            .assert_statement("director", &Triple::new(iri("As"), iri("isA"), iri("Toxic")))
            .unwrap();
        let r = e.execute("director", q).unwrap();
        assert_eq!(col_strings(&r.rows, "landfill_name"), vec!["b"]); // As is in b
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

    /// A result's column names and types, and its rows as a multiset.
    type Canonical = (Vec<(String, DataType)>, Vec<String>);

    /// The rows are sorted by their debug form, so `Int(1)` and
    /// `Float(1.0)` stay apart.
    fn canonical(r: &EnrichedResult) -> Canonical {
        let columns = r.rows.schema.columns.iter().map(|c| (c.name.clone(), c.data_type)).collect();
        let mut rows: Vec<String> = r.rows.rows.iter().map(|row| format!("{row:?}")).collect();
        rows.sort();
        (columns, rows)
    }

    fn with_policy(e: &SesqlEngine, multi: MultiValuePolicy) -> SesqlEngine {
        e.clone().with_options(EnrichOptions { multi, ..EnrichOptions::default() })
    }

    const SCHEMA_QUERIES: [&str; 4] = [
        "SELECT elem_name, landfill_name FROM elem_contained \
         ENRICH SCHEMAEXTENSION(elem_name, dangerLevel) \
                BOOLSCHEMAEXTENSION(elem_name, isA, HazardousWaste)",
        "SELECT elem_name FROM elem_contained ENRICH SCHEMAREPLACEMENT(elem_name, dangerLevel)",
        "SELECT name, city FROM landfill ENRICH SCHEMAREPLACEMENT(city, inCountry)",
        "SELECT name, city FROM landfill \
         ENRICH BOOLSCHEMAREPLACEMENT(city, inCountry, Italy) SCHEMAEXTENSION(city, inCountry)",
    ];

    #[test]
    fn clones_never_serve_each_others_keyed_legs() {
        // Hg has two danger levels, and a namespaced IRI carries a third
        // that only an `IriPrefix` mapping of elem_name reads.
        let e = engine();
        for (s, o) in [("Hg", "6"), ("http://smg.eu/elem/Hg", "7")] {
            e.knowledge_base()
                .assert_statement("director", &Triple::new(iri(s), iri("dangerLevel"), lit(o)))
                .unwrap();
        }
        let mapping = ResourceMapping::parse("elem_contained.elem_name -> iri http://smg.eu/elem/")
            .unwrap();
        // The mapping applies to a column by the table it comes from.
        let q = "SELECT elem_contained.elem_name FROM elem_contained WHERE landfill_name = 'a' \
                 ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)";
        let levels = |r: &EnrichedResult| {
            let mut hg: Vec<String> = r
                .rows
                .rows
                .iter()
                .filter(|row| row[0] == Value::from("Hg"))
                .map(|row| row[1].lexical_form())
                .collect();
            hg.sort();
            hg
        };
        let engines = [
            e.clone(),
            with_policy(&e, MultiValuePolicy::Concatenate),
            e.clone().with_mapping(mapping),
        ];
        // Concatenate joins the objects of every subject `Hg` keys to:
        // under `LocalName` that includes the namespaced IRI.
        let expected: [&[&str]; 3] = [&["5", "6", "7"], &["5; 6; 7"], &["7"]];
        for round in 0..2 {
            for (engine, want) in engines.iter().zip(expected) {
                let r = engine.execute("director", q).unwrap();
                assert_eq!(levels(&r), want, "round {round}");
            }
        }
        // One solutions entry for the shared SPARQL leg, one keyed leg per
        // clone.
        assert_eq!(e.cache.entries.lock().len(), 4);
    }

    #[test]
    fn zero_capacity_evaluates_every_leg() {
        let e = engine();
        e.set_cache_capacity(0);
        for _ in 0..2 {
            let r = e.execute("director", SCHEMA_QUERIES[0]).unwrap();
            assert!(r.report.sparql_runs.iter().all(|run| !run.cached));
        }
        assert_eq!(e.cache.entries.lock().len(), 0);
        let stats = e.cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 4));
    }

    #[test]
    fn keyed_leg_evictions_are_counted() {
        // Two policies over one SPARQL leg in a cache of two entries: the
        // solutions entry, read on every run, stays; the keyed leg of the
        // other policy is evicted on every switch.
        let e = engine();
        e.set_cache_capacity(2);
        let concatenate = with_policy(&e, MultiValuePolicy::Concatenate);
        let runs: Vec<bool> = [&e, &concatenate, &e]
            .into_iter()
            .map(|engine| engine.execute("director", CACHED_QUERY).unwrap().report.sparql_runs[0].cached)
            .collect();
        assert_eq!(runs, [false, true, true], "the solutions entry serves every switch");
        assert_eq!(e.cache_stats().evictions, 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Warm SCHEMA*/BOOL* results equal cold ones (after
        /// `clear_cache()`) as exact multisets with equal column types,
        /// under every multi-value policy, after each step of an
        /// interleaving of the director's asserts, retractions and
        /// acceptances of a second user's statements. Each step runs every
        /// query twice warm: the first may find legs stale, the second
        /// finds them valid.
        #[test]
        fn warm_keyed_legs_equal_cold_under_kb_writes(
            steps in prop::collection::vec((0..4usize, 0..12usize), 1..8),
        ) {
            let pool = [
                ("Hg", "dangerLevel", lit("5")),
                ("Hg", "dangerLevel", lit("4.5")),
                ("Cu", "dangerLevel", lit("extreme")),
                ("Sn", "dangerLevel", lit("3")),
                ("http://smg.eu/elem/Sn", "dangerLevel", lit("2")),
                ("Pb", "isA", iri("HazardousWaste")),
                ("Cu", "isA", iri("HazardousWaste")),
                ("Sn", "isA", iri("http://smg.eu/class#HazardousWaste")),
                ("Torino", "inCountry", iri("Italy")),
                ("Lyon", "inCountry", iri("Italy")),
                ("Torino", "inCountry", iri("France")),
                ("Collegno", "inCountry", lit("1")),
            ];
            let e = engine();
            let kb = e.knowledge_base();
            kb.register_user("crowd").unwrap();
            let engines: Vec<SesqlEngine> = [
                MultiValuePolicy::RowPerMatch,
                MultiValuePolicy::FirstMatch,
                MultiValuePolicy::Concatenate,
            ]
            .into_iter()
            .map(|policy| with_policy(&e, policy))
            .collect();
            let run_all = || -> Vec<Canonical> {
                engines
                    .iter()
                    .flat_map(|engine| {
                        SCHEMA_QUERIES.iter().map(move |q| canonical(&engine.execute("director", q).unwrap()))
                    })
                    .collect()
            };
            for &(op, t) in &steps {
                let (s, p, o) = &pool[t];
                let triple = Triple::new(iri(s), iri(p), o.clone());
                match (op, kb.find_statement(&triple)) {
                    (0, _) => drop(kb.assert_statement("director", &triple).unwrap()),
                    (1, _) => drop(kb.assert_statement("crowd", &triple).unwrap()),
                    (2, Some(id)) => kb.accept_statement("director", id).unwrap(),
                    (3, Some(id)) => kb.retract("director", id).unwrap(),
                    _ => {}
                }
                let stale = run_all();
                let warm = run_all();
                e.clear_cache();
                let cold = run_all();
                prop_assert_eq!(&stale, &cold);
                prop_assert_eq!(&warm, &cold);
            }
        }
    }
}
