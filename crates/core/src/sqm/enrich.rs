// srclint: allow(R002): a pairs leg always projects the ?s/?o variables the expects look up
//! Phase C: every schema-level enrichment (SCHEMA* and BOOLSCHEMA*) in one
//! pass over the SQL leg's rows — the paper's JoinManager and "final SQL
//! query" (Fig. 6) as one stage.
//!
//! The pass works out the output schema first: every base column keeps
//! its position, a replacement takes its attribute's position, extensions
//! follow in clause order, and a name that clashes with an earlier one
//! gets `_2`, `_3`, …. Each clause's SPARQL leg is then a [`KeyedLeg`]:
//! one map from lexical key ([`MapStrategy::keys`]) to the objects,
//! already converted to values and taken by the multi-value policy per
//! key, so a row's attribute value finds its matches with one lookup of
//! `Value::lexical`; a BOOL leg is the key set of the subjects related to
//! its concept. Keyed legs are cached beside the leg solutions
//! (`SparqlLegCache`) under the same KB version stamp, so a warm clause
//! costs one cache lookup, not the size of its leg. A
//! base row whose clauses each yield one value is written in place: each
//! replaced column overwritten, the extensions appended. Only a row with
//! several matches takes the cross product, earlier clauses varying
//! slowest, a value without a match padded with NULL. Either way an
//! enrichment column's type is the type of the values written to it in
//! this execution.

use std::collections::{HashMap, HashSet};

use crosse_relational::Interner;

use super::rewrite::{local_label, resolve_attr};
use super::*;

/// One SCHEMA*/BOOL* clause, resolved against the SQL leg's schema.
#[derive(Clone)]
pub(super) struct Clause<'q> {
    /// The enriched attribute as written in the clause.
    pub(super) attr: &'q str,
    /// Its position in the SQL leg's schema.
    pub(super) index: usize,
    pub(super) property: &'q str,
    /// The BOOL variants' concept.
    pub(super) concept: Option<&'q str>,
    /// A replacement takes the attribute's place in the output.
    pub(super) replaces: bool,
    /// How the attribute's values denote RDF terms.
    pub(super) strategy: MapStrategy,
}

/// Where an output column's values come from.
#[derive(Clone, Copy)]
pub(super) enum Source {
    /// A column of the SQL leg.
    Base(usize),
    /// A clause, by its position in the clause list.
    Clause(usize),
}

impl SesqlEngine {
    /// Phase C of `run`: resolve the schema enrichments of `query`
    /// against `rows`, fetch their keyed legs, and write the enriched rows.
    /// `report.join` times the pass and any keying of cold legs (the legs
    /// themselves are `sparql_exec`).
    pub(super) fn enrich(
        &self,
        user: &str,
        query: &SesqlQuery,
        rows: RowSet,
        report: &mut PipelineReport,
    ) -> Result<RowSet> {
        let mut clauses = Vec::new();
        let mut purposes = Vec::new();
        for e in &query.enrichments {
            let (attr, property, concept, replaces) = match e {
                Enrichment::SchemaExtension { attr, property } => (attr, property, None, false),
                Enrichment::SchemaReplacement { attr, property } => (attr, property, None, true),
                Enrichment::BoolSchemaExtension {
                    attr,
                    property,
                    concept,
                } => (attr, property, Some(concept.as_str()), false),
                Enrichment::BoolSchemaReplacement {
                    attr,
                    property,
                    concept,
                } => (attr, property, Some(concept.as_str()), true),
                Enrichment::ReplaceConstant { .. } | Enrichment::ReplaceVariable { .. } => continue,
            };
            let index = resolve_attr(&rows, attr)?;
            let strategy = self.attr_strategy(&query.select, &rows.schema.columns[index]);
            clauses.push(Clause { attr, index, property, concept, replaces, strategy });
            purposes.push(e.to_string());
        }
        if clauses.is_empty() {
            return Ok(rows);
        }
        let columns = output_columns(&rows.schema, &clauses)?;
        let graphs = self.kb.context_graphs(user).join("\u{1f}");
        let mut legs = Vec::with_capacity(clauses.len());
        for (clause, purpose) in clauses.iter().zip(purposes) {
            legs.push(self.keyed_leg(user, &graphs, clause, purpose, report)?);
        }
        let t = Instant::now();
        let rows = write_rows(rows, &clauses, &columns, &legs);
        report.join += t.elapsed();
        Ok(rows)
    }

    /// Strategy for matching output column `col` of `select` against RDF
    /// terms: the resource mapping's rule for the table the column comes
    /// from — its qualifier's FROM item, or for an unqualified column the
    /// FROM table that has it (one, or the statement would not have
    /// planned).
    fn attr_strategy(&self, select: &Select, col: &Column) -> MapStrategy {
        fn table_of<'s>(tr: &'s TableRef, owns: &impl Fn(&str, &str) -> bool) -> Option<&'s str> {
            match tr {
                TableRef::Table { name, alias } => {
                    owns(name, alias.as_ref().unwrap_or(name)).then_some(name.as_str())
                }
                TableRef::Join { left, right, .. } => {
                    table_of(left, owns).or_else(|| table_of(right, owns))
                }
            }
        }
        if self.mapping.is_empty() {
            return MapStrategy::LocalName;
        }
        let owns = |name: &str, qualifier: &str| match &col.qualifier {
            Some(q) => qualifier.eq_ignore_ascii_case(q),
            None => {
                let table = self.db.catalog().get_table(name);
                table.is_ok_and(|t| t.schema.index_of_output(&col.name).is_some())
            }
        };
        let table = select.from.iter().find_map(|tr| table_of(tr, &owns));
        self.mapping.strategy(table.or(col.qualifier.as_deref()).unwrap_or(""), &col.name)
    }
}

/// The output schema's sources and names. Errors when two clauses
/// replace the same attribute: the output has one place for it.
pub(super) fn output_columns(base: &Schema, clauses: &[Clause]) -> Result<Vec<(Source, String)>> {
    let label = |c: &Clause| local_label(c.concept.unwrap_or(c.property));
    let mut columns = Vec::with_capacity(base.len() + clauses.len());
    for (i, col) in base.columns.iter().enumerate() {
        let mut replacing = clauses
            .iter()
            .enumerate()
            .filter(|(_, c)| c.replaces && c.index == i);
        columns.push(match (replacing.next(), replacing.next()) {
            (None, _) => (Source::Base(i), col.display_name()),
            (Some((k, c)), None) => (Source::Clause(k), label(c)),
            (Some((_, c)), Some(_)) => {
                return Err(Error::sqm(format!(
                    "attribute `{}` is replaced by more than one enrichment; \
                     replace it once and extend with the others",
                    c.attr
                )))
            }
        });
    }
    columns.extend(
        clauses
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.replaces)
            .map(|(k, c)| (Source::Clause(k), label(c))),
    );
    // De-duplicate output names (SQL result sets may repeat names, but
    // the enriched result is easier to consume with unique ones).
    for k in 1..columns.len() {
        let (earlier, rest) = columns.split_at_mut(k);
        let name = &mut rest[0].1;
        let base_len = name.len();
        let mut n = 1;
        while earlier.iter().any(|(_, s)| s.eq_ignore_ascii_case(name)) {
            n += 1;
            name.truncate(base_len);
            name.push_str(&format!("_{n}"));
        }
    }
    Ok(columns)
}

/// One clause's leg, keyed for lookups by a row's attribute value. It
/// owns its keys and values, so the leg cache holds it across executions
/// while the KB version stands.
#[derive(Debug)]
pub(super) enum KeyedLeg {
    /// Lexical key → the objects of the subjects found under it, in
    /// solution order, as values (an unbound object is NULL).
    Objects(HashMap<String, Vec<Value>>),
    /// The keys of the subjects related to the BOOL clause's concept.
    Keys(HashSet<String>),
}

impl KeyedLeg {
    /// Key `sols`, a pairs leg (`?s ?o`). A SCHEMA* clause takes the
    /// multi-value `policy` over each key's objects, from every subject
    /// the key finds: under `LocalName`, `Hg` and `http://smg.eu/elem/Hg`
    /// give a value of `Hg` one object list, so `FirstMatch` and
    /// `Concatenate` write one row for it.
    pub(super) fn new(
        clause: &Clause,
        sols: &Solutions,
        policy: MultiValuePolicy,
        interner: &Interner,
    ) -> Self {
        let s = sols.var_index("s").expect("pairs query binds ?s");
        let o = sols.var_index("o").expect("pairs query binds ?o");
        match clause.concept {
            None => {
                let mut found: HashMap<String, Vec<Option<&Term>>> = HashMap::new();
                for row in &sols.rows {
                    if let Some(subject) = &row[s] {
                        for key in clause.strategy.keys(subject) {
                            found.entry(key.to_string()).or_default().push(row[o].as_ref());
                        }
                    }
                }
                KeyedLeg::Objects(
                    found
                        .into_iter()
                        .filter_map(|(key, objects)| {
                            let values = policy_values(&objects, policy, interner);
                            (!values.is_empty()).then_some((key, values))
                        })
                        .collect(),
                )
            }
            Some(concept) => KeyedLeg::Keys(
                sols.rows
                    .iter()
                    .filter_map(|row| match (&row[s], &row[o]) {
                        (Some(subject), Some(object)) if object.matches_lexical(concept) => {
                            Some(subject)
                        }
                        _ => None,
                    })
                    .flat_map(|subject| clause.strategy.keys(subject))
                    .map(str::to_string)
                    .collect(),
            ),
        }
    }

    /// The values `value` takes from this leg: its objects, or one NULL
    /// when it has none; a BOOL leg's one answer.
    fn values(&self, value: &Value) -> &[Value] {
        const NULL: &[Value] = &[Value::Null];
        const TRUE: &[Value] = &[Value::Bool(true)];
        const FALSE: &[Value] = &[Value::Bool(false)];
        if value.is_null() {
            return match self {
                KeyedLeg::Objects(_) => NULL,
                KeyedLeg::Keys(_) => FALSE,
            };
        }
        let key = value.lexical();
        match self {
            KeyedLeg::Objects(objects) => objects.get(key.as_ref()).map_or(NULL, Vec::as_slice),
            KeyedLeg::Keys(keys) if keys.contains(key.as_ref()) => TRUE,
            KeyedLeg::Keys(_) => FALSE,
        }
    }
}

/// The values one attribute value takes from its objects (in solution
/// order, `None` unbound) under `policy`: every object, an unbound one
/// NULL; or, of the bound ones, the first, or all their lexical forms
/// joined by `"; "`. Empty when the policy keeps nothing.
fn policy_values(
    objects: &[Option<&Term>],
    policy: MultiValuePolicy,
    interner: &Interner,
) -> Vec<Value> {
    let value = |t: &Term| term_to_value_in(t, interner);
    let bound: Vec<&Term> = objects.iter().flatten().copied().collect();
    match (policy, bound.as_slice()) {
        (MultiValuePolicy::RowPerMatch, _) => {
            objects.iter().map(|t| t.map_or(Value::Null, value)).collect()
        }
        (_, []) => Vec::new(),
        (MultiValuePolicy::FirstMatch, [first, ..]) | (_, [first]) => vec![value(first)],
        (_, many) => {
            let forms: Vec<&str> = many.iter().map(|t| t.lexical_form()).collect();
            vec![interner.value(&forms.join("; "))]
        }
    }
}

/// The running type of an enrichment column: the unified type of the
/// values written so far (Int+Float widen to Float, anything else mixed
/// falls back to Text), and whether they had more than one type (only
/// then do values need widening).
#[derive(Default, Clone, Copy)]
struct ColumnType {
    unified: Option<DataType>,
    mixed: bool,
}

impl ColumnType {
    fn note(&mut self, v: &Value) {
        let Some(dt) = v.data_type() else { return };
        self.unified = Some(match self.unified {
            None => dt,
            Some(t) if t == dt => t,
            Some(t) => {
                self.mixed = true;
                match (t, dt) {
                    (DataType::Int, DataType::Float) | (DataType::Float, DataType::Int) => {
                        DataType::Float
                    }
                    _ => DataType::Text,
                }
            }
        });
    }
}

/// The pass proper: write each enriched row once, in the layout of
/// `columns` (see [`output_columns`]); `legs[k]` is clause `k`'s leg.
pub(super) fn write_rows(
    rows: RowSet,
    clauses: &[Clause],
    columns: &[(Source, String)],
    legs: &[Arc<KeyedLeg>],
) -> RowSet {
    let width = rows.schema.len();
    let mut types = vec![ColumnType::default(); clauses.len()];
    // Per clause, for the current base row: the values it takes.
    let mut picks: Vec<&[Value]> = vec![&[]; clauses.len()];
    let mut at = vec![0usize; clauses.len()];
    let mut out: Vec<Row> = Vec::with_capacity(rows.rows.len());
    for mut row in rows.rows {
        let mut combinations = 1;
        for (k, (clause, leg)) in clauses.iter().zip(legs).enumerate() {
            picks[k] = leg.values(&row[clause.index]);
            combinations *= picks[k].len();
        }
        if combinations == 1 {
            // One value per clause: overwrite the replaced columns and
            // append the extensions, in column order.
            row.reserve_exact(columns.len() - width);
            for (p, &(source, _)) in columns.iter().enumerate() {
                if let Source::Clause(k) = source {
                    let v = picks[k][0].clone();
                    types[k].note(&v);
                    if p < width {
                        row[p] = v;
                    } else {
                        row.push(v);
                    }
                }
            }
            out.push(row);
            continue;
        }
        at.fill(0);
        for n in 0..combinations {
            // The last output row of a base row takes its values.
            let last = n + 1 == combinations;
            let enriched: Row = columns
                .iter()
                .map(|&(source, _)| match source {
                    Source::Base(i) if last => std::mem::replace(&mut row[i], Value::Null),
                    Source::Base(i) => row[i].clone(),
                    Source::Clause(k) => {
                        let v = picks[k][at[k]].clone();
                        types[k].note(&v);
                        v
                    }
                })
                .collect();
            out.push(enriched);
            // Advance the odometer: the last clause varies fastest.
            for k in (0..clauses.len()).rev() {
                at[k] += 1;
                if at[k] < picks[k].len() {
                    break;
                }
                at[k] = 0;
            }
        }
    }

    // Type each enrichment column by its values, widening the values to
    // that type, so the reported type is one every value in it has.
    let mut schema = Vec::with_capacity(columns.len());
    for (p, (source, name)) in columns.iter().enumerate() {
        let data_type = match *source {
            Source::Base(i) => rows.schema.columns[i].data_type,
            Source::Clause(k) if clauses[k].concept.is_some() => DataType::Bool,
            Source::Clause(k) => {
                let dt = types[k].unified.unwrap_or(DataType::Text);
                if types[k].mixed {
                    widen_column(&mut out, p, dt);
                }
                dt
            }
        };
        schema.push(Column::new(name.clone(), data_type));
    }
    RowSet {
        schema: Schema::new(schema),
        rows: out,
    }
}

/// Convert column `idx` to its unified type: Int widens to Float,
/// heterogeneous columns stringify to Text, NULLs stay NULL.
fn widen_column(rows: &mut [Row], idx: usize, ty: DataType) {
    for row in rows.iter_mut() {
        let v = &mut row[idx];
        match (&*v, ty) {
            (Value::Int(i), DataType::Float) => *v = Value::Float(*i as f64),
            (Value::Null, _) => {}
            (other, DataType::Text) if other.data_type() != Some(DataType::Text) => {
                *v = Value::from(other.lexical_form());
            }
            _ => {}
        }
    }
}

/// Numeric/boolean interpretation of a literal's lexical form, if any.
fn scalar_literal(value: &str) -> Option<Value> {
    value.parse().map(Value::Int)
        .or_else(|_| value.parse().map(Value::Float))
        .or_else(|_| value.parse().map(Value::Bool))
        .ok()
}

/// Convert an RDF term to a relational value, interning text through
/// `interner`. Literals that parse as numbers or booleans become typed;
/// everything else arrives as text (IRIs by local name, so enriched
/// columns read like the paper's examples: `Italy`, not
/// `<http://...#Italy>`).
pub(crate) fn term_to_value_in(term: &Term, interner: &Interner) -> Value {
    match term {
        Term::Literal { value, .. } => {
            scalar_literal(value).unwrap_or_else(|| interner.value(value))
        }
        Term::Iri(_) => interner.value(term.local_name()),
        Term::Blank(b) => interner.value(&format!("_:{b}")),
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{engine, iri, lit};
    use super::*;
    use crosse_rdf::store::Triple;
    use proptest::prelude::*;

    fn rowset() -> RowSet {
        RowSet {
            schema: Schema::new(vec![
                Column::new("elem_name", DataType::Text),
                Column::new("landfill_name", DataType::Text),
            ]),
            rows: vec![
                vec![Value::from("Hg"), Value::from("a")],
                vec![Value::from("Pb"), Value::from("a")],
                vec![Value::from("Cu"), Value::from("a")],
                vec![Value::Null, Value::from("a")],
            ],
        }
    }

    fn pairs(rows: Vec<(Term, Term)>) -> Solutions {
        Solutions {
            variables: vec!["s".into(), "o".into()],
            rows: rows
                .into_iter()
                .map(|(s, o)| vec![Some(s), Some(o)])
                .collect(),
        }
    }

    fn solutions() -> Solutions {
        pairs(vec![
            (iri("Hg"), lit("5")),
            (iri("Pb"), lit("4")),
            (iri("As"), lit("5")),
        ])
    }

    fn extension(strategy: MapStrategy) -> Clause<'static> {
        Clause {
            attr: "elem_name",
            index: 0,
            property: "dangerLevel",
            concept: None,
            replaces: false,
            strategy,
        }
    }

    /// The pass over `legs` keyed by [`KeyedLeg::new`], as `enrich` keys
    /// them on a leg-cache miss.
    fn run(rows: RowSet, clauses: &[Clause], legs: &[Solutions]) -> Result<RowSet> {
        run_under(MultiValuePolicy::RowPerMatch, rows, clauses, legs)
    }

    fn run_under(
        policy: MultiValuePolicy,
        rows: RowSet,
        clauses: &[Clause],
        legs: &[Solutions],
    ) -> Result<RowSet> {
        let columns = output_columns(&rows.schema, clauses)?;
        let interner = Interner::new();
        let legs: Vec<Arc<KeyedLeg>> = clauses
            .iter()
            .zip(legs)
            .map(|(c, sols)| Arc::new(KeyedLeg::new(c, sols, policy, &interner)))
            .collect();
        Ok(write_rows(rows, clauses, &columns, &legs))
    }

    fn extend(sols: Solutions) -> RowSet {
        run(rowset(), &[extension(MapStrategy::LocalName)], &[sols]).unwrap()
    }

    #[test]
    fn left_outer_keeps_unmatched_with_null() {
        let out = extend(solutions());
        assert_eq!(out.len(), 4);
        assert_eq!(out.schema.len(), 3);
        assert_eq!(out.rows[0][2], Value::Int(5)); // Hg → "5" numeric
        assert_eq!(out.rows[1][2], Value::Int(4));
        assert!(out.rows[2][2].is_null()); // Cu unmatched
        assert!(out.rows[3][2].is_null()); // NULL never matches
        assert!(out.rows[3][0].is_null());
    }

    #[test]
    fn multi_valued_enrichment_multiplies_rows() {
        let mut sols = solutions();
        sols.rows.push(vec![Some(iri("Hg")), Some(lit("extreme"))]);
        let out = extend(sols);
        // Hg matches twice → 2 rows, in solution order; Pb 1; Cu + NULL
        // padded → 5 total.
        assert_eq!(out.len(), 5);
        let hg: Vec<_> = out
            .rows
            .iter()
            .filter(|r| r[0] == Value::from("Hg"))
            .collect();
        assert_eq!(hg.len(), 2);
        assert_eq!(hg[0][2].lexical_form(), "5");
        assert_eq!(hg[1][2].lexical_form(), "extreme");
    }

    #[test]
    fn namespaced_iris_match_by_local_name() {
        let out = extend(pairs(vec![(
            iri("http://smg.eu/elem#Hg"),
            iri("http://smg.eu/class#HeavyMetal"),
        )]));
        // imported IRI arrives as local name
        assert_eq!(out.rows[0][2], Value::from("HeavyMetal"));
        assert!(out.rows[1..].iter().all(|r| r[2].is_null()));
    }

    #[test]
    fn literal_strategy_rejects_iris() {
        let out = run(rowset(), &[extension(MapStrategy::Literal)], &[solutions()]).unwrap();
        assert!(
            out.rows.iter().all(|r| r[2].is_null()),
            "solutions bind IRIs"
        );
        let literal = pairs(vec![(lit("Hg"), lit("5"))]);
        let out = run(rowset(), &[extension(MapStrategy::Literal)], &[literal]).unwrap();
        assert_eq!(out.rows[0][2], Value::Int(5));
    }

    #[test]
    fn appended_column_type_is_the_type_of_its_values() {
        // Int + Float widen to Float; anything else mixed becomes Text —
        // values included, so the reported type never lies. Only values a
        // row takes count: As's "extreme" matches no row.
        let typed = |objects: [&str; 2]| {
            let out = extend(pairs(vec![
                (iri("Hg"), lit(objects[0])),
                (iri("Pb"), lit(objects[1])),
                (iri("As"), lit("extreme")),
            ]));
            (
                out.schema.columns[2].data_type,
                out.rows[0][2].clone(),
                out.rows[1][2].clone(),
            )
        };
        assert_eq!(
            typed(["5", "4.5"]),
            (DataType::Float, Value::Float(5.0), Value::Float(4.5))
        );
        assert_eq!(
            typed(["5", "extreme"]),
            (DataType::Text, Value::from("5"), Value::from("extreme"))
        );
        assert_eq!(
            typed(["5", "4"]),
            (DataType::Int, Value::Int(5), Value::Int(4))
        );
    }

    #[test]
    fn term_to_value_conversions() {
        let interner = Interner::new();
        let value = |t: Term| term_to_value_in(&t, &interner);
        assert_eq!(value(lit("5")), Value::Int(5));
        assert_eq!(value(lit("2.5")), Value::Float(2.5));
        assert_eq!(value(lit("true")), Value::Bool(true));
        assert_eq!(value(lit("Torino")), Value::from("Torino"));
        assert_eq!(value(iri("http://x#Italy")), Value::from("Italy"));
        assert_eq!(value(Term::blank("b1")), Value::from("_:b1"));
    }

    #[test]
    fn empty_solutions_left_outer_pads_everything() {
        let out = extend(pairs(vec![]));
        assert_eq!(out.len(), 4);
        assert!(out.rows.iter().all(|r| r[2].is_null()));
        assert_eq!(out.schema.columns[2].data_type, DataType::Text);
    }

    #[test]
    fn earlier_clauses_vary_slowest() {
        let sols = pairs(vec![(iri("Hg"), lit("5")), (iri("Hg"), lit("6"))]);
        let c = extension(MapStrategy::LocalName);
        let out = run(rowset(), &[c.clone(), c], &[sols.clone(), sols]).unwrap();
        let hg: Vec<(String, String)> = out.rows[..4]
            .iter()
            .map(|r| (r[2].lexical_form(), r[3].lexical_form()))
            .collect();
        let pair = |a: &str, b: &str| (a.to_string(), b.to_string());
        assert_eq!(hg, [pair("5", "5"), pair("5", "6"), pair("6", "5"), pair("6", "6")]);
        assert_eq!(out.rows[4][0], Value::from("Pb"));
    }

    #[test]
    fn bool_leg_is_a_key_set() {
        // Duplicate subjects count once, only subjects related to the
        // concept count, and a NULL attribute is false.
        let clause = Clause {
            concept: Some("HazardousWaste"),
            ..extension(MapStrategy::LocalName)
        };
        let sols = pairs(vec![
            (iri("http://smg.eu/elem#Hg"), iri("HazardousWaste")),
            (iri("Hg"), iri("HazardousWaste")),
            (iri("Pb"), iri("HazardousWaste")),
            (iri("Pb"), iri("HazardousWaste")),
            (iri("Cu"), iri("Metal")),
        ]);
        let out = run(rowset(), &[clause], &[sols]).unwrap();
        assert_eq!(out.schema.columns[2].data_type, DataType::Bool);
        let column: Vec<&Value> = out.rows.iter().map(|r| &r[2]).collect();
        let (t, f) = (Value::Bool(true), Value::Bool(false));
        assert_eq!(column, [&t, &t, &f, &f]);
    }

    #[test]
    fn second_replacement_of_an_attribute_is_an_error() {
        let e = engine();
        for clauses in [
            "BOOLSCHEMAREPLACEMENT(city, inCountry, Italy) SCHEMAREPLACEMENT(city, inCountry)",
            "SCHEMAREPLACEMENT(city, inCountry) BOOLSCHEMAREPLACEMENT(city, inCountry, Italy)",
            "SCHEMAREPLACEMENT(city, inCountry) SCHEMAREPLACEMENT(l.city, inCountry)",
        ] {
            let sesql = format!("SELECT l.name, l.city FROM landfill l ENRICH {clauses}");
            match e.execute("director", &sesql) {
                Err(Error::Sqm(m)) => assert!(m.contains("`city`"), "{clauses}: {m}"),
                other => panic!("{clauses}: expected an SQM error, got {other:?}"),
            }
        }
        // A replacement next to an extension of the same attribute is fine.
        let r = e
            .execute(
                "director",
                "SELECT name, city FROM landfill \
                 ENRICH SCHEMAREPLACEMENT(city, inCountry) \
                        BOOLSCHEMAEXTENSION(city, inCountry, Italy)",
            )
            .unwrap();
        let names: Vec<&str> = r
            .rows
            .schema
            .columns
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(names, ["name", "inCountry", "Italy"]);
    }

    #[test]
    fn mapping_rule_applies_by_the_table_a_column_comes_from() {
        // The rule reads only the namespaced IRI (level 7), never the bare
        // `Hg` (level 5), however the column is spelled: unqualified,
        // table-qualified, alias-qualified, or in Ex. 4.6's self-join.
        let e = engine();
        let triple = Triple::new(iri("http://smg.eu/elem/Hg"), iri("dangerLevel"), lit("7"));
        e.knowledge_base().assert_statement("director", &triple).unwrap();
        let rule = "elem_contained.elem_name -> iri http://smg.eu/elem/";
        let mapped = e.clone().with_mapping(ResourceMapping::parse(rule).unwrap());
        for sql in [
            "SELECT elem_name FROM elem_contained WHERE landfill_name = 'a'",
            "SELECT elem_contained.elem_name FROM elem_contained WHERE landfill_name = 'a'",
            "SELECT e.elem_name FROM elem_contained e WHERE e.landfill_name = 'a'",
            "SELECT e1.landfill_name AS l1, e2.landfill_name AS l2, e1.elem_name \
             FROM elem_contained AS e1, elem_contained AS e2 \
             WHERE e1.landfill_name <> e2.landfill_name AND e1.elem_name = e2.elem_name",
        ] {
            let sesql = format!("{sql} ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)");
            let rows = mapped.execute("director", &sesql).unwrap().rows;
            let columns = &rows.schema.columns;
            let name = columns.iter().position(|c| c.name.ends_with("elem_name")).unwrap();
            let levels: Vec<String> = rows
                .rows
                .iter()
                .filter(|row| row[name] == Value::from("Hg"))
                .map(|row| row[row.len() - 1].lexical_form())
                .collect();
            assert!(!levels.is_empty() && levels.iter().all(|l| l == "7"), "{sql}: {levels:?}");
        }
    }

    // ---- the pass against a nested-loop oracle ------------------------------

    fn values() -> Vec<Value> {
        vec![
            Value::Null,
            Value::from("Hg"),
            Value::from("Pb"),
            Value::Int(1),
            Value::Float(1.0),
            Value::from("1"),
            Value::from("1.0"),
            Value::from("Italy"),
            Value::from("elem/Hg"),
            Value::from("http://a.org/elem#Hg"),
            Value::Bool(true),
        ]
    }

    fn subjects() -> Vec<Term> {
        vec![
            iri("Hg"),
            iri("http://a.org/elem#Hg"),
            iri("http://a.org/elem/Hg"),
            iri("http://a.org/elem/Pb"),
            iri("http://b.org/1"),
            iri("Italy"),
            lit("Hg"),
            lit("1"),
            lit("1.0"),
            lit("Italy"),
            lit("true"),
            Term::blank("Hg"),
        ]
    }

    fn objects() -> Vec<Term> {
        vec![
            lit("5"),
            lit("4.5"),
            lit("extreme"),
            lit("true"),
            lit("1"),
            iri("http://x.org/geo#Italy"),
            iri("Italy"),
        ]
    }

    fn strategies() -> Vec<MapStrategy> {
        vec![
            MapStrategy::Literal,
            MapStrategy::LocalName,
            MapStrategy::LocalName,
            MapStrategy::LocalName,
            MapStrategy::IriPrefix("http://a.org/".into()),
            MapStrategy::IriPrefix("http://a.org/elem/".into()),
        ]
    }

    const CONCEPTS: [&str; 3] = ["Italy", "extreme", "5"];
    const POLICIES: [MultiValuePolicy; 3] = [
        MultiValuePolicy::RowPerMatch,
        MultiValuePolicy::FirstMatch,
        MultiValuePolicy::Concatenate,
    ];

    /// The specification the pass must meet, written as the slowest thing
    /// that could work: every row against every solution through
    /// `MapStrategy::matches`, the multi-value policy over each value's
    /// matches, then the cross product, then the layout, then the column
    /// types. `None` when two clauses replace one attribute.
    fn oracle(
        policy: MultiValuePolicy,
        rows: &RowSet,
        clauses: &[Clause],
        legs: &[Solutions],
    ) -> Option<(Vec<DataType>, Vec<Row>)> {
        let width = rows.schema.len();
        if (0..width).any(|i| {
            clauses
                .iter()
                .filter(|c| c.replaces && c.index == i)
                .count()
                > 1
        }) {
            return None;
        }
        let interner = Interner::new();
        let mut out: Vec<Row> = Vec::new();
        for row in &rows.rows {
            let mut combos: Vec<Vec<Value>> = vec![Vec::new()];
            for (c, sols) in clauses.iter().zip(legs) {
                let v = &row[c.index];
                let choices: Vec<Value> = match c.concept {
                    Some(concept) => vec![Value::Bool(sols.rows.iter().any(|r| {
                        matches!((&r[0], &r[1]), (Some(s), Some(o))
                            if o.matches_lexical(concept) && c.strategy.matches(v, s))
                    }))],
                    None => {
                        let m: Vec<Option<&Term>> = sols
                            .rows
                            .iter()
                            .filter(|r| r[0].as_ref().is_some_and(|s| c.strategy.matches(v, s)))
                            .map(|r| r[1].as_ref())
                            .collect();
                        let bound: Vec<&Term> = m.iter().flatten().copied().collect();
                        let value = |t: &Term| term_to_value_in(t, &interner);
                        let chosen: Vec<Value> = match policy {
                            MultiValuePolicy::RowPerMatch => {
                                m.iter().map(|t| t.map_or(Value::Null, value)).collect()
                            }
                            MultiValuePolicy::FirstMatch => {
                                bound.first().map(|t| value(t)).into_iter().collect()
                            }
                            MultiValuePolicy::Concatenate if bound.len() > 1 => {
                                let forms: Vec<&str> =
                                    bound.iter().map(|t| t.lexical_form()).collect();
                                vec![Value::from(forms.join("; "))]
                            }
                            MultiValuePolicy::Concatenate => {
                                bound.iter().map(|t| value(t)).collect()
                            }
                        };
                        if chosen.is_empty() {
                            vec![Value::Null]
                        } else {
                            chosen
                        }
                    }
                };
                combos = combos
                    .into_iter()
                    .flat_map(|prefix| {
                        choices.iter().map(move |choice| {
                            let mut p = prefix.clone();
                            p.push(choice.clone());
                            p
                        })
                    })
                    .collect();
            }
            for combo in combos {
                let mut r: Row = (0..width)
                    .map(
                        |i| match clauses.iter().position(|c| c.replaces && c.index == i) {
                            Some(k) => combo[k].clone(),
                            None => row[i].clone(),
                        },
                    )
                    .collect();
                r.extend(
                    clauses
                        .iter()
                        .zip(&combo)
                        .filter(|(c, _)| !c.replaces)
                        .map(|(_, v)| v.clone()),
                );
                out.push(r);
            }
        }
        let mut sources: Vec<Option<&Clause>> = (0..width)
            .map(|i| clauses.iter().find(|c| c.replaces && c.index == i))
            .collect();
        sources.extend(clauses.iter().filter(|c| !c.replaces).map(Some));
        let mut types = Vec::new();
        for (p, source) in sources.into_iter().enumerate() {
            let ty = match source {
                None => rows.schema.columns[p].data_type,
                Some(c) if c.concept.is_some() => DataType::Bool,
                Some(_) => {
                    let seen: HashSet<DataType> =
                        out.iter().filter_map(|r| r[p].data_type()).collect();
                    let ty = match seen.len() {
                        0 => DataType::Text,
                        1 => *seen.iter().next().unwrap(),
                        _ if seen
                            .iter()
                            .all(|t| matches!(t, DataType::Int | DataType::Float)) =>
                        {
                            DataType::Float
                        }
                        _ => DataType::Text,
                    };
                    for r in &mut out {
                        r[p] = match (&r[p], ty) {
                            (Value::Int(i), DataType::Float) => Value::Float(*i as f64),
                            (v, DataType::Text)
                                if !v.is_null() && v.data_type() != Some(DataType::Text) =>
                            {
                                Value::from(v.lexical_form())
                            }
                            (v, _) => v.clone(),
                        };
                    }
                    ty
                }
            };
            types.push(ty);
        }
        Some((types, out))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]
        /// Each case runs under all three multi-value policies. Clause
        /// kinds and strategies are drawn from lists weighted towards
        /// SCHEMA* clauses and the default `LocalName` mapping, where
        /// rows most often match several solutions.
        #[test]
        fn pass_equals_nested_loop_over_matches(
            base in prop::collection::vec((0..11usize, 0..11usize), 0..6),
            clause_specs in prop::collection::vec((0..2usize, 0..6usize, 0..6usize, 0..3usize), 1..5),
            leg_rows in prop::collection::vec(prop::collection::vec((0..13usize, 0..8usize), 0..12), 4..5),
        ) {
            let (values, subjects, objects, strategies) = (values(), subjects(), objects(), strategies());
            let rows = RowSet {
                schema: Schema::new(vec![
                    Column::new("a", DataType::Text),
                    Column::new("b", DataType::Text),
                ]),
                rows: base.iter().map(|&(x, y)| vec![values[x].clone(), values[y].clone()]).collect(),
            };
            // (concept?, replaces?) by kind: SCHEMA* twice as likely as BOOL*.
            const KINDS: [(bool, bool); 6] =
                [(false, false), (false, true), (false, false), (false, true), (true, false), (true, true)];
            let clauses: Vec<Clause> = clause_specs
                .iter()
                .map(|&(index, kind, strategy, concept)| Clause {
                    attr: ["a", "b"][index],
                    index,
                    property: "p",
                    concept: KINDS[kind].0.then_some(CONCEPTS[concept]),
                    replaces: KINDS[kind].1,
                    strategy: strategies[strategy].clone(),
                })
                .collect();
            for policy in POLICIES {
                // Index 12 / 7 is an unbound subject / object.
                let legs: Vec<Solutions> = leg_rows
                    .iter()
                    .map(|rows| Solutions {
                        variables: vec!["s".into(), "o".into()],
                        rows: rows
                            .iter()
                            .map(|&(s, o)| vec![subjects.get(s).cloned(), objects.get(o).cloned()])
                            .collect(),
                    })
                    .collect();
                let expected = oracle(policy, &rows, &clauses, &legs);
                match (run_under(policy, rows.clone(), &clauses, &legs), expected) {
                    (Err(Error::Sqm(_)), None) => {}
                    (Ok(got), Some((types, rows))) => {
                        let got_types: Vec<DataType> = got.schema.columns.iter().map(|c| c.data_type).collect();
                        prop_assert_eq!(got_types, types);
                        // Debug form: Int(1) and Float(1.0) must not pass for each other.
                        prop_assert_eq!(format!("{:?}", got.rows), format!("{rows:?}"));
                    }
                    (got, expected) => prop_assert!(false, "{policy:?}: pass {got:?}, oracle {expected:?}"),
                }
            }
        }
    }
}
