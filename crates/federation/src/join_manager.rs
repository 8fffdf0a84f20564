// srclint: allow(R002): the probe index only stores solution ids whose join variable is bound
//! The JoinManager: combines relational rows with SPARQL solutions.
//!
//! Fig. 6 of the paper: the SQL query and the SPARQL query are "indepen-
//! dently issued on the relational database and on the ontological
//! knowledge base"; the JoinManager then joins the two partial results,
//! using the resource mapping to decide when a relational value and an RDF
//! term denote the same thing.

use std::collections::{HashMap, HashSet};

use crosse_rdf::sparql::eval::Solutions;
use crosse_rdf::term::Term;
use crosse_relational::{Column, DataType, Error, Interner, Result, RowSet, Schema, Value};

use crate::mapping::MapStrategy;

/// Join behaviour for unmatched relational rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombineKind {
    /// Keep only matching rows.
    Inner,
    /// Keep all relational rows; pad missing variables with NULL.
    LeftOuter,
}

/// What to join and which solution variables to import.
#[derive(Debug, Clone)]
pub struct JoinSpec {
    /// Output column of the relational result to match on.
    pub column: String,
    /// Solution variable whose bindings are matched against `column`.
    pub variable: String,
    pub kind: CombineKind,
    /// `(variable, new_column_name)` pairs appended to the output schema.
    pub take: Vec<(String, String)>,
    /// How `column` values denote RDF terms.
    pub strategy: MapStrategy,
}

/// Numeric/boolean interpretation of a literal's lexical form, if any.
fn scalar_literal(value: &str) -> Option<Value> {
    if let Ok(i) = value.parse::<i64>() {
        Some(Value::Int(i))
    } else if let Ok(f) = value.parse::<f64>() {
        Some(Value::Float(f))
    } else if value == "true" {
        Some(Value::Bool(true))
    } else if value == "false" {
        Some(Value::Bool(false))
    } else {
        None
    }
}

/// Convert an RDF term to a relational value. Literals that parse as
/// numbers become numeric; everything else arrives as text (IRIs by local
/// name, so enriched columns read like the paper's examples: `Italy`, not
/// `<http://...#Italy>`).
pub fn term_to_value(term: &Term) -> Value {
    match term {
        Term::Literal { value, .. } => {
            scalar_literal(value).unwrap_or_else(|| Value::from(value.as_str()))
        }
        Term::Iri(_) => Value::from(term.local_name()),
        Term::Blank(b) => Value::from(format!("_:{b}")),
    }
}

/// [`term_to_value`] interning text through `interner`: N occurrences of a
/// term across a solution set cost one allocation total, and downstream
/// equality checks get the interner's pointer fast path.
pub fn term_to_value_in(term: &Term, interner: &Interner) -> Value {
    match term {
        Term::Literal { value, .. } => {
            scalar_literal(value).unwrap_or_else(|| interner.value(value))
        }
        Term::Iri(_) => interner.value(term.local_name()),
        Term::Blank(b) => interner.value(&format!("_:{b}")),
    }
}

/// Join `rows` with `sols` according to `spec` (ad-hoc interner; prefer
/// [`combine_in`] with the owning database's interner on hot paths).
pub fn combine(rows: &RowSet, sols: &Solutions, spec: &JoinSpec) -> Result<RowSet> {
    combine_in(rows, sols, spec, &Interner::new())
}

/// Join `rows` with `sols` according to `spec`, interning imported term
/// values through `interner`.
pub fn combine_in(
    rows: &RowSet,
    sols: &Solutions,
    spec: &JoinSpec,
    interner: &Interner,
) -> Result<RowSet> {
    let col_idx = rows
        .column_index(&spec.column)
        .ok_or_else(|| Error::plan(format!("no output column `{}` to enrich", spec.column)))?;
    let var_idx = sols
        .var_index(&spec.variable)
        .ok_or_else(|| Error::plan(format!("no solution variable `?{}`", spec.variable)))?;
    let take_idx: Vec<usize> = spec
        .take
        .iter()
        .map(|(v, _)| {
            sols.var_index(v)
                .ok_or_else(|| Error::plan(format!("no solution variable `?{v}`")))
        })
        .collect::<Result<_>>()?;

    // Index solutions by every lexical key their match-term answers to.
    let mut index: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, row) in sols.rows.iter().enumerate() {
        if let Some(term) = &row[var_idx] {
            index.entry(term.lexical_form()).or_default().push(i);
            if term.is_iri() {
                let local = term.local_name();
                if local != term.lexical_form() {
                    index.entry(local).or_default().push(i);
                }
            }
        }
    }

    // Every input row produces at least one output row under LeftOuter;
    // reserving up front spares the doubling reallocations on the
    // (dominant) 1:1 match shape.
    let width = rows.schema.len() + take_idx.len();
    let mut out: Vec<Vec<Value>> = Vec::with_capacity(match spec.kind {
        CombineKind::LeftOuter => rows.rows.len(),
        CombineKind::Inner => 0,
    });
    // Output type of each appended column, unified while rows are built
    // (Int+Float widen to Float, anything else mixed falls back to Text)
    // so typing needs no second scan over the output.
    let mut take_types: Vec<Option<DataType>> = vec![None; take_idx.len()];
    for row in &rows.rows {
        let value = &row[col_idx];
        let mut matched = false;
        if !value.is_null() {
            // Borrows the cell for text values — no per-row key allocation.
            let key = value.lexical();
            if let Some(cands) = index.get(key.as_ref()) {
                for &si in cands {
                    let term = sols.rows[si][var_idx].as_ref().expect("indexed ⇒ bound");
                    if !spec.strategy.matches(value, term) {
                        continue;
                    }
                    matched = true;
                    // Exact-width allocation instead of clone-then-push
                    // (which would copy at base width, then reallocate).
                    let mut new_row = Vec::with_capacity(width);
                    new_row.extend_from_slice(row);
                    for (k, &ti) in take_idx.iter().enumerate() {
                        let v = match &sols.rows[si][ti] {
                            Some(t) => term_to_value_in(t, interner),
                            None => Value::Null,
                        };
                        unify_type(&mut take_types[k], &v);
                        new_row.push(v);
                    }
                    out.push(new_row);
                }
            }
        }
        if !matched && spec.kind == CombineKind::LeftOuter {
            let mut new_row = Vec::with_capacity(width);
            new_row.extend_from_slice(row);
            new_row.extend(std::iter::repeat_n(Value::Null, take_idx.len()));
            out.push(new_row);
        }
    }

    // Type the appended columns from the values actually produced, and
    // widen the values to that type, so the reported column type is one
    // every value in the column has.
    let mut schema = Schema::new(rows.schema.columns.clone());
    let base = rows.schema.len();
    for (k, (_, name)) in spec.take.iter().enumerate() {
        let dt = take_types[k].unwrap_or(DataType::Text);
        widen_column(&mut out, base + k, dt);
        schema.columns.push(Column::new(name.clone(), dt));
    }
    Ok(RowSet { schema, rows: out })
}

/// Fold one produced value into the running unified type of its column.
fn unify_type(ty: &mut Option<DataType>, v: &Value) {
    let Some(dt) = v.data_type() else { return };
    *ty = Some(match *ty {
        None => dt,
        Some(t) if t == dt => t,
        Some(DataType::Int) if dt == DataType::Float => DataType::Float,
        Some(DataType::Float) if dt == DataType::Int => DataType::Float,
        Some(_) => DataType::Text,
    });
}

/// Convert column `idx` to its unified type in a single pass: Int widens
/// to Float, heterogeneous columns stringify to Text, NULLs stay NULL.
/// Values already of type `ty` are left untouched.
fn widen_column(rows: &mut [Vec<Value>], idx: usize, ty: DataType) {
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

/// The set of relational values (lexical forms) for which a binding of
/// `variable` exists — used by the boolean enrichments, which only need
/// membership, not the joined rows.
pub fn matching_keys(sols: &Solutions, variable: &str) -> Result<Vec<Term>> {
    let var_idx = sols
        .var_index(variable)
        .ok_or_else(|| Error::plan(format!("no solution variable `?{variable}`")))?;
    let mut seen: HashSet<&Term> = HashSet::new();
    let mut out: Vec<Term> = Vec::new();
    for row in &sols.rows {
        if let Some(t) = &row[var_idx] {
            if seen.insert(t) {
                out.push(t.clone());
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crosse_relational::Column;

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

    fn solutions() -> Solutions {
        Solutions {
            variables: vec!["s".into(), "o".into()],
            rows: vec![
                vec![Some(Term::iri("Hg")), Some(Term::lit("5"))],
                vec![Some(Term::iri("Pb")), Some(Term::lit("4"))],
                vec![Some(Term::iri("As")), Some(Term::lit("5"))],
            ],
        }
    }

    fn spec(kind: CombineKind) -> JoinSpec {
        JoinSpec {
            column: "elem_name".into(),
            variable: "s".into(),
            kind,
            take: vec![("o".into(), "dangerLevel".into())],
            strategy: MapStrategy::LocalName,
        }
    }

    #[test]
    fn left_outer_keeps_unmatched_with_null() {
        let out = combine(&rowset(), &solutions(), &spec(CombineKind::LeftOuter)).unwrap();
        assert_eq!(out.len(), 4);
        assert_eq!(out.schema.len(), 3);
        assert_eq!(out.rows[0][2], Value::Int(5)); // Hg → "5" numeric
        assert_eq!(out.rows[1][2], Value::Int(4));
        assert!(out.rows[2][2].is_null()); // Cu unmatched
        assert!(out.rows[3][2].is_null()); // NULL never matches
    }

    #[test]
    fn inner_drops_unmatched() {
        let out = combine(&rowset(), &solutions(), &spec(CombineKind::Inner)).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn multi_valued_enrichment_multiplies_rows() {
        let mut sols = solutions();
        sols.rows.push(vec![Some(Term::iri("Hg")), Some(Term::lit("extreme"))]);
        let out = combine(&rowset(), &sols, &spec(CombineKind::LeftOuter)).unwrap();
        // Hg matches twice → 2 rows; Pb 1; Cu + NULL padded → 5 total.
        assert_eq!(out.len(), 5);
        let hg: Vec<_> = out
            .rows
            .iter()
            .filter(|r| r[0] == Value::from("Hg"))
            .collect();
        assert_eq!(hg.len(), 2);
    }

    #[test]
    fn namespaced_iris_match_by_local_name() {
        let sols = Solutions {
            variables: vec!["s".into(), "o".into()],
            rows: vec![vec![
                Some(Term::iri("http://smg.eu/elem#Hg")),
                Some(Term::iri("http://smg.eu/class#HeavyMetal")),
            ]],
        };
        let out = combine(&rowset(), &sols, &spec(CombineKind::Inner)).unwrap();
        assert_eq!(out.len(), 1);
        // imported IRI arrives as local name
        assert_eq!(out.rows[0][2], Value::from("HeavyMetal"));
    }

    #[test]
    fn literal_strategy_rejects_iris() {
        let mut s = spec(CombineKind::Inner);
        s.strategy = MapStrategy::Literal;
        let out = combine(&rowset(), &solutions(), &s).unwrap();
        assert_eq!(out.len(), 0, "solutions bind IRIs, literal strategy rejects them");
    }

    #[test]
    fn unknown_column_or_variable_errors() {
        let mut s = spec(CombineKind::Inner);
        s.column = "nope".into();
        assert!(combine(&rowset(), &solutions(), &s).is_err());
        let mut s = spec(CombineKind::Inner);
        s.variable = "nope".into();
        assert!(combine(&rowset(), &solutions(), &s).is_err());
        let mut s = spec(CombineKind::Inner);
        s.take = vec![("nope".into(), "x".into())];
        assert!(combine(&rowset(), &solutions(), &s).is_err());
    }

    #[test]
    fn appended_column_type_is_the_type_of_its_values() {
        // Int + Float widen to Float; anything else mixed becomes Text —
        // values included, so the reported type never lies.
        let typed = |objects: [&str; 2]| {
            let sols = Solutions {
                variables: vec!["s".into(), "o".into()],
                rows: vec![
                    vec![Some(Term::iri("Hg")), Some(Term::lit(objects[0]))],
                    vec![Some(Term::iri("Pb")), Some(Term::lit(objects[1]))],
                ],
            };
            let out = combine(&rowset(), &sols, &spec(CombineKind::Inner)).unwrap();
            (out.schema.columns[2].data_type, out.rows[0][2].clone(), out.rows[1][2].clone())
        };
        assert_eq!(typed(["5", "4.5"]), (DataType::Float, Value::Float(5.0), Value::Float(4.5)));
        assert_eq!(
            typed(["5", "extreme"]),
            (DataType::Text, Value::from("5"), Value::from("extreme"))
        );
        assert_eq!(typed(["5", "4"]), (DataType::Int, Value::Int(5), Value::Int(4)));
    }

    #[test]
    fn term_to_value_conversions() {
        assert_eq!(term_to_value(&Term::lit("5")), Value::Int(5));
        assert_eq!(term_to_value(&Term::lit("2.5")), Value::Float(2.5));
        assert_eq!(term_to_value(&Term::lit("true")), Value::Bool(true));
        assert_eq!(term_to_value(&Term::lit("Torino")), Value::from("Torino"));
        assert_eq!(term_to_value(&Term::iri("http://x#Italy")), Value::from("Italy"));
        assert_eq!(term_to_value(&Term::blank("b1")), Value::from("_:b1"));
    }

    #[test]
    fn matching_keys_dedupes() {
        let mut sols = solutions();
        sols.rows.push(vec![Some(Term::iri("Hg")), Some(Term::lit("9"))]);
        let keys = matching_keys(&sols, "s").unwrap();
        assert_eq!(keys.len(), 3);
        assert!(matching_keys(&sols, "zz").is_err());
    }

    #[test]
    fn empty_solutions_left_outer_pads_everything() {
        let sols = Solutions { variables: vec!["s".into(), "o".into()], rows: vec![] };
        let out = combine(&rowset(), &sols, &spec(CombineKind::LeftOuter)).unwrap();
        assert_eq!(out.len(), 4);
        assert!(out.rows.iter().all(|r| r[2].is_null()));
    }
}
