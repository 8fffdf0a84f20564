//! Semantic linting for the SQL dialect: rules that catch queries which
//! parse and execute but almost certainly do not mean what the author
//! intended. The SESQL layer (`crosse-core`) lints the cleaned SELECT
//! through this module and adds its own enrichment-specific rules; SPARQL
//! has a sibling linter in `crosse-rdf`.
//!
//! Rules (codes are stable; see the `crosse-lint` crate table):
//!
//! * **L001** — always-false predicate: contradictory equality conjuncts
//!   on one column (`x = 1 AND x = 2`), an equality and its negation
//!   (`x = 1 AND x <> 1`), or a constant comparison that evaluates false
//!   (`1 = 2`).
//! * **L002** — always-true predicate: a constant comparison that
//!   evaluates true (`1 = 1`), or a column compared to itself (`x = x`).
//! * **L003** — implicit cross join: comma-listed FROM items with no
//!   equi-join link between them in WHERE (the query runs as a cartesian
//!   product).
//! * **L004** — implicit string↔numeric coercion: comparing a TEXT column
//!   against a numeric literal or vice versa (a literal the statement
//!   cache lifted into a slot counts, by its recorded type).
//! * **L005** — `DISTINCT` that is a no-op because every GROUP BY key is
//!   projected (groups are already unique).
//! * **L006** — unbound parameters in a statement that is about to be
//!   executed directly (prepare + bind instead). Suppressed when linting
//!   on behalf of `prepare`, where parameters are the point.
//!
//! Every rule is best-effort and silent on anything it cannot prove:
//! unknown tables, unresolvable columns, and expressions outside the
//! recognised shapes produce no diagnostics (the planner is the authority
//! on errors; the linter only warns).

use crosse_lint::Diagnostic;

use crate::prepared::from_schema;
use crate::schema::Schema;
use crate::sql::ast::{BinaryOp, Expr, Select, SelectItem, Statement, TableRef};
use crate::storage::Catalog;
use crate::value::{DataType, Value};

/// Lint one parsed statement. `source` is the original text (used for
/// best-effort spans); `allow_params` suppresses L006 (set when linting
/// for `prepare`, where placeholders are expected).
pub fn lint_statement(
    catalog: &Catalog,
    stmt: &Statement,
    source: &str,
    allow_params: bool,
) -> Vec<Diagnostic> {
    match stmt {
        Statement::Select(s) | Statement::Explain(s) => {
            lint_select(catalog, s, source, allow_params)
        }
        _ => Vec::new(),
    }
}

/// Lint a SELECT (including union members and subqueries).
pub fn lint_select(
    catalog: &Catalog,
    select: &Select,
    source: &str,
    allow_params: bool,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if !allow_params {
        unbound_params(select, source, &mut out);
    }
    lint_one(catalog, select, source, &mut out);
    out.dedup();
    out
}

/// Lint `select` and recurse into union members and subqueries (L006 is
/// handled once at the top, since slots are statement-global).
fn lint_one(catalog: &Catalog, select: &Select, source: &str, out: &mut Vec<Diagnostic>) {
    let schema = from_schema(catalog, select);
    let conjs = select.filter.as_ref().map(conjuncts).unwrap_or_default();

    constant_predicates(&conjs, source, out);
    contradictory_equalities(&conjs, source, out);
    self_comparisons(&conjs, source, out);
    cross_joins(catalog, select, &conjs, source, out);
    coercing_comparisons(&schema, select, source, out);
    distinct_under_group_by(select, source, out);

    for sub in subqueries(select) {
        lint_one(catalog, sub, source, out);
    }
    for (_, member) in &select.union {
        lint_one(catalog, member, source, out);
    }
}

// ---- helpers ---------------------------------------------------------------

/// Split a predicate into its top-level AND conjuncts.
fn conjuncts(e: &Expr) -> Vec<&Expr> {
    match e {
        Expr::Binary { left, op: BinaryOp::And, right } => {
            let mut out = conjuncts(left);
            out.extend(conjuncts(right));
            out
        }
        other => vec![other],
    }
}

/// `(qualifier, name)` of a column reference, lower-cased for keying.
fn column_key(e: &Expr) -> Option<(Option<String>, String)> {
    if let Expr::Column { qualifier, name } = e {
        Some((
            qualifier.as_ref().map(|q| q.to_ascii_lowercase()),
            name.to_ascii_lowercase(),
        ))
    } else {
        None
    }
}

fn literal(e: &Expr) -> Option<&Value> {
    if let Expr::Literal(v) = e {
        Some(v)
    } else {
        None
    }
}

/// Evaluate a comparison between two non-NULL literals, when their types
/// admit a SQL comparison.
fn const_compare(l: &Value, op: BinaryOp, r: &Value) -> Option<bool> {
    use std::cmp::Ordering::*;
    let ord = l.sql_cmp(r)?;
    Some(match op {
        BinaryOp::Eq => ord == Equal,
        BinaryOp::NotEq => ord != Equal,
        BinaryOp::Lt => ord == Less,
        BinaryOp::LtEq => ord != Greater,
        BinaryOp::Gt => ord == Greater,
        BinaryOp::GtEq => ord != Less,
        _ => return None,
    })
}

/// Source-ish rendering of a conjunct for span lookup: `Expr`'s Display
/// wraps binary expressions in parens, which the written text usually
/// lacks, so one outer layer is stripped.
fn fragment(e: &Expr) -> String {
    let s = e.to_string();
    match s.strip_prefix('(').and_then(|s| s.strip_suffix(')')) {
        Some(inner) => inner.to_string(),
        None => s,
    }
}

/// Every SELECT nested inside `select`'s expressions (IN/EXISTS/scalar
/// subqueries), one level deep — recursion happens in [`lint_one`].
fn subqueries(select: &Select) -> Vec<&Select> {
    let mut subs: Vec<&Select> = Vec::new();
    let mut exprs: Vec<&Expr> = Vec::new();
    for p in &select.projections {
        if let SelectItem::Expr { expr, .. } = p {
            exprs.push(expr);
        }
    }
    exprs.extend(select.filter.iter());
    exprs.extend(select.having.iter());
    while let Some(e) = exprs.pop() {
        match e {
            Expr::InSubquery { expr, query, .. } => {
                exprs.push(expr);
                subs.push(query);
            }
            Expr::Exists { query, .. } => subs.push(query),
            Expr::ScalarSubquery(query) => subs.push(query),
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => exprs.push(expr),
            Expr::Binary { left, right, .. } => {
                exprs.push(left);
                exprs.push(right);
            }
            Expr::InList { expr, list, .. } => {
                exprs.push(expr);
                exprs.extend(list.iter());
            }
            Expr::Between { expr, low, high, .. } => {
                exprs.extend([expr.as_ref(), low.as_ref(), high.as_ref()]);
            }
            Expr::Like { expr, pattern, .. } => {
                exprs.extend([expr.as_ref(), pattern.as_ref()]);
            }
            Expr::Function { args, .. } => exprs.extend(args.iter()),
            Expr::Case { operand, branches, else_expr } => {
                exprs.extend(operand.iter().map(|b| b.as_ref()));
                for (w, t) in branches {
                    exprs.push(w);
                    exprs.push(t);
                }
                exprs.extend(else_expr.iter().map(|b| b.as_ref()));
            }
            _ => {}
        }
    }
    subs
}

// ---- L001 / L002: constant predicates --------------------------------------

fn constant_predicates(conjs: &[&Expr], source: &str, out: &mut Vec<Diagnostic>) {
    for c in conjs {
        if let Expr::Binary { left, op, right } = c {
            if let (Some(l), Some(r)) = (literal(left), literal(right)) {
                match const_compare(l, *op, r) {
                    Some(false) => out.push(
                        Diagnostic::error(
                            "L001",
                            format!("predicate `{c}` is always false"),
                        )
                        .try_span_of(source, &fragment(c)),
                    ),
                    Some(true) => out.push(
                        Diagnostic::warning(
                            "L002",
                            format!("predicate `{c}` is always true"),
                        )
                        .try_span_of(source, &fragment(c)),
                    ),
                    None => {}
                }
            }
        }
    }
}

// ---- L001: contradictory equality conjuncts --------------------------------

/// One `col = lit` / `col <> lit` conjunct: (column key, literal,
/// negated, the conjunct expression itself).
type EqConjunct<'a> = ((Option<String>, String), &'a Value, bool, &'a Expr);

fn contradictory_equalities(conjs: &[&Expr], source: &str, out: &mut Vec<Diagnostic>) {
    // (column key, literal, negated) for every `col = lit` / `col <> lit`
    // conjunct, either operand order.
    let mut eqs: Vec<EqConjunct> = Vec::new();
    for c in conjs {
        if let Expr::Binary { left, op, right } = c {
            let negated = match op {
                BinaryOp::Eq => false,
                BinaryOp::NotEq => true,
                _ => continue,
            };
            let pair = column_key(left)
                .zip(literal(right))
                .or_else(|| column_key(right).zip(literal(left)));
            if let Some((key, v)) = pair {
                if !v.is_null() {
                    eqs.push((key, v, negated, c));
                }
            }
        }
    }
    for (i, (key, v, negated, c)) in eqs.iter().enumerate() {
        for (key2, v2, negated2, c2) in eqs.iter().skip(i + 1) {
            if key != key2 {
                continue;
            }
            let contradiction = match (negated, negated2) {
                // x = a AND x = b with a != b
                (false, false) => const_compare(v, BinaryOp::Eq, v2) == Some(false),
                // x = a AND x <> a (either order)
                (false, true) | (true, false) => {
                    const_compare(v, BinaryOp::Eq, v2) == Some(true)
                }
                (true, true) => false,
            };
            if contradiction {
                out.push(
                    Diagnostic::error(
                        "L001",
                        format!("conjuncts `{c}` and `{c2}` can never both hold"),
                    )
                    .try_span_of(source, &fragment(c2)),
                );
            }
        }
    }
}

// ---- L002: self-comparison -------------------------------------------------

fn self_comparisons(conjs: &[&Expr], source: &str, out: &mut Vec<Diagnostic>) {
    for c in conjs {
        if let Expr::Binary { left, op: BinaryOp::Eq, right } = c {
            if let (Some(l), Some(r)) = (column_key(left), column_key(right)) {
                if l == r {
                    out.push(
                        Diagnostic::warning(
                            "L002",
                            format!(
                                "predicate `{c}` compares a column with itself \
                                 (always true unless NULL)"
                            ),
                        )
                        .try_span_of(source, &fragment(c)),
                    );
                }
            }
        }
    }
}

// ---- L003: implicit cross join ---------------------------------------------

/// Names (alias or table name, lower-cased) one top-level FROM item binds.
fn item_names(tr: &TableRef) -> Vec<String> {
    match tr {
        TableRef::Table { name, alias } => {
            vec![alias.as_ref().unwrap_or(name).to_ascii_lowercase()]
        }
        TableRef::Join { left, right, .. } => {
            let mut names = item_names(left);
            names.extend(item_names(right));
            names
        }
    }
}

/// Columns of one FROM item resolved against the catalog (`None` when a
/// table is unknown, which disables the rule for the whole statement).
fn item_columns(catalog: &Catalog, tr: &TableRef) -> Option<Vec<String>> {
    match tr {
        TableRef::Table { name, .. } => {
            let t = catalog.get_table(name).ok()?;
            Some(t.schema.columns.iter().map(|c| c.name.to_ascii_lowercase()).collect())
        }
        TableRef::Join { left, right, .. } => {
            let mut cols = item_columns(catalog, left)?;
            cols.extend(item_columns(catalog, right)?);
            Some(cols)
        }
    }
}

fn cross_joins(
    catalog: &Catalog,
    select: &Select,
    conjs: &[&Expr],
    source: &str,
    out: &mut Vec<Diagnostic>,
) {
    if select.from.len() < 2 {
        return;
    }
    let names: Vec<Vec<String>> = select.from.iter().map(item_names).collect();
    let columns: Vec<Vec<String>> = match select
        .from
        .iter()
        .map(|tr| item_columns(catalog, tr))
        .collect::<Option<Vec<_>>>()
    {
        Some(c) => c,
        // Unknown table: name resolution is unreliable, stay silent.
        None => return,
    };
    // Which FROM item does a column reference belong to? Qualified refs
    // match by binding name; unqualified ones by unique column ownership.
    let owner = |e: &Expr| -> Option<usize> {
        let (qualifier, name) = column_key(e)?;
        match qualifier {
            Some(q) => names.iter().position(|ns| ns.contains(&q)),
            None => {
                let mut owners = columns.iter().enumerate().filter(|(_, cs)| {
                    cs.contains(&name)
                });
                let first = owners.next()?.0;
                owners.next().is_none().then_some(first)
            }
        }
    };
    // Union-find over FROM items, linked by `a.x = b.y` conjuncts.
    let mut parent: Vec<usize> = (0..select.from.len()).collect();
    fn find(parent: &mut Vec<usize>, i: usize) -> usize {
        if parent[i] != i {
            let root = find(parent, parent[i]);
            parent[i] = root;
        }
        parent[i]
    }
    for c in conjs {
        if let Expr::Binary { left, op: BinaryOp::Eq, right } = c {
            if let (Some(a), Some(b)) = (owner(left), owner(right)) {
                if a != b {
                    let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                    parent[ra] = rb;
                }
            }
        }
    }
    let root0 = find(&mut parent, 0);
    for i in 1..select.from.len() {
        if find(&mut parent, i) != root0 {
            out.push(
                Diagnostic::warning(
                    "L003",
                    format!(
                        "FROM item `{}` has no equi-join link to `{}` — this \
                         runs as an implicit cross join",
                        names[i].join(", "),
                        names[0].join(", "),
                    ),
                )
                .try_span_of(source, &names[i].join(", ")),
            );
            // One diagnostic per disconnected component is enough.
            let (ri, r0) = (find(&mut parent, i), root0);
            parent[ri] = r0;
        }
    }
}

// ---- L004: implicit string<->numeric coercion ------------------------------

fn coercing_comparisons(
    schema: &Schema,
    select: &Select,
    source: &str,
    out: &mut Vec<Diagnostic>,
) {
    let mut exprs: Vec<&Expr> = Vec::new();
    for p in &select.projections {
        if let SelectItem::Expr { expr, .. } = p {
            exprs.push(expr);
        }
    }
    exprs.extend(select.filter.iter());
    exprs.extend(select.having.iter());
    for tr in &select.from {
        collect_on(tr, &mut exprs);
    }
    let column_type = |e: &Expr| -> Option<DataType> {
        if let Expr::Column { qualifier, name } = e {
            schema
                .resolve(qualifier.as_deref(), name)
                .ok()
                .map(|i| schema.columns[i].data_type)
        } else {
            None
        }
    };
    for root in exprs {
        root.visit(&mut |e| {
            if let Expr::Binary { left, op, right } = e {
                if !op.is_comparison() {
                    return;
                }
                let check = |col: &Expr, lit: &Expr, out: &mut Vec<Diagnostic>| {
                    // A lifted literal is a literal of its recorded type.
                    let lit_type = match lit {
                        Expr::Lifted { ty, .. } => Some(*ty),
                        _ => literal(lit).and_then(Value::data_type),
                    };
                    let (Some(ct), Some(vt)) = (column_type(col), lit_type) else {
                        return;
                    };
                    let mismatched = matches!(
                        (ct, vt),
                        (DataType::Text, DataType::Int | DataType::Float)
                            | (DataType::Int | DataType::Float, DataType::Text)
                    );
                    if mismatched {
                        out.push(
                            Diagnostic::warning(
                                "L004",
                                format!(
                                    "comparison `{e}` forces implicit {ct}↔{vt} \
                                     coercion — compare like types instead"
                                ),
                            )
                            .try_span_of(source, &fragment(e)),
                        );
                    }
                };
                check(left, right, out);
                check(right, left, out);
            }
        });
    }
}

fn collect_on<'a>(tr: &'a TableRef, out: &mut Vec<&'a Expr>) {
    if let TableRef::Join { left, right, on, .. } = tr {
        collect_on(left, out);
        collect_on(right, out);
        out.extend(on.iter());
    }
}

// ---- L005: DISTINCT no-op under GROUP BY -----------------------------------

fn distinct_under_group_by(select: &Select, source: &str, out: &mut Vec<Diagnostic>) {
    if !select.distinct || select.group_by.is_empty() {
        return;
    }
    // Rows are one per group; if every group key is projected, projected
    // tuples are already distinct.
    let projected: Vec<&Expr> = select
        .projections
        .iter()
        .filter_map(|p| match p {
            SelectItem::Expr { expr, .. } => Some(expr),
            _ => None,
        })
        .collect();
    let all_keys_projected =
        select.group_by.iter().all(|g| projected.contains(&g));
    if all_keys_projected {
        out.push(
            Diagnostic::warning(
                "L005",
                "DISTINCT is a no-op: every GROUP BY key is projected, so \
                 result rows are already unique"
                    .to_string(),
            )
            .try_span_of(source, "distinct"),
        );
    }
}

// ---- L006: unbound parameters ----------------------------------------------

fn unbound_params(select: &Select, source: &str, out: &mut Vec<Diagnostic>) {
    let slots = crate::sql::parser::collect_params(select);
    if slots.is_empty() {
        return;
    }
    let rendered: Vec<String> = slots
        .iter()
        .map(|s| match &s.name {
            Some(n) => format!("${n}"),
            None => "?".to_string(),
        })
        .collect();
    let first = rendered[0].clone();
    out.push(
        Diagnostic::warning(
            "L006",
            format!(
                "statement has {} unbound parameter{} ({}) — prepare it and \
                 bind values before executing",
                slots.len(),
                if slots.len() == 1 { "" } else { "s" },
                rendered.join(", "),
            ),
        )
        .try_span_of(source, &first),
    );
}

#[cfg(test)]
mod tests {
    use crate::db::Database;

    fn db() -> Database {
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE landfill (name TEXT, city TEXT, tons FLOAT);
             CREATE TABLE elem (elem_name TEXT, landfill_name TEXT, amount INT);",
        )
        .unwrap();
        db
    }

    fn codes(db: &Database, sql: &str) -> Vec<&'static str> {
        db.lint(sql).unwrap().iter().map(|d| d.code).collect()
    }

    #[test]
    fn l001_contradictory_equalities_fire() {
        let db = db();
        let diags = db
            .lint("SELECT name FROM landfill WHERE city = 'a' AND city = 'b'")
            .unwrap();
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "L001");
        assert!(diags[0].span.is_some(), "span should locate the conjunct");
        assert_eq!(
            codes(&db, "SELECT name FROM landfill WHERE city = 'a' AND city <> 'a'"),
            vec!["L001"]
        );
        assert_eq!(codes(&db, "SELECT name FROM landfill WHERE 1 = 2"), vec!["L001"]);
    }

    #[test]
    fn l001_stays_quiet_on_satisfiable_predicates() {
        let db = db();
        assert!(codes(&db, "SELECT name FROM landfill WHERE city = 'a' AND name = 'b'")
            .is_empty());
        assert!(codes(&db, "SELECT name FROM landfill WHERE city = 'a' OR city = 'b'")
            .is_empty());
        // Same column, different qualifiers — not a contradiction.
        assert!(codes(
            &db,
            "SELECT a.name FROM landfill AS a, landfill AS b \
             WHERE a.name = b.name AND a.city = 'x' AND b.city = 'y'"
        )
        .is_empty());
    }

    #[test]
    fn l002_constant_truths_and_self_comparisons_fire() {
        let db = db();
        assert_eq!(codes(&db, "SELECT name FROM landfill WHERE 1 = 1"), vec!["L002"]);
        assert_eq!(
            codes(&db, "SELECT name FROM landfill WHERE city = city"),
            vec!["L002"]
        );
        assert!(codes(&db, "SELECT name FROM landfill WHERE city = name").is_empty());
    }

    #[test]
    fn l003_cross_join_detection() {
        let db = db();
        assert_eq!(
            codes(&db, "SELECT name FROM landfill, elem"),
            vec!["L003"],
            "no link at all"
        );
        assert!(
            codes(
                &db,
                "SELECT name FROM landfill, elem WHERE name = landfill_name"
            )
            .is_empty(),
            "unqualified equi-link connects the items"
        );
        assert!(
            codes(
                &db,
                "SELECT l.name FROM landfill AS l, elem AS e \
                 WHERE l.name = e.landfill_name"
            )
            .is_empty(),
            "qualified equi-link connects the items"
        );
        // Three items, one disconnected.
        assert_eq!(
            codes(
                &db,
                "SELECT l.name FROM landfill AS l, elem AS e, landfill AS x \
                 WHERE l.name = e.landfill_name"
            ),
            vec!["L003"]
        );
        // Unknown table: rule stays silent (planner reports the error).
        assert!(codes(&db, "SELECT 1 FROM landfill, nope").is_empty());
    }

    #[test]
    fn l004_coercion_detection() {
        let db = db();
        assert_eq!(
            codes(&db, "SELECT name FROM landfill WHERE city = 5"),
            vec!["L004"],
            "TEXT column vs numeric literal"
        );
        assert_eq!(
            codes(&db, "SELECT elem_name FROM elem WHERE amount > 'high'"),
            vec!["L004"],
            "INT column vs string literal"
        );
        assert!(codes(&db, "SELECT name FROM landfill WHERE tons > 5").is_empty());
        assert!(codes(&db, "SELECT name FROM landfill WHERE city = 'Torino'").is_empty());
    }

    #[test]
    fn l005_distinct_group_by() {
        let db = db();
        assert_eq!(
            codes(&db, "SELECT DISTINCT city FROM landfill GROUP BY city"),
            vec!["L005"]
        );
        // Key not projected: rows can repeat, DISTINCT is meaningful.
        assert!(codes(
            &db,
            "SELECT DISTINCT COUNT(*) FROM landfill GROUP BY city"
        )
        .is_empty());
        assert!(codes(&db, "SELECT DISTINCT city FROM landfill").is_empty());
    }

    #[test]
    fn l006_unbound_params_in_adhoc_statements() {
        let db = db();
        assert_eq!(
            codes(&db, "SELECT name FROM landfill WHERE city = $c"),
            vec!["L006"]
        );
        assert!(codes(&db, "SELECT name FROM landfill WHERE city = 'a'").is_empty());
        // Prepared handles expect parameters: no L006 there.
        let p = db.prepare("SELECT name FROM landfill WHERE city = $c").unwrap();
        assert!(p.warnings().is_empty(), "{:?}", p.warnings());
    }

    #[test]
    fn union_members_and_subqueries_are_linted() {
        let db = db();
        assert_eq!(
            codes(
                &db,
                "SELECT name FROM landfill WHERE city = 'a' \
                 UNION SELECT name FROM landfill WHERE 1 = 2"
            ),
            vec!["L001"]
        );
        assert_eq!(
            codes(
                &db,
                "SELECT name FROM landfill WHERE name IN \
                 (SELECT landfill_name FROM elem WHERE amount = 1 AND amount = 2)"
            ),
            vec!["L001"]
        );
    }

    #[test]
    fn non_select_statements_produce_no_diagnostics() {
        let db = db();
        assert!(db.lint("INSERT INTO landfill VALUES ('a', 'b', 1.0)").unwrap().is_empty());
        assert!(db.lint("CREATE TABLE t2 (x INT)").unwrap().is_empty());
    }

    #[test]
    fn prepared_handles_carry_warnings() {
        let db = db();
        let p = db
            .prepare("SELECT name FROM landfill WHERE city = 'a' AND city = 'b'")
            .unwrap();
        assert_eq!(p.warnings().len(), 1);
        assert_eq!(p.warnings()[0].code, "L001");
    }
}
