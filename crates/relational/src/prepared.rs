//! Prepared statements: compile once, bind parameters, execute many times.
//!
//! A [`Prepared`] is the executable form of a SELECT — the only one.
//! [`Database::compile`](crate::Database::compile) builds it from an AST;
//! [`Database::prepare`](crate::Database::prepare) builds it from text
//! behind a bounded LRU keyed by [`normalize_sql`] (so repeated traffic
//! with the same shape skips the front-end even when the submitted text
//! differs in case or whitespace) and lints and plans it eagerly. The
//! *execute* step binds values to slots and streams results through a
//! [`Rows`] cursor.
//!
//! Placeholders come in two forms, shared with the SESQL and SPARQL
//! grammars:
//!
//! * `$name` — named; every occurrence of the same name is one slot;
//! * `?` — positional; each occurrence is a fresh slot, bound in order.
//!
//! Slots are *typed* where the query shape allows it: a placeholder
//! compared against a column inherits that column's type, and binding a
//! value that cannot coerce to it is an execute-time error rather than a
//! silently-empty result.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::db::{Database, RowSet};
use crate::error::{Error, Result};
use crate::exec::Rows;
use crate::plan::Plan;
use crate::schema::{Column, Schema};
use crate::sql::ast::{Expr, Select, SelectItem, TableRef};
use crate::sql::lexer::tokenize;
use crate::sql::parser::ParamSlot;
use crate::sql::token::TokenKind;
use crate::storage::Catalog;
use crate::value::{DataType, Value};

/// One parameter slot with its (best-effort) inferred type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotInfo {
    /// `Some` for `$name` placeholders, `None` for positional `?`.
    pub name: Option<String>,
    /// Expected value type, when the placeholder is compared against a
    /// typed column. `None` means any type binds.
    pub expected: Option<DataType>,
}

impl SlotInfo {
    /// Render the placeholder as written (`$name` or `?`).
    pub fn display(&self) -> String {
        match &self.name {
            Some(n) => format!("${n}"),
            None => "?".to_string(),
        }
    }
}

/// Values for the parameter slots of a prepared statement.
///
/// Build with the fluent API:
///
/// ```
/// use crosse_relational::prepared::Params;
/// let p = Params::new().set("city", "Torino").push(42);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Params {
    named: Vec<(String, Value)>,
    positional: Vec<Value>,
}

impl Params {
    pub fn new() -> Self {
        Params::default()
    }

    /// Bind a named (`$name`) parameter.
    pub fn set(mut self, name: impl Into<String>, value: impl Into<Value>) -> Self {
        let name = name.into();
        // Latest binding wins, so callers can reuse a base Params.
        self.named.retain(|(n, _)| *n != name);
        self.named.push((name, value.into()));
        self
    }

    /// Bind the next positional (`?`) parameter.
    pub fn push(mut self, value: impl Into<Value>) -> Self {
        self.positional.push(value.into());
        self
    }

    pub fn is_empty(&self) -> bool {
        self.named.is_empty() && self.positional.is_empty()
    }

    /// The named bindings, in binding order.
    pub fn named(&self) -> &[(String, Value)] {
        &self.named
    }

    /// The positional bindings, in order.
    pub fn positional(&self) -> &[Value] {
        &self.positional
    }

    fn named_value(&self, name: &str) -> Option<&Value> {
        self.named.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }
}

/// Resolve concrete values for `slots` from `params`, coercing to the
/// inferred slot types. Every slot must be bound; extra positional values
/// are rejected (extra named bindings are ignored so one `Params` can
/// serve several statements).
pub fn resolve_params(slots: &[SlotInfo], params: &Params) -> Result<Vec<Value>> {
    let mut out = Vec::with_capacity(slots.len());
    let mut next_positional = 0usize;
    for slot in slots {
        let value = match &slot.name {
            Some(n) => params
                .named_value(n)
                .cloned()
                .ok_or_else(|| {
                    Error::plan(format!("missing binding for parameter `${n}`"))
                })?,
            None => {
                let v = params.positional.get(next_positional).cloned().ok_or_else(
                    || {
                        Error::plan(format!(
                            "missing binding for positional parameter #{}",
                            next_positional + 1
                        ))
                    },
                )?;
                next_positional += 1;
                v
            }
        };
        let value = match slot.expected {
            Some(dt) if !value.is_null() => value.clone().coerce(dt).map_err(|_| {
                Error::eval(format!(
                    "parameter `{}` expects {dt}, got {value:?}",
                    slot.display()
                ))
            })?,
            _ => value,
        };
        out.push(value);
    }
    if next_positional < params.positional.len() {
        return Err(Error::plan(format!(
            "{} positional value(s) bound, statement has {} positional slot(s)",
            params.positional.len(),
            next_positional
        )));
    }
    Ok(out)
}

/// Canonical cache key for a statement: the token stream re-rendered with
/// single spaces, unquoted identifiers (and keywords) lower-cased, and
/// string literals re-escaped. Whitespace, comments and keyword case do
/// not defeat the cache; quoted identifiers and literal contents survive
/// verbatim.
pub fn normalize_sql(sql: &str) -> Result<String> {
    let tokens = tokenize(sql)?;
    let mut out = String::with_capacity(sql.len());
    for t in tokens {
        match &t.kind {
            TokenKind::Eof => break,
            TokenKind::Ident { value, quoted: false } => {
                if !out.is_empty() {
                    out.push(' ');
                }
                out.push_str(&value.to_ascii_lowercase());
            }
            TokenKind::String(s) => {
                if !out.is_empty() {
                    out.push(' ');
                }
                out.push('\'');
                out.push_str(&s.replace('\'', "''"));
                out.push('\'');
            }
            other => {
                if !out.is_empty() {
                    out.push(' ');
                }
                out.push_str(&other.to_string());
            }
        }
    }
    Ok(out)
}

// ---- parameter substitution ------------------------------------------------

/// Substitute every parameter placeholder in `e` with its bound literal,
/// descending into subquery bodies. No values, nothing to substitute.
pub fn substitute_expr(e: Expr, values: &[Value]) -> Expr {
    if values.is_empty() {
        return e;
    }
    e.rewrite(&mut |node| match node {
        Expr::Param { index, .. } => Expr::Literal(
            values.get(index).cloned().unwrap_or(Value::Null),
        ),
        Expr::InSubquery { expr, query, negated } => Expr::InSubquery {
            expr,
            query: Box::new(substitute_select(*query, values)),
            negated,
        },
        Expr::Exists { query, negated } => Expr::Exists {
            query: Box::new(substitute_select(*query, values)),
            negated,
        },
        Expr::ScalarSubquery(query) => {
            Expr::ScalarSubquery(Box::new(substitute_select(*query, values)))
        }
        other => other,
    })
}

fn substitute_table_ref(tr: TableRef, values: &[Value]) -> TableRef {
    match tr {
        t @ TableRef::Table { .. } => t,
        TableRef::Join { left, right, kind, on } => TableRef::Join {
            left: Box::new(substitute_table_ref(*left, values)),
            right: Box::new(substitute_table_ref(*right, values)),
            kind,
            on: on.map(|e| substitute_expr(e, values)),
        },
    }
}

/// Substitute every parameter placeholder in a SELECT (all clauses, all
/// union members, all subqueries). No values, nothing to substitute.
pub fn substitute_select(select: Select, values: &[Value]) -> Select {
    if values.is_empty() {
        return select;
    }
    Select {
        distinct: select.distinct,
        projections: select
            .projections
            .into_iter()
            .map(|p| match p {
                SelectItem::Expr { expr, alias } => SelectItem::Expr {
                    expr: substitute_expr(expr, values),
                    alias,
                },
                other => other,
            })
            .collect(),
        from: select
            .from
            .into_iter()
            .map(|tr| substitute_table_ref(tr, values))
            .collect(),
        filter: select.filter.map(|e| substitute_expr(e, values)),
        group_by: select
            .group_by
            .into_iter()
            .map(|e| substitute_expr(e, values))
            .collect(),
        having: select.having.map(|e| substitute_expr(e, values)),
        union: select
            .union
            .into_iter()
            .map(|(all, s)| (all, substitute_select(s, values)))
            .collect(),
        order_by: select
            .order_by
            .into_iter()
            .map(|mut o| {
                o.expr = substitute_expr(o.expr, values);
                o
            })
            .collect(),
        limit: select.limit,
        offset: select.offset,
    }
}

// ---- slot type inference ---------------------------------------------------

/// Best-effort schema of the FROM clause (base tables only; derived and
/// missing tables contribute nothing). Enough to type `col <op> $p`.
pub(crate) fn from_schema(catalog: &Catalog, select: &Select) -> Schema {
    fn walk(tr: &TableRef, catalog: &Catalog, cols: &mut Vec<Column>) {
        match tr {
            TableRef::Table { name, alias } => {
                if let Ok(t) = catalog.get_table(name) {
                    let q = alias.clone().unwrap_or_else(|| name.clone());
                    for c in &t.schema.columns {
                        cols.push(
                            Column::new(c.name.clone(), c.data_type).with_qualifier(&q),
                        );
                    }
                }
            }
            TableRef::Join { left, right, .. } => {
                walk(left, catalog, cols);
                walk(right, catalog, cols);
            }
        }
    }
    let mut cols = Vec::new();
    for tr in &select.from {
        walk(tr, catalog, &mut cols);
    }
    Schema::new(cols)
}

fn column_type(schema: &Schema, e: &Expr) -> Option<DataType> {
    if let Expr::Column { qualifier, name } = e {
        schema
            .resolve(qualifier.as_deref(), name)
            .ok()
            .map(|i| schema.columns[i].data_type)
    } else {
        None
    }
}

fn note_slot(slots: &mut [SlotInfo], e: &Expr, dt: Option<DataType>) {
    if let (Expr::Param { index, .. }, Some(dt)) = (e, dt) {
        if let Some(slot) = slots.get_mut(*index) {
            if slot.expected.is_none() {
                slot.expected = Some(dt);
            }
        }
    }
}

fn infer_expr(e: &Expr, schema: &Schema, slots: &mut [SlotInfo]) {
    e.visit(&mut |node| match node {
        Expr::Binary { left, op, right } if op.is_comparison() => {
            note_slot(slots, right, column_type(schema, left));
            note_slot(slots, left, column_type(schema, right));
        }
        Expr::InList { expr, list, .. } => {
            let dt = column_type(schema, expr);
            for item in list {
                note_slot(slots, item, dt);
            }
        }
        Expr::Between { expr, low, high, .. } => {
            let dt = column_type(schema, expr);
            note_slot(slots, low, dt);
            note_slot(slots, high, dt);
        }
        Expr::Like { pattern, .. } => {
            note_slot(slots, pattern, Some(DataType::Text));
        }
        _ => {}
    });
}

/// Infer expected types for the parameter slots of `select`.
pub fn infer_slot_types(
    catalog: &Catalog,
    select: &Select,
    slots: &[ParamSlot],
) -> Vec<SlotInfo> {
    if slots.is_empty() {
        return Vec::new();
    }
    let mut infos: Vec<SlotInfo> = slots
        .iter()
        .map(|s| SlotInfo { name: s.name.clone(), expected: None })
        .collect();
    fn walk_select(
        catalog: &Catalog,
        select: &Select,
        infos: &mut Vec<SlotInfo>,
    ) {
        let schema = from_schema(catalog, select);
        let mut exprs: Vec<&Expr> = Vec::new();
        for p in &select.projections {
            if let SelectItem::Expr { expr, .. } = p {
                exprs.push(expr);
            }
        }
        exprs.extend(select.filter.iter());
        exprs.extend(select.group_by.iter());
        exprs.extend(select.having.iter());
        exprs.extend(select.order_by.iter().map(|o| &o.expr));
        fn on_exprs<'a>(tr: &'a TableRef, out: &mut Vec<&'a Expr>) {
            if let TableRef::Join { left, right, on, .. } = tr {
                on_exprs(left, out);
                on_exprs(right, out);
                out.extend(on.iter());
            }
        }
        for tr in &select.from {
            on_exprs(tr, &mut exprs);
        }
        for e in exprs {
            infer_expr(e, &schema, infos);
        }
        for (_, member) in &select.union {
            walk_select(catalog, member, infos);
        }
    }
    walk_select(catalog, select, &mut infos);
    infos
}

// ---- the prepared handle ---------------------------------------------------

/// A compiled SELECT — the only executable form of one. Every way of
/// running a SELECT ([`Database::query`], `query_cursor`, `prepare`,
/// `INSERT … SELECT`, the SESQL pipeline's SQL leg) builds one of these
/// and calls [`Prepared::execute`], the one function that plans, re-plans
/// and opens a [`Rows`] cursor.
///
/// Cheap to clone; clones share the memo below, and executions on one
/// `Prepared` are independent cursors.
#[derive(Debug, Clone)]
pub struct Prepared {
    pub(crate) db: Database,
    pub(crate) select: Arc<Select>,
    /// Normalized statement text (the plan-cache key); empty for a handle
    /// built from an AST by [`Database::compile`].
    pub(crate) text: String,
    /// Lint diagnostics computed by [`Database::prepare`] (see
    /// [`crate::lint`]; parameter placeholders do not warn there); `None`
    /// for a handle that was never linted.
    pub(crate) warnings: Option<Arc<Vec<crosse_lint::Diagnostic>>>,
    /// Shared by the handle's clones and, for a prepared text, by the plan
    /// cache's entry and every handle made from it.
    pub(crate) memo: SharedMemo,
}

/// Everything a [`Prepared`] derives from the catalog, valid while
/// `tag` is the database's [`Database::plan_tag`]: DDL or
/// `set_optimizer_config` costs the handle (and its clones) one
/// re-derivation, not one per later execution.
#[derive(Debug, Clone)]
pub(crate) struct Memo {
    tag: (u64, u64),
    /// Slot types inferred against the catalog at `tag`, so a handle held
    /// across `DROP TABLE` + re-`CREATE` binds with fresh expectations.
    slots: Arc<Vec<SlotInfo>>,
    /// The optimized plan of a parameterless statement, filled by its
    /// first execution at `tag` and replayed by the later ones. A
    /// parameterised statement is planned per binding, so value-dependent
    /// access paths (index eq/range scans) are chosen per execution.
    template: Option<Arc<Plan>>,
    /// Whether `template` may be kept: the statement has no parameters
    /// and no subquery. The planner runs subqueries and inlines their
    /// rows, so a kept plan would answer from the rows of its first
    /// execution after the subquery's tables changed.
    replayable: bool,
}

pub(crate) type SharedMemo = Arc<Mutex<Option<Memo>>>;

impl Prepared {
    /// A handle with an empty memo of its own.
    pub(crate) fn new(
        db: Database,
        text: String,
        select: Arc<Select>,
        warnings: Option<Arc<Vec<crosse_lint::Diagnostic>>>,
    ) -> Self {
        let memo = Arc::new(Mutex::new_labeled("prepared.memo", None));
        Prepared { db, select, text, warnings, memo }
    }

    /// The memo for the live catalog and optimizer configuration,
    /// re-deriving the slot types (and forgetting the template) if either
    /// changed since it was filled.
    fn memo(&self) -> Memo {
        // Read the tag before deriving anything: a change that lands in
        // between leaves the memo tagged old, and the next call redoes it.
        let tag = self.db.plan_tag();
        let mut memo = self.memo.lock();
        match memo.as_ref() {
            Some(m) if m.tag == tag => m.clone(),
            _ => {
                let raw = crate::sql::parser::collect_params(&self.select);
                let slots =
                    Arc::new(infer_slot_types(self.db.catalog(), &self.select, &raw));
                let replayable = slots.is_empty() && !self.select.has_subquery();
                memo.insert(Memo { tag, slots, template: None, replayable }).clone()
            }
        }
    }

    /// The parameter slots, in binding order, typed against the live
    /// catalog.
    pub fn param_slots(&self) -> Arc<Vec<SlotInfo>> {
        self.memo().slots
    }

    /// Lint diagnostics found at prepare time (empty for a clean
    /// statement). Parameters never warn here — binding them is the whole
    /// point of preparing.
    pub fn warnings(&self) -> &[crosse_lint::Diagnostic] {
        self.warnings.as_ref().map_or(&[], |w| w.as_slice())
    }

    /// Normalized statement text (also the cache key).
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The parsed (parameterised) SELECT.
    pub fn select(&self) -> &Select {
        &self.select
    }

    /// Bind `params` into a parameter-free SELECT, coercing against the
    /// live catalog's slot types.
    pub fn bind(&self, params: &Params) -> Result<Select> {
        let values = resolve_params(&self.memo().slots, params)?;
        Ok(substitute_select((*self.select).clone(), &values))
    }

    /// Execute with bound parameters, returning a streaming cursor.
    ///
    /// A parameterless statement replays its plan template (no parse, no
    /// plan; bindings are ignored); a parameterised one substitutes
    /// literals and plans, and one with a subquery plans every time (its
    /// subqueries run at plan time). Execution inherits the database's
    /// worker-thread budget (see `Database::set_exec_threads`).
    pub fn execute(&self, params: &Params) -> Result<Rows> {
        Rows::from_plan_parallel(self.plan(params, true)?, self.db.exec_threads())
    }

    /// [`Prepared::execute`] for a handle that is dropped with the call
    /// (ad-hoc text, a rewritten SESQL leg): no later execution could
    /// replay a template, so none is kept.
    pub fn execute_once(self, params: &Params) -> Result<Rows> {
        Rows::from_plan_parallel(self.plan(params, false)?, self.db.exec_threads())
    }

    /// The plan one execution with `params` runs: the only place a
    /// statement is planned for execution. `keep` stores a replayable
    /// statement's plan as the template (at the price of one clone).
    pub(crate) fn plan(&self, params: &Params, keep: bool) -> Result<Plan> {
        let memo = self.memo();
        Ok(if !memo.slots.is_empty() {
            self.db.plan_optimized(&self.bind(params)?)?.plan
        } else if let Some(template) = &memo.template {
            (**template).clone()
        } else {
            // Templates are kept post-optimization: later executions
            // replay the rewritten (pushed-down, spooled) shape directly.
            let plan = self.db.plan_optimized(&self.select)?.plan;
            if keep && memo.replayable {
                if let Some(m) = self.memo.lock().as_mut().filter(|m| m.tag == memo.tag) {
                    m.template = Some(Arc::new(plan.clone()));
                }
            }
            plan
        })
    }

    /// Render the optimized execution plan of this statement — the
    /// `EXPLAIN` tree plus one annotation line per rewrite pass that
    /// fired. Parameterless statements only; a parameterised statement's
    /// plan depends on its bound values, so use
    /// [`Prepared::explain_with`].
    pub fn explain(&self) -> Result<String> {
        if !self.param_slots().is_empty() {
            return Err(Error::plan(
                "statement has parameters — use explain_with(params) so \
                 value-dependent access paths can be chosen",
            ));
        }
        Ok(self.db.plan_optimized(&self.select)?.render())
    }

    /// [`Prepared::explain`] with parameters bound — shows the plan the
    /// next [`Prepared::execute`] with these values would run.
    pub fn explain_with(&self, params: &Params) -> Result<String> {
        Ok(self.db.plan_optimized(&self.bind(params)?)?.render())
    }

    /// Execute and materialise (the `collect()` adapter over
    /// [`Prepared::execute`]).
    pub fn query(&self, params: &Params) -> Result<RowSet> {
        self.execute(params)?.collect_rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE landfill (name TEXT, city TEXT, tons FLOAT);
             INSERT INTO landfill VALUES
               ('Basse di Stura', 'Torino', 1200.0),
               ('Barricalla', 'Collegno', 800.5),
               ('Gerbido', 'Torino', 450.0);",
        )
        .unwrap();
        db
    }

    #[test]
    fn normalization_folds_case_and_whitespace() {
        let a = normalize_sql("SELECT  name FROM landfill\n WHERE city = 'Torino'").unwrap();
        let b = normalize_sql("select name from LANDFILL where CITY='Torino'").unwrap();
        assert_eq!(a, b);
        // Literal contents are significant.
        let c = normalize_sql("SELECT name FROM landfill WHERE city = 'torino'").unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn normalization_does_not_conflate_adjacent_strings() {
        let a = normalize_sql("SELECT 'a' 'b'").unwrap();
        let b = normalize_sql("SELECT 'a'' ''b'").unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn named_param_round_trip() {
        let d = db();
        let p = d.prepare("SELECT name FROM landfill WHERE city = $city ORDER BY name").unwrap();
        assert_eq!(p.param_slots().len(), 1);
        assert_eq!(p.param_slots()[0].name.as_deref(), Some("city"));
        let rs = p.query(&Params::new().set("city", "Torino")).unwrap();
        assert_eq!(rs.len(), 2);
        let rs = p.query(&Params::new().set("city", "Collegno")).unwrap();
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn positional_params_bind_in_order() {
        let d = db();
        let p = d
            .prepare("SELECT name FROM landfill WHERE city = ? AND tons > ?")
            .unwrap();
        assert_eq!(p.param_slots().len(), 2);
        let rs = p.query(&Params::new().push("Torino").push(500)).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0][0], Value::from("Basse di Stura"));
    }

    #[test]
    fn repeated_named_param_is_one_slot() {
        let d = db();
        let p = d
            .prepare("SELECT name FROM landfill WHERE city = $c OR name = $c")
            .unwrap();
        assert_eq!(p.param_slots().len(), 1);
        let rs = p.query(&Params::new().set("c", "Gerbido")).unwrap();
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn missing_binding_is_an_error() {
        let d = db();
        let p = d.prepare("SELECT name FROM landfill WHERE city = $city").unwrap();
        let err = p.query(&Params::new()).unwrap_err();
        assert!(err.to_string().contains("$city"), "{err}");
        let p = d.prepare("SELECT name FROM landfill WHERE city = ?").unwrap();
        let err = p.query(&Params::new()).unwrap_err();
        assert!(err.to_string().contains("positional"), "{err}");
    }

    #[test]
    fn excess_positional_values_rejected() {
        let d = db();
        let p = d.prepare("SELECT name FROM landfill WHERE city = ?").unwrap();
        let err = p.query(&Params::new().push("Torino").push("extra")).unwrap_err();
        assert!(err.to_string().contains("positional"), "{err}");
    }

    #[test]
    fn slot_types_are_inferred_and_enforced() {
        let d = db();
        let p = d.prepare("SELECT name FROM landfill WHERE tons > $min").unwrap();
        assert_eq!(p.param_slots()[0].expected, Some(DataType::Float));
        let err = p.query(&Params::new().set("min", "not a number")).unwrap_err();
        assert!(err.to_string().contains("expects FLOAT"), "{err}");
        // Int widens into the FLOAT slot.
        let rs = p.query(&Params::new().set("min", 500)).unwrap();
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn executing_unprepared_param_text_fails_clearly() {
        let d = db();
        // Ad-hoc text is compiled and executed with nothing bound: the same
        // handle, so the same error a prepared statement gives.
        let err = d.query("SELECT name FROM landfill WHERE city = $c").unwrap_err();
        assert!(err.to_string().contains("missing binding for parameter `$c`"), "{err}");
    }

    #[test]
    fn prepare_equals_textual_substitution() {
        let d = db();
        let p = d
            .prepare("SELECT name FROM landfill WHERE city = $c AND tons >= $t ORDER BY name")
            .unwrap();
        let prepared = p
            .query(&Params::new().set("c", "Torino").set("t", 450))
            .unwrap();
        let textual = d
            .query("SELECT name FROM landfill WHERE city = 'Torino' AND tons >= 450 ORDER BY name")
            .unwrap();
        assert_eq!(prepared.rows, textual.rows);
    }

    #[test]
    fn params_in_subqueries_bind() {
        let d = db();
        d.execute_script(
            "CREATE TABLE elem (name TEXT, landfill TEXT);
             INSERT INTO elem VALUES ('Hg', 'Gerbido'), ('Pb', 'Barricalla');",
        )
        .unwrap();
        let p = d
            .prepare(
                "SELECT name FROM landfill WHERE name IN \
                 (SELECT landfill FROM elem WHERE name = $e)",
            )
            .unwrap();
        let rs = p.query(&Params::new().set("e", "Hg")).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0][0], Value::from("Gerbido"));
    }

    #[test]
    fn subquery_results_are_not_frozen_into_a_template() {
        // The planner runs subqueries and inlines their rows, so a kept
        // template would keep answering from the first execution's rows.
        for (sql, before, after) in [
            ("SELECT name FROM t WHERE x IN (SELECT y FROM u) ORDER BY name", "a", "a b"),
            ("SELECT name FROM t WHERE EXISTS (SELECT y FROM u WHERE y = 2) ORDER BY name", "", "a b"),
            ("SELECT (SELECT COUNT(*) FROM u) FROM t WHERE name = 'a'", "1", "2"),
        ] {
            let d = Database::new();
            d.execute_script(
                "CREATE TABLE t (name TEXT, x INT);
                 INSERT INTO t VALUES ('a', 1), ('b', 2);
                 CREATE TABLE u (y INT);
                 INSERT INTO u VALUES (1);",
            )
            .unwrap();
            let read = |p: &Prepared| {
                let rows = p.query(&Params::new()).unwrap().rows;
                rows.iter().map(|r| r[0].lexical_form()).collect::<Vec<_>>().join(" ")
            };
            let held = d.prepare(sql).unwrap();
            assert_eq!(read(&held), before, "{sql}");
            assert_eq!(read(&held), before, "{sql}: second execution");
            d.execute("INSERT INTO u VALUES (2)").unwrap();
            assert_eq!(read(&held), after, "{sql}: held handle");
            assert_eq!(read(&d.prepare(sql).unwrap()), after, "{sql}: prepared again");
        }
    }

    #[test]
    fn cache_hits_and_ddl_invalidation() {
        let d = db();
        let q = "SELECT name FROM landfill ORDER BY name";
        let p1 = d.prepare(q).unwrap();
        let _p2 = d.prepare("select name from landfill order by name").unwrap();
        let stats = d.prepare_cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(p1.query(&Params::new()).unwrap().len(), 3);
        // DDL invalidates the cached template (re-planned transparently).
        d.execute("CREATE INDEX idx_name ON landfill (name)").unwrap();
        assert_eq!(p1.query(&Params::new()).unwrap().len(), 3);
    }

    #[test]
    fn ddl_refreshes_cached_slot_types() {
        let d = db();
        // Parameterised statements defer planning to execute: preparing
        // against a missing table succeeds with untyped slots and fails
        // cleanly at execution.
        let p = d.prepare("SELECT * FROM scores WHERE v > $p").unwrap();
        assert_eq!(p.param_slots()[0].expected, None);
        assert!(p.query(&Params::new().set("p", 1)).is_err());
        d.execute("CREATE TABLE scores (v FLOAT)").unwrap();
        d.execute("INSERT INTO scores VALUES (1.5)").unwrap();
        let p = d.prepare("SELECT * FROM scores WHERE v > $p").unwrap();
        assert_eq!(p.param_slots()[0].expected, Some(DataType::Float));
        // Re-type the column: a fresh prepare of the same text must see
        // TEXT slots, not the cached FLOAT inference.
        d.execute("DROP TABLE scores").unwrap();
        d.execute("CREATE TABLE scores (v TEXT)").unwrap();
        d.execute("INSERT INTO scores VALUES ('b')").unwrap();
        let p = d.prepare("SELECT * FROM scores WHERE v > $p").unwrap();
        assert_eq!(p.param_slots()[0].expected, Some(DataType::Text));
        let rs = p.query(&Params::new().set("p", "a")).unwrap();
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn plan_cache_is_bounded() {
        let d = db();
        d.set_plan_cache_capacity(4);
        for i in 0..20 {
            d.prepare(&format!("SELECT name FROM landfill LIMIT {i}")).unwrap();
        }
        let stats = d.prepare_cache_stats();
        assert!(stats.evictions >= 16, "{stats:?}");
    }

    #[test]
    fn non_select_cannot_be_prepared() {
        let d = db();
        assert!(d.prepare("DELETE FROM landfill").is_err());
    }

    #[test]
    fn null_binds_without_type_error() {
        let d = db();
        let p = d.prepare("SELECT name FROM landfill WHERE tons > $t").unwrap();
        let rs = p.query(&Params::new().set("t", Value::Null)).unwrap();
        assert!(rs.is_empty(), "NULL comparison keeps nothing");
    }
}
