//! Prepared statements: compile once, bind parameters, execute many times.
//!
//! A [`Prepared`] is the executable form of a SELECT — the only one.
//! [`Database::compile`](crate::Database::compile) builds it from an AST;
//! [`Database::prepare`](crate::Database::prepare) builds it from text
//! through the statement cache, one entry per shape (see
//! [`crate::sql::shape`]): texts that differ in whitespace, comments,
//! keyword case or the values of their WHERE-clause comparison literals
//! share one parse, one lint and one plan template, and each handle keeps
//! its own text and the values of its *lifted* literals. Its plan is one
//! template, kept for every binding: the *execute* step replays it and
//! opens a [`Rows`] cursor, which fills the plan's slots — the bound
//! values, the lifted literals, the results of its subqueries — when it
//! opens.
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
//! silently-empty result. A lifted literal is no placeholder: it is not in
//! [`Prepared::param_slots`], and its value reaches the cursor as written,
//! never coerced — it behaves as the literal it was.

use std::borrow::Cow;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::db::{Database, RowSet};
use crate::error::{Error, Result};
use crate::exec::Rows;
use crate::plan::Plan;
use crate::schema::{Column, Schema};
use crate::sql::ast::{Expr, Select, SelectItem, TableRef};
use crate::sql::parser::{collect_params, ParamSlot};
use crate::storage::{Catalog, Table};
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

// ---- slot substitution -----------------------------------------------------

/// `e` with every slot `value` names replaced by that literal, subquery
/// bodies included.
fn replace_slots(e: Expr, value: &impl Fn(&Expr) -> Option<Value>) -> Expr {
    e.rewrite(&mut |node| {
        if let Some(v) = value(&node) {
            return Expr::Literal(v);
        }
        match node {
            Expr::InSubquery { expr, query, negated } => Expr::InSubquery {
                expr,
                query: Box::new(replace_slots_in(*query, value)),
                negated,
            },
            Expr::Exists { query, negated } => {
                Expr::Exists { query: Box::new(replace_slots_in(*query, value)), negated }
            }
            Expr::ScalarSubquery(query) => {
                Expr::ScalarSubquery(Box::new(replace_slots_in(*query, value)))
            }
            other => other,
        }
    })
}

fn replace_slots_in(mut select: Select, value: &impl Fn(&Expr) -> Option<Value>) -> Select {
    select.visit_clauses_mut(&mut |e| {
        *e = replace_slots(std::mem::replace(e, Expr::Literal(Value::Null)), value)
    });
    select
}

/// The value `values` gives the slot `e` stands for, if `e` is a slot.
fn slot_value(e: &Expr, values: &[Value]) -> Option<Value> {
    match e {
        Expr::Param { index, .. } | Expr::Lifted { index, .. } => {
            Some(values.get(*index).cloned().unwrap_or(Value::Null))
        }
        _ => None,
    }
}

/// Substitute every slot in `e` — parameters and lifted literals — with
/// its value in `values`, descending into subquery bodies. No values,
/// nothing to substitute.
pub fn substitute_expr(e: Expr, values: &[Value]) -> Expr {
    if values.is_empty() {
        return e;
    }
    replace_slots(e, &|node| slot_value(node, values))
}

/// Substitute every slot in a SELECT (all clauses, all union members, all
/// subqueries). No values, nothing to substitute.
pub fn substitute_select(select: Select, values: &[Value]) -> Select {
    if values.is_empty() {
        return select;
    }
    replace_slots_in(select, &|node| slot_value(node, values))
}

/// `select` with each lifted slot back as the literal it was lifted from —
/// `lifted[k]` is the value of its `k`-th lifted slot — and its parameters
/// left in place: the statement as written.
pub fn restore_literals(select: Select, lifted: &[Value]) -> Select {
    if lifted.is_empty() {
        return select;
    }
    let base = collect_params(&select).len();
    replace_slots_in(select, &|node| match node {
        Expr::Lifted { index, .. } => lifted.get(index - base).cloned(),
        _ => None,
    })
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
/// and calls [`Prepared::execute`], the one function that replays (or
/// plans) the statement's template and opens a [`Rows`] cursor on it.
///
/// Cheap to clone; clones share the memo below, and executions on one
/// `Prepared` are independent cursors.
#[derive(Debug, Clone)]
pub struct Prepared {
    pub(crate) db: Database,
    /// The statement's shape: each literal the statement cache lifted is
    /// an [`Expr::Lifted`] slot here, shared by every text of the shape.
    pub(crate) select: Arc<Select>,
    /// The statement as written; empty for a handle built from an AST by
    /// [`Database::compile`].
    pub(crate) text: String,
    /// This text's values of the lifted slots, in slot order.
    pub(crate) lifted: Vec<Value>,
    /// Lint diagnostics computed by [`Database::prepare`] (see
    /// [`crate::lint`]; parameter placeholders do not warn there); `None`
    /// for a handle that was never linted.
    pub(crate) warnings: Option<Arc<Vec<crosse_lint::Diagnostic>>>,
    /// Shared by the handle's clones and, for a prepared text, by the
    /// statement cache's entry and every handle made from it.
    pub(crate) memo: SharedMemo,
    /// Query-scoped relations bound by [`Prepared::with_table`].
    pub(crate) scoped: Vec<Arc<Table>>,
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
    /// The optimized plan, filled by `prepare` or the first execution at
    /// `tag` and replayed by every later one, whatever its bindings. A
    /// plan holds no data: parameters and subquery results are slots its
    /// cursor fills when it opens, index keys from them included.
    template: Option<Arc<Plan>>,
}

pub(crate) type SharedMemo = Arc<Mutex<Option<Memo>>>;

/// A memo no handle has filled yet.
pub(crate) fn fresh_memo() -> SharedMemo {
    Arc::new(Mutex::new_labeled("prepared.memo", None))
}

impl Prepared {
    /// Bind `table`, a table no catalog holds, as a query-scoped
    /// relation: the statement's FROM clause names it by `table.name`,
    /// and planning resolves a FROM name against the handle's scoped
    /// tables before the catalog (a name that denotes both is an error).
    /// Nothing is created, logged or versioned, so binding a table
    /// invalidates no other plan. The handle gets a memo of its own.
    pub fn with_table(mut self, table: Arc<Table>) -> Self {
        self.scoped.push(table);
        Prepared { memo: fresh_memo(), ..self }
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
                memo.insert(Memo { tag, slots, template: None }).clone()
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

    /// The values of the statement's lifted literals, in slot order.
    pub fn lifted(&self) -> &[Value] {
        &self.lifted
    }

    /// The statement as written (empty for a handle compiled from an AST).
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The parsed SELECT as written: lifted literals in place, parameters
    /// as their placeholders.
    pub fn select(&self) -> Cow<'_, Select> {
        match self.lifted.is_empty() {
            true => Cow::Borrowed(&self.select),
            false => Cow::Owned(restore_literals((*self.select).clone(), &self.lifted)),
        }
    }

    /// Execute with bound parameters, returning a streaming cursor.
    ///
    /// Replays the statement's plan template (no parse, no plan) and opens
    /// a cursor on it with `params` coerced to the slot types; the cursor
    /// runs the statement's subqueries when it opens. Execution inherits
    /// the database's worker-thread budget (see
    /// `Database::set_exec_threads`).
    pub fn execute(&self, params: &Params) -> Result<Rows> {
        let (plan, slots) = self.plan(true)?;
        Rows::open(plan, self.db.exec_threads(), self.slot_values(&slots, params)?)
    }

    /// [`Prepared::execute`] for a handle that is dropped with the call
    /// (a rewritten SESQL leg, `INSERT … SELECT`): no later execution
    /// could replay a template, so none is kept.
    pub fn execute_once(self, params: &Params) -> Result<Rows> {
        let (plan, slots) = self.plan(false)?;
        Rows::open(plan, self.db.exec_threads(), self.slot_values(&slots, params)?)
    }

    /// What a cursor fills the statement's slots with: the parameters,
    /// bound from `params` and coerced to their types, then the lifted
    /// literals as written — never coerced, as a literal is not.
    pub fn slot_values(&self, slots: &[SlotInfo], params: &Params) -> Result<Vec<Value>> {
        let mut values = resolve_params(slots, params)?;
        values.extend(self.lifted.iter().cloned());
        Ok(values)
    }

    /// The plan every execution runs, and the slot types its bindings are
    /// coerced to: the only place a statement is planned for execution.
    /// `keep` stores a fresh plan as the template (at the price of one
    /// clone), post-optimization, so later executions replay the rewritten
    /// (pushed-down, spooled) shape directly.
    pub(crate) fn plan(&self, keep: bool) -> Result<(Plan, Arc<Vec<SlotInfo>>)> {
        let memo = self.memo();
        if let Some(template) = &memo.template {
            return Ok(((**template).clone(), memo.slots));
        }
        let plan = self.db.plan_scoped(&self.select, &self.scoped)?.plan;
        if keep {
            if let Some(m) = self.memo.lock().as_mut().filter(|m| m.tag == memo.tag) {
                m.template = Some(Arc::new(plan.clone()));
            }
        }
        Ok((plan, memo.slots))
    }

    /// Render the optimized execution plan of this statement as written —
    /// the `EXPLAIN` tree plus one annotation line per rewrite pass that
    /// fired. Parameters and subquery results show as the slots of a
    /// `Bind` root, lifted literals in place; nothing runs.
    pub fn explain(&self) -> Result<String> {
        Ok(self.db.plan_scoped(&self.select(), &self.scoped)?.render())
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

    fn shape_key(sql: &str) -> String {
        crate::sql::shape::Shape::of(sql).unwrap().key
    }

    #[test]
    fn normalization_folds_case_and_whitespace() {
        let a = shape_key("SELECT  name FROM landfill\n WHERE city = 'Torino'");
        let b = shape_key("select name from landfill where city='Torino'");
        assert_eq!(a, b);
        // Identifier case names output columns: it is significant.
        assert_ne!(a, shape_key("select name from LANDFILL where CITY='Torino'"));
        // A lifted literal's value is not in the key; its type is.
        assert_eq!(a, shape_key("SELECT name FROM landfill WHERE city = 'torino'"));
        assert_ne!(a, shape_key("SELECT name FROM landfill WHERE city = 3"));
    }

    #[test]
    fn normalization_does_not_conflate_adjacent_strings() {
        let a = shape_key("SELECT 'a' 'b'");
        let b = shape_key("SELECT 'a'' ''b'");
        assert_ne!(a, b);
    }

    #[test]
    fn output_names_follow_each_texts_spelling() {
        // Texts that differ in identifier case are different statements:
        // each handle names its columns as its own text spells them.
        let d = db();
        let name = |p: Prepared| p.query(&Params::new()).unwrap().schema.columns[0].name.clone();
        assert_eq!(name(d.prepare("SELECT NAME FROM landfill").unwrap()), "NAME");
        assert_eq!(name(d.prepare("select name from landfill").unwrap()), "name");
        assert_eq!(name(d.prepare("SELECT tons AS Big FROM landfill").unwrap()), "Big");
        assert_eq!(name(d.prepare("SELECT tons AS big FROM landfill").unwrap()), "big");
        assert_eq!(d.query("SELECT NAME FROM landfill").unwrap().schema.columns[0].name, "NAME");
        assert_eq!(d.query("SELECT name FROM landfill").unwrap().schema.columns[0].name, "name");
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
        // A template holds the subquery's plan, never its rows: each
        // execution runs it again when its cursor opens.
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
    fn subquery_scans_are_charged_to_the_statement() {
        // Subqueries run when the statement's cursor opens, and it
        // reports every base-table row read.
        let d = Database::new();
        d.execute_script(
            "CREATE TABLE a (x INT);
             INSERT INTO a VALUES (1), (2), (3), (4), (5);
             CREATE TABLE b (y INT);
             INSERT INTO b VALUES (1), (3), (5);
             CREATE TABLE c (z INT);
             INSERT INTO c VALUES (3), (5);",
        )
        .unwrap();
        let drain = |mut rows: Rows| {
            while let Some(r) = rows.next_row() {
                r.unwrap();
            }
            rows.rows_scanned()
        };
        let sql = "SELECT x FROM a WHERE x IN (SELECT y FROM b)";
        assert_eq!(drain(d.query_cursor(sql).unwrap()), 5 + 3, "ad hoc");
        let held = d.prepare(sql).unwrap();
        for run in 0..2 {
            assert_eq!(drain(held.execute(&Params::new()).unwrap()), 5 + 3, "run {run}");
        }
        // A nested subquery is charged once, through the one enclosing it.
        let nested = "SELECT x FROM a WHERE x IN (SELECT y FROM b WHERE y IN (SELECT z FROM c))";
        assert_eq!(drain(d.query_cursor(nested).unwrap()), 5 + 3 + 2);
    }

    /// The template a handle keeps, by address.
    fn template(p: &Prepared) -> *const Plan {
        let memo = p.memo.lock();
        memo.as_ref().and_then(|m| m.template.as_ref()).map_or(std::ptr::null(), Arc::as_ptr)
    }

    #[test]
    fn one_template_serves_every_binding_and_subquery_run() {
        let d = db();
        d.execute_script(
            "CREATE TABLE hot (city TEXT); INSERT INTO hot VALUES ('Collegno');
             CREATE INDEX idx_city ON landfill (city);",
        )
        .unwrap();
        let names = |p: &Prepared, params: &Params| {
            let rows = p.query(params).unwrap().rows;
            rows.iter().map(|r| r[0].lexical_form()).collect::<Vec<_>>().join(",")
        };
        // Prepare plans and keeps the template; no binding plans again.
        let by_city = d.prepare("SELECT name FROM landfill WHERE city = $c ORDER BY name").unwrap();
        let kept = template(&by_city);
        assert!(!kept.is_null());
        assert_eq!(names(&by_city, &Params::new().set("c", "Torino")), "Basse di Stura,Gerbido");
        assert_eq!(names(&by_city, &Params::new().set("c", "Collegno")), "Barricalla");
        assert_eq!(names(&by_city, &Params::new().set("c", Value::Null)), "");
        assert_eq!(template(&by_city), kept);
        // A subquery runs per execution on the one template.
        let hot = d
            .prepare("SELECT name FROM landfill WHERE city IN (SELECT city FROM hot) ORDER BY name")
            .unwrap();
        assert_eq!(names(&hot, &Params::new()), "Barricalla");
        let kept = template(&hot);
        d.execute("INSERT INTO hot VALUES ('Torino')").unwrap();
        assert_eq!(names(&hot, &Params::new()), "Barricalla,Basse di Stura,Gerbido");
        assert_eq!(template(&hot), kept);
    }

    #[test]
    fn output_slot_types() {
        let d = db();
        // A parameter compared with a column takes the column's type, a
        // subquery its plan's; a parameter nothing types is TEXT, whatever
        // value it is bound to.
        let p = d
            .prepare("SELECT $t, $x, (SELECT MAX(tons) FROM landfill) FROM landfill WHERE tons > $t")
            .unwrap();
        let rs = p.query(&Params::new().set("t", 1000).set("x", 7)).unwrap();
        let types: Vec<DataType> = rs.schema.columns.iter().map(|c| c.data_type).collect();
        assert_eq!(types, [DataType::Float, DataType::Text, DataType::Float]);
        assert_eq!(rs.rows, vec![vec![Value::Float(1000.0), Value::Int(7), Value::Float(1200.0)]]);
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
        // Every statement is planned at prepare, parameters or not: a
        // missing table is a prepare-time error.
        assert!(d.prepare("SELECT * FROM scores WHERE v > $p").is_err());
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
