// srclint: allow(R002): FROM lists are non-empty by grammar and the greedy pick indexes the deque it was computed from
//! Logical plans and the query planner.
//!
//! The planner lowers a parsed [`Select`] into a tree of [`Plan`] nodes with
//! all expressions bound (column references resolved to row indexes). Joins
//! whose ON condition is a conjunction of cross-side equalities are lowered
//! to hash joins; everything else falls back to nested loops.

use std::ops::Bound;
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::exec::aggregate::AggFn;
use crate::exec::expr::{bind, BoundExpr, ScalarFn};
use crate::schema::{Column, Schema};
use crate::sql::ast::{
    is_aggregate_name, BinaryOp, Expr, JoinKind, OrderItem, Select, SelectItem, TableRef,
};
use crate::storage::{Catalog, Table};
use crate::value::{DataType, Value};

/// A bound, executable logical plan.
///
/// `Clone` exists so a cached prepared statement can hand a fresh copy of
/// its plan template to the consuming streaming executor on every execute.
#[derive(Debug, Clone)]
pub enum Plan {
    /// Literal rows (used for `SELECT` without `FROM`).
    Values { schema: Schema, rows: Vec<Vec<Value>> },
    Scan {
        table: Arc<Table>,
        schema: Schema,
    },
    /// Scan driven by a secondary index: only rows whose indexed column
    /// satisfies `lookup` are produced. Falls back to a filtered full scan
    /// at execution time if the index was dropped after planning.
    IndexScan {
        table: Arc<Table>,
        schema: Schema,
        /// Indexed column position (identical in table and scan schemas).
        column: usize,
        lookup: IndexLookup,
    },
    /// A foreign table's rows, fetched from its source when a cursor
    /// opens (see [`crate::foreign`]). `pushed` is the conjunction of the
    /// WHERE conjuncts shipped to the source; each of them also stays in
    /// a local `Filter` above the leaf.
    ForeignScan {
        table: Arc<Table>,
        schema: Schema,
        pushed: Option<Expr>,
    },
    Filter {
        input: Box<Plan>,
        predicate: BoundExpr,
    },
    Project {
        input: Box<Plan>,
        exprs: Vec<BoundExpr>,
        schema: Schema,
    },
    NestedLoopJoin {
        left: Box<Plan>,
        right: Box<Plan>,
        kind: JoinKind,
        predicate: Option<BoundExpr>,
        schema: Schema,
    },
    HashJoin {
        left: Box<Plan>,
        right: Box<Plan>,
        kind: JoinKind,
        left_keys: Vec<BoundExpr>,
        right_keys: Vec<BoundExpr>,
        /// Extra non-equi conjuncts, evaluated on the combined row
        /// (inner joins only).
        residual: Option<BoundExpr>,
        schema: Schema,
    },
    Aggregate {
        input: Box<Plan>,
        group: Vec<BoundExpr>,
        aggs: Vec<AggSpec>,
        schema: Schema,
    },
    Sort {
        input: Box<Plan>,
        keys: Vec<SortKey>,
    },
    Distinct {
        input: Box<Plan>,
    },
    Limit {
        input: Box<Plan>,
        limit: Option<u64>,
        offset: u64,
    },
    /// Compound SELECT: concatenate member results; `all = false` removes
    /// duplicate rows across the whole compound.
    Union {
        inputs: Vec<Plan>,
        all: bool,
        schema: Schema,
    },
    /// A subtree referenced from more than one place in the plan, produced
    /// by the optimizer's common-subplan elimination (see [`crate::opt`]).
    /// All occurrences with the same `id` read one spool: the subtree is
    /// evaluated once per execution (against one pinned snapshot) and its
    /// rows are replayed to every consumer.
    Shared {
        /// Spool identity within one optimized plan.
        id: usize,
        input: Arc<Plan>,
    },
}

/// What an [`Plan::IndexScan`] asks of the index.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexLookup {
    /// Column equals any of these keys (`col = v`, `col IN (v, ...)`).
    /// Keys are already coerced to the column type; NULLs never match.
    Eq(Vec<Value>),
    /// Column within a (total-order) range — `>`, `>=`, `<`, `<=`,
    /// `BETWEEN`.
    Range { low: Bound<Value>, high: Bound<Value> },
}

impl IndexLookup {
    /// Decide `lookup` against a concrete column value — used by the
    /// executor's no-index fallback so semantics stay identical.
    pub fn matches(&self, v: &Value) -> bool {
        if v.is_null() {
            return false;
        }
        match self {
            IndexLookup::Eq(keys) => keys
                .iter()
                .any(|k| !k.is_null() && v.total_cmp(k) == std::cmp::Ordering::Equal),
            IndexLookup::Range { low, high } => {
                let lo_ok = match low {
                    Bound::Included(b) => v.total_cmp(b) != std::cmp::Ordering::Less,
                    Bound::Excluded(b) => v.total_cmp(b) == std::cmp::Ordering::Greater,
                    Bound::Unbounded => true,
                };
                let hi_ok = match high {
                    Bound::Included(b) => v.total_cmp(b) != std::cmp::Ordering::Greater,
                    Bound::Excluded(b) => v.total_cmp(b) == std::cmp::Ordering::Less,
                    Bound::Unbounded => true,
                };
                lo_ok && hi_ok
            }
        }
    }
}

/// One aggregate computation inside an [`Plan::Aggregate`].
#[derive(Debug, Clone)]
pub struct AggSpec {
    pub func: AggFn,
    pub distinct: bool,
    /// Input expression; `None` for `COUNT(*)`.
    pub arg: Option<BoundExpr>,
}

/// One ORDER BY key.
#[derive(Debug, Clone)]
pub struct SortKey {
    pub expr: BoundExpr,
    pub ascending: bool,
}

impl Plan {
    /// Render the plan tree as an indented `EXPLAIN`-style listing.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(0, &mut out, &mut Vec::new());
        out
    }

    fn explain_into(&self, depth: usize, out: &mut String, seen_spools: &mut Vec<usize>) {
        use std::fmt::Write;
        let pad = "  ".repeat(depth);
        match self {
            Plan::Values { rows, .. } => {
                let _ = writeln!(out, "{pad}Values: {} row(s)", rows.len());
            }
            Plan::Scan { table, .. } => {
                let _ = writeln!(out, "{pad}SeqScan: {} ({} rows)", table.name, table.row_count());
            }
            Plan::IndexScan { table, schema, column, lookup } => {
                let col_name = &schema.columns[*column].name;
                let what = match lookup {
                    IndexLookup::Eq(keys) => format!("eq, {} key(s)", keys.len()),
                    IndexLookup::Range { .. } => "range".to_string(),
                };
                let _ = writeln!(
                    out,
                    "{pad}IndexScan: {}.{col_name} ({what})",
                    table.name
                );
            }
            Plan::ForeignScan { table, pushed, .. } => {
                let remote = table.foreign().map(|f| f.remote_sql(pushed.as_ref()));
                let _ = writeln!(
                    out,
                    "{pad}ForeignScan: {} (remote: {})",
                    table.name,
                    remote.unwrap_or_default()
                );
            }
            Plan::Filter { input, .. } => {
                let _ = writeln!(out, "{pad}Filter");
                input.explain_into(depth + 1, out, seen_spools);
            }
            Plan::Project { input, exprs, .. } => {
                let _ = writeln!(out, "{pad}Project: {} column(s)", exprs.len());
                input.explain_into(depth + 1, out, seen_spools);
            }
            Plan::NestedLoopJoin { left, right, kind, predicate, .. } => {
                let _ = writeln!(
                    out,
                    "{pad}NestedLoopJoin ({kind:?}{})",
                    if predicate.is_some() { ", predicated" } else { "" }
                );
                left.explain_into(depth + 1, out, seen_spools);
                right.explain_into(depth + 1, out, seen_spools);
            }
            Plan::HashJoin { left, right, kind, left_keys, residual, .. } => {
                let _ = writeln!(
                    out,
                    "{pad}HashJoin ({kind:?}, {} key(s){})",
                    left_keys.len(),
                    if residual.is_some() { ", residual" } else { "" }
                );
                left.explain_into(depth + 1, out, seen_spools);
                right.explain_into(depth + 1, out, seen_spools);
            }
            Plan::Aggregate { input, group, aggs, .. } => {
                let _ = writeln!(
                    out,
                    "{pad}Aggregate: {} group key(s), {} aggregate(s)",
                    group.len(),
                    aggs.len()
                );
                input.explain_into(depth + 1, out, seen_spools);
            }
            Plan::Sort { input, keys } => {
                let _ = writeln!(out, "{pad}Sort: {} key(s)", keys.len());
                input.explain_into(depth + 1, out, seen_spools);
            }
            Plan::Distinct { input } => {
                let _ = writeln!(out, "{pad}Distinct");
                input.explain_into(depth + 1, out, seen_spools);
            }
            Plan::Limit { input, limit, offset } => {
                let _ = writeln!(out, "{pad}Limit: limit={limit:?} offset={offset}");
                input.explain_into(depth + 1, out, seen_spools);
            }
            Plan::Union { inputs, all, .. } => {
                let _ = writeln!(
                    out,
                    "{pad}Union{}: {} inputs",
                    if *all { "All" } else { "" },
                    inputs.len()
                );
                for i in inputs {
                    i.explain_into(depth + 1, out, seen_spools);
                }
            }
            Plan::Shared { id, input } => {
                if seen_spools.contains(id) {
                    let _ = writeln!(out, "{pad}Shared spool #{id} (reused)");
                } else {
                    seen_spools.push(*id);
                    let _ = writeln!(out, "{pad}Shared spool #{id}");
                    input.explain_into(depth + 1, out, seen_spools);
                }
            }
        }
    }

    pub fn schema(&self) -> &Schema {
        match self {
            Plan::Values { schema, .. } => schema,
            Plan::Scan { schema, .. } => schema,
            Plan::IndexScan { schema, .. } => schema,
            Plan::ForeignScan { schema, .. } => schema,
            Plan::Filter { input, .. } => input.schema(),
            Plan::Project { schema, .. } => schema,
            Plan::NestedLoopJoin { schema, .. } => schema,
            Plan::HashJoin { schema, .. } => schema,
            Plan::Aggregate { schema, .. } => schema,
            Plan::Sort { input, .. } => input.schema(),
            Plan::Distinct { input } => input.schema(),
            Plan::Limit { input, .. } => input.schema(),
            Plan::Union { schema, .. } => schema,
            Plan::Shared { input, .. } => input.schema(),
        }
    }

    /// Visit each direct child, left to right (a shared spool's input
    /// counts as its child).
    pub(crate) fn visit_children<'p>(&'p self, f: &mut impl FnMut(&'p Plan)) {
        match self {
            Plan::Values { .. }
            | Plan::Scan { .. }
            | Plan::IndexScan { .. }
            | Plan::ForeignScan { .. } => {}
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Distinct { input }
            | Plan::Limit { input, .. } => f(input),
            Plan::NestedLoopJoin { left, right, .. } | Plan::HashJoin { left, right, .. } => {
                f(left);
                f(right);
            }
            Plan::Union { inputs, .. } => {
                for i in inputs {
                    f(i);
                }
            }
            Plan::Shared { input, .. } => f(input),
        }
    }
}

/// Infer a (best-effort) output type for an expression. Used to type
/// result-set columns.
pub fn infer_type(expr: &Expr, schema: &Schema) -> DataType {
    match expr {
        Expr::Literal(v) => v.data_type().unwrap_or(DataType::Text),
        Expr::Column { qualifier, name } => schema
            .resolve(qualifier.as_deref(), name)
            .map(|i| schema.columns[i].data_type)
            .unwrap_or(DataType::Text),
        Expr::Unary { op, expr } => match op {
            crate::sql::ast::UnaryOp::Not => DataType::Bool,
            crate::sql::ast::UnaryOp::Neg => infer_type(expr, schema),
        },
        Expr::Binary { left, op, right } => match op {
            BinaryOp::And | BinaryOp::Or => DataType::Bool,
            op if op.is_comparison() => DataType::Bool,
            BinaryOp::Concat => DataType::Text,
            _ => {
                let (l, r) = (infer_type(left, schema), infer_type(right, schema));
                if l == DataType::Int && r == DataType::Int {
                    DataType::Int
                } else {
                    DataType::Float
                }
            }
        },
        Expr::IsNull { .. } | Expr::InList { .. } | Expr::Between { .. } | Expr::Like { .. } => {
            DataType::Bool
        }
        // An unbound parameter's type is unknown until execute time.
        Expr::Param { .. } => DataType::Text,
        Expr::InSubquery { .. } | Expr::Exists { .. } => DataType::Bool,
        // Scalar subqueries are materialised to literals before type
        // inference runs; this arm only covers unresolved contexts.
        Expr::ScalarSubquery(_) => DataType::Text,
        Expr::Case { branches, else_expr, .. } => branches
            .iter()
            .map(|(_, t)| infer_type(t, schema))
            .chain(else_expr.iter().map(|e| infer_type(e, schema)))
            .reduce(|a, b| {
                if a == b {
                    a
                } else if matches!(
                    (a, b),
                    (DataType::Int, DataType::Float) | (DataType::Float, DataType::Int)
                ) {
                    DataType::Float
                } else {
                    DataType::Text
                }
            })
            .unwrap_or(DataType::Text),
        Expr::Function { name, args, star, .. } => {
            if *star {
                return DataType::Int;
            }
            if is_aggregate_name(name) {
                return match name.to_ascii_uppercase().as_str() {
                    "COUNT" => DataType::Int,
                    "AVG" => DataType::Float,
                    _ => args
                        .first()
                        .map(|a| infer_type(a, schema))
                        .unwrap_or(DataType::Float),
                };
            }
            match ScalarFn::parse(name) {
                Some(ScalarFn::Length) => DataType::Int,
                Some(ScalarFn::Upper | ScalarFn::Lower | ScalarFn::Trim | ScalarFn::Substr) => {
                    DataType::Text
                }
                Some(ScalarFn::Abs | ScalarFn::Round | ScalarFn::Coalesce) => args
                    .first()
                    .map(|a| infer_type(a, schema))
                    .unwrap_or(DataType::Float),
                None => DataType::Text,
            }
        }
    }
}

/// Plan a SELECT statement against a catalog.
pub fn plan_select(catalog: &Catalog, select: &Select) -> Result<Plan> {
    Planner { catalog }.select(select)
}

/// Materialise every (uncorrelated) subquery inside `e` into literal form —
/// the same pass SELECT planning applies to its WHERE clause, exposed so
/// DELETE/UPDATE filters accept subqueries too.
pub fn resolve_expr_subqueries(catalog: &Catalog, e: Expr) -> Result<Expr> {
    Planner { catalog }.resolve_subqueries(e)
}

struct Planner<'a> {
    catalog: &'a Catalog,
}

impl<'a> Planner<'a> {
    fn select(&self, select: &Select) -> Result<Plan> {
        if !select.union.is_empty() {
            return self.compound_select(select);
        }
        self.select_core(select)
    }

    /// Plan a UNION chain: each core planned independently, arity checked,
    /// concatenated; `ORDER BY` (by output name/position) and LIMIT apply
    /// to the compound result.
    fn compound_select(&self, select: &Select) -> Result<Plan> {
        let mut head = select.clone();
        head.union = Vec::new();
        head.order_by = Vec::new();
        head.limit = None;
        head.offset = None;
        let mut inputs = vec![self.select_core(&head)?];
        let mut all_flags = Vec::new();
        for (all, member) in &select.union {
            if !member.union.is_empty() {
                return Err(Error::plan("nested compound selects are not supported"));
            }
            let p = self.select_core(member)?;
            if p.schema().len() != inputs[0].schema().len() {
                return Err(Error::plan(format!(
                    "UNION members have different column counts ({} vs {})",
                    inputs[0].schema().len(),
                    p.schema().len()
                )));
            }
            all_flags.push(*all);
            inputs.push(p);
        }
        // `UNION` anywhere in the chain deduplicates the whole result
        // (matching SQL's left-associative semantics for uniform chains;
        // mixed chains apply the strictest member).
        let all = all_flags.iter().all(|&a| a);
        let schema = inputs[0].schema().clone();
        let mut plan = Plan::Union { inputs, all, schema };

        if !select.order_by.is_empty() {
            let out_schema = plan.schema().clone();
            let mut keys = Vec::new();
            for item in &select.order_by {
                if let Expr::Literal(Value::Int(n)) = &item.expr {
                    let idx = *n - 1;
                    if idx < 0 || idx as usize >= out_schema.len() {
                        return Err(Error::plan(format!(
                            "ORDER BY position {n} is out of range"
                        )));
                    }
                    keys.push(SortKey {
                        expr: BoundExpr::Column(idx as usize),
                        ascending: item.ascending,
                    });
                    continue;
                }
                if let Expr::Column { qualifier: None, name } = &item.expr {
                    if let Some(idx) = out_schema.index_of_output(name) {
                        keys.push(SortKey {
                            expr: BoundExpr::Column(idx),
                            ascending: item.ascending,
                        });
                        continue;
                    }
                }
                keys.push(SortKey {
                    expr: bind(&item.expr, &out_schema)?,
                    ascending: item.ascending,
                });
            }
            plan = Plan::Sort { input: Box::new(plan), keys };
        }
        if select.limit.is_some() || select.offset.is_some() {
            plan = Plan::Limit {
                input: Box::new(plan),
                limit: select.limit,
                offset: select.offset.unwrap_or(0),
            };
        }
        Ok(plan)
    }

    /// Execute one uncorrelated subquery and return its rows.
    fn subquery_rows(&self, query: &Select) -> Result<(Schema, Vec<Vec<Value>>)> {
        let plan = self.select(query)?;
        let rows = crate::exec::execute_plan(&plan)?;
        Ok((plan.schema().clone(), rows))
    }

    /// Materialise every subquery in `e` into literal form:
    /// `IN (SELECT ...)` → literal IN-list (preserving NULL semantics and
    /// making the predicate sargable), `EXISTS` → boolean literal, scalar
    /// subquery → its single value (NULL when empty).
    fn resolve_subqueries(&self, e: Expr) -> Result<Expr> {
        let mut err: Option<Error> = None;
        let out = e.rewrite(&mut |node| {
            if err.is_some() {
                return node;
            }
            match node {
                Expr::InSubquery { expr, query, negated } => {
                    match self.subquery_rows(&query) {
                        Ok((schema, rows)) => {
                            if schema.len() != 1 {
                                err = Some(Error::plan(format!(
                                    "IN subquery must return exactly one column, got {}",
                                    schema.len()
                                )));
                                return Expr::Literal(Value::Null);
                            }
                            Expr::InList {
                                expr,
                                list: rows
                                    .into_iter()
                                    .map(|mut r| Expr::Literal(r.swap_remove(0)))
                                    .collect(),
                                negated,
                            }
                        }
                        Err(e) => {
                            err = Some(e);
                            Expr::Literal(Value::Null)
                        }
                    }
                }
                Expr::Exists { query, negated } => match self.subquery_rows(&query) {
                    Ok((_, rows)) => {
                        // EXISTS is true on non-empty; NOT EXISTS flips it.
                        Expr::Literal(Value::Bool(rows.is_empty() == negated))
                    }
                    Err(e) => {
                        err = Some(e);
                        Expr::Literal(Value::Null)
                    }
                },
                Expr::ScalarSubquery(query) => match self.subquery_rows(&query) {
                    Ok((schema, mut rows)) => {
                        if schema.len() != 1 {
                            err = Some(Error::plan(format!(
                                "scalar subquery must return exactly one column, got {}",
                                schema.len()
                            )));
                            return Expr::Literal(Value::Null);
                        }
                        match rows.len() {
                            0 => Expr::Literal(Value::Null),
                            1 => Expr::Literal(rows.swap_remove(0).swap_remove(0)),
                            n => {
                                err = Some(Error::plan(format!(
                                    "scalar subquery returned {n} rows"
                                )));
                                Expr::Literal(Value::Null)
                            }
                        }
                    }
                    Err(e) => {
                        err = Some(e);
                        Expr::Literal(Value::Null)
                    }
                },
                other => other,
            }
        });
        match err {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    /// Apply subquery resolution to every expression position of a SELECT
    /// core (WHERE, projections, GROUP BY, HAVING, ORDER BY).
    fn resolve_select(&self, select: &Select) -> Result<Select> {
        let mut s = select.clone();
        if let Some(f) = s.filter.take() {
            s.filter = Some(self.resolve_subqueries(f)?);
        }
        for item in &mut s.projections {
            if let SelectItem::Expr { expr, .. } = item {
                *expr = self.resolve_subqueries(std::mem::replace(
                    expr,
                    Expr::Literal(Value::Null),
                ))?;
            }
        }
        for g in &mut s.group_by {
            *g = self.resolve_subqueries(std::mem::replace(
                g,
                Expr::Literal(Value::Null),
            ))?;
        }
        if let Some(h) = s.having.take() {
            s.having = Some(self.resolve_subqueries(h)?);
        }
        for o in &mut s.order_by {
            o.expr = self.resolve_subqueries(std::mem::replace(
                &mut o.expr,
                Expr::Literal(Value::Null),
            ))?;
        }
        Ok(s)
    }

    fn select_core(&self, select: &Select) -> Result<Plan> {
        let select = &self.resolve_select(select)?;
        // FROM + WHERE with predicate pushdown: single-table conjuncts
        // filter their table before any join; cross-table conjuncts become
        // join conditions (hash-joinable when they contain equalities);
        // whatever remains is a residual filter on top.
        let mut conjuncts: Vec<Expr> = Vec::new();
        if let Some(filter) = &select.filter {
            let mut parts = Vec::new();
            split_conjuncts(filter, &mut parts);
            conjuncts = parts.into_iter().cloned().collect();
        }
        let mut used = vec![false; conjuncts.len()];

        let push_single =
            |mut plan: Plan, conjuncts: &[Expr], used: &mut [bool]| -> Result<Plan> {
                for (i, c) in conjuncts.iter().enumerate() {
                    if !used[i] && bind(c, plan.schema()).is_ok() {
                        used[i] = true;
                        plan = push_conjunct(plan, c)?;
                    }
                }
                Ok(plan)
            };

        // Schema in *declared* FROM order, kept for wildcard expansion:
        // the greedy join ordering below may join items in a different
        // order, but `SELECT *` output must follow the SQL text.
        let mut declared_schema: Option<Schema> = None;
        let mut plan = if select.from.is_empty() {
            Plan::Values { schema: Schema::default(), rows: vec![vec![]] }
        } else {
            let item_plans: Vec<Plan> = select
                .from
                .iter()
                .map(|tr| self.table_ref(tr))
                .collect::<Result<_>>()?;
            let full = item_plans
                .iter()
                .skip(1)
                .fold(item_plans[0].schema().clone(), |s, p| s.join(p.schema()));
            // Validate the original WHERE against the full FROM schema
            // before any pushdown, so ambiguous references error exactly as
            // they would without the optimisation.
            if let Some(filter) = &select.filter {
                bind(filter, &full)?;
            }
            declared_schema = Some(full);
            let mut remaining: std::collections::VecDeque<Plan> = item_plans.into();
            let mut acc = remaining.pop_front().expect("non-empty");
            acc = push_single(acc, &conjuncts, &mut used)?;
            while !remaining.is_empty() {
                // Greedy equi-aware ordering: prefer the FROM item that an
                // unused cross-table equality links to what is already
                // joined — that join hashes instead of building a cross
                // product. SESQL's REPLACEVARIABLE rewrite depends on this:
                // its pairs table relates the *two ends* of the query's
                // original equi-join, so FROM order would put the only
                // non-equi conjunct (e.g. `l1 <> l2`) in the middle and
                // materialise the full cross product first. Falls back to
                // FROM order when nothing links.
                let pick = remaining
                    .iter()
                    .position(|cand| {
                        conjuncts.iter().zip(&used).any(|(c, u)| {
                            !u && is_equi_link(c, acc.schema(), cand.schema())
                        })
                    })
                    .unwrap_or(0);
                let mut right = remaining.remove(pick).expect("position in bounds");
                right = push_single(right, &conjuncts, &mut used)?;
                // Cross-table conjuncts that become resolvable once both
                // sides are in scope turn the cross join into a predicated
                // (and usually hash) join.
                let joint = acc.schema().join(right.schema());
                let mut on_parts = Vec::new();
                for (i, c) in conjuncts.iter().enumerate() {
                    if !used[i] && bind(c, &joint).is_ok() {
                        used[i] = true;
                        on_parts.push(c.clone());
                    }
                }
                let on = on_parts.into_iter().reduce(Expr::and);
                acc = match on {
                    Some(on) => self.join(acc, right, JoinKind::Inner, Some(&on))?,
                    None => self.join(acc, right, JoinKind::Cross, None)?,
                };
            }
            acc
        };

        // Residual WHERE conjuncts (e.g. referencing no table, or left
        // unbindable until the full schema — resolve errors surface here).
        let residual: Vec<Expr> = conjuncts
            .iter()
            .zip(&used)
            .filter(|(_, u)| !**u)
            .map(|(c, _)| c.clone())
            .collect();
        if let Some(combined) = residual.into_iter().reduce(Expr::and) {
            let predicate = bind(&combined, plan.schema())?;
            plan = Plan::Filter { input: Box::new(plan), predicate };
        }

        // Expand wildcards to (expr, alias) pairs — against the declared
        // FROM-order schema, not the (possibly reordered) joined plan's,
        // so `SELECT *` columns come out in SQL order. The generated
        // references are qualified, so they bind correctly against the
        // actual join output regardless of its internal order.
        let input_schema = plan.schema().clone();
        let wildcard_schema = declared_schema.as_ref().unwrap_or(&input_schema);
        let mut projections: Vec<(Expr, Option<String>)> = Vec::new();
        for item in &select.projections {
            match item {
                SelectItem::Wildcard => {
                    if select.from.is_empty() {
                        return Err(Error::plan("`SELECT *` requires a FROM clause"));
                    }
                    for c in &wildcard_schema.columns {
                        projections.push((
                            Expr::Column {
                                qualifier: c.qualifier.clone(),
                                name: c.name.clone(),
                            },
                            None,
                        ));
                    }
                }
                SelectItem::QualifiedWildcard(q) => {
                    let mut any = false;
                    for c in &wildcard_schema.columns {
                        if c.qualifier.as_deref().map(|x| x.eq_ignore_ascii_case(q))
                            == Some(true)
                        {
                            any = true;
                            projections.push((
                                Expr::Column {
                                    qualifier: c.qualifier.clone(),
                                    name: c.name.clone(),
                                },
                                None,
                            ));
                        }
                    }
                    if !any {
                        return Err(Error::plan(format!("unknown table alias `{q}.*`")));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    projections.push((expr.clone(), alias.clone()));
                }
            }
        }

        let has_agg = !select.group_by.is_empty()
            || projections.iter().any(|(e, _)| e.contains_aggregate())
            || select
                .having
                .as_ref()
                .map(|h| h.contains_aggregate())
                .unwrap_or(false);

        // Output column names come from the expressions as written, even
        // when aggregation rewrites them to internal references.
        let display_projs: Vec<(Expr, Option<String>)> = projections.clone();

        let mut order_by = select.order_by.clone();

        let proj_input_schema;
        if has_agg {
            let (agg_plan, agg_schema, rewriter) =
                self.plan_aggregate(plan, &input_schema, select, &projections)?;
            plan = agg_plan;

            // Rewrite projections / having / order-by to reference the
            // aggregate output.
            for (e, _) in &mut projections {
                *e = rewriter.rewrite(e.clone())?;
            }
            if let Some(h) = &select.having {
                let h = rewriter.rewrite(h.clone())?;
                let predicate = bind(&h, &agg_schema)?;
                plan = Plan::Filter { input: Box::new(plan), predicate };
            }
            for item in &mut order_by {
                // ORDER BY may reference projection aliases; those are
                // resolved later against the output schema, so a failed
                // rewrite here is not fatal.
                if let Ok(r) = rewriter.rewrite(item.expr.clone()) {
                    item.expr = r;
                }
            }
            proj_input_schema = agg_schema;
        } else {
            if select.having.is_some() {
                return Err(Error::plan("HAVING requires GROUP BY or aggregates"));
            }
            proj_input_schema = input_schema;
        }

        // Pre-projection ORDER BY support: keys that don't reference output
        // columns are evaluated against the projection input.
        let mut pre_sort_keys: Vec<SortKey> = Vec::new();
        let mut post_sort_keys: Vec<(OrderItem, Option<usize>)> = Vec::new();

        // Build output schema first (needed to resolve aliases).
        let mut out_columns = Vec::new();
        let mut bound_projs = Vec::new();
        for ((expr, alias), (display_expr, _)) in projections.iter().zip(&display_projs) {
            let bound = bind(expr, &proj_input_schema)?;
            let (qualifier, name) = match (alias, display_expr) {
                (Some(a), _) => (None, a.clone()),
                (None, Expr::Column { qualifier, name }) => {
                    (qualifier.clone(), name.clone())
                }
                (None, e) => (None, e.to_string()),
            };
            let mut col = Column::new(name, infer_type(expr, &proj_input_schema));
            col.qualifier = qualifier;
            out_columns.push(col);
            bound_projs.push(bound);
        }
        let out_schema = Schema::new(out_columns);

        for item in &order_by {
            // 1. positional (ORDER BY 2)
            if let Expr::Literal(Value::Int(n)) = &item.expr {
                let idx = *n - 1;
                if idx < 0 || idx as usize >= out_schema.len() {
                    return Err(Error::plan(format!(
                        "ORDER BY position {n} is out of range"
                    )));
                }
                post_sort_keys.push((item.clone(), Some(idx as usize)));
                continue;
            }
            // 2. output alias / output column
            if let Expr::Column { qualifier: None, name } = &item.expr {
                if let Some(idx) = out_schema.index_of_output(name) {
                    post_sort_keys.push((item.clone(), Some(idx)));
                    continue;
                }
            }
            // 3. try binding against the output schema
            if let Ok(b) = bind(&item.expr, &out_schema) {
                post_sort_keys.push((
                    OrderItem { expr: item.expr.clone(), ascending: item.ascending },
                    None,
                ));
                let _ = b; // re-bound below
                continue;
            }
            // 4. fall back to the projection input (sort before project)
            let b = bind(&item.expr, &proj_input_schema)?;
            pre_sort_keys.push(SortKey { expr: b, ascending: item.ascending });
        }

        if !pre_sort_keys.is_empty() {
            plan = Plan::Sort { input: Box::new(plan), keys: pre_sort_keys };
        }

        plan = Plan::Project {
            input: Box::new(plan),
            exprs: bound_projs,
            schema: out_schema.clone(),
        };

        if select.distinct {
            plan = Plan::Distinct { input: Box::new(plan) };
        }

        if !post_sort_keys.is_empty() {
            let mut keys = Vec::new();
            for (item, idx) in post_sort_keys {
                let expr = match idx {
                    Some(i) => BoundExpr::Column(i),
                    None => bind(&item.expr, &out_schema)?,
                };
                keys.push(SortKey { expr, ascending: item.ascending });
            }
            plan = Plan::Sort { input: Box::new(plan), keys };
        }

        if select.limit.is_some() || select.offset.is_some() {
            plan = Plan::Limit {
                input: Box::new(plan),
                limit: select.limit,
                offset: select.offset.unwrap_or(0),
            };
        }

        Ok(plan)
    }

    fn table_ref(&self, tr: &TableRef) -> Result<Plan> {
        match tr {
            TableRef::Table { name, alias } => {
                let table = self.catalog.get_table(name)?;
                let qualifier = alias.clone().unwrap_or_else(|| name.clone());
                let schema = table.schema.clone().with_qualifier(&qualifier);
                Ok(if table.foreign().is_some() {
                    Plan::ForeignScan { table, schema, pushed: None }
                } else {
                    Plan::Scan { table, schema }
                })
            }
            TableRef::Join { left, right, kind, on } => {
                let l = self.table_ref(left)?;
                let r = self.table_ref(right)?;
                self.join(l, r, *kind, on.as_ref())
            }
        }
    }

    fn join(
        &self,
        left: Plan,
        right: Plan,
        kind: JoinKind,
        on: Option<&Expr>,
    ) -> Result<Plan> {
        let schema = left.schema().join(right.schema());
        let Some(on) = on else {
            return Ok(Plan::NestedLoopJoin {
                left: Box::new(left),
                right: Box::new(right),
                kind,
                predicate: None,
                schema,
            });
        };

        // Split the ON condition into conjuncts; pull out cross-side
        // equalities as hash keys.
        let mut conjuncts = Vec::new();
        split_conjuncts(on, &mut conjuncts);
        let mut left_keys = Vec::new();
        let mut right_keys = Vec::new();
        let mut residual: Vec<&Expr> = Vec::new();
        for c in &conjuncts {
            if let Expr::Binary { left: l, op: BinaryOp::Eq, right: r } = c {
                // l from left / r from right?
                if let (Ok(bl), Ok(br)) = (bind(l, left.schema()), bind(r, right.schema())) {
                    left_keys.push(bl);
                    right_keys.push(br);
                    continue;
                }
                // l from right / r from left?
                if let (Ok(br), Ok(bl)) = (bind(l, right.schema()), bind(r, left.schema())) {
                    left_keys.push(bl);
                    right_keys.push(br);
                    continue;
                }
            }
            residual.push(c);
        }

        // LEFT joins require the *entire* ON condition to participate in
        // the match decision; only use the hash path when it decomposed
        // fully into equi-keys.
        let use_hash = !left_keys.is_empty()
            && (kind == JoinKind::Inner || residual.is_empty());

        if use_hash {
            let residual_expr = if residual.is_empty() {
                None
            } else {
                let combined = residual
                    .into_iter()
                    .cloned()
                    .reduce(Expr::and)
                    .expect("non-empty");
                Some(bind(&combined, &schema)?)
            };
            Ok(Plan::HashJoin {
                left: Box::new(left),
                right: Box::new(right),
                kind,
                left_keys,
                right_keys,
                residual: residual_expr,
                schema,
            })
        } else {
            let predicate = Some(bind(on, &schema)?);
            Ok(Plan::NestedLoopJoin {
                left: Box::new(left),
                right: Box::new(right),
                kind,
                predicate,
                schema,
            })
        }
    }

    /// Build the aggregate plan node plus a rewriter mapping pre-aggregation
    /// expressions to aggregate-output column references.
    fn plan_aggregate(
        &self,
        input: Plan,
        input_schema: &Schema,
        select: &Select,
        projections: &[(Expr, Option<String>)],
    ) -> Result<(Plan, Schema, AggRewriter)> {
        // Collect distinct aggregate calls across all output expressions.
        let mut agg_calls: Vec<Expr> = Vec::new();
        let mut collect = |e: &Expr| {
            e.visit(&mut |node| {
                if let Expr::Function { name, .. } = node {
                    if is_aggregate_name(name) && !agg_calls.contains(node) {
                        agg_calls.push(node.clone());
                    }
                }
            });
        };
        for (e, _) in projections {
            collect(e);
        }
        if let Some(h) = &select.having {
            collect(h);
        }
        for o in &select.order_by {
            collect(&o.expr);
        }

        // Bind group expressions and build the aggregate output schema.
        let mut group_bound = Vec::new();
        let mut out_cols = Vec::new();
        for (i, g) in select.group_by.iter().enumerate() {
            group_bound.push(bind(g, input_schema)?);
            let name = format!("#g{i}");
            out_cols.push(Column::new(name, infer_type(g, input_schema)));
        }
        let mut aggs = Vec::new();
        for (j, call) in agg_calls.iter().enumerate() {
            let Expr::Function { name, args, distinct, star } = call else {
                unreachable!("collected only functions");
            };
            let func = AggFn::parse(name, *star)?;
            let arg = if *star {
                None
            } else {
                if args.len() != 1 {
                    return Err(Error::plan(format!(
                        "aggregate `{name}` takes exactly one argument"
                    )));
                }
                if args[0].contains_aggregate() {
                    return Err(Error::plan("nested aggregates are not allowed"));
                }
                Some(bind(&args[0], input_schema)?)
            };
            aggs.push(AggSpec { func, distinct: *distinct, arg });
            out_cols.push(Column::new(format!("#a{j}"), infer_type(call, input_schema)));
        }
        let agg_schema = Schema::new(out_cols);
        let plan = Plan::Aggregate {
            input: Box::new(input),
            group: group_bound,
            aggs,
            schema: agg_schema.clone(),
        };
        let rewriter = AggRewriter {
            group_exprs: select.group_by.clone(),
            agg_calls,
        };
        Ok((plan, agg_schema, rewriter))
    }
}

/// Rewrites output expressions of an aggregated query so they reference the
/// aggregate node's output columns (`#g<i>` for group keys, `#a<j>` for
/// aggregate results).
pub(crate) struct AggRewriter {
    group_exprs: Vec<Expr>,
    agg_calls: Vec<Expr>,
}

impl AggRewriter {
    fn rewrite(&self, e: Expr) -> Result<Expr> {
        if let Some(i) = self.group_exprs.iter().position(|g| *g == e) {
            return Ok(Expr::col(format!("#g{i}")));
        }
        if let Some(j) = self.agg_calls.iter().position(|a| *a == e) {
            return Ok(Expr::col(format!("#a{j}")));
        }
        match e {
            Expr::Column { .. } => Err(Error::plan(format!(
                "column `{e}` must appear in GROUP BY or inside an aggregate"
            ))),
            Expr::Literal(_) | Expr::Param { .. } => Ok(e),
            Expr::Unary { op, expr } => Ok(Expr::Unary {
                op,
                expr: Box::new(self.rewrite(*expr)?),
            }),
            Expr::Binary { left, op, right } => Ok(Expr::Binary {
                left: Box::new(self.rewrite(*left)?),
                op,
                right: Box::new(self.rewrite(*right)?),
            }),
            Expr::IsNull { expr, negated } => Ok(Expr::IsNull {
                expr: Box::new(self.rewrite(*expr)?),
                negated,
            }),
            Expr::InList { expr, list, negated } => Ok(Expr::InList {
                expr: Box::new(self.rewrite(*expr)?),
                list: list.into_iter().map(|e| self.rewrite(e)).collect::<Result<_>>()?,
                negated,
            }),
            Expr::Between { expr, low, high, negated } => Ok(Expr::Between {
                expr: Box::new(self.rewrite(*expr)?),
                low: Box::new(self.rewrite(*low)?),
                high: Box::new(self.rewrite(*high)?),
                negated,
            }),
            Expr::Like { expr, pattern, negated } => Ok(Expr::Like {
                expr: Box::new(self.rewrite(*expr)?),
                pattern: Box::new(self.rewrite(*pattern)?),
                negated,
            }),
            Expr::Function { name, args, distinct, star } => Ok(Expr::Function {
                name,
                args: args.into_iter().map(|e| self.rewrite(e)).collect::<Result<_>>()?,
                distinct,
                star,
            }),
            // Subqueries were materialised before aggregation planning;
            // an InSubquery's outer operand still needs the rewrite.
            Expr::InSubquery { expr, query, negated } => Ok(Expr::InSubquery {
                expr: Box::new(self.rewrite(*expr)?),
                query,
                negated,
            }),
            e @ (Expr::Exists { .. } | Expr::ScalarSubquery(_)) => Ok(e),
            Expr::Case { operand, branches, else_expr } => Ok(Expr::Case {
                operand: operand.map(|o| self.rewrite(*o).map(Box::new)).transpose()?,
                branches: branches
                    .into_iter()
                    .map(|(w, t)| Ok((self.rewrite(w)?, self.rewrite(t)?)))
                    .collect::<Result<_>>()?,
                else_expr: else_expr
                    .map(|e| self.rewrite(*e).map(Box::new))
                    .transpose()?,
            }),
        }
    }
}

/// Push a WHERE conjunct as deep into `plan` as semantics allow: through
/// the left side of any join, through the right side of inner/cross joins
/// (never below the preserved side of a LEFT join), and through filters.
/// At a leaf it becomes an index lookup when it can, and at a foreign
/// leaf it is also shipped to the source. The conjunct must already bind
/// against `plan`'s schema.
fn push_conjunct(plan: Plan, c: &Expr) -> Result<Plan> {
    /// Apply the conjunct as a filter at this level (binding re-resolves
    /// column indexes against the sub-plan's own schema).
    fn wrap(plan: Plan, c: &Expr) -> Result<Plan> {
        let predicate = bind(c, plan.schema())?;
        Ok(Plan::Filter { input: Box::new(plan), predicate })
    }
    match plan {
        Plan::HashJoin { left, right, kind, left_keys, right_keys, residual, schema } => {
            if bind(c, left.schema()).is_ok() {
                let left = Box::new(push_conjunct(*left, c)?);
                Ok(Plan::HashJoin { left, right, kind, left_keys, right_keys, residual, schema })
            } else if kind != JoinKind::Left && bind(c, right.schema()).is_ok() {
                let right = Box::new(push_conjunct(*right, c)?);
                Ok(Plan::HashJoin { left, right, kind, left_keys, right_keys, residual, schema })
            } else {
                wrap(
                    Plan::HashJoin { left, right, kind, left_keys, right_keys, residual, schema },
                    c,
                )
            }
        }
        Plan::NestedLoopJoin { left, right, kind, predicate, schema } => {
            if bind(c, left.schema()).is_ok() {
                let left = Box::new(push_conjunct(*left, c)?);
                Ok(Plan::NestedLoopJoin { left, right, kind, predicate, schema })
            } else if kind != JoinKind::Left && bind(c, right.schema()).is_ok() {
                let right = Box::new(push_conjunct(*right, c)?);
                Ok(Plan::NestedLoopJoin { left, right, kind, predicate, schema })
            } else {
                wrap(Plan::NestedLoopJoin { left, right, kind, predicate, schema }, c)
            }
        }
        Plan::Filter { input, predicate } => {
            let input = Box::new(push_conjunct(*input, c)?);
            Ok(Plan::Filter { input, predicate })
        }
        Plan::Scan { table, schema } => {
            if let Some(lookup) = index_lookup_for(&table, &schema, c) {
                let (column, lookup) = lookup;
                return Ok(Plan::IndexScan { table, schema, column, lookup });
            }
            wrap(Plan::Scan { table, schema }, c)
        }
        Plan::ForeignScan { table, schema, mut pushed } => {
            if let Some(remote) = crate::foreign::remote_conjunct(c) {
                pushed = Some(match pushed {
                    Some(p) => Expr::and(p, remote),
                    None => remote,
                });
            }
            wrap(Plan::ForeignScan { table, schema, pushed }, c)
        }
        other => wrap(other, c),
    }
}

/// If `c` is a sargable predicate (`col <cmp> literal`, `col IN (literals)`,
/// `col BETWEEN literal AND literal`) on an indexed column of `table`,
/// translate it into an index lookup. Literals are coerced to the column
/// type so the index's total-order comparison agrees with SQL comparison on
/// the stored (already coerced) values; a coercion failure falls back to a
/// plain filter.
fn index_lookup_for(
    table: &Table,
    schema: &Schema,
    c: &Expr,
) -> Option<(usize, IndexLookup)> {
    let col_pos = |e: &Expr| -> Option<usize> {
        if let Expr::Column { qualifier, name } = e {
            let pos = schema.resolve(qualifier.as_deref(), name).ok()?;
            table.has_index_on(pos).then_some(pos)
        } else {
            None
        }
    };
    fn lit(e: &Expr) -> Option<&Value> {
        if let Expr::Literal(v) = e {
            Some(v)
        } else {
            None
        }
    }
    let coerced = |pos: usize, v: &Value| -> Option<Value> {
        if v.is_null() {
            return None; // NULL comparisons never match; empty Eq handles it
        }
        v.clone().coerce(table.schema.columns[pos].data_type).ok()
    };

    match c {
        Expr::Binary { left, op, right } if op.is_comparison() && *op != BinaryOp::NotEq => {
            // Normalise to column-on-the-left.
            let (pos, v, op) = if let (Some(pos), Some(v)) = (col_pos(left), lit(right)) {
                (pos, v, *op)
            } else if let (Some(pos), Some(v)) = (col_pos(right), lit(left)) {
                let flipped = match op {
                    BinaryOp::Lt => BinaryOp::Gt,
                    BinaryOp::LtEq => BinaryOp::GtEq,
                    BinaryOp::Gt => BinaryOp::Lt,
                    BinaryOp::GtEq => BinaryOp::LtEq,
                    other => *other,
                };
                (pos, v, flipped)
            } else {
                return None;
            };
            if v.is_null() {
                // `col <cmp> NULL` is never true: an empty key set encodes
                // the guaranteed-empty result without a special plan node.
                return Some((pos, IndexLookup::Eq(Vec::new())));
            }
            let key = coerced(pos, v)?;
            let lookup = match op {
                BinaryOp::Eq => IndexLookup::Eq(vec![key]),
                BinaryOp::Lt => IndexLookup::Range {
                    low: Bound::Unbounded,
                    high: Bound::Excluded(key),
                },
                BinaryOp::LtEq => IndexLookup::Range {
                    low: Bound::Unbounded,
                    high: Bound::Included(key),
                },
                BinaryOp::Gt => IndexLookup::Range {
                    low: Bound::Excluded(key),
                    high: Bound::Unbounded,
                },
                BinaryOp::GtEq => IndexLookup::Range {
                    low: Bound::Included(key),
                    high: Bound::Unbounded,
                },
                _ => return None,
            };
            Some((pos, lookup))
        }
        Expr::InList { expr, list, negated: false } => {
            let pos = col_pos(expr)?;
            let mut keys = Vec::with_capacity(list.len());
            for item in list {
                let v = lit(item)?;
                if v.is_null() {
                    continue; // NULL list members never match
                }
                keys.push(coerced(pos, v)?);
            }
            Some((pos, IndexLookup::Eq(keys)))
        }
        Expr::Between { expr, low, high, negated: false } => {
            let pos = col_pos(expr)?;
            let (lo, hi) = (lit(low)?, lit(high)?);
            if lo.is_null() || hi.is_null() {
                return Some((pos, IndexLookup::Eq(Vec::new())));
            }
            Some((
                pos,
                IndexLookup::Range {
                    low: Bound::Included(coerced(pos, lo)?),
                    high: Bound::Included(coerced(pos, hi)?),
                },
            ))
        }
        _ => None,
    }
}

/// Flatten nested ANDs into a conjunct list.
pub fn split_conjuncts<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    if let Expr::Binary { left, op: BinaryOp::And, right } = e {
        split_conjuncts(left, out);
        split_conjuncts(right, out);
    } else {
        out.push(e);
    }
}

/// Whether `c` is an equality with one side resolvable in `left` and the
/// other in `right` — i.e. it would become a hash-join key for the pair.
/// Both sides must actually reference a column: a literal binds against
/// *every* schema, so `b.x = 5` must not count as a cross-table link.
fn is_equi_link(c: &Expr, left: &Schema, right: &Schema) -> bool {
    fn has_column(e: &Expr) -> bool {
        let mut found = false;
        e.visit(&mut |node| {
            if matches!(node, Expr::Column { .. }) {
                found = true;
            }
        });
        found
    }
    match c {
        Expr::Binary { left: l, op: BinaryOp::Eq, right: r } => {
            has_column(l)
                && has_column(r)
                && ((bind(l, left).is_ok() && bind(r, right).is_ok())
                    || (bind(l, right).is_ok() && bind(r, left).is_ok()))
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::parser::{parse_expr, parse_statement};
    use crate::sql::ast::Statement;
    use crate::value::DataType;

    fn catalog() -> Catalog {
        let cat = Catalog::new();
        cat.create_table(
            "landfill",
            vec![
                Column::new("name", DataType::Text),
                Column::new("city", DataType::Text),
                Column::new("tons", DataType::Float),
            ],
        )
        .unwrap();
        cat.create_table(
            "elem_contained",
            vec![
                Column::new("elem_name", DataType::Text),
                Column::new("landfill_name", DataType::Text),
                Column::new("amount", DataType::Float),
            ],
        )
        .unwrap();
        cat
    }

    fn plan(sql: &str) -> Result<Plan> {
        let Statement::Select(s) = parse_statement(sql).unwrap() else {
            panic!("not a select")
        };
        plan_select(&catalog(), &s)
    }

    #[test]
    fn simple_select_plans() {
        let p = plan("SELECT name FROM landfill WHERE city = 'Torino'").unwrap();
        assert!(matches!(p, Plan::Project { .. }));
        assert_eq!(p.schema().len(), 1);
        assert_eq!(p.schema().columns[0].name, "name");
    }

    #[test]
    fn equi_join_becomes_hash_join() {
        let p = plan(
            "SELECT l.name FROM landfill l JOIN elem_contained e \
             ON l.name = e.landfill_name",
        )
        .unwrap();
        fn find_hash(p: &Plan) -> bool {
            match p {
                Plan::HashJoin { .. } => true,
                Plan::Project { input, .. }
                | Plan::Filter { input, .. }
                | Plan::Sort { input, .. }
                | Plan::Distinct { input }
                | Plan::Limit { input, .. } => find_hash(input),
                _ => false,
            }
        }
        assert!(find_hash(&p));
    }

    /// Walk a plan and record every base-table qualifier (alias) in join
    /// order (left-deep: left subtree first).
    fn scan_order(p: &Plan, out: &mut Vec<String>) {
        match p {
            Plan::Scan { schema, .. }
            | Plan::IndexScan { schema, .. }
            | Plan::ForeignScan { schema, .. } => {
                if let Some(q) = schema.columns.first().and_then(|c| c.qualifier.clone()) {
                    out.push(q);
                }
            }
            Plan::Project { input, .. }
            | Plan::Filter { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Distinct { input }
            | Plan::Limit { input, .. }
            | Plan::Aggregate { input, .. } => scan_order(input, out),
            Plan::HashJoin { left, right, .. }
            | Plan::NestedLoopJoin { left, right, .. } => {
                scan_order(left, out);
                scan_order(right, out);
            }
            Plan::Shared { input, .. } => scan_order(input, out),
            Plan::Values { .. } | Plan::Union { .. } => {}
        }
    }

    #[test]
    fn greedy_order_prefers_equi_linked_from_item() {
        // FROM order would cross-join e1×e2 on the non-equi `<>` alone;
        // the greedy planner must pull `x` (equi-linked to e1) forward.
        let p = plan(
            "SELECT e1.elem_name FROM elem_contained e1, elem_contained e2, landfill x \
             WHERE e1.landfill_name <> e2.landfill_name \
               AND x.name = e1.landfill_name AND x.city = e2.landfill_name",
        )
        .unwrap();
        let mut order = Vec::new();
        scan_order(&p, &mut order);
        assert_eq!(order, vec!["e1", "x", "e2"], "equi-linked item joins first");
    }

    #[test]
    fn wildcard_follows_declared_from_order_despite_join_reordering() {
        // Same shape as above: the planner joins e1 ⋈ x ⋈ e2, but
        // `SELECT *` must still produce e1.*, e2.*, x.* (SQL text order).
        let p = plan(
            "SELECT * FROM elem_contained e1, elem_contained e2, landfill x \
             WHERE e1.landfill_name <> e2.landfill_name \
               AND x.name = e1.landfill_name AND x.city = e2.landfill_name",
        )
        .unwrap();
        let quals: Vec<&str> = p
            .schema()
            .columns
            .iter()
            .map(|c| c.qualifier.as_deref().unwrap_or(""))
            .collect();
        assert_eq!(
            quals,
            vec!["e1", "e1", "e1", "e2", "e2", "e2", "x", "x", "x"],
            "SELECT * column order must follow the FROM clause"
        );
    }

    #[test]
    fn single_table_literal_equality_is_not_an_equi_link() {
        // `e2.amount = 5` binds a literal on one side; it must not count
        // as a cross-table link, or e2 would be preferred (cross product)
        // over x, the genuine hash-join partner of e1.
        let p = plan(
            "SELECT e1.elem_name FROM elem_contained e1, elem_contained e2, landfill x \
             WHERE e2.amount = 5 AND e1.landfill_name <> e2.landfill_name \
               AND x.name = e1.landfill_name AND x.city = e2.landfill_name",
        )
        .unwrap();
        let mut order = Vec::new();
        scan_order(&p, &mut order);
        assert_eq!(order, vec!["e1", "x", "e2"]);
    }

    #[test]
    fn non_equi_join_falls_back_to_nested_loop() {
        let p = plan(
            "SELECT l.name FROM landfill l JOIN elem_contained e \
             ON l.tons > e.amount",
        )
        .unwrap();
        fn find_nl(p: &Plan) -> bool {
            match p {
                Plan::NestedLoopJoin { .. } => true,
                Plan::Project { input, .. } | Plan::Filter { input, .. } => find_nl(input),
                _ => false,
            }
        }
        assert!(find_nl(&p));
    }

    #[test]
    fn left_join_with_mixed_condition_uses_nested_loop() {
        let p = plan(
            "SELECT l.name FROM landfill l LEFT JOIN elem_contained e \
             ON l.name = e.landfill_name AND e.amount > 10",
        )
        .unwrap();
        fn kinds(p: &Plan, out: &mut Vec<&'static str>) {
            match p {
                Plan::HashJoin { .. } => out.push("hash"),
                Plan::NestedLoopJoin { .. } => out.push("nl"),
                Plan::Project { input, .. } | Plan::Filter { input, .. } => kinds(input, out),
                _ => {}
            }
        }
        let mut v = Vec::new();
        kinds(&p, &mut v);
        assert_eq!(v, vec!["nl"]);
    }

    #[test]
    fn inner_join_mixed_condition_keeps_hash_with_residual() {
        let p = plan(
            "SELECT l.name FROM landfill l JOIN elem_contained e \
             ON l.name = e.landfill_name AND e.amount > 10",
        )
        .unwrap();
        fn find(p: &Plan) -> Option<bool> {
            match p {
                Plan::HashJoin { residual, .. } => Some(residual.is_some()),
                Plan::Project { input, .. } | Plan::Filter { input, .. } => find(input),
                _ => None,
            }
        }
        assert_eq!(find(&p), Some(true));
    }

    #[test]
    fn aggregate_requires_grouped_columns() {
        let err = plan("SELECT city, COUNT(*) FROM landfill").unwrap_err();
        assert!(err.to_string().contains("GROUP BY"), "{err}");
    }

    #[test]
    fn group_by_plans() {
        let p = plan("SELECT city, COUNT(*) FROM landfill GROUP BY city").unwrap();
        assert_eq!(p.schema().len(), 2);
    }

    #[test]
    fn having_without_group_rejected() {
        // HAVING with aggregates but without GROUP BY is legal (global
        // group); HAVING without any aggregation is rejected.
        assert!(plan("SELECT name FROM landfill HAVING name = 'x'").is_err());
        assert!(plan("SELECT COUNT(*) FROM landfill HAVING COUNT(*) > 0").is_ok());
    }

    #[test]
    fn order_by_position_out_of_range() {
        assert!(plan("SELECT name FROM landfill ORDER BY 2").is_err());
        assert!(plan("SELECT name FROM landfill ORDER BY 1").is_ok());
    }

    #[test]
    fn select_without_from() {
        let p = plan("SELECT 1 + 1").unwrap();
        assert!(matches!(p, Plan::Project { .. }));
    }

    #[test]
    fn wildcard_requires_from() {
        assert!(plan("SELECT *").is_err());
    }

    #[test]
    fn unknown_table_and_column() {
        assert!(plan("SELECT x FROM nope").is_err());
        assert!(plan("SELECT nope FROM landfill").is_err());
    }

    #[test]
    fn where_equi_conjunct_becomes_hash_join_for_comma_list() {
        // The paper's Example 4.6 self-join shape: comma-separated FROM
        // with equality in WHERE must not plan a raw cross product.
        let p = plan(
            "SELECT e1.elem_name FROM elem_contained e1, elem_contained e2 \
             WHERE e1.elem_name = e2.elem_name AND e1.amount > 10",
        )
        .unwrap();
        fn kinds(p: &Plan, out: &mut Vec<&'static str>) {
            match p {
                Plan::HashJoin { left, right, .. } => {
                    out.push("hash");
                    kinds(left, out);
                    kinds(right, out);
                }
                Plan::NestedLoopJoin { left, right, .. } => {
                    out.push("nl");
                    kinds(left, out);
                    kinds(right, out);
                }
                Plan::Project { input, .. }
                | Plan::Filter { input, .. }
                | Plan::Sort { input, .. }
                | Plan::Distinct { input }
                | Plan::Limit { input, .. } => kinds(input, out),
                _ => {}
            }
        }
        let mut v = Vec::new();
        kinds(&p, &mut v);
        assert_eq!(v, vec!["hash"]);
    }

    #[test]
    fn single_table_conjunct_pushed_below_join() {
        let p = plan(
            "SELECT l.name FROM landfill l, elem_contained e \
             WHERE l.name = e.landfill_name AND l.tons > 100",
        )
        .unwrap();
        // The tons filter must sit below the join (on the landfill side).
        fn has_filter_below_join(p: &Plan) -> bool {
            match p {
                Plan::HashJoin { left, right, .. }
                | Plan::NestedLoopJoin { left, right, .. } => {
                    matches!(**left, Plan::Filter { .. })
                        || matches!(**right, Plan::Filter { .. })
                }
                Plan::Project { input, .. }
                | Plan::Filter { input, .. }
                | Plan::Sort { input, .. }
                | Plan::Distinct { input }
                | Plan::Limit { input, .. } => has_filter_below_join(input),
                _ => false,
            }
        }
        assert!(has_filter_below_join(&p));
    }

    #[test]
    fn ambiguous_where_column_still_errors_with_pushdown() {
        // `elem_name` is ambiguous across e1/e2 even though it would bind
        // against either table alone.
        let err = plan(
            "SELECT e1.amount FROM elem_contained e1, elem_contained e2 \
             WHERE elem_name = 'Hg'",
        )
        .unwrap_err();
        assert!(err.to_string().contains("ambiguous"), "{err}");
    }

    // ---- index selection ---------------------------------------------------

    fn indexed_catalog() -> Catalog {
        let cat = catalog();
        cat.create_index("idx_city", "landfill", "city").unwrap();
        cat.create_index("idx_tons", "landfill", "tons").unwrap();
        cat
    }

    fn plan_on(cat: &Catalog, sql: &str) -> Plan {
        let Statement::Select(s) = parse_statement(sql).unwrap() else {
            panic!("not a select")
        };
        plan_select(cat, &s).unwrap()
    }

    fn find_index_scan(p: &Plan) -> Option<&IndexLookup> {
        match p {
            Plan::IndexScan { lookup, .. } => Some(lookup),
            Plan::Project { input, .. }
            | Plan::Filter { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Distinct { input }
            | Plan::Limit { input, .. } => find_index_scan(input),
            Plan::HashJoin { left, right, .. }
            | Plan::NestedLoopJoin { left, right, .. } => {
                find_index_scan(left).or_else(|| find_index_scan(right))
            }
            _ => None,
        }
    }

    #[test]
    fn equality_on_indexed_column_uses_index() {
        let cat = indexed_catalog();
        let p = plan_on(&cat, "SELECT name FROM landfill WHERE city = 'Torino'");
        assert!(matches!(find_index_scan(&p), Some(IndexLookup::Eq(k)) if k.len() == 1));
    }

    #[test]
    fn in_list_uses_index() {
        let cat = indexed_catalog();
        let p = plan_on(
            &cat,
            "SELECT name FROM landfill WHERE city IN ('Torino', 'Milano')",
        );
        assert!(matches!(find_index_scan(&p), Some(IndexLookup::Eq(k)) if k.len() == 2));
    }

    #[test]
    fn range_and_between_use_index() {
        let cat = indexed_catalog();
        let p = plan_on(&cat, "SELECT name FROM landfill WHERE tons > 100");
        assert!(matches!(find_index_scan(&p), Some(IndexLookup::Range { .. })));
        let p = plan_on(&cat, "SELECT name FROM landfill WHERE tons BETWEEN 10 AND 20");
        assert!(matches!(find_index_scan(&p), Some(IndexLookup::Range { .. })));
    }

    #[test]
    fn flipped_literal_comparison_uses_index() {
        let cat = indexed_catalog();
        // `100 < tons` must behave as `tons > 100`.
        let p = plan_on(&cat, "SELECT name FROM landfill WHERE 100 < tons");
        match find_index_scan(&p) {
            Some(IndexLookup::Range { low: Bound::Excluded(_), high: Bound::Unbounded }) => {}
            other => panic!("expected exclusive lower bound, got {other:?}"),
        }
    }

    #[test]
    fn unindexed_or_unsargable_predicates_do_not_use_index() {
        let cat = indexed_catalog();
        // name has no index
        let p = plan_on(&cat, "SELECT name FROM landfill WHERE name = 'x'");
        assert!(find_index_scan(&p).is_none());
        // <> is not sargable here
        let p = plan_on(&cat, "SELECT name FROM landfill WHERE city <> 'x'");
        assert!(find_index_scan(&p).is_none());
        // non-literal comparand
        let p = plan_on(&cat, "SELECT name FROM landfill WHERE city = name");
        assert!(find_index_scan(&p).is_none());
        // NOT IN is not an index lookup
        let p = plan_on(&cat, "SELECT name FROM landfill WHERE city NOT IN ('x')");
        assert!(find_index_scan(&p).is_none());
    }

    #[test]
    fn null_comparison_plans_empty_index_lookup() {
        let cat = indexed_catalog();
        let p = plan_on(&cat, "SELECT name FROM landfill WHERE city = NULL");
        assert!(matches!(find_index_scan(&p), Some(IndexLookup::Eq(k)) if k.is_empty()));
    }

    #[test]
    fn int_literal_coerced_to_float_column_key() {
        let cat = indexed_catalog();
        let p = plan_on(&cat, "SELECT name FROM landfill WHERE tons = 100");
        match find_index_scan(&p) {
            Some(IndexLookup::Eq(keys)) => {
                assert!(matches!(keys[0], Value::Float(f) if f == 100.0));
            }
            other => panic!("expected eq lookup, got {other:?}"),
        }
    }

    #[test]
    fn remaining_conjuncts_filter_above_index_scan() {
        let cat = indexed_catalog();
        let p = plan_on(
            &cat,
            "SELECT name FROM landfill WHERE city = 'Torino' AND name LIKE 'B%'",
        );
        // Must contain both an IndexScan and a Filter above it.
        assert!(find_index_scan(&p).is_some());
        fn has_filter(p: &Plan) -> bool {
            match p {
                Plan::Filter { .. } => true,
                Plan::Project { input, .. }
                | Plan::Sort { input, .. }
                | Plan::Distinct { input }
                | Plan::Limit { input, .. } => has_filter(input),
                _ => false,
            }
        }
        assert!(has_filter(&p));
    }

    #[test]
    fn explain_renders_index_scan() {
        let cat = indexed_catalog();
        let p = plan_on(&cat, "SELECT name FROM landfill WHERE city = 'Torino'");
        assert!(p.explain().contains("IndexScan: landfill.city"), "{}", p.explain());
    }

    #[test]
    fn index_lookup_matches_fallback_semantics() {
        let eq = IndexLookup::Eq(vec![Value::from("x"), Value::Null]);
        assert!(eq.matches(&Value::from("x")));
        assert!(!eq.matches(&Value::from("y")));
        assert!(!eq.matches(&Value::Null));
        let range = IndexLookup::Range {
            low: Bound::Excluded(Value::from(1.0)),
            high: Bound::Included(Value::from(2.0)),
        };
        assert!(!range.matches(&Value::from(1.0)));
        assert!(range.matches(&Value::from(1.5)));
        assert!(range.matches(&Value::from(2.0)));
        assert!(!range.matches(&Value::Null));
    }

    #[test]
    fn split_conjuncts_flattens() {
        let e = parse_expr("a = 1 AND b = 2 AND (c = 3 OR d = 4)").unwrap();
        let mut out = Vec::new();
        split_conjuncts(&e, &mut out);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn infer_types() {
        let schema = Schema::new(vec![
            Column::new("s", DataType::Text),
            Column::new("i", DataType::Int),
            Column::new("f", DataType::Float),
        ]);
        let t = |src: &str| infer_type(&parse_expr(src).unwrap(), &schema);
        assert_eq!(t("i + 1"), DataType::Int);
        assert_eq!(t("i + f"), DataType::Float);
        assert_eq!(t("i > 1"), DataType::Bool);
        assert_eq!(t("s || 'x'"), DataType::Text);
        assert_eq!(t("COUNT(*)"), DataType::Int);
        assert_eq!(t("AVG(i)"), DataType::Float);
        assert_eq!(t("SUM(i)"), DataType::Int);
        assert_eq!(t("MIN(s)"), DataType::Text);
        assert_eq!(t("LENGTH(s)"), DataType::Int);
        assert_eq!(t("UPPER(s)"), DataType::Text);
    }
}
