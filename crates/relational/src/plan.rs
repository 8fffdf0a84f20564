// srclint: allow(R002): FROM lists are non-empty by grammar and the greedy pick indexes the deque it was computed from
//! Logical plans and the query planner.
//!
//! The planner lowers a parsed [`Select`] into a tree of [`Plan`] nodes with
//! all expressions bound (column references resolved to row indexes). Joins
//! whose ON condition is a conjunction of cross-side equalities are lowered
//! to hash joins; everything else falls back to nested loops. A WHERE
//! conjunct is placed by FROM scope only, and every scan is sequential:
//! the optimizer's filter pushdown
//! ([`crate::opt::rules::pushdown_filters`]) sinks filters, chooses index
//! scans and ships conjuncts to foreign sources.
//!
//! Planning reads no data: a plan is a function of the statement, the
//! catalog and the optimizer configuration. What a statement needs from
//! outside its rows — a parameter's binding, an uncorrelated subquery's
//! result — is a slot of a [`Plan::Bind`] root, filled when a cursor opens.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Bound;
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::exec::aggregate::AggFn;
use crate::exec::expr::{bind, BoundExpr, ScalarFn};
use crate::opt::{map_children, merge_notes, optimize, Optimized, OptimizerConfig};
use crate::schema::{Column, Schema};
use crate::sql::ast::{
    is_aggregate_name, BinaryOp, Expr, JoinKind, OrderItem, Select, SelectItem, TableRef, UnaryOp,
};
use crate::prepared::infer_slot_types;
use crate::sql::parser::{collect_lifted, collect_params};
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
    /// opens (see [`crate::foreign`]). `pushed` holds the WHERE conjuncts
    /// shipped to the source, bound against `schema`; each of them also
    /// stays in a local `Filter` above the leaf.
    ForeignScan {
        table: Arc<Table>,
        schema: Schema,
        pushed: Vec<BoundExpr>,
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
    /// rows are replayed to every consumer. Over a bare `Scan` or
    /// `IndexScan` there is no spool: every consumer walks one pin of the
    /// leaf's snapshot and reads its rows in place.
    Shared {
        /// Spool identity within one optimized plan.
        id: usize,
        input: Arc<Plan>,
    },
    /// The root of a plan that reads values from outside its rows: each
    /// [`BoundExpr::Slot`] `i` below stands for `slots[i]`. A cursor fills
    /// the slots in order when it opens — a parameter from the bindings, a
    /// subquery by running it once — and runs `input` with their values.
    Bind { input: Box<Plan>, slots: Vec<Slot> },
}

/// One slot of a [`Plan::Bind`].
#[derive(Debug, Clone)]
pub enum Slot {
    /// A parameter, as written (`$name` or `?`).
    Param(String),
    /// `x IN (SELECT …)`: the subquery's one column, all of its rows.
    In(Plan),
    /// `EXISTS (…)`: whether the subquery returns a row.
    Exists(Plan),
    /// A scalar subquery: its one value, NULL when it returns no row.
    Scalar(Plan),
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
    /// The sargable conjunct whose comparands are slots: the cursor's
    /// open builds the `Eq` or `Range` lookup from their values.
    AtOpen(BoundExpr),
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
            IndexLookup::AtOpen(_) => unreachable!("a cursor's open builds every lookup"),
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
                    IndexLookup::AtOpen(_) => "keys at open".to_string(),
                };
                let _ = writeln!(
                    out,
                    "{pad}IndexScan: {}.{col_name} ({what})",
                    table.name
                );
            }
            Plan::ForeignScan { table, schema, pushed } => {
                let remote = table.foreign().map(|f| f.remote_sql(schema, pushed));
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
            Plan::Bind { input, slots } => {
                let named: Vec<String> = slots
                    .iter()
                    .enumerate()
                    .map(|(i, slot)| match slot {
                        Slot::Param(name) => format!("${} = {name}", i + 1),
                        Slot::In(_) => format!("${} = IN subquery", i + 1),
                        Slot::Exists(_) => format!("${} = EXISTS subquery", i + 1),
                        Slot::Scalar(_) => format!("${} = scalar subquery", i + 1),
                    })
                    .collect();
                let _ = writeln!(out, "{pad}Bind: {}", named.join(", "));
                for (i, slot) in slots.iter().enumerate() {
                    if let Slot::In(plan) | Slot::Exists(plan) | Slot::Scalar(plan) = slot {
                        let _ = writeln!(out, "{pad}  Subquery ${}", i + 1);
                        plan.explain_into(depth + 2, out, &mut Vec::new());
                    }
                }
                input.explain_into(depth + 1, out, seen_spools);
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
            Plan::Bind { input, .. } => input.schema(),
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
            Plan::Bind { input, .. } => f(input),
        }
    }
}

/// Infer a (best-effort) output type for an expression. Used to type
/// result-set columns. Slot `i` (a parameter or a lifted subquery) has
/// type `slots[i]`; a slot that cannot be typed is TEXT.
pub fn infer_type(expr: &Expr, schema: &Schema, slots: &[DataType]) -> DataType {
    let infer_type = |e: &Expr| infer_type(e, schema, slots);
    match expr {
        Expr::Literal(v) => v.data_type().unwrap_or(DataType::Text),
        Expr::Column { qualifier, name } => schema
            .resolve(qualifier.as_deref(), name)
            .map(|i| schema.columns[i].data_type)
            .unwrap_or(DataType::Text),
        Expr::Unary { op, expr } => match op {
            crate::sql::ast::UnaryOp::Not => DataType::Bool,
            crate::sql::ast::UnaryOp::Neg => infer_type(expr),
        },
        Expr::Binary { left, op, right } => match op {
            BinaryOp::And | BinaryOp::Or => DataType::Bool,
            op if op.is_comparison() => DataType::Bool,
            BinaryOp::Concat => DataType::Text,
            _ => {
                let (l, r) = (infer_type(left), infer_type(right));
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
        Expr::Param { index, .. } => slots.get(*index).copied().unwrap_or(DataType::Text),
        Expr::Lifted { ty, .. } => *ty,
        Expr::InSubquery { .. } | Expr::Exists { .. } => DataType::Bool,
        // The planner lifts scalar subqueries into slots before it types
        // anything; this arm only covers contexts it does not lift.
        Expr::ScalarSubquery(_) => DataType::Text,
        Expr::Case { branches, else_expr, .. } => branches
            .iter()
            .map(|(_, t)| infer_type(t))
            .chain(else_expr.iter().map(|e| infer_type(e)))
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
                        .map(infer_type)
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
                    .map(infer_type)
                    .unwrap_or(DataType::Float),
                None => DataType::Text,
            }
        }
    }
}

/// Plan and optimize a SELECT statement against a catalog and the
/// query-scoped relations `scoped` (tables no catalog holds, resolved by
/// name before the catalog; see [`crate::Prepared::with_table`]). Its
/// subqueries are planned and optimized under `cfg` like any other
/// statement, and run only when a cursor opens; the notes of their passes
/// are folded into the statement's (see `opt::merge_notes`).
pub fn plan_select(
    catalog: &Catalog,
    scoped: &[Arc<Table>],
    select: &Select,
    cfg: &OptimizerConfig,
) -> Result<Optimized> {
    let planner = Planner::new(catalog, scoped, cfg, select);
    let plan = planner.select(select)?;
    let subquery_notes = planner.notes.take();
    let mut optimized = optimize(planner.bind(plan), cfg)?;
    merge_notes(&mut optimized.notes, subquery_notes);
    Ok(optimized)
}

/// The rows a DELETE or UPDATE of `table` changes: `filter` over a scan,
/// its subqueries lifted into slots exactly as a SELECT's are.
pub(crate) fn plan_filter(
    catalog: &Catalog,
    table: Arc<Table>,
    filter: Expr,
    cfg: &OptimizerConfig,
) -> Result<Plan> {
    let mut statement = Select::empty();
    statement.filter = Some(filter.clone());
    let planner = Planner::new(catalog, &[], cfg, &statement);
    let predicate = bind(&planner.lift(filter)?, &table.schema)?;
    let schema = table.schema.clone();
    Ok(planner.bind(Plan::Filter { input: Box::new(Plan::Scan { table, schema }), predicate }))
}

/// `plan` as a cursor's open runs it: every slot replaced by its value —
/// `values[i]` holds what slot `i` stands for: one value, or an IN
/// subquery's whole column, which an IN list spreads — every
/// [`IndexLookup::AtOpen`] built from the values (a lookup they cannot
/// key leaves its conjunct a filter over a sequential scan, as a literal
/// would), and each foreign leaf replaced by its `fetched` rows. Each
/// shared spool is filled once.
pub(crate) fn fill_slots(
    plan: Plan,
    values: &[Vec<Value>],
    fetched: &mut impl Iterator<Item = Vec<Vec<Value>>>,
    spools: &mut HashMap<usize, Arc<Plan>>,
) -> Plan {
    let fill = |e: BoundExpr| fill_expr(e, values);
    let plan = match plan {
        Plan::Shared { id, input } => {
            let input = match spools.get(&id) {
                Some(filled) => Arc::clone(filled),
                None => {
                    let filled = Arc::new(fill_slots((*input).clone(), values, fetched, spools));
                    spools.insert(id, Arc::clone(&filled));
                    filled
                }
            };
            return Plan::Shared { id, input };
        }
        Plan::IndexScan { table, schema, lookup: IndexLookup::AtOpen(c), .. } => {
            let c = fill(c);
            return match crate::opt::rules::index_lookup(&table, &c) {
                Some((column, lookup)) => Plan::IndexScan { table, schema, column, lookup },
                None => {
                    let input = Box::new(Plan::Scan { table, schema });
                    Plan::Filter { input, predicate: c }
                }
            };
        }
        Plan::ForeignScan { schema, .. } => {
            return Plan::Values { schema, rows: fetched.next().unwrap_or_default() }
        }
        other => map_children(other, &mut |child| fill_slots(child, values, fetched, spools)),
    };
    let all = |exprs: Vec<BoundExpr>| exprs.into_iter().map(fill).collect();
    match plan {
        Plan::Filter { input, predicate } => Plan::Filter { input, predicate: fill(predicate) },
        Plan::Project { input, exprs, schema } => {
            Plan::Project { input, exprs: all(exprs), schema }
        }
        Plan::NestedLoopJoin { left, right, kind, predicate, schema } => {
            Plan::NestedLoopJoin { left, right, kind, predicate: predicate.map(fill), schema }
        }
        Plan::HashJoin { left, right, kind, left_keys, right_keys, residual, schema } => {
            let (left_keys, right_keys) = (all(left_keys), all(right_keys));
            let residual = residual.map(fill);
            Plan::HashJoin { left, right, kind, left_keys, right_keys, residual, schema }
        }
        Plan::Aggregate { input, group, aggs, schema } => {
            let aggs = aggs.into_iter().map(|a| AggSpec { arg: a.arg.map(fill), ..a }).collect();
            Plan::Aggregate { input, group: all(group), aggs, schema }
        }
        Plan::Sort { input, keys } => {
            let keys = keys.into_iter().map(|k| SortKey { expr: fill(k.expr), ..k }).collect();
            Plan::Sort { input, keys }
        }
        other => other,
    }
}

/// `e` with every slot replaced by its value, as in [`fill_slots`].
pub(crate) fn fill_expr(e: BoundExpr, values: &[Vec<Value>]) -> BoundExpr {
    let value = |i: usize| values.get(i).map_or(&[][..], Vec::as_slice);
    match e {
        BoundExpr::Slot(i) | BoundExpr::Lifted { slot: i, .. } => {
            BoundExpr::Literal(value(i).first().cloned().unwrap_or(Value::Null))
        }
        BoundExpr::InList { expr, list, negated } => BoundExpr::InList {
            expr: Box::new(fill_expr(*expr, values)),
            list: list
                .into_iter()
                .flat_map(|item| match item {
                    BoundExpr::Slot(i) => {
                        value(i).iter().cloned().map(BoundExpr::Literal).collect()
                    }
                    other => vec![fill_expr(other, values)],
                })
                .collect(),
            negated,
        },
        other => other.map_operands(&mut |o| fill_expr(o, values)),
    }
}

struct Planner<'a> {
    catalog: &'a Catalog,
    scoped: &'a [Arc<Table>],
    cfg: &'a OptimizerConfig,
    /// The statement's slots so far, each with the type it gives an output
    /// column: its parameters, then each subquery as it is lifted.
    slots: RefCell<Vec<(Slot, DataType)>>,
    /// The pass notes of the subqueries optimized so far, merged.
    notes: RefCell<Vec<String>>,
}

impl<'a> Planner<'a> {
    /// A planner whose first slots are the parameters of `statement`,
    /// typed by the columns they are compared with, then its lifted
    /// literals, typed as the literals.
    fn new(
        catalog: &'a Catalog,
        scoped: &'a [Arc<Table>],
        cfg: &'a OptimizerConfig,
        statement: &Select,
    ) -> Self {
        let params = infer_slot_types(catalog, statement, &collect_params(statement));
        let lifted = collect_lifted(statement).into_iter().map(|ty| (format!("?{ty}"), ty));
        let slots = params
            .into_iter()
            .map(|p| (p.display(), p.expected.unwrap_or(DataType::Text)))
            .chain(lifted)
            .map(|(name, ty)| (Slot::Param(name), ty))
            .collect();
        Planner { catalog, scoped, cfg, slots: RefCell::new(slots), notes: RefCell::default() }
    }

    /// `plan` under a [`Plan::Bind`] of the slots it reads, if any.
    fn bind(self, plan: Plan) -> Plan {
        let slots: Vec<Slot> = self.slots.into_inner().into_iter().map(|(s, _)| s).collect();
        if slots.is_empty() {
            return plan;
        }
        Plan::Bind { input: Box::new(plan), slots }
    }

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
                keys.push(match output_sort_key(item, &out_schema)? {
                    Some(key) => key,
                    // Binding it again names why it does not bind.
                    None => {
                        SortKey { expr: bind(&item.expr, &out_schema)?, ascending: item.ascending }
                    }
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

    /// Lift every subquery in `e` into a slot of the statement, planned
    /// and optimized now and run when a cursor opens: `x IN (SELECT …)`
    /// becomes `x IN ($i)`, which keeps NULL semantics and stays sargable;
    /// `EXISTS` and a scalar subquery become `$i`.
    fn lift(&self, e: Expr) -> Result<Expr> {
        let mut err: Option<Error> = None;
        let out = e.rewrite(&mut |node| {
            let lifted = match node {
                _ if err.is_some() => return node,
                Expr::InSubquery { expr, query, negated } => self
                    .subquery(&query, Slot::In)
                    .map(|slot| Expr::InList { expr, list: vec![slot], negated }),
                Expr::Exists { query, negated: false } => self.subquery(&query, Slot::Exists),
                Expr::Exists { query, negated: true } => self
                    .subquery(&query, Slot::Exists)
                    .map(|slot| Expr::Unary { op: UnaryOp::Not, expr: Box::new(slot) }),
                Expr::ScalarSubquery(query) => self.subquery(&query, Slot::Scalar),
                other => return other,
            };
            lifted.unwrap_or_else(|e| {
                err = Some(e);
                Expr::Literal(Value::Null)
            })
        });
        err.map_or(Ok(out), Err)
    }

    /// Plan and optimize one uncorrelated subquery as the statement's next
    /// slot, and return the reference to it.
    fn subquery(&self, query: &Select, slot: fn(Plan) -> Slot) -> Result<Expr> {
        let Optimized { plan, notes } = optimize(self.select(query)?, self.cfg)?;
        merge_notes(&mut self.notes.borrow_mut(), notes);
        let (width, first) = (plan.schema().len(), plan.schema().columns.first());
        let first = first.map_or(DataType::Bool, |c| c.data_type);
        let slot = slot(plan);
        let ty = match (&slot, width) {
            (Slot::Exists(_), _) => DataType::Bool,
            (_, 1) => first,
            (slot, n) => {
                let what = if matches!(slot, Slot::In(_)) { "IN" } else { "scalar" };
                let why = format!("{what} subquery must return exactly one column, got {n}");
                return Err(Error::plan(why));
            }
        };
        let mut slots = self.slots.borrow_mut();
        slots.push((slot, ty));
        Ok(Expr::Param { name: None, index: slots.len() - 1 })
    }

    /// Lift the subqueries of every expression position of a SELECT core
    /// (WHERE, projections, GROUP BY, HAVING, ORDER BY). A core without
    /// one is borrowed as it is: planning it copies and rebuilds nothing.
    fn lift_select<'s>(&self, select: &'s Select) -> Result<Cow<'s, Select>> {
        let mut nested = false;
        select.visit_clauses(&mut |e| {
            e.visit(&mut |node| {
                nested |= matches!(
                    node,
                    Expr::InSubquery { .. } | Expr::Exists { .. } | Expr::ScalarSubquery(_)
                )
            })
        });
        if !nested {
            return Ok(Cow::Borrowed(select));
        }
        let mut s = select.clone();
        let items = s.projections.iter_mut().filter_map(|item| match item {
            SelectItem::Expr { expr, .. } => Some(expr),
            _ => None,
        });
        let order = s.order_by.iter_mut().map(|o| &mut o.expr);
        let clauses = s.filter.iter_mut().chain(items).chain(&mut s.group_by);
        for e in clauses.chain(&mut s.having).chain(order) {
            *e = self.lift(std::mem::replace(e, Expr::Literal(Value::Null)))?;
        }
        Ok(Cow::Owned(s))
    }

    fn select_core(&self, select: &Select) -> Result<Plan> {
        let select = &self.lift_select(select)?;
        // FROM + WHERE, lowered by scope: a conjunct that binds against one
        // FROM item filters that item, one that needs two items becomes the
        // condition of the first join that has both (hash-joinable when it
        // is an equality), and whatever remains filters the joined rows.
        // Where a filter finally runs — deeper inside an item, as an index
        // lookup, shipped to a foreign source — is the optimizer's
        // `filter_pushdown` pass's decision.
        let mut conjuncts: Vec<&Expr> = Vec::new();
        if let Some(filter) = &select.filter {
            split_conjuncts(filter, &mut conjuncts);
        }
        let mut used = vec![false; conjuncts.len()];

        // Schema in *declared* FROM order, kept for wildcard expansion:
        // the greedy join ordering below may join items in a different
        // order, but `SELECT *` output must follow the SQL text.
        let mut declared_schema: Option<Schema> = None;
        let mut plan = if select.from.is_empty() {
            Plan::Values { schema: Schema::default(), rows: vec![vec![]] }
        } else {
            // A conjunct binds against two items only if it names no
            // column; the first item takes it.
            let item_plans: Vec<Plan> = select
                .from
                .iter()
                .map(|tr| {
                    let mut item = self.table_ref(tr)?;
                    for (c, u) in conjuncts.iter().zip(used.iter_mut()).filter(|(_, u)| !**u) {
                        if let Ok(predicate) = bind(c, item.schema()) {
                            *u = true;
                            item = Plan::Filter { input: Box::new(item), predicate };
                        }
                    }
                    Ok(item)
                })
                .collect::<Result<_>>()?;
            let full = item_plans
                .iter()
                .skip(1)
                .fold(item_plans[0].schema().clone(), |s, p| s.join(p.schema()));
            // Validate the original WHERE against the full FROM schema, so
            // a reference that is ambiguous across items errors even though
            // it binds against one of them alone.
            if let Some(filter) = &select.filter {
                bind(filter, &full)?;
            }
            declared_schema = Some(full);
            let mut remaining: std::collections::VecDeque<Plan> = item_plans.into();
            let mut acc = remaining.pop_front().expect("non-empty");
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
                let right = remaining.remove(pick).expect("position in bounds");
                // Cross-table conjuncts that become resolvable once both
                // sides are in scope turn the cross join into a predicated
                // (and usually hash) join.
                let joint = acc.schema().join(right.schema());
                let mut on_parts = Vec::new();
                for (i, c) in conjuncts.iter().enumerate() {
                    if !used[i] && bind(c, &joint).is_ok() {
                        used[i] = true;
                        on_parts.push((*c).clone());
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

        // Residual WHERE conjuncts: with a FROM clause every conjunct has
        // found an item or a join above, so these filter a FROM-less row.
        let residual: Vec<Expr> = conjuncts
            .iter()
            .zip(&used)
            .filter(|(_, u)| !**u)
            .map(|(c, _)| (*c).clone())
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

        // Build output schema first (needed to resolve aliases).
        let slot_types: Vec<DataType> = self.slots.borrow().iter().map(|(_, t)| *t).collect();
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
            let mut col = Column::new(name, infer_type(expr, &proj_input_schema, &slot_types));
            col.qualifier = qualifier;
            out_columns.push(col);
            bound_projs.push(bound);
        }
        let out_schema = Schema::new(out_columns);

        // A key that does not bind to the output sorts the projection's
        // input instead, before it is projected.
        let mut pre_sort_keys = Vec::new();
        let mut post_sort_keys = Vec::new();
        for item in &order_by {
            match output_sort_key(item, &out_schema)? {
                Some(key) => post_sort_keys.push(key),
                None => pre_sort_keys.push(SortKey {
                    expr: bind(&item.expr, &proj_input_schema)?,
                    ascending: item.ascending,
                }),
            }
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
            plan = Plan::Sort { input: Box::new(plan), keys: post_sort_keys };
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
                let table = self.resolve_table(name)?;
                let qualifier = alias.clone().unwrap_or_else(|| name.clone());
                let schema = table.schema.clone().with_qualifier(&qualifier);
                Ok(if table.foreign().is_some() {
                    Plan::ForeignScan { table, schema, pushed: Vec::new() }
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

    /// The table a FROM name denotes: a query-scoped relation, else a
    /// catalog table. A name that denotes both is an error rather than a
    /// silent shadow (a quoted identifier can spell any scoped name).
    fn resolve_table(&self, name: &str) -> Result<Arc<Table>> {
        let Some(scoped) = self.scoped.iter().find(|t| t.name.eq_ignore_ascii_case(name)) else {
            return self.catalog.get_table(name);
        };
        if self.catalog.has_table(name) {
            return Err(Error::plan(format!(
                "table `{name}` is ambiguous: it names both a query-scoped relation \
                 and a catalog table"
            )));
        }
        Ok(Arc::clone(scoped))
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
            out_cols.push(Column::new(name, infer_type(g, input_schema, &[])));
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
            out_cols.push(Column::new(format!("#a{j}"), infer_type(call, input_schema, &[])));
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
            other => other.try_map_children(&mut |c| self.rewrite(c)),
        }
    }
}

/// ORDER BY key `item` bound to the `out` columns of a SELECT: a position
/// (`ORDER BY 2`, an error when out of range), an output name or alias,
/// or an expression over the output columns; `None` when it binds to none.
fn output_sort_key(item: &OrderItem, out: &Schema) -> Result<Option<SortKey>> {
    let expr = match &item.expr {
        Expr::Literal(Value::Int(n)) => match usize::try_from(*n - 1) {
            Ok(i) if i < out.len() => Some(BoundExpr::Column(i)),
            _ => return Err(Error::plan(format!("ORDER BY position {n} is out of range"))),
        },
        Expr::Column { qualifier: None, name } => out.index_of_output(name).map(BoundExpr::Column),
        _ => None,
    };
    let expr = expr.or_else(|| bind(&item.expr, out).ok());
    Ok(expr.map(|expr| SortKey { expr, ascending: item.ascending }))
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
        plan_select(&catalog(), &[], &s, &OptimizerConfig::none()).map(|o| o.plan)
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
            Plan::Values { .. } | Plan::Union { .. } | Plan::Bind { .. } => {}
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
        let p = plan_on(
            &catalog(),
            "SELECT l.name FROM landfill l, elem_contained e \
             WHERE l.name = e.landfill_name AND l.tons > 100",
        );
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

    /// `sql` planned over `cat` and run through the default passes: filter
    /// pushdown places the filters and chooses the index scans.
    fn plan_on(cat: &Catalog, sql: &str) -> Plan {
        let Statement::Select(s) = parse_statement(sql).unwrap() else {
            panic!("not a select")
        };
        let cfg = OptimizerConfig::default();
        plan_select(cat, &[], &s, &cfg).unwrap().plan
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
    fn slot_keys_are_coerced_at_open_as_literal_keys_are() {
        // `tons = $t` keeps its lookup for the open, which builds it from
        // the bound value exactly as `tons = 100` / `city = NULL` build
        // theirs at plan time: an INT key on a FLOAT column is a FLOAT
        // key, and a NULL key is an empty key set.
        let cat = indexed_catalog();
        let open = |sql: &str, value: Value| {
            let Plan::Bind { input, .. } = plan_on(&cat, sql) else { panic!("{sql}: no slots") };
            assert!(matches!(find_index_scan(&input), Some(IndexLookup::AtOpen(_))), "{sql}");
            let filled = fill_slots(*input, &[vec![value]], &mut std::iter::empty(), &mut HashMap::new());
            find_index_scan(&filled).cloned()
        };
        let literal = |sql: &str| find_index_scan(&plan_on(&cat, sql)).cloned();
        assert_eq!(
            open("SELECT name FROM landfill WHERE tons = $t", Value::Int(100)),
            literal("SELECT name FROM landfill WHERE tons = 100")
        );
        assert!(matches!(
            open("SELECT name FROM landfill WHERE tons = $t", Value::Int(100)),
            Some(IndexLookup::Eq(k)) if matches!(k[..], [Value::Float(f)] if f == 100.0)
        ));
        assert_eq!(
            open("SELECT name FROM landfill WHERE city = $c", Value::Null),
            literal("SELECT name FROM landfill WHERE city = NULL")
        );
        assert_eq!(
            open("SELECT name FROM landfill WHERE tons > $t", Value::Int(5)),
            literal("SELECT name FROM landfill WHERE tons > 5")
        );
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
        let t = |src: &str| infer_type(&parse_expr(src).unwrap(), &schema, &[]);
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
