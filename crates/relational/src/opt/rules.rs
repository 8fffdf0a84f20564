//! Structural rewrite passes: filter pushdown, projection pruning and
//! limit pushdown.
//!
//! The planner places each WHERE conjunct by FROM scope alone and scans
//! every table sequentially. Filter pushdown is the only code that moves
//! a filter after that: it sinks conjuncts into the FROM items, turns a
//! sargable one on an indexed column into an index scan, and ships
//! conjuncts to foreign sources. Limit pushdown caps union members, and
//! projection pruning collapses redundant projections, whichever
//! front-end built the plan.

use std::ops::Bound;
use std::sync::Arc;

use crate::exec::expr::BoundExpr;
use crate::plan::{IndexLookup, Plan};
use crate::schema::Schema;
use crate::sql::ast::{BinaryOp, JoinKind};
use crate::storage::Table;
use crate::value::{DataType, Value};

use super::dedup::conjoin;
use super::map_children;

// ---- bound-expression column analysis --------------------------------------

/// Visit every column reference in a bound expression.
pub(crate) fn visit_cols(e: &BoundExpr, f: &mut impl FnMut(usize)) {
    match e {
        BoundExpr::Column(i) => f(*i),
        other => other.visit_operands(&mut |o| visit_cols(o, f)),
    }
}

/// Rebuild a bound expression with every `Column(i)` replaced by `f(i)` —
/// the substitution primitive behind pushing filters through projections
/// (replace with the projection expression) and index remapping (replace
/// with a shifted column reference).
pub(crate) fn map_cols(e: BoundExpr, f: &mut impl FnMut(usize) -> BoundExpr) -> BoundExpr {
    match e {
        BoundExpr::Column(i) => f(i),
        other => other.map_operands(&mut |o| map_cols(o, f)),
    }
}

/// The set of column indexes a bound expression references, sorted.
fn used_cols(exprs: &[&BoundExpr]) -> Vec<usize> {
    let mut used = Vec::new();
    for e in exprs {
        visit_cols(e, &mut |i| {
            if !used.contains(&i) {
                used.push(i);
            }
        });
    }
    used.sort_unstable();
    used
}

// ---- filter pushdown -------------------------------------------------------

/// What filter pushdown decided, for its `EXPLAIN` note: operators a
/// conjunct moved below, conjuncts an index scan now answers, conjuncts
/// shipped to a foreign source.
#[derive(Default)]
struct Placed {
    moved: usize,
    indexed: usize,
    shipped: usize,
}

/// The one pass that decides where a filter runs. Each `Filter` is split
/// into its conjuncts, and each conjunct sinks as deep as the operator
/// algebra allows: through existing filters, through projections
/// (substituting column references with the projected expressions),
/// through sorts and DISTINCT, into each UNION member (bound predicates
/// are positional, and members share the compound's column layout), and
/// into a join child when it references only that side (never beneath
/// the NULL-padded side of a LEFT join). At a table scan a sargable
/// conjunct on an indexed column becomes an [`Plan::IndexScan`]; at a
/// foreign leaf a conjunct whose SQL text round-trips is also shipped to
/// the source (ANDed into `pushed`) and stays as a local filter, so a
/// source can save transfer but never change a result. Conjuncts that
/// cannot move stay together where their filter was.
pub fn pushdown_filters(plan: Plan, notes: &mut Vec<String>) -> Plan {
    let mut placed = Placed::default();
    let out = walk_filters(plan, &mut placed);
    let parts: Vec<String> = [
        (placed.moved, "filter(s) moved below other operators"),
        (placed.indexed, "index scan(s) chosen"),
        (placed.shipped, "conjunct(s) shipped to a foreign source"),
    ]
    .iter()
    .filter(|(n, _)| *n > 0)
    .map(|(n, what)| format!("{n} {what}"))
    .collect();
    if !parts.is_empty() {
        notes.push(format!("filter-pushdown: {}", parts.join(", ")));
    }
    out
}

fn walk_filters(plan: Plan, placed: &mut Placed) -> Plan {
    let plan = map_children(plan, &mut |c| walk_filters(c, placed));
    let Plan::Filter { input, predicate } = plan else {
        return plan;
    };
    let mut conjuncts = Vec::new();
    split_bound(predicate, &mut conjuncts);
    let (mut input, mut kept) = (*input, None);
    for c in conjuncts {
        input = match sink(input, c, placed) {
            Ok(sunk) => sunk,
            Err((input, c)) => {
                kept = conjoin(kept, Some(c));
                input
            }
        };
    }
    match kept {
        Some(predicate) => Plan::Filter { input: Box::new(input), predicate },
        None => input,
    }
}

/// Flatten nested ANDs into a conjunct list, left to right.
fn split_bound(e: BoundExpr, out: &mut Vec<BoundExpr>) {
    match e {
        BoundExpr::Binary { left, op: BinaryOp::And, right } => {
            split_bound(*left, out);
            split_bound(*right, out);
        }
        other => out.push(other),
    }
}

/// Move conjunct `c` of a filter over `plan` below `plan`'s root, or hand
/// both back when `c` has to stay above it (a foreign leaf comes back
/// with `c` shipped).
// The "error" is the plan handed back to the caller, moved once.
#[allow(clippy::result_large_err)]
fn sink(mut plan: Plan, c: BoundExpr, placed: &mut Placed) -> Result<Plan, (Plan, BoundExpr)> {
    match &mut plan {
        Plan::Filter { input, .. } => {
            let (sunk, rest) = match sink(take(input), c, placed) {
                Ok(sunk) => (sunk, None),
                Err((input, c)) => (input, Some(c)),
            };
            **input = sunk;
            return match rest {
                None => Ok(plan),
                Some(c) => Err((plan, c)),
            };
        }
        Plan::Project { input, exprs, .. } => {
            let c = map_cols(c, &mut |i| exprs[i].clone());
            **input = place(take(input), c, placed);
        }
        Plan::Sort { input, .. } | Plan::Distinct { input } => {
            **input = place(take(input), c, placed);
        }
        Plan::Union { inputs, .. } => {
            for member in inputs.iter_mut() {
                *member = place(take(member), c.clone(), placed);
            }
        }
        Plan::HashJoin { left, right, kind, .. }
        | Plan::NestedLoopJoin { left, right, kind, .. } => {
            match join_side(&c, left.schema(), *kind) {
                JoinSide::Left => **left = place(take(left), c, placed),
                JoinSide::Right(shifted) => **right = place(take(right), shifted, placed),
                JoinSide::Neither => return Err((plan, c)),
            }
        }
        Plan::Scan { table, schema } => {
            return match index_lookup(table, &c) {
                Some((column, lookup)) => {
                    placed.indexed += 1;
                    let (table, schema) = (Arc::clone(table), std::mem::take(schema));
                    Ok(Plan::IndexScan { table, schema, column, lookup })
                }
                None => Err((plan, c)),
            };
        }
        Plan::ForeignScan { schema, pushed, .. } => {
            if crate::foreign::remote_conjunct(&c, schema).is_some() {
                placed.shipped += 1;
                pushed.push(c.clone());
            }
            return Err((plan, c));
        }
        _ => return Err((plan, c)),
    }
    placed.moved += 1;
    Ok(plan)
}

/// `plan` with conjunct `c` sunk into it, or filtering it from above.
fn place(plan: Plan, c: BoundExpr, placed: &mut Placed) -> Plan {
    match sink(plan, c, placed) {
        Ok(plan) => plan,
        Err((input, predicate)) => Plan::Filter { input: Box::new(input), predicate },
    }
}

/// Move the plan out of `slot`, leaving an empty `Values` to be
/// overwritten.
fn take(slot: &mut Plan) -> Plan {
    std::mem::replace(slot, Plan::Values { schema: Schema::default(), rows: Vec::new() })
}

/// If `c` is a sargable conjunct on an indexed column of `table` — the
/// column compared with a literal on either side (not `<>`), `IN` a list
/// of literals, or `BETWEEN` two literals — the index lookup that
/// answers it. Literals are coerced to the column type, so the index's
/// total order agrees with SQL comparison on the stored (already
/// coerced) values; a literal that does not coerce leaves `c` a filter.
/// A NULL comparand matches nothing: an empty key set. A comparand that
/// is a slot leaves the lookup to the cursor's open, which builds it here
/// from the slot's values ([`IndexLookup::AtOpen`]).
pub(crate) fn index_lookup(table: &Table, c: &BoundExpr) -> Option<(usize, IndexLookup)> {
    let indexed = |e: &BoundExpr| match e {
        BoundExpr::Column(i) if table.has_index_on(*i) => Some(*i),
        _ => None,
    };
    if c.has_slot() {
        // Sargable exactly when it is with every lifted literal a literal
        // of its type (a key coerces by type alone) and every other slot
        // a NULL literal: the cursor's open then always builds the lookup.
        let typed = fill_lifted(c.clone());
        let shape = index_lookup(table, &crate::plan::fill_expr(typed, &[]));
        return shape.map(|(pos, _)| (pos, IndexLookup::AtOpen(c.clone())));
    }
    let literal = |e: &BoundExpr| match e {
        BoundExpr::Literal(v) => Some(v.clone()),
        _ => None,
    };
    let key = |pos: usize, v: Value| v.coerce(table.schema.columns[pos].data_type).ok();
    let nothing = |pos| Some((pos, IndexLookup::Eq(Vec::new())));
    match c {
        BoundExpr::Binary { left, op, right } if op.is_comparison() && *op != BinaryOp::NotEq => {
            let (pos, v, op) = if let (Some(pos), Some(v)) = (indexed(left), literal(right)) {
                (pos, v, *op)
            } else if let (Some(pos), Some(v)) = (indexed(right), literal(left)) {
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
                return nothing(pos);
            }
            let k = key(pos, v)?;
            let (low, high) = match op {
                BinaryOp::Eq => return Some((pos, IndexLookup::Eq(vec![k]))),
                BinaryOp::Lt => (Bound::Unbounded, Bound::Excluded(k)),
                BinaryOp::LtEq => (Bound::Unbounded, Bound::Included(k)),
                BinaryOp::Gt => (Bound::Excluded(k), Bound::Unbounded),
                BinaryOp::GtEq => (Bound::Included(k), Bound::Unbounded),
                _ => return None,
            };
            Some((pos, IndexLookup::Range { low, high }))
        }
        BoundExpr::InList { expr, list, negated: false } => {
            let pos = indexed(expr)?;
            let mut keys = Vec::with_capacity(list.len());
            for item in list {
                // NULL list members never match.
                match literal(item)? {
                    Value::Null => {}
                    v => keys.push(key(pos, v)?),
                }
            }
            Some((pos, IndexLookup::Eq(keys)))
        }
        BoundExpr::Between { expr, low, high, negated: false } => {
            let pos = indexed(expr)?;
            let (lo, hi) = (literal(low)?, literal(high)?);
            if lo.is_null() || hi.is_null() {
                return nothing(pos);
            }
            let (low, high) = (key(pos, lo)?, key(pos, hi)?);
            if low > high {
                // Empty, and an index range probe refuses a reversed range.
                return nothing(pos);
            }
            let (low, high) = (Bound::Included(low), Bound::Included(high));
            Some((pos, IndexLookup::Range { low, high }))
        }
        _ => None,
    }
}

/// `e` with each lifted literal replaced by a literal of its type.
fn fill_lifted(e: BoundExpr) -> BoundExpr {
    let BoundExpr::Lifted { ty, .. } = e else {
        return e.map_operands(&mut fill_lifted);
    };
    BoundExpr::Literal(match ty {
        DataType::Bool => Value::Bool(false),
        DataType::Int => Value::Int(0),
        DataType::Float => Value::Float(0.0),
        DataType::Text => Value::from(""),
    })
}

enum JoinSide {
    Left,
    /// References only the right side; payload is the predicate rebased
    /// onto right-child column indexes.
    Right(BoundExpr),
    Neither,
}

/// Which side of a join a combined-row predicate can move to. A filter on
/// the preserved (left) side of a LEFT join pushes safely — rows it
/// removes would only have produced NULL-padded output; the padded side
/// never accepts a pushed filter (NULL-padded rows bypass it above, not
/// below).
fn join_side(predicate: &BoundExpr, left_schema: &Schema, kind: JoinKind) -> JoinSide {
    let lw = left_schema.len();
    let mut all_left = true;
    let mut all_right = true;
    visit_cols(predicate, &mut |i| {
        if i < lw {
            all_right = false;
        } else {
            all_left = false;
        }
    });
    if all_left && all_right {
        // References no column at all: keep it above the join (evaluating
        // a constant predicate once per joined row is as cheap as any
        // placement, and sides may be empty).
        return JoinSide::Neither;
    }
    if all_left {
        return JoinSide::Left;
    }
    if all_right && kind != JoinKind::Left {
        let shifted = map_cols(predicate.clone(), &mut |i| BoundExpr::Column(i - lw));
        return JoinSide::Right(shifted);
    }
    JoinSide::Neither
}

// ---- projection pruning ----------------------------------------------------

/// Compose adjacent `Project` nodes into one, and narrow `Aggregate`
/// inputs to the columns their group/aggregate expressions reference
/// (a wide join feeding a grouped aggregate carries only the grouped
/// columns through the hash table).
pub fn prune_projections(plan: Plan, notes: &mut Vec<String>) -> Plan {
    let mut composed = 0usize;
    let mut narrowed = 0usize;
    let out = walk_prune(plan, &mut composed, &mut narrowed);
    if composed > 0 || narrowed > 0 {
        let mut parts = Vec::new();
        if composed > 0 {
            parts.push(format!("{composed} projection(s) composed"));
        }
        if narrowed > 0 {
            parts.push(format!("{narrowed} aggregate input(s) narrowed"));
        }
        notes.push(format!("projection-pruning: {}", parts.join(", ")));
    }
    out
}

fn walk_prune(plan: Plan, composed: &mut usize, narrowed: &mut usize) -> Plan {
    let plan = map_children(plan, &mut |c| walk_prune(c, composed, narrowed));
    match plan {
        Plan::Project { input, exprs, schema } => {
            if let Plan::Project { input: inner_input, exprs: inner_exprs, .. } = *input {
                *composed += 1;
                let exprs = exprs
                    .into_iter()
                    .map(|e| map_cols(e, &mut |i| inner_exprs[i].clone()))
                    .collect();
                Plan::Project { input: inner_input, exprs, schema }
            } else {
                Plan::Project { input, exprs, schema }
            }
        }
        Plan::Aggregate { input, group, aggs, schema } => {
            let width = input.schema().len();
            let mut refs: Vec<&BoundExpr> = group.iter().collect();
            refs.extend(aggs.iter().filter_map(|a| a.arg.as_ref()));
            let used = used_cols(&refs);
            if used.len() >= width {
                return Plan::Aggregate { input, group, aggs, schema };
            }
            *narrowed += 1;
            let remap: std::collections::HashMap<usize, usize> =
                used.iter().enumerate().map(|(new, &old)| (old, new)).collect();
            let group = group
                .into_iter()
                .map(|g| map_cols(g, &mut |i| BoundExpr::Column(remap[&i])))
                .collect();
            let aggs = aggs
                .into_iter()
                .map(|mut a| {
                    a.arg = a
                        .arg
                        .map(|e| map_cols(e, &mut |i| BoundExpr::Column(remap[&i])));
                    a
                })
                .collect();
            let narrow = project_columns(*input, used);
            // The inserted projection may itself sit on a projection.
            let narrow = walk_prune(narrow, composed, narrowed);
            Plan::Aggregate { input: Box::new(narrow), group, aggs, schema }
        }
        other => other,
    }
}

/// `plan` narrowed to the columns `cols`, in that order.
pub(crate) fn project_columns(plan: Plan, cols: Vec<usize>) -> Plan {
    let schema = Schema::new(cols.iter().map(|&i| plan.schema().columns[i].clone()).collect());
    Plan::Project {
        input: Box::new(plan),
        exprs: cols.into_iter().map(BoundExpr::Column).collect(),
        schema,
    }
}

// ---- limit pushdown --------------------------------------------------------

/// Sink `Limit` beneath row-preserving `Project`s and into the members of
/// `UNION ALL` compounds (each member is capped at `limit + offset`; the
/// outer limit still applies the offset and the overall cap), so a
/// `LIMIT k` over a projected union stops each member's base-table scan
/// within one batch of `k`.
pub fn pushdown_limits(plan: Plan, notes: &mut Vec<String>) -> Plan {
    let mut moved = 0usize;
    let out = walk_limits(plan, &mut moved);
    if moved > 0 {
        notes.push(format!("limit-pushdown: {moved} limit(s) sunk toward the scans"));
    }
    out
}

fn walk_limits(plan: Plan, moved: &mut usize) -> Plan {
    let plan = map_children(plan, &mut |c| walk_limits(c, moved));
    if let Plan::Limit { input, limit, offset } = plan {
        sink_limit(*input, limit, offset, moved)
    } else {
        plan
    }
}

/// Return a plan equivalent to `Limit { input, limit, offset }` with the
/// limit sunk as deep as possible.
fn sink_limit(input: Plan, limit: Option<u64>, offset: u64, moved: &mut usize) -> Plan {
    match input {
        Plan::Project { input, exprs, schema } => {
            *moved += 1;
            Plan::Project {
                input: Box::new(sink_limit(*input, limit, offset, moved)),
                exprs,
                schema,
            }
        }
        Plan::Union { inputs, all: true, schema } if limit.is_some() => {
            *moved += 1;
            // Each member needs to produce at most limit+offset rows; the
            // outer limit still skips the offset and enforces the total.
            let member_cap = limit.map(|l| l.saturating_add(offset));
            let inputs = inputs
                .into_iter()
                .map(|m| sink_limit(m, member_cap, 0, moved))
                .collect();
            Plan::Limit {
                input: Box::new(Plan::Union { inputs, all: true, schema }),
                limit,
                offset,
            }
        }
        other => Plan::Limit { input: Box::new(other), limit, offset },
    }
}
