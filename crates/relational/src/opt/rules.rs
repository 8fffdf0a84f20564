//! Structural rewrite passes: filter pushdown, projection pruning and
//! limit pushdown.
//!
//! These generalise what used to be inline special cases of
//! `plan_select`: the planner still pushes *AST-level* WHERE conjuncts
//! while it assembles the FROM clause (it has the name resolution context
//! to pick index scans), and the passes here rewrite the *bound* plan —
//! so filters produced by later planning stages (or by the SESQL layer's
//! rewrites) sink just as far, limits cap union members, and redundant
//! projections collapse, no matter which front-end built the plan.

use crate::exec::expr::BoundExpr;
use crate::plan::Plan;
use crate::schema::Schema;
use crate::sql::ast::JoinKind;

use super::map_children;

// ---- bound-expression column analysis --------------------------------------

/// Visit every column reference in a bound expression.
pub(crate) fn visit_cols(e: &BoundExpr, f: &mut impl FnMut(usize)) {
    match e {
        BoundExpr::Literal(_) => {}
        BoundExpr::Column(i) => f(*i),
        BoundExpr::Unary { expr, .. } => visit_cols(expr, f),
        BoundExpr::Binary { left, right, .. } => {
            visit_cols(left, f);
            visit_cols(right, f);
        }
        BoundExpr::IsNull { expr, .. } => visit_cols(expr, f),
        BoundExpr::InList { expr, list, .. } => {
            visit_cols(expr, f);
            for item in list {
                visit_cols(item, f);
            }
        }
        BoundExpr::Between { expr, low, high, .. } => {
            visit_cols(expr, f);
            visit_cols(low, f);
            visit_cols(high, f);
        }
        BoundExpr::Like { expr, pattern, .. } => {
            visit_cols(expr, f);
            visit_cols(pattern, f);
        }
        BoundExpr::ScalarFn { args, .. } => {
            for a in args {
                visit_cols(a, f);
            }
        }
        BoundExpr::Case { operand, branches, else_expr } => {
            if let Some(o) = operand {
                visit_cols(o, f);
            }
            for (w, t) in branches {
                visit_cols(w, f);
                visit_cols(t, f);
            }
            if let Some(e) = else_expr {
                visit_cols(e, f);
            }
        }
    }
}

/// Rebuild a bound expression with every `Column(i)` replaced by `f(i)` —
/// the substitution primitive behind pushing filters through projections
/// (replace with the projection expression) and index remapping (replace
/// with a shifted column reference).
pub(crate) fn map_cols(e: BoundExpr, f: &mut impl FnMut(usize) -> BoundExpr) -> BoundExpr {
    match e {
        BoundExpr::Literal(v) => BoundExpr::Literal(v),
        BoundExpr::Column(i) => f(i),
        BoundExpr::Unary { op, expr } => BoundExpr::Unary {
            op,
            expr: Box::new(map_cols(*expr, f)),
        },
        BoundExpr::Binary { left, op, right } => BoundExpr::Binary {
            left: Box::new(map_cols(*left, f)),
            op,
            right: Box::new(map_cols(*right, f)),
        },
        BoundExpr::IsNull { expr, negated } => BoundExpr::IsNull {
            expr: Box::new(map_cols(*expr, f)),
            negated,
        },
        BoundExpr::InList { expr, list, negated } => BoundExpr::InList {
            expr: Box::new(map_cols(*expr, f)),
            list: list.into_iter().map(|e| map_cols(e, f)).collect(),
            negated,
        },
        BoundExpr::Between { expr, low, high, negated } => BoundExpr::Between {
            expr: Box::new(map_cols(*expr, f)),
            low: Box::new(map_cols(*low, f)),
            high: Box::new(map_cols(*high, f)),
            negated,
        },
        BoundExpr::Like { expr, pattern, negated } => BoundExpr::Like {
            expr: Box::new(map_cols(*expr, f)),
            pattern: Box::new(map_cols(*pattern, f)),
            negated,
        },
        BoundExpr::ScalarFn { func, args } => BoundExpr::ScalarFn {
            func,
            args: args.into_iter().map(|e| map_cols(e, f)).collect(),
        },
        BoundExpr::Case { operand, branches, else_expr } => BoundExpr::Case {
            operand: operand.map(|o| Box::new(map_cols(*o, f))),
            branches: branches
                .into_iter()
                .map(|(w, t)| (map_cols(w, f), map_cols(t, f)))
                .collect(),
            else_expr: else_expr.map(|e| Box::new(map_cols(*e, f))),
        },
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

/// Push every `Filter` as deep as the operator algebra allows: through
/// projections (substituting column references with the projected
/// expressions), through sorts and DISTINCT, into each UNION member
/// (bound predicates are positional, and members share the compound's
/// column layout), and into join children when the predicate references
/// only one side (never beneath the NULL-padded side of a LEFT join).
pub fn pushdown_filters(plan: Plan, notes: &mut Vec<String>) -> Plan {
    let mut moved = 0usize;
    let out = walk_filters(plan, &mut moved);
    if moved > 0 {
        notes.push(format!("filter-pushdown: {moved} filter(s) moved below other operators"));
    }
    out
}

fn walk_filters(plan: Plan, moved: &mut usize) -> Plan {
    let plan = map_children(plan, &mut |c| walk_filters(c, moved));
    if let Plan::Filter { input, predicate } = plan {
        sink_filter(*input, predicate, moved)
    } else {
        plan
    }
}

/// Return a plan equivalent to `Filter(predicate) over input`, with the
/// filter sunk as deep as possible.
fn sink_filter(input: Plan, predicate: BoundExpr, moved: &mut usize) -> Plan {
    match input {
        Plan::Project { input, exprs, schema } => {
            *moved += 1;
            let pred = map_cols(predicate, &mut |i| exprs[i].clone());
            Plan::Project {
                input: Box::new(sink_filter(*input, pred, moved)),
                exprs,
                schema,
            }
        }
        Plan::Sort { input, keys } => {
            *moved += 1;
            Plan::Sort { input: Box::new(sink_filter(*input, predicate, moved)), keys }
        }
        Plan::Distinct { input } => {
            *moved += 1;
            Plan::Distinct { input: Box::new(sink_filter(*input, predicate, moved)) }
        }
        Plan::Union { inputs, all, schema } => {
            *moved += 1;
            Plan::Union {
                inputs: inputs
                    .into_iter()
                    .map(|m| sink_filter(m, predicate.clone(), moved))
                    .collect(),
                all,
                schema,
            }
        }
        Plan::HashJoin { left, right, kind, left_keys, right_keys, residual, schema } => {
            match join_side(&predicate, left.schema(), kind) {
                JoinSide::Left => {
                    *moved += 1;
                    Plan::HashJoin {
                        left: Box::new(sink_filter(*left, predicate, moved)),
                        right,
                        kind,
                        left_keys,
                        right_keys,
                        residual,
                        schema,
                    }
                }
                JoinSide::Right(shifted) => {
                    *moved += 1;
                    Plan::HashJoin {
                        left,
                        right: Box::new(sink_filter(*right, shifted, moved)),
                        kind,
                        left_keys,
                        right_keys,
                        residual,
                        schema,
                    }
                }
                JoinSide::Neither => Plan::Filter {
                    input: Box::new(Plan::HashJoin {
                        left,
                        right,
                        kind,
                        left_keys,
                        right_keys,
                        residual,
                        schema,
                    }),
                    predicate,
                },
            }
        }
        Plan::NestedLoopJoin { left, right, kind, predicate: on, schema } => {
            match join_side(&predicate, left.schema(), kind) {
                JoinSide::Left => {
                    *moved += 1;
                    Plan::NestedLoopJoin {
                        left: Box::new(sink_filter(*left, predicate, moved)),
                        right,
                        kind,
                        predicate: on,
                        schema,
                    }
                }
                JoinSide::Right(shifted) => {
                    *moved += 1;
                    Plan::NestedLoopJoin {
                        left,
                        right: Box::new(sink_filter(*right, shifted, moved)),
                        kind,
                        predicate: on,
                        schema,
                    }
                }
                JoinSide::Neither => Plan::Filter {
                    input: Box::new(Plan::NestedLoopJoin {
                        left,
                        right,
                        kind,
                        predicate: on,
                        schema,
                    }),
                    predicate,
                },
            }
        }
        other => Plan::Filter { input: Box::new(other), predicate },
    }
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
