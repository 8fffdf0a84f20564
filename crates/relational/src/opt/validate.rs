//! Plan-invariant validation: structural checks run between optimizer
//! passes (and on the final plan) so a buggy rewrite fails loudly at plan
//! time instead of surfacing as wrong rows or a panic deep in `exec/`.
//!
//! Two kinds of check:
//!
//! * [`check_plan`] — invariants any bound plan must satisfy on its own:
//!   every column index inside every bound expression is within its
//!   input's arity, operator schemas are consistent with their children,
//!   and `Plan::Shared` spools are well-formed (one subtree per id, one
//!   id per subtree).
//! * [`check_pass`] — invariants relating a plan *before* and *after* one
//!   rewrite pass: the output arity and column types are preserved
//!   end-to-end, the conservative row bound never increases (a pass must
//!   not weaken a `LIMIT`), no filter was moved beneath the padded side of
//!   a LEFT join, and an output that was provably duplicate-free still is.
//!
//! Violations carry the offending pass name and an `EXPLAIN` rendering of
//! the bad (sub)tree. Validation runs when
//! [`OptimizerConfig::validate`](super::OptimizerConfig) is set — on by
//! default under `debug_assertions` (so the whole test suite exercises
//! it) and off in release builds, keeping it out of hot paths.

use std::collections::HashMap;
use std::sync::Arc;

use crate::plan::Plan;
use crate::sql::ast::{Expr, JoinKind, Select};
use crate::value::DataType;

use super::dedup::{determined, projected_columns};
use super::rules::visit_cols;

/// A violated plan invariant: which pass produced the bad plan, what is
/// wrong, and the `EXPLAIN` rendering of the offending subtree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanInvariantError {
    /// The pass after which the violation was detected (`"plan_select"`
    /// for a plan that was invalid as built).
    pub pass: String,
    pub message: String,
    /// `EXPLAIN` rendering of the subtree that broke the invariant.
    pub subtree: String,
}

impl PlanInvariantError {
    fn new(pass: &str, message: String, subtree: &Plan) -> Self {
        PlanInvariantError {
            pass: pass.to_string(),
            message,
            subtree: subtree.explain(),
        }
    }
}

impl std::fmt::Display for PlanInvariantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "plan invariant violated after pass `{}`: {}\noffending subtree:\n{}",
            self.pass, self.message, self.subtree
        )
    }
}

impl std::error::Error for PlanInvariantError {}

type CheckResult = Result<(), PlanInvariantError>;

/// Largest column index referenced by `e`, if any.
fn max_col(e: &crate::exec::expr::BoundExpr) -> Option<usize> {
    let mut max = None;
    visit_cols(e, &mut |i| max = Some(max.map_or(i, |m: usize| m.max(i))));
    max
}

fn check_arity(
    pass: &str,
    plan: &Plan,
    what: &str,
    e: &crate::exec::expr::BoundExpr,
    arity: usize,
) -> CheckResult {
    if let Some(i) = max_col(e) {
        if i >= arity {
            return Err(PlanInvariantError::new(
                pass,
                format!("{what} references column #{i}, input arity is {arity}"),
                plan,
            ));
        }
    }
    Ok(())
}

/// Structural invariants of one plan tree. `pass` only labels the error.
pub fn check_plan(plan: &Plan, pass: &str) -> CheckResult {
    // id -> spool subtree; each spool id must name exactly one subtree,
    // and one subtree must not hide behind two ids (the executor replays
    // spools by id, so either mix-up silently swaps result sets).
    let mut spools: HashMap<usize, *const Plan> = HashMap::new();
    let mut by_ptr: HashMap<*const Plan, usize> = HashMap::new();
    check_node(plan, pass, &mut spools, &mut by_ptr)
}

fn check_node(
    plan: &Plan,
    pass: &str,
    spools: &mut HashMap<usize, *const Plan>,
    by_ptr: &mut HashMap<*const Plan, usize>,
) -> CheckResult {
    match plan {
        Plan::Values { schema, rows } => {
            for row in rows {
                if row.len() != schema.len() {
                    return Err(PlanInvariantError::new(
                        pass,
                        format!(
                            "VALUES row has {} values, schema arity is {}",
                            row.len(),
                            schema.len()
                        ),
                        plan,
                    ));
                }
            }
        }
        Plan::Scan { .. } => {}
        Plan::IndexScan { schema, column, .. } => {
            if *column >= schema.len() {
                return Err(PlanInvariantError::new(
                    pass,
                    format!(
                        "index scan keys column #{column}, schema arity is {}",
                        schema.len()
                    ),
                    plan,
                ));
            }
        }
        Plan::ForeignScan { table, schema, .. } => {
            if schema.len() != table.schema.len() {
                return Err(PlanInvariantError::new(
                    pass,
                    format!(
                        "foreign scan has {} columns, table `{}` has {}",
                        schema.len(),
                        table.name,
                        table.schema.len()
                    ),
                    plan,
                ));
            }
        }
        Plan::Filter { input, predicate } => {
            check_arity(pass, plan, "filter predicate", predicate, input.schema().len())?;
        }
        Plan::Project { input, exprs, schema } => {
            if exprs.len() != schema.len() {
                return Err(PlanInvariantError::new(
                    pass,
                    format!(
                        "projection has {} expressions but {} output columns",
                        exprs.len(),
                        schema.len()
                    ),
                    plan,
                ));
            }
            let arity = input.schema().len();
            for e in exprs {
                check_arity(pass, plan, "projection expression", e, arity)?;
            }
        }
        Plan::NestedLoopJoin { left, right, predicate, schema, .. } => {
            let combined = left.schema().len() + right.schema().len();
            if schema.len() != combined {
                return Err(PlanInvariantError::new(
                    pass,
                    format!(
                        "join schema arity {} != left {} + right {}",
                        schema.len(),
                        left.schema().len(),
                        right.schema().len()
                    ),
                    plan,
                ));
            }
            if let Some(p) = predicate {
                check_arity(pass, plan, "join predicate", p, combined)?;
            }
        }
        Plan::HashJoin { left, right, left_keys, right_keys, residual, schema, .. } => {
            if left_keys.len() != right_keys.len() {
                return Err(PlanInvariantError::new(
                    pass,
                    format!(
                        "hash join has {} left keys but {} right keys",
                        left_keys.len(),
                        right_keys.len()
                    ),
                    plan,
                ));
            }
            let (la, ra) = (left.schema().len(), right.schema().len());
            if schema.len() != la + ra {
                return Err(PlanInvariantError::new(
                    pass,
                    format!("join schema arity {} != left {la} + right {ra}", schema.len()),
                    plan,
                ));
            }
            for k in left_keys {
                check_arity(pass, plan, "hash join left key", k, la)?;
            }
            for k in right_keys {
                check_arity(pass, plan, "hash join right key", k, ra)?;
            }
            if let Some(r) = residual {
                check_arity(pass, plan, "hash join residual", r, la + ra)?;
            }
        }
        Plan::Aggregate { input, group, aggs, schema } => {
            if schema.len() != group.len() + aggs.len() {
                return Err(PlanInvariantError::new(
                    pass,
                    format!(
                        "aggregate schema arity {} != {} group keys + {} aggregates",
                        schema.len(),
                        group.len(),
                        aggs.len()
                    ),
                    plan,
                ));
            }
            let arity = input.schema().len();
            for g in group {
                check_arity(pass, plan, "group key", g, arity)?;
            }
            for a in aggs {
                if let Some(arg) = &a.arg {
                    check_arity(pass, plan, "aggregate argument", arg, arity)?;
                }
            }
        }
        Plan::Sort { input, keys } => {
            let arity = input.schema().len();
            for k in keys {
                check_arity(pass, plan, "sort key", &k.expr, arity)?;
            }
        }
        // A Bind's subqueries were checked when they were optimized.
        Plan::Distinct { .. } | Plan::Limit { .. } | Plan::Bind { .. } => {}
        Plan::Union { inputs, schema, .. } => {
            for member in inputs {
                if member.schema().len() != schema.len() {
                    return Err(PlanInvariantError::new(
                        pass,
                        format!(
                            "UNION member arity {} != compound arity {}",
                            member.schema().len(),
                            schema.len()
                        ),
                        plan,
                    ));
                }
            }
        }
        Plan::Shared { id, input } => {
            let ptr = Arc::as_ptr(input);
            if let Some(known) = spools.get(id) {
                if *known != ptr {
                    return Err(PlanInvariantError::new(
                        pass,
                        format!("spool #{id} is defined by two different subtrees"),
                        plan,
                    ));
                }
                // Already validated under its first (defining) reference.
                return Ok(());
            }
            if let Some(other) = by_ptr.get(&ptr) {
                return Err(PlanInvariantError::new(
                    pass,
                    format!("one subtree is spooled under two ids (#{other} and #{id})"),
                    plan,
                ));
            }
            spools.insert(*id, ptr);
            by_ptr.insert(ptr, *id);
        }
    }
    for child in children(plan) {
        check_node(child, pass, spools, by_ptr)?;
    }
    Ok(())
}

fn children(plan: &Plan) -> Vec<&Plan> {
    let mut out = Vec::new();
    plan.visit_children(&mut |c| out.push(c));
    out
}

/// Output column types of `plan`, the signature a rewrite pass must
/// preserve end-to-end.
fn output_types(plan: &Plan) -> Vec<DataType> {
    plan.schema().columns.iter().map(|c| c.data_type).collect()
}

/// Conservative upper bound on the number of rows `plan` can produce
/// (`None` = unbounded). Used to prove a pass never weakened a LIMIT.
fn row_bound(plan: &Plan) -> Option<u64> {
    match plan {
        Plan::Values { rows, .. } => Some(rows.len() as u64),
        Plan::Scan { .. } | Plan::IndexScan { .. } | Plan::ForeignScan { .. } => None,
        Plan::Filter { input, .. }
        | Plan::Project { input, .. }
        | Plan::Sort { input, .. }
        | Plan::Distinct { input } => row_bound(input),
        // An ungrouped aggregate emits exactly one row; a grouped one at
        // most one row per input row.
        Plan::Aggregate { input, group, .. } => {
            if group.is_empty() {
                Some(1)
            } else {
                row_bound(input)
            }
        }
        Plan::Limit { input, limit, offset } => {
            let inner = row_bound(input).map(|b| b.saturating_sub(*offset));
            match (limit, inner) {
                (Some(l), Some(b)) => Some((*l).min(b)),
                (Some(l), None) => Some(*l),
                (None, b) => b,
            }
        }
        Plan::Union { inputs, .. } => {
            inputs.iter().try_fold(0u64, |acc, m| row_bound(m).map(|b| acc.saturating_add(b)))
        }
        Plan::NestedLoopJoin { .. } | Plan::HashJoin { .. } => None,
        Plan::Shared { input, .. } => row_bound(input),
        Plan::Bind { input, .. } => row_bound(input),
    }
}

/// Number of `Filter` nodes sitting beneath the padded (right) side of a
/// LEFT join. A rewrite pass must never grow this: filtering the padded
/// side before the join changes which rows get NULL-extended.
fn padded_side_filters(plan: &Plan) -> usize {
    fn filters_in(plan: &Plan) -> usize {
        let own = usize::from(matches!(plan, Plan::Filter { .. }));
        own + children(plan).into_iter().map(filters_in).sum::<usize>()
    }
    let below = match plan {
        Plan::NestedLoopJoin { right, kind: JoinKind::Left, .. }
        | Plan::HashJoin { right, kind: JoinKind::Left, .. } => filters_in(right),
        _ => 0,
    };
    below + children(plan).into_iter().map(padded_side_filters).sum::<usize>()
}

/// Whether `plan`'s output provably holds no duplicate rows: a DISTINCT,
/// a deduplicating UNION or an aggregate at the top, under filters,
/// sorts, limits, inner hash joins of such inputs, and projections of
/// plain columns that determine every input column — projecting it, or,
/// over an inner hash join, projecting a column a key equates it with
/// (dedup pushdown's covering condition).
fn duplicate_free(plan: &Plan) -> bool {
    match plan {
        Plan::Distinct { .. } | Plan::Union { all: false, .. } | Plan::Aggregate { .. } => true,
        Plan::Values { rows, .. } => rows.len() <= 1,
        Plan::Filter { input, .. } | Plan::Sort { input, .. } | Plan::Limit { input, .. } => {
            duplicate_free(input)
        }
        Plan::Shared { input, .. } => duplicate_free(input),
        Plan::Bind { input, .. } => duplicate_free(input),
        Plan::HashJoin { left, right, kind: JoinKind::Inner, .. } => {
            duplicate_free(left) && duplicate_free(right)
        }
        Plan::Project { input, exprs, .. } => {
            let Some(proj) = projected_columns(exprs) else {
                return false;
            };
            let every: Vec<usize> = (0..input.schema().len()).collect();
            let determines_every_column = match &**input {
                Plan::HashJoin { left, kind: JoinKind::Inner, left_keys, right_keys, .. } => {
                    determined(&every, &proj, left.schema().len(), left_keys, right_keys)
                }
                _ => determined(&every, &proj, 0, &[], &[]),
            };
            determines_every_column && duplicate_free(input)
        }
        _ => false,
    }
}

/// Invariants relating the plans before and after one rewrite pass, plus
/// the structural checks on the rewritten plan.
pub fn check_pass(before: &Plan, after: &Plan, pass: &str) -> CheckResult {
    check_plan(after, pass)?;
    let (bt, at) = (output_types(before), output_types(after));
    if bt != at {
        return Err(PlanInvariantError::new(
            pass,
            format!("pass changed the output signature: {bt:?} -> {at:?}"),
            after,
        ));
    }
    let (bb, ab) = (row_bound(before), row_bound(after));
    let weakened = match (bb, ab) {
        (Some(_), None) => true,
        (Some(b), Some(a)) => a > b,
        (None, _) => false,
    };
    if weakened {
        return Err(PlanInvariantError::new(
            pass,
            format!("pass increased the row bound: {bb:?} -> {ab:?}"),
            after,
        ));
    }
    let (bf, af) = (padded_side_filters(before), padded_side_filters(after));
    if af > bf {
        return Err(PlanInvariantError::new(
            pass,
            format!(
                "pass pushed a filter beneath the padded side of a LEFT join \
                 ({bf} -> {af} padded-side filters)"
            ),
            after,
        ));
    }
    if duplicate_free(before) && !duplicate_free(after) {
        return Err(PlanInvariantError::new(
            pass,
            "pass lost the output's freedom from duplicates".to_string(),
            after,
        ));
    }
    Ok(())
}

/// Prepare-time invariant: every `Expr::Param` in `select` (any clause,
/// union member or subquery) has an index inside the slot table the
/// statement was prepared with. Cheap enough to run unconditionally.
pub fn check_param_slots(select: &Select, slot_count: usize) -> Result<(), String> {
    /// The highest slot index `select` references, subqueries included.
    fn highest(select: &Select) -> Option<usize> {
        let mut max = None;
        select.visit_clauses(&mut |e| {
            e.visit(&mut |node| {
                max = max.max(match node {
                    Expr::Param { index, .. } => Some(*index),
                    Expr::InSubquery { query, .. }
                    | Expr::Exists { query, .. }
                    | Expr::ScalarSubquery(query) => highest(query),
                    _ => None,
                })
            })
        });
        max
    }
    let bad = highest(select).filter(|&index| index >= slot_count);
    match bad {
        Some(index) => Err(format!(
            "parameter slot #{index} referenced, slot table has {slot_count} entr{}",
            if slot_count == 1 { "y" } else { "ies" }
        )),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;
    use crate::exec::expr::BoundExpr;
    use crate::schema::{Column, Schema};
    use crate::value::Value;

    fn db() -> Database {
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE t (a INT, b TEXT);
             INSERT INTO t VALUES (1, 'x'), (2, 'y');",
        )
        .unwrap();
        db
    }

    fn plan_of(db: &Database, sql: &str) -> Plan {
        db.plan_optimized(&match crate::sql::parser::parse_statement(sql).unwrap() {
            crate::sql::ast::Statement::Select(s) => *s,
            other => panic!("not a select: {other:?}"),
        })
        .unwrap()
        .plan
    }

    #[test]
    fn real_plans_validate_clean() {
        let db = db();
        for sql in [
            "SELECT a FROM t WHERE b = 'x' ORDER BY a LIMIT 1",
            "SELECT b, COUNT(*) FROM t GROUP BY b",
            "SELECT a FROM t UNION SELECT a FROM t",
            "SELECT x.a FROM t AS x LEFT JOIN t AS y ON x.a = y.a WHERE x.b = 'x'",
        ] {
            let plan = plan_of(&db, sql);
            check_plan(&plan, "test").unwrap();
        }
    }

    #[test]
    fn out_of_range_column_is_caught() {
        let db = db();
        let plan = plan_of(&db, "SELECT a FROM t");
        // Graft a filter whose predicate points past the scan's arity.
        let broken = Plan::Filter {
            input: Box::new(plan),
            predicate: BoundExpr::Column(99),
        };
        let err = check_plan(&broken, "graft").unwrap_err();
        assert_eq!(err.pass, "graft");
        assert!(err.message.contains("column #99"), "{err}");
        assert!(err.subtree.contains("Filter"), "{err}");
    }

    #[test]
    fn mismatched_projection_arity_is_caught() {
        let schema = Schema::new(vec![Column::new("a", DataType::Int)]);
        let broken = Plan::Project {
            input: Box::new(Plan::Values {
                schema: schema.clone(),
                rows: vec![vec![Value::Int(1)]],
            }),
            exprs: vec![BoundExpr::Column(0), BoundExpr::Column(0)],
            schema,
        };
        let err = check_plan(&broken, "p").unwrap_err();
        assert!(err.message.contains("2 expressions but 1 output"), "{err}");
    }

    #[test]
    fn duplicate_spool_definitions_are_caught() {
        let schema = Schema::new(vec![Column::new("a", DataType::Int)]);
        let a = Arc::new(Plan::Values {
            schema: schema.clone(),
            rows: vec![vec![Value::Int(1)]],
        });
        let b = Arc::new(Plan::Values {
            schema: schema.clone(),
            rows: vec![vec![Value::Int(2)]],
        });
        let broken = Plan::Union {
            inputs: vec![
                Plan::Shared { id: 0, input: a },
                Plan::Shared { id: 0, input: b },
            ],
            all: true,
            schema,
        };
        let err = check_plan(&broken, "cse").unwrap_err();
        assert!(err.message.contains("two different subtrees"), "{err}");
    }

    #[test]
    fn pass_diff_catches_weakened_limit_and_signature_change() {
        let db = db();
        let plan = plan_of(&db, "SELECT a FROM t LIMIT 3");
        let widened = widen_first_limit(plan.clone());
        let err = check_pass(&plan, &widened, "limit_pushdown").unwrap_err();
        assert!(err.message.contains("row bound"), "{err}");

        let retyped = plan_of(&db, "SELECT b FROM t LIMIT 3");
        let err = check_pass(&plan, &retyped, "x").unwrap_err();
        assert!(err.message.contains("output signature"), "{err}");
    }

    fn widen_first_limit(plan: Plan) -> Plan {
        match plan {
            Plan::Limit { input, limit, offset } => Plan::Limit {
                input,
                limit: limit.map(|l| l + 1),
                offset,
            },
            other => super::super::map_children(other, &mut widen_first_limit),
        }
    }

    #[test]
    fn pass_diff_catches_filter_pushed_under_padded_side() {
        let db = db();
        let before =
            plan_of(&db, "SELECT x.a FROM t AS x LEFT JOIN t AS y ON x.a = y.a WHERE y.b = 'x'");
        // Simulate the illegal rewrite: wrap the LEFT join's right side in
        // an extra filter.
        fn sink(plan: Plan) -> Plan {
            match plan {
                Plan::NestedLoopJoin { left, right, kind: JoinKind::Left, predicate, schema } => {
                    let arity = right.schema().len();
                    let filtered = Plan::Filter {
                        input: right,
                        predicate: BoundExpr::Column(arity - 1),
                    };
                    Plan::NestedLoopJoin {
                        left,
                        right: Box::new(filtered),
                        kind: JoinKind::Left,
                        predicate,
                        schema,
                    }
                }
                Plan::HashJoin {
                    left,
                    right,
                    kind: JoinKind::Left,
                    left_keys,
                    right_keys,
                    residual,
                    schema,
                } => {
                    let filtered = Plan::Filter {
                        input: right,
                        predicate: BoundExpr::Literal(Value::Bool(true)),
                    };
                    Plan::HashJoin {
                        left,
                        right: Box::new(filtered),
                        kind: JoinKind::Left,
                        left_keys,
                        right_keys,
                        residual,
                        schema,
                    }
                }
                other => super::super::map_children(other, &mut sink),
            }
        }
        let after = sink(before.clone());
        assert_ne!(padded_side_filters(&before), padded_side_filters(&after));
        let err = check_pass(&before, &after, "filter_pushdown").unwrap_err();
        assert!(err.message.contains("padded side"), "{err}");
    }

    #[test]
    fn param_slot_check() {
        let (stmt, slots) = crate::sql::parser::parse_statement_with_params(
            "SELECT a FROM t WHERE a = $x AND b = ?",
        )
        .unwrap();
        let select = match stmt {
            crate::sql::ast::Statement::Select(s) => s,
            other => panic!("{other:?}"),
        };
        check_param_slots(&select, slots.len()).unwrap();
        let err = check_param_slots(&select, 1).unwrap_err();
        assert!(err.contains("slot #1"), "{err}");
    }
}
