//! Duplicate elimination below joins: the eager duplicate elimination of
//! Yan & Larson ("Eager aggregation and lazy aggregation", VLDB 1995).
//!
//! A DISTINCT (or a deduplicating UNION) over a join removes duplicates
//! from the join's *output*, which can be far larger than its inputs.
//! Two rewrites move that work below the join:
//!
//! * **(B) DISTINCT below an inner equi-join.** `Distinct(Project(L ⋈ R))`
//!   becomes `Project(Distinct(π(L)) ⋈ Distinct(π(R)))` when the projection
//!   is made only of column references and every column a side contributes
//!   (to the projection, the join keys or the residual) is projected or is
//!   equated by a join key to a projected column. Then each output row
//!   determines the pair of deduplicated input rows that produced it, so
//!   the join's output is already duplicate-free. This leans on a join
//!   key's equality implying grouping equality, which holds because the
//!   hash join matches keys by `Value`'s grouping `Eq`.
//! * **(A) A deduplicating UNION factored over a common join input.** When
//!   every member is `Project(C ⋈ O_i)` over one structurally equal left
//!   input `C` (the CSE fingerprint), joined on the same `C` keys, and the
//!   members' projections and residuals agree once `O_i`'s columns are
//!   renamed through a narrow projection `π_i(O_i)`, the union becomes
//!   `Distinct(Project(C ⋈ UNION ALL[π_i(O_i)]))` — and (B) then removes
//!   that DISTINCT. (A) fires only when (B) follows, so the pass never
//!   leaves an output-sized DISTINCT behind.
//!
//! A left-deep `(LL ⋈ LR) ⋈ R` whose outer keys read only `LR` is also
//! read as `LL ⋈ (LR ⋈ R)` (inner joins associate). That is the shape of
//! the paper's REPLACEVARIABLE member `e1 ⋈ pairs ⋈ e2`, whose common input
//! with `e1 ⋈ e2` is `e1`.
//!
//! Guards, both stated in the `EXPLAIN` note:
//! * nothing fires beneath a `LIMIT` — the rewrite reorders rows, and so
//!   would change which k rows an unordered LIMIT returns;
//! * nothing fires when a filter or index lookup narrows one join input
//!   and not the other. The DISTINCT above the join then sees only the
//!   rows the narrowed input lets through, while the rewritten plan would
//!   deduplicate the other input in full. Without row estimates this is a
//!   plan-shape rule; a cost model would replace it.

use crate::exec::expr::BoundExpr;
use crate::plan::Plan;
use crate::schema::Schema;
use crate::sql::ast::{BinaryOp, JoinKind};

use super::cse::fingerprint_of;
use super::map_children;
use super::rules::{map_cols, project_columns, visit_cols};

/// Move DISTINCT and deduplicating UNION below the joins they sit on,
/// where the rewrites above apply.
pub fn push_dedup_below_joins(plan: Plan, notes: &mut Vec<String>) -> Plan {
    let mut fired = Fired::default();
    let out = walk(plan, false, &mut fired);
    let mut parts = Vec::new();
    if fired.distincts > 0 {
        parts.push(format!("{} DISTINCT(s) moved below a join", fired.distincts));
    }
    if fired.unions > 0 {
        parts.push(format!(
            "{} UNION(s) factored over a common join input and deduplicated below it",
            fired.unions
        ));
    }
    if !parts.is_empty() {
        notes.push(format!(
            "dedup_pushdown: {} (guards: never beneath LIMIT, never when a filter or index \
             lookup narrows only one join input)",
            parts.join(", ")
        ));
    }
    out
}

#[derive(Default)]
struct Fired {
    distincts: usize,
    unions: usize,
}

fn walk(plan: Plan, under_limit: bool, fired: &mut Fired) -> Plan {
    let under_limit = under_limit || matches!(plan, Plan::Limit { .. });
    let plan = map_children(plan, &mut |c| walk(c, under_limit, fired));
    if under_limit {
        return plan;
    }
    match plan {
        Plan::Distinct { input } => match distinct_below_join(&input) {
            Some(rewritten) => {
                fired.distincts += 1;
                rewritten
            }
            None => Plan::Distinct { input },
        },
        Plan::Union { inputs, all: false, schema } => match factor_union(&inputs, &schema) {
            Some(rewritten) => {
                fired.unions += 1;
                rewritten
            }
            None => Plan::Union { inputs, all: false, schema },
        },
        other => other,
    }
}

// ---- join forms ------------------------------------------------------------

/// An inner hash join's inputs, keys and residual (over the combined
/// `left ++ right` row).
#[derive(Clone)]
struct Join {
    left: Plan,
    right: Plan,
    left_keys: Vec<BoundExpr>,
    right_keys: Vec<BoundExpr>,
    residual: Option<BoundExpr>,
}

impl Join {
    fn into_plan(self) -> Plan {
        let schema = self.left.schema().join(self.right.schema());
        Plan::HashJoin {
            left: Box::new(self.left),
            right: Box::new(self.right),
            kind: JoinKind::Inner,
            left_keys: self.left_keys,
            right_keys: self.right_keys,
            residual: self.residual,
            schema,
        }
    }
}

/// The ways to read `plan` as one inner hash join: as built, then
/// reassociated from `(LL ⋈ LR) ⋈ R` to `LL ⋈ (LR ⋈ R)` when the outer
/// keys read only `LR`. Both keep the combined row's column order.
fn join_forms(plan: &Plan) -> Vec<Join> {
    let Plan::HashJoin {
        left, right, kind: JoinKind::Inner, left_keys, right_keys, residual, ..
    } = plan
    else {
        return Vec::new();
    };
    let built = Join {
        left: (**left).clone(),
        right: (**right).clone(),
        left_keys: left_keys.clone(),
        right_keys: right_keys.clone(),
        residual: residual.clone(),
    };
    let mut forms = vec![built];
    if let Plan::HashJoin {
        left: ll,
        right: lr,
        kind: JoinKind::Inner,
        left_keys: inner_left_keys,
        right_keys: inner_right_keys,
        residual: inner_residual,
        ..
    } = &**left
    {
        let w = ll.schema().len();
        let mut outer_keys_read_lr = true;
        for k in left_keys {
            visit_cols(k, &mut |i| outer_keys_read_lr &= i >= w);
        }
        if outer_keys_read_lr {
            let inner = Join {
                left: (**lr).clone(),
                right: (**right).clone(),
                left_keys: left_keys
                    .iter()
                    .map(|k| map_cols(k.clone(), &mut |i| BoundExpr::Column(i - w)))
                    .collect(),
                right_keys: right_keys.clone(),
                residual: None,
            };
            forms.push(Join {
                left: (**ll).clone(),
                right: inner.into_plan(),
                left_keys: inner_left_keys.clone(),
                right_keys: inner_right_keys.clone(),
                residual: conjoin(inner_residual.clone(), residual.clone()),
            });
        }
    }
    forms
}

pub(super) fn conjoin(a: Option<BoundExpr>, b: Option<BoundExpr>) -> Option<BoundExpr> {
    match (a, b) {
        (Some(a), Some(b)) => {
            Some(BoundExpr::Binary { left: Box::new(a), op: BinaryOp::And, right: Box::new(b) })
        }
        (a, b) => a.or(b),
    }
}

fn column_of(e: &BoundExpr) -> Option<usize> {
    match e {
        BoundExpr::Column(i) => Some(*i),
        _ => None,
    }
}

// ---- (B) DISTINCT below an inner join --------------------------------------

/// Whether every combined-row column in `cols` is determined by the
/// projected columns `proj`: projected itself, or equated by a join key
/// (a plain column on both sides) with a projected column.
pub(crate) fn determined(
    cols: &[usize],
    proj: &[usize],
    left_width: usize,
    left_keys: &[BoundExpr],
    right_keys: &[BoundExpr],
) -> bool {
    let equated = |c: usize| {
        left_keys.iter().zip(right_keys).any(|(l, r)| {
            match (column_of(l), column_of(r).map(|r| r + left_width)) {
                (Some(l), Some(r)) => {
                    (c == l && proj.contains(&r)) || (c == r && proj.contains(&l))
                }
                _ => false,
            }
        })
    };
    cols.iter().all(|&c| proj.contains(&c) || equated(c))
}

/// The projection's column references, if it is made only of them.
pub(crate) fn projected_columns(exprs: &[BoundExpr]) -> Option<Vec<usize>> {
    exprs.iter().map(column_of).collect()
}

/// Rewrite (B) on `Distinct(input)`; `None` when it does not apply.
fn distinct_below_join(input: &Plan) -> Option<Plan> {
    let Plan::Project { input: join, exprs, schema } = input else {
        return None;
    };
    let proj = projected_columns(exprs)?;
    join_forms(join).into_iter().find_map(|j| dedup_join_inputs(j, &proj, schema))
}

/// `Project(proj)(Distinct(π(L)) ⋈ Distinct(π(R)))` for the join `j`, when
/// the covering condition and the narrowing guard allow it.
fn dedup_join_inputs(j: Join, proj: &[usize], schema: &Schema) -> Option<Plan> {
    let lw = j.left.schema().len();
    // Every combined-row column the join or the projection reads.
    let mut used: Vec<usize> = proj.to_vec();
    for k in &j.left_keys {
        visit_cols(k, &mut |i| used.push(i));
    }
    for k in &j.right_keys {
        visit_cols(k, &mut |i| used.push(i + lw));
    }
    if let Some(r) = &j.residual {
        visit_cols(r, &mut |i| used.push(i));
    }
    used.sort_unstable();
    used.dedup();
    let split = used.partition_point(|&i| i < lw);
    let (used_left, used_right) = used.split_at(split);
    if used_left.is_empty()
        || used_right.is_empty()
        || !determined(&used, proj, lw, &j.left_keys, &j.right_keys)
        || narrowed(&j.left) != narrowed(&j.right)
    {
        return None;
    }
    // A combined-row column's index in `used`, the new combined row.
    let new_index = |i: usize| used.partition_point(|&u| u < i);
    let remap = |e: BoundExpr, offset: usize, base: usize| {
        map_cols(e, &mut |i| BoundExpr::Column(new_index(i + offset) - base))
    };
    let left_keys = j.left_keys.into_iter().map(|k| remap(k, 0, 0)).collect();
    let right_keys = j.right_keys.into_iter().map(|k| remap(k, lw, used_left.len())).collect();
    let residual = j.residual.map(|r| remap(r, 0, 0));
    let exprs = proj.iter().map(|&i| BoundExpr::Column(new_index(i))).collect();
    let dedup_input = |side: Plan, cols: Vec<usize>| -> Plan {
        let narrow =
            if cols.len() == side.schema().len() { side } else { project_columns(side, cols) };
        Plan::Distinct { input: Box::new(narrow) }
    };
    let right_cols = used_right.iter().map(|&i| i - lw).collect();
    let join = Join {
        left: dedup_input(j.left, used_left.to_vec()),
        right: dedup_input(j.right, right_cols),
        left_keys,
        right_keys,
        residual,
    };
    Some(Plan::Project { input: Box::new(join.into_plan()), exprs, schema: schema.clone() })
}

/// Whether a filter or index lookup narrows `plan`'s rows (a union only
/// when every member is narrowed).
fn narrowed(plan: &Plan) -> bool {
    match plan {
        Plan::Filter { .. } | Plan::IndexScan { .. } | Plan::Limit { .. } => true,
        Plan::Union { inputs, .. } => inputs.iter().all(narrowed),
        other => {
            let mut any = false;
            other.visit_children(&mut |c| any |= narrowed(c));
            any
        }
    }
}

// ---- (A) a deduplicating UNION over a common join input --------------------

/// One member read as `C ⋈ O`, `C` the join's left input: its projection
/// and residual with `O`'s columns renamed through
/// `π(O) = [O keys..., O columns...]`, over the combined row of
/// `C ⋈ π(O)`.
struct Member {
    join: Join,
    /// `C`'s fingerprint and keys, printed: equal across the members.
    c_signature: String,
    /// The renamed projection and residual, printed: equal across the
    /// members (bound expressions are index-resolved, so printing is exact).
    shape: String,
    exprs: Vec<BoundExpr>,
    residual: Option<BoundExpr>,
    /// `O`'s columns behind `π(O)`'s non-key slots.
    o_cols: Vec<usize>,
}

impl Member {
    /// Read `Project(exprs)(join)` as `C ⋈ O`, if `O`'s keys are plain
    /// columns and `C` has a fingerprint.
    fn read(j: Join, exprs: &[BoundExpr]) -> Option<Member> {
        // A narrowed `C` needs every `O_i` narrowed to pass the guard.
        if !j.right_keys.iter().all(|k| column_of(k).is_some())
            || (narrowed(&j.left) && !narrowed(&j.right))
        {
            return None;
        }
        let c_signature = format!("{}{:?}", fingerprint_of(&j.left)?, j.left_keys);
        let lw = j.left.schema().len();
        let mut o_cols: Vec<usize> = Vec::new();
        for e in exprs.iter().chain(&j.residual) {
            visit_cols(e, &mut |i| {
                if i >= lw && !o_cols.contains(&(i - lw)) {
                    o_cols.push(i - lw);
                }
            });
        }
        let key_count = j.right_keys.len();
        let mut rename = |i: usize| match o_cols.iter().position(|&c| i >= lw && c == i - lw) {
            Some(slot) => BoundExpr::Column(lw + key_count + slot),
            None => BoundExpr::Column(i),
        };
        let exprs: Vec<BoundExpr> =
            exprs.iter().map(|e| map_cols(e.clone(), &mut rename)).collect();
        let residual = j.residual.clone().map(|r| map_cols(r, &mut rename));
        let shape = format!("{exprs:?}{residual:?}");
        Some(Member { join: j, c_signature, shape, exprs, residual, o_cols })
    }

    /// `π(O)`: the `O` keys, then the `O` columns the member reads.
    fn narrow_o(&self) -> Plan {
        let keys = self.join.right_keys.iter().filter_map(column_of);
        let cols = keys.chain(self.o_cols.iter().copied()).collect();
        project_columns(self.join.right.clone(), cols)
    }
}

/// Every way to read a UNION member as `C ⋈ O` (see [`join_forms`]).
fn members(plan: &Plan) -> Vec<Member> {
    match plan {
        Plan::Project { input, exprs, .. } => {
            join_forms(input).into_iter().filter_map(|j| Member::read(j, exprs)).collect()
        }
        _ => Vec::new(),
    }
}

/// Rewrite (A) on a deduplicating `UNION`; `None` when it (or the (B)
/// that must follow it) does not apply.
fn factor_union(inputs: &[Plan], schema: &Schema) -> Option<Plan> {
    let (first, rest) = inputs.split_first()?;
    let first = members(first);
    if first.is_empty() || rest.is_empty() {
        return None;
    }
    let rest: Vec<Vec<Member>> = rest.iter().map(members).collect();
    first.iter().find_map(|head| {
        let chosen: Vec<&Member> = std::iter::once(Some(head))
            .chain(rest.iter().map(|readings| {
                readings.iter().find(|m| m.c_signature == head.c_signature && m.shape == head.shape)
            }))
            .collect::<Option<_>>()?;
        let narrowed: Vec<Plan> = chosen.iter().map(|m| m.narrow_o()).collect();
        let union =
            Plan::Union { schema: narrowed[0].schema().clone(), inputs: narrowed, all: true };
        let join = Join {
            left: head.join.left.clone(),
            right: union,
            left_keys: head.join.left_keys.clone(),
            right_keys: (0..head.join.right_keys.len()).map(BoundExpr::Column).collect(),
            residual: head.residual.clone(),
        };
        dedup_join_inputs(join, &projected_columns(&head.exprs)?, schema)
    })
}
