//! The plan-rewrite optimizer: an explicit pass pipeline over [`Plan`].
//!
//! Planning is split into **build → optimize → execute**: the planner
//! ([`crate::plan::plan_select`]) lowers the AST into a correct bound plan,
//! and this module rewrites that plan through a sequence of independent
//! passes before execution:
//!
//! 1. **filter pushdown** ([`rules::pushdown_filters`]) — moves `Filter`
//!    nodes below projections (substituting column references), below
//!    sorts, into `UNION` members and into the children of inner joins.
//! 2. **projection pruning** ([`rules::prune_projections`]) — composes
//!    adjacent `Project` nodes and narrows `Aggregate` inputs to the
//!    columns the group/aggregate expressions actually reference.
//! 3. **limit pushdown** ([`rules::pushdown_limits`]) — sinks `Limit`
//!    beneath row-preserving `Project`s and caps the members of
//!    `UNION ALL` compounds, so `LIMIT k` stops each member's scan early.
//! 4. **common-subplan elimination** ([`cse::share_common_subplans`]) —
//!    fingerprints structurally equal subtrees and rewrites duplicates to
//!    one [`Plan::Shared`] spool, evaluated once per execution.
//!
//! Each pass is individually toggleable through [`OptimizerConfig`] (the
//! equivalence property tests run every subset against the unoptimized
//! plan), and each pass that fires records a human-readable annotation
//! surfaced by `EXPLAIN`.

pub mod cse;
pub mod rules;
pub mod validate;

use crate::plan::Plan;

pub use validate::PlanInvariantError;

/// Which rewrite passes run. The default enables everything; `none()` is
/// the identity pipeline (used as the baseline in equivalence tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizerConfig {
    /// Move filters below projections/sorts and into union members and
    /// inner-join children.
    pub filter_pushdown: bool,
    /// Compose adjacent projections; narrow aggregate inputs.
    pub prune_projections: bool,
    /// Sink LIMIT below projections and into `UNION ALL` members.
    pub limit_pushdown: bool,
    /// Deduplicate structurally equal subtrees through shared spools.
    pub shared_subplans: bool,
    /// Run the plan-invariant validator ([`validate`]) on the built plan
    /// and after every pass. Defaults to on under `debug_assertions`
    /// (tests, debug builds) and off in release, so the checks never cost
    /// anything on the hot path.
    pub validate: bool,
    /// Deliberately corrupt one pass so tests can prove the validator
    /// catches a broken rewrite. A no-op in release builds.
    #[doc(hidden)]
    pub sabotage: Sabotage,
}

/// Test-only pass corruption, selectable through
/// [`OptimizerConfig::sabotage`]. Only applied under `debug_assertions`.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Sabotage {
    #[default]
    None,
    /// After limit pushdown, widen the outermost LIMIT by one row — the
    /// validator must flag the increased row bound.
    WidenLimit,
    /// After projection pruning, drop the last output column of the
    /// outermost projection — the validator must flag the changed output
    /// signature.
    DropProjectColumn,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            filter_pushdown: true,
            prune_projections: true,
            limit_pushdown: true,
            shared_subplans: true,
            validate: cfg!(debug_assertions),
            sabotage: Sabotage::None,
        }
    }
}

impl OptimizerConfig {
    /// The identity pipeline: no pass runs, the plan is returned as built
    /// (still validated once under `debug_assertions`).
    pub fn none() -> Self {
        OptimizerConfig {
            filter_pushdown: false,
            prune_projections: false,
            limit_pushdown: false,
            shared_subplans: false,
            validate: cfg!(debug_assertions),
            sabotage: Sabotage::None,
        }
    }
}

/// An optimized plan plus the annotations of every pass that fired.
#[derive(Debug, Clone)]
pub struct Optimized {
    pub plan: Plan,
    /// One line per pass that changed the plan (empty when the plan came
    /// through untouched). Rendered by `EXPLAIN` after the tree.
    pub notes: Vec<String>,
}

impl Optimized {
    /// The `EXPLAIN` rendering: the plan tree, then one `--` annotation
    /// line per rewrite pass that changed it.
    pub fn render(&self) -> String {
        let mut out = self.plan.explain();
        for note in &self.notes {
            out.push_str("-- ");
            out.push_str(note);
            out.push('\n');
        }
        out
    }
}

/// Run the configured rewrite passes over `plan`.
///
/// With [`OptimizerConfig::validate`] set (the `debug_assertions`
/// default), the built plan is checked structurally and every pass is
/// checked for invariant preservation; a violation aborts planning with a
/// typed [`PlanInvariantError`] naming the offending pass.
pub fn optimize(plan: Plan, cfg: &OptimizerConfig) -> Result<Optimized, PlanInvariantError> {
    let mut notes = Vec::new();
    if cfg.validate {
        validate::check_plan(&plan, "plan_select")?;
    }
    let mut plan = plan;
    let run_pass = |plan: Plan,
                        name: &str,
                        notes: &mut Vec<String>,
                        pass: &mut dyn FnMut(Plan, &mut Vec<String>) -> Plan|
     -> Result<Plan, PlanInvariantError> {
        let before = cfg.validate.then(|| plan.clone());
        let after = pass(plan, notes);
        let after = apply_sabotage(after, name, cfg);
        if let Some(before) = before {
            validate::check_pass(&before, &after, name)?;
        }
        Ok(after)
    };
    if cfg.filter_pushdown {
        plan = run_pass(plan, "filter_pushdown", &mut notes, &mut rules::pushdown_filters)?;
    }
    if cfg.prune_projections {
        plan = run_pass(plan, "prune_projections", &mut notes, &mut rules::prune_projections)?;
    }
    if cfg.limit_pushdown {
        plan = run_pass(plan, "limit_pushdown", &mut notes, &mut rules::pushdown_limits)?;
    }
    if cfg.shared_subplans {
        plan = run_pass(plan, "shared_subplans", &mut notes, &mut cse::share_common_subplans)?;
    }
    if cfg.validate {
        validate::check_plan(&plan, "final")?;
    }
    Ok(Optimized { plan, notes })
}

/// Apply the configured test-only corruption after its target pass.
/// Compiled to the identity in release builds.
#[cfg(debug_assertions)]
fn apply_sabotage(plan: Plan, pass: &str, cfg: &OptimizerConfig) -> Plan {
    match cfg.sabotage {
        Sabotage::WidenLimit if pass == "limit_pushdown" => widen_first_limit(plan),
        Sabotage::DropProjectColumn if pass == "prune_projections" => drop_project_column(plan),
        _ => plan,
    }
}

#[cfg(not(debug_assertions))]
fn apply_sabotage(plan: Plan, _pass: &str, _cfg: &OptimizerConfig) -> Plan {
    plan
}

#[cfg(debug_assertions)]
fn widen_first_limit(plan: Plan) -> Plan {
    match plan {
        Plan::Limit { input, limit, offset } => Plan::Limit {
            input,
            limit: limit.map(|l| l + 1),
            offset,
        },
        other => map_children(other, &mut widen_first_limit),
    }
}

#[cfg(debug_assertions)]
fn drop_project_column(plan: Plan) -> Plan {
    match plan {
        Plan::Project { input, mut exprs, mut schema } if exprs.len() > 1 => {
            exprs.pop();
            schema.columns.pop();
            Plan::Project { input, exprs, schema }
        }
        other => map_children(other, &mut drop_project_column),
    }
}

/// Rebuild `plan` with every direct child mapped through `f` (shared
/// spool inputs are left untouched — CSE runs last and owns them).
pub(crate) fn map_children(plan: Plan, f: &mut impl FnMut(Plan) -> Plan) -> Plan {
    match plan {
        p @ (Plan::Values { .. }
        | Plan::Scan { .. }
        | Plan::IndexScan { .. }
        | Plan::ForeignScan { .. }) => p,
        Plan::Filter { input, predicate } => Plan::Filter {
            input: Box::new(f(*input)),
            predicate,
        },
        Plan::Project { input, exprs, schema } => Plan::Project {
            input: Box::new(f(*input)),
            exprs,
            schema,
        },
        Plan::NestedLoopJoin { left, right, kind, predicate, schema } => {
            Plan::NestedLoopJoin {
                left: Box::new(f(*left)),
                right: Box::new(f(*right)),
                kind,
                predicate,
                schema,
            }
        }
        Plan::HashJoin { left, right, kind, left_keys, right_keys, residual, schema } => {
            Plan::HashJoin {
                left: Box::new(f(*left)),
                right: Box::new(f(*right)),
                kind,
                left_keys,
                right_keys,
                residual,
                schema,
            }
        }
        Plan::Aggregate { input, group, aggs, schema } => Plan::Aggregate {
            input: Box::new(f(*input)),
            group,
            aggs,
            schema,
        },
        Plan::Sort { input, keys } => Plan::Sort { input: Box::new(f(*input)), keys },
        Plan::Distinct { input } => Plan::Distinct { input: Box::new(f(*input)) },
        Plan::Limit { input, limit, offset } => Plan::Limit {
            input: Box::new(f(*input)),
            limit,
            offset,
        },
        Plan::Union { inputs, all, schema } => Plan::Union {
            inputs: inputs.into_iter().map(f).collect(),
            all,
            schema,
        },
        p @ Plan::Shared { .. } => p,
    }
}
