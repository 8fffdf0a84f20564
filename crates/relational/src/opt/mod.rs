//! The plan-rewrite optimizer: an explicit pass pipeline over [`Plan`].
//!
//! Planning is split into **build → optimize → execute**: the planner
//! ([`crate::plan::plan_select`]) lowers the AST into a correct bound plan
//! — each WHERE conjunct filters the FROM item or join that first has its
//! columns, every table is scanned sequentially, nothing is shipped to a
//! foreign source, parameters and subqueries are slots of a
//! [`Plan::Bind`] root — and this module rewrites that plan through a
//! sequence of independent passes before execution. Nothing here runs a
//! plan: a conjunct whose comparands are slots becomes an index scan
//! whose keys, or a shipped conjunct whose values, the cursor's open puts
//! in.
//!
//! 1. **filter pushdown** ([`rules::pushdown_filters`]) — the one pass that
//!    places filters: splits each into conjuncts and sinks them below
//!    projections (substituting column references), sorts, other filters,
//!    into `UNION` members and into join children (never the padded side
//!    of a LEFT join); at a scan a sargable conjunct on an indexed column
//!    becomes an [`Plan::IndexScan`], and at a foreign leaf it is shipped
//!    to the source as well. Join order and join algorithm are still the
//!    planner's.
//! 2. **projection pruning** ([`rules::prune_projections`]) — composes
//!    adjacent `Project` nodes and narrows `Aggregate` inputs to the
//!    columns the group/aggregate expressions actually reference.
//! 3. **dedup pushdown** ([`dedup::push_dedup_below_joins`]) — removes
//!    duplicates from a join's inputs instead of its output: a DISTINCT
//!    over an inner equi-join whose output determines both inputs, and a
//!    deduplicating UNION of joins over one common input (Ex. 4.6's
//!    REPLACEVARIABLE compound). Never beneath a `LIMIT`.
//! 4. **limit pushdown** ([`rules::pushdown_limits`]) — sinks `Limit`
//!    beneath row-preserving `Project`s and caps the members of
//!    `UNION ALL` compounds, so `LIMIT k` stops each member's scan early.
//! 5. **common-subplan elimination** ([`cse::share_common_subplans`]) —
//!    fingerprints structurally equal subtrees and rewrites duplicates to
//!    one [`Plan::Shared`] spool, evaluated once per execution.
//!
//! Each pass is individually toggleable through [`OptimizerConfig`] (the
//! equivalence property tests run every subset against the unoptimized
//! plan), and each pass that fires records a human-readable annotation
//! surfaced by `EXPLAIN`.

pub mod cse;
pub mod dedup;
pub mod rules;
pub mod validate;

use crate::plan::Plan;

pub use validate::PlanInvariantError;

/// Which rewrite passes run. The default enables everything; `none()` is
/// the identity pipeline (used as the baseline in equivalence tests).
/// A statement's subqueries are optimized under the same configuration
/// when it is planned, and run when its cursor opens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizerConfig {
    /// Sink filters below projections, sorts and other filters and into
    /// union members and join children; answer a sargable conjunct on an
    /// indexed column with an index scan; ship conjuncts to foreign
    /// sources.
    pub filter_pushdown: bool,
    /// Compose adjacent projections; narrow aggregate inputs.
    pub prune_projections: bool,
    /// Deduplicate a join's inputs instead of its output.
    pub dedup_pushdown: bool,
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
    /// After dedup pushdown, remove the outermost DISTINCT without pushing
    /// it anywhere — the validator must flag the lost duplicate-freedom.
    DropDistinct,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            filter_pushdown: true,
            prune_projections: true,
            dedup_pushdown: true,
            limit_pushdown: true,
            shared_subplans: true,
            validate: cfg!(debug_assertions),
            sabotage: Sabotage::None,
        }
    }
}

impl OptimizerConfig {
    /// The identity pipeline: no pass runs, the plan is returned as built
    /// (still validated once under `debug_assertions`) — filters at their
    /// FROM scope, sequential scans only, nothing shipped to a foreign
    /// source; the planner's join order and join algorithms stay.
    pub fn none() -> Self {
        OptimizerConfig {
            filter_pushdown: false,
            prune_projections: false,
            dedup_pushdown: false,
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
    if cfg.dedup_pushdown {
        plan = run_pass(plan, "dedup_pushdown", &mut notes, &mut dedup::push_dedup_below_joins)?;
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

/// The passes in the order [`optimize`] runs them, by the name each of
/// their notes starts with.
const PASS_ORDER: [&str; 5] =
    ["filter-pushdown", "projection-pruning", "dedup_pushdown", "limit-pushdown", "cse"];

/// Fold `more`, the notes of a subquery's optimization, into `notes`, its
/// statement's, so each pass keeps one line that counts its rewrites in
/// the whole statement. A part of a line that reads like a part of the
/// same pass's line but for its numbers is that part with the numbers
/// summed (`1 index scan(s) chosen` twice is `2 index scan(s) chosen`);
/// any other part is appended, and a pass only `more` names gets its line
/// in pass order.
pub(crate) fn merge_notes(notes: &mut Vec<String>, more: Vec<String>) {
    let rank = |note: &str| PASS_ORDER.iter().position(|p| note.starts_with(p));
    for note in more {
        let (pass, body) = note.split_once(": ").unwrap_or((&note, ""));
        let head = format!("{pass}: ");
        match notes.iter().position(|n| n.starts_with(&head)) {
            Some(i) => notes[i] = format!("{head}{}", merge_body(&notes[i][head.len()..], body)),
            None => {
                let at = notes.iter().position(|n| rank(n) > rank(&note)).unwrap_or(notes.len());
                notes.insert(at, note);
            }
        }
    }
}

/// Two bodies of one pass's note as one, as [`merge_notes`] describes.
fn merge_body(body: &str, more: &str) -> String {
    let (body, tail) = split_tail(body);
    let mut parts: Vec<String> = body.split(", ").map(String::from).collect();
    for part in split_tail(more).0.split(", ") {
        match parts.iter().enumerate().find_map(|(i, p)| Some((i, add_numbers(p, part)?))) {
            Some((i, sum)) => parts[i] = sum,
            None => parts.push(part.to_string()),
        }
    }
    format!("{}{tail}", parts.join(", "))
}

/// A note body and its closing remark: a last parenthesised group that
/// holds no number (the guards a pass names), or nothing.
fn split_tail(body: &str) -> (&str, &str) {
    match body.rfind(" (") {
        Some(i) if body.ends_with(')') && !body[i..].contains(|c: char| c.is_ascii_digit()) => {
            body.split_at(i)
        }
        _ => (body, ""),
    }
}

/// `a` with the numbers of `b` added to its own, if the two read alike
/// but for their numbers.
fn add_numbers(a: &str, b: &str) -> Option<String> {
    fn runs(s: &str) -> Vec<&str> {
        let mut out = Vec::new();
        let mut from = 0;
        for (i, c) in s.char_indices() {
            let digit = |c: char| c.is_ascii_digit();
            if i > from && digit(c) != s[from..i].starts_with(digit) {
                out.push(&s[from..i]);
                from = i;
            }
        }
        out.push(&s[from..]);
        out
    }
    let (a, b) = (runs(a), runs(b));
    if a.len() != b.len() {
        return None;
    }
    a.iter()
        .zip(&b)
        .map(|(x, y)| match (x.parse::<u64>(), y.parse::<u64>()) {
            (Ok(x), Ok(y)) => Some((x + y).to_string()),
            _ => (x == y).then(|| x.to_string()),
        })
        .collect()
}

/// Apply the configured test-only corruption after its target pass.
/// Compiled to the identity in release builds.
#[cfg(debug_assertions)]
fn apply_sabotage(plan: Plan, pass: &str, cfg: &OptimizerConfig) -> Plan {
    match cfg.sabotage {
        Sabotage::WidenLimit if pass == "limit_pushdown" => widen_first_limit(plan),
        Sabotage::DropProjectColumn if pass == "prune_projections" => drop_project_column(plan),
        Sabotage::DropDistinct if pass == "dedup_pushdown" => drop_first_distinct(plan),
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

#[cfg(debug_assertions)]
fn drop_first_distinct(plan: Plan) -> Plan {
    match plan {
        Plan::Distinct { input } => *input,
        other => map_children(other, &mut drop_first_distinct),
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
        Plan::Bind { input, slots } => Plan::Bind { input: Box::new(f(*input)), slots },
    }
}

#[cfg(test)]
mod tests {
    use super::merge_notes;

    #[test]
    fn merged_notes_count_each_pass_once_in_pass_order() {
        let guards = " (guards: never beneath LIMIT, never when a filter or index lookup \
                      narrows only one join input)";
        let mut notes = vec![
            "filter-pushdown: 1 filter(s) moved below other operators, 1 index scan(s) chosen"
                .to_string(),
            format!("dedup_pushdown: 1 DISTINCT(s) moved below a join{guards}"),
            "cse: 1 shared subtree(s) spooled (2 reference(s))".to_string(),
        ];
        merge_notes(
            &mut notes,
            vec![
                "filter-pushdown: 2 index scan(s) chosen".to_string(),
                "projection-pruning: 1 aggregate input(s) narrowed".to_string(),
                format!("dedup_pushdown: 1 DISTINCT(s) moved below a join, 1 UNION(s) x{guards}"),
                "cse: 2 shared subtree(s) spooled (5 reference(s))".to_string(),
            ],
        );
        assert_eq!(
            notes,
            [
                "filter-pushdown: 1 filter(s) moved below other operators, 3 index scan(s) chosen"
                    .to_string(),
                "projection-pruning: 1 aggregate input(s) narrowed".to_string(),
                format!("dedup_pushdown: 2 DISTINCT(s) moved below a join, 1 UNION(s) x{guards}"),
                "cse: 3 shared subtree(s) spooled (7 reference(s))".to_string(),
            ]
        );
    }
}
