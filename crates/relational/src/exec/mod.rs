//! Plan execution.
//!
//! The engine is pull-based: a [`Rows`] cursor lowers a plan into a lazy
//! row iterator (see [`stream`] for the operator semantics), and the
//! materialising [`execute_plan`] entry point is a thin collect over it —
//! one executor, two consumption styles.

pub mod aggregate;
pub mod expr;
pub mod fasthash;
mod keys;
pub mod stream;

use crate::error::Result;
use crate::plan::Plan;
use crate::value::Row;

pub use stream::{ExecCtx, Rows};

/// Execute a plan to a fully materialised set of rows (sequential).
///
/// Clones the plan and drains the streaming executor; callers that want
/// lazy consumption (and LIMIT short-circuiting) use [`Rows::from_plan`]
/// instead.
pub fn execute_plan(plan: &Plan) -> Result<Vec<Row>> {
    execute_plan_parallel(plan, 1)
}

/// Execute a plan to a fully materialised set of rows with up to
/// `threads` workers for morsel-parallel operators.
pub fn execute_plan_parallel(plan: &Plan, threads: usize) -> Result<Vec<Row>> {
    Rows::from_plan_parallel(plan.clone(), threads)?.collect()
}
