//! SPARQL subset: parser, compiler to an operator tree, and its executor.
//!
//! [`prepare`] compiles a query once into an operator tree (module
//! `compile`); [`Prepared::execute`] runs it (module `ops`, with `paths`
//! and `aggregate` for property paths and grouping). [`eval`] holds the
//! text-in helpers and the result shapes.

mod aggregate;
mod compile;
pub mod ast;
pub mod eval;
pub mod lint;
mod ops;
pub mod parser;
mod paths;
pub mod prepared;

pub use prepared::{prepare, prepare_any, Prepared, SolutionCursor, SparqlParams};
