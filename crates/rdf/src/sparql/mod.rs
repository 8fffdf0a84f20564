//! SPARQL subset: parser, evaluator, and prepared queries.

pub mod ast;
pub mod eval;
pub mod lint;
pub mod parser;
pub mod prepared;

pub use prepared::{prepare, Prepared, SolutionCursor, SparqlParams};
