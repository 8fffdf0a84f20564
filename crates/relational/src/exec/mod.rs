//! Plan execution.
//!
//! The engine is pull-based: a [`Rows`] cursor lowers a plan into a lazy
//! row iterator (see [`stream`] for the operator semantics); a caller that
//! wants the rows materialised collects the cursor.

pub mod aggregate;
pub mod expr;
pub mod fasthash;
mod keys;
mod scan;
pub mod stream;

pub use stream::Rows;
