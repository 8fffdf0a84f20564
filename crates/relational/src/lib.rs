//! # crosse-relational
//!
//! An in-memory relational engine with a SQL subset, standing in for the
//! PostgreSQL "main platform" of the CroSSE architecture (*Contextually-
//! Enriched Querying of Integrated Data Sources*, ICDE 2018, Fig. 1).
//!
//! The engine provides everything SESQL needs from its relational
//! substrate:
//!
//! * a catalog of heap tables with optional secondary indexes
//!   ([`storage::Catalog`], [`storage::Index`]),
//! * DDL/DML plus `SELECT` with joins (hash + nested-loop), aggregates,
//!   `DISTINCT`, `ORDER BY`, `LIMIT`, `CASE`, uncorrelated subqueries
//!   (`IN (SELECT …)`, `EXISTS`, scalar), and index-scan planning for
//!   sargable predicates ([`db::Database`]),
//! * foreign tables: the tables of a registered [`DataSource`], read live
//!   through the same plans with their filters shipped to the source
//!   ([`foreign`], [`db::Database::register_source`]),
//! * a reusable SQL parser ([`sql::parser`]) whose AST the SESQL layer
//!   rewrites when applying WHERE-clause enrichments, and
//! * result materialisation back into ephemeral tables
//!   ([`db::Database::materialise_owned`]), which holds the SESQL engine's
//!   REPLACEVARIABLE pairs tables.
//!
//! ```
//! use crosse_relational::db::Database;
//!
//! let db = Database::new();
//! db.execute("CREATE TABLE landfill (name TEXT, city TEXT)").unwrap();
//! db.execute("INSERT INTO landfill VALUES ('Basse di Stura', 'Torino')").unwrap();
//! let rows = db.query("SELECT name FROM landfill WHERE city = 'Torino'").unwrap();
//! assert_eq!(rows.len(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod csv;
pub mod db;
pub mod error;
pub mod exec;
pub mod foreign;
pub mod lint;
pub mod opt;
pub mod plan;
pub mod prepared;
pub mod schema;
pub mod sql;
pub mod storage;
pub mod value;

pub use db::{Database, ExecOutcome, LockSiteStats, RowSet};
pub use error::{Error, Result};
pub use storage::durable::{DurabilityHandle, SyncPolicy, WalOptions, WalStats};
pub use crosse_lint::{Diagnostic, Severity, Span};
pub use exec::Rows;
pub use foreign::DataSource;
pub use opt::{optimize, Optimized, OptimizerConfig, PlanInvariantError};
pub use prepared::{Params, Prepared, SlotInfo};
pub use schema::{Column, Schema};
pub use value::{DataType, Interner, Row, Str, Value};
