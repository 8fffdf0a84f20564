//! # CroSSE — CrowdSourced Semantic Enrichment
//!
//! A from-scratch Rust reproduction of *Contextually-Enriched Querying of
//! Integrated Data Sources* (Cavallo, Di Mauro, Pasteris, Sapino, Candan —
//! ICDE 2018): the **SESQL** contextually-enriched query language and the
//! full CroSSE platform around it.
//!
//! This facade crate re-exports the workspace:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`relational`] | `crosse-relational` | in-memory SQL engine (the "main platform") |
//! | [`rdf`] | `crosse-rdf` | triple store + SPARQL + RDFS (the "semantic platform") |
//! | [`federation`] | `crosse-federation` | simulated databanks (foreign-table sources), JoinManager, resource mapping |
//! | [`core`] | `crosse-core` | SESQL language + Semantic Query Module + platform services |
//! | [`server`] | `crosse-server` | CROSNET1 TCP front-end: wire protocol, admission control, deadlines |
//! | [`smartground`] | `crosse-smartground` | use-case schema, data generators, workloads |
//!
//! ## Quickstart
//!
//! ```
//! use crosse::prelude::*;
//!
//! // A databank + a user with contextual knowledge.
//! let engine = crosse::smartground::standard_engine(
//!     &SmartGroundConfig::tiny(), "director").unwrap();
//!
//! // Paper Example 4.1: extend the result with the user's dangerLevel
//! // knowledge.
//! let result = engine.execute(
//!     "director",
//!     "SELECT elem_name, landfill_name FROM elem_contained \
//!      WHERE landfill_name = 'LF00000' \
//!      ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)",
//! ).unwrap();
//! assert_eq!(result.rows.schema.columns.last().unwrap().name, "dangerLevel");
//! ```

#![forbid(unsafe_code)]

pub use crosse_core as core;
pub use crosse_exec as exec;
pub use crosse_federation as federation;
pub use crosse_rdf as rdf;
pub use crosse_relational as relational;
pub use crosse_server as server;
pub use crosse_smartground as smartground;

/// The most common imports in one place.
pub mod prelude {
    pub use crosse_core::platform::CrossePlatform;
    pub use crosse_core::session::{Lang, Rows, Session, Statement};
    pub use crosse_core::sqm::{EnrichOptions, MultiValuePolicy, PreparedSesql, SesqlEngine};
    pub use crosse_core::{parse_sesql, Enrichment, SesqlQuery};
    pub use crosse_federation::{LatencyModel, LocalSource, RemoteSource};
    pub use crosse_rdf::provenance::KnowledgeBase;
    pub use crosse_rdf::sparql::SparqlParams;
    pub use crosse_rdf::store::Triple;
    pub use crosse_rdf::term::Term;
    pub use crosse_core::{Diagnostic, Severity};
    pub use crosse_relational::{DataSource, Database, Params, RowSet, Value};
    pub use crosse_smartground::{SmartGroundConfig, standard_engine, standard_engine_at, standard_engine_at_with};
}
