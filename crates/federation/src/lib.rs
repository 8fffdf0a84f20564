//! # crosse-federation
//!
//! The integration layer of CroSSE (*Contextually-Enriched Querying of
//! Integrated Data Sources*, ICDE 2018, Fig. 1 and Fig. 6):
//!
//! * [`source`] — simulated databanks behind the relational engine's
//!   `DataSource` trait; remote ones carry a configurable latency/transfer
//!   model standing in for the `postgres_fdw` links to national and EU
//!   databanks. A mediator `Database` imports a source's tables as foreign
//!   tables with `register_source`, and from then on they are leaves of
//!   its one plan (see `crosse_relational::foreign`).
//! * [`mapping::ResourceMapping`] — the declarative relational↔RDF resource
//!   correspondence (the paper's "XML file", here a small text format).
//! * [`join_manager`] — combines relational rows with SPARQL solutions.
//!
//! ```
//! use std::sync::Arc;
//! use crosse_federation::LocalSource;
//! use crosse_relational::Database;
//!
//! let national = Database::new();
//! national.execute_script(
//!     "CREATE TABLE landfill (name TEXT, city TEXT);
//!      INSERT INTO landfill VALUES ('a','Torino'), ('b','Milano');",
//! ).unwrap();
//! let source = LocalSource::new("it", national);
//! let mediator = Database::new();
//! mediator.register_source(Arc::new(source.clone())).unwrap();
//!
//! let rows = mediator
//!     .query("SELECT name FROM it__landfill WHERE city = 'Torino'")
//!     .unwrap();
//! assert_eq!(rows.len(), 1);
//! assert_eq!(source.stats().rows_transferred, 1); // only the match moved
//! ```

#![forbid(unsafe_code)]

mod fdw;
pub mod join_manager;
pub mod mapping;
pub mod source;

pub use join_manager::{
    combine, combine_in, matching_keys, term_to_value, term_to_value_in, CombineKind, JoinSpec,
};
pub use mapping::{MapStrategy, ResourceMapping};
pub use source::{LatencyModel, LocalSource, RemoteSource, SourceStats};
