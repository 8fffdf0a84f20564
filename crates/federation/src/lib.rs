//! # crosse-federation
//!
//! The integration layer of CroSSE (*Contextually-Enriched Querying of
//! Integrated Data Sources*, ICDE 2018, Fig. 1 and Fig. 6):
//!
//! * [`source`] — data sources behind a uniform trait; remote sources carry
//!   a configurable latency/transfer model simulating `postgres_fdw` links
//!   to national and EU databanks.
//! * [`fdw::FederatedDatabase`] — the mediator: one SQL surface over all
//!   registered sources, with cached or live foreign-table access.
//! * [`mapping::ResourceMapping`] — the declarative relational↔RDF resource
//!   correspondence (the paper's "XML file", here a small text format).
//! * [`join_manager`] — combines relational rows with SPARQL solutions.

#![forbid(unsafe_code)]

pub mod fdw;
pub mod join_manager;
pub mod mapping;
pub mod source;

pub use fdw::{FederatedDatabase, FederatedPrepared};
pub use join_manager::{
    combine, combine_in, matching_keys, term_to_value, term_to_value_in, CombineKind, JoinSpec,
};
pub use mapping::{MapStrategy, ResourceMapping};
pub use source::{DataSource, LatencyModel, LocalSource, RemoteSource, SourceStats};
