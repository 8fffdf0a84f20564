//! # crosse-core
//!
//! SESQL — the contextually-enriched query language of CroSSE
//! (*Contextually-Enriched Querying of Integrated Data Sources*, ICDE
//! 2018) — together with the platform services built around it.
//!
//! * [`sesql`] — the language front-end: the `${cond:id}` tagging scanner
//!   (Remark 4.1), the Fig. 5 enrichment grammar, and the Semantic Query
//!   Parser.
//! * [`sqm::SesqlEngine`] — the Semantic Query Module: generates SPARQL
//!   from the enrichment syntax tree, runs the SQL and SPARQL legs,
//!   combines them in one enrichment pass through the resource mapping
//!   ([`sqm::ResourceMapping`]) (Fig. 6), and reports per-stage timings.
//! * [`session`] — the one statement handle for SESQL, SQL and SPARQL:
//!   `Session::prepare(Lang, text)` → `Statement::execute(&params)` → a
//!   [`Rows`] cursor; the CLI and the server both run on it.
//! * [`platform`] — users, annotation scenarios (integrated / independent /
//!   crowdsourced, Sec. III-A) and the query log.
//! * [`recommend`] — the Sec. I-B vision services: peer discovery,
//!   statement recommendation, and context-aware result ranking.
#![forbid(unsafe_code)]

pub mod error;
pub mod explore;
mod mapping;
pub mod platform;
pub mod recommend;
pub mod sesql;
pub mod session;
pub mod sqm;
pub mod storage;

pub use crosse_lint::{Diagnostic, Severity, Span};
pub use error::{Error, Result};
pub use crosse_relational::LockSiteStats;
pub use storage::{SyncPolicy, WalOptions, WalStats};
pub use sesql::ast::{Enrichment, SesqlQuery};
pub use sesql::parser::parse_sesql;
pub use session::{is_write, EnrichedRows, Lang, Rows, Session, Statement};
pub use sqm::{
    EnrichOptions, EnrichedResult, MultiValuePolicy, PipelineReport, PreparedSesql,
    SesqlEngine,
};
