//! `crosse-server`: the CROSNET1 network front-end for the CroSSE engine.
//!
//! A dependency-free TCP server (std `TcpListener`, one I/O thread per
//! connection, execution bounded by an admission gate) speaking a
//! length-prefixed binary frame protocol, plus the matching blocking
//! client. The full protocol specification and the robustness design
//! (admission control, deadlines, cooperative cancellation, drain) live
//! in `crates/server/DESIGN.md`.
//!
//! Quick tour:
//!
//! ```no_run
//! use crosse_server::{Client, Lang, Server, ServerConfig};
//!
//! # fn demo(engine: crosse_core::sqm::SesqlEngine) -> Result<(), Box<dyn std::error::Error>> {
//! let mut handle = Server::start(engine, ServerConfig::default())?;
//! let mut client = Client::connect(handle.addr())?;
//! client.hello("alice")?;
//! let result = client.query(Lang::Sql, "SELECT 1", 0)?;
//! assert!(result.error().is_none());
//! handle.shutdown();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod admit;
pub mod client;
pub mod frame;
pub mod proto;
pub mod server;
pub mod stats;

pub use admit::{AdmissionGate, AdmitError, Permit};
pub use client::{Client, ClientError, QueryOutcome, QueryResult};
pub use frame::{protocol_error_of, read_frame, write_frame, FrameRead, ProtocolError, MAGIC};
pub use proto::{params_of, ErrorCode, Lang, ParamBinding, Request, Response};
pub use server::{Server, ServerConfig, ServerHandle};
pub use stats::ServerStats;

/// Row cells on the wire are engine values; re-exported so client code
/// can match on query results without depending on `crosse-relational`.
pub use crosse_relational::Value;
