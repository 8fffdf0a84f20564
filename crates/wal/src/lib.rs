//! # crosse-wal
//!
//! Durability primitives for the CroSSE engine: a write-ahead log of
//! length-prefixed, CRC32-checksummed redo records, snapshot checkpoints,
//! and replay-on-open crash recovery. The crate is deliberately store-
//! agnostic (and dependency-free): payloads are opaque byte strings tagged
//! with a *channel* byte, so the relational engine and the RDF store share
//! one log — and one LSN sequence — without this crate knowing either's
//! record schema.
//!
//! ## On-disk layout (one directory per database)
//!
//! * `wal.log` — the live log segment. Header `CROSWAL1` + base LSN;
//!   then records `[len u32][crc32 u32][lsn u64][chan u8][payload]`.
//! * `wal.prev` — the previous segment, present only inside a checkpoint
//!   window (rotated out at checkpoint begin, deleted once the snapshot
//!   is durable).
//! * `snapshot.bin` — the latest checkpoint. Header `CROSNAP1` + the LSN
//!   it covers + tagged sections + a trailing whole-file CRC32. Written
//!   to `snapshot.tmp` first and atomically renamed.
//!
//! ## Protocol
//!
//! Appenders hold the [`WalStore::barrier`] read lock across their whole
//! log-then-apply critical section (a store does this through its
//! [`RedoLog`]); a checkpoint takes the write lock
//! only long enough to read the pin LSN and rotate the segment, then
//! serialises the pinned state *off-thread* while writers proceed.
//! Recovery loads the newest valid snapshot, replays both segments
//! skipping records the snapshot already covers, tolerates a torn final
//! record (truncate-and-warn) and rejects mid-log corruption with a typed
//! [`WalError`] — never a panic.

#![forbid(unsafe_code)]

mod enc;
mod error;
mod log;
mod redo;

pub use enc::{crc32, Decoder, Encoder};
pub use error::{Result, WalError};
pub use log::{Record, Recovered, SyncPolicy, WalOptions, WalStats, WalStore};
pub use redo::RedoLog;

/// Channel tag for relational redo records (also used as the snapshot
/// section tag for the relational catalog).
pub const CHAN_REL: u8 = 1;
/// Channel tag for RDF triple-store redo records / snapshot section.
pub const CHAN_RDF: u8 = 2;
