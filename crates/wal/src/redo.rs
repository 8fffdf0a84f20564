//! The handle through which a store logs its mutations.
//!
//! Both engine stores (the relational catalog and the triple store) hold
//! one [`RedoLog`] and run every mutation as the same three steps:
//!
//! 1. take [`RedoLog::guard`] — the WAL barrier's read side — **before**
//!    any store lock (the checkpointer takes the write side and then
//!    reads the stores, so the other order deadlocks);
//! 2. under the store's own locks, [`RedoLog::log`] the record and only
//!    then apply the change, so an append error fails the mutation before
//!    it touches memory;
//! 3. release the store locks, then [`RedoLog::flush`] (the sync policy's
//!    fsync), so no store lock is ever held across the disk.
//!
//! A detached handle (the default: an in-memory store, or one replaying
//! its log) makes all three a no-op.

use std::sync::Arc;

use parking_lot::RwLockReadGuard;

use crate::error::Result;
use crate::log::WalStore;

/// Where one store's redo records go: one channel of a shared
/// [`WalStore`], or nowhere. Cheap to clone.
#[derive(Clone, Default)]
pub struct RedoLog {
    target: Option<(Arc<WalStore>, u8)>,
}

impl RedoLog {
    /// A handle that appends records tagged `chan` to `wal`.
    pub fn new(wal: Arc<WalStore>, chan: u8) -> Self {
        RedoLog { target: Some((wal, chan)) }
    }

    /// The barrier's read side for one log-then-apply critical section;
    /// `None` when detached.
    pub fn guard(&self) -> Option<RwLockReadGuard<'_, ()>> {
        self.target.as_ref().map(|(wal, _)| wal.barrier().read())
    }

    /// Append the record `encode` builds, without forcing it to disk.
    /// When detached, `encode` is never called.
    pub fn log(&self, encode: impl FnOnce() -> Vec<u8>) -> Result<()> {
        match &self.target {
            Some((wal, chan)) => wal.append_nosync(*chan, &encode()).map(drop),
            None => Ok(()),
        }
    }

    /// Make the logged records durable per the log's sync policy. An error
    /// means the mutation is applied in memory but not yet durable;
    /// callers fail the mutation with it.
    pub fn flush(&self) -> Result<()> {
        match &self.target {
            Some((wal, _)) => wal.sync_policy(),
            None => Ok(()),
        }
    }
}

impl std::fmt::Debug for RedoLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.target {
            Some((wal, chan)) => f
                .debug_struct("RedoLog")
                .field("chan", chan)
                .field("dir", &wal.dir())
                .finish(),
            None => f.write_str("RedoLog(detached)"),
        }
    }
}
