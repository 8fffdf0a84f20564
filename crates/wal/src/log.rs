// srclint: allow(R002): slices are length-checked immediately before each fixed-width decode
//! The write-ahead log store: append, rotate, checkpoint, recover.
//!
//! One [`WalStore`] manages one directory. Appends are serialised through
//! an internal mutex that also assigns LSNs; the rule that makes
//! checkpoints consistent is the **barrier**: every mutator holds
//! [`WalStore::barrier`] for *reading* across its entire
//! log-record-then-apply critical section, and the checkpointer holds it
//! for *writing* only while it reads the pin LSN, rotates the live
//! segment, and pins the in-memory state. Any op with an LSN at or below
//! the pin LSN is therefore fully applied in the pinned state; any op
//! above it lands in the fresh segment and replays over the snapshot.

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, SystemTime};

use parking_lot::{tracking, Mutex, RwLock};

use crate::enc::{crc32, Decoder, Encoder};
use crate::error::{Result, WalError};

const LOG_MAGIC: &[u8; 8] = b"CROSWAL1";
const SNAP_MAGIC: &[u8; 8] = b"CROSNAP1";
const SEGMENT_HEADER_LEN: u64 = 16;
/// Bytes of framing per record before the payload: len + crc + lsn + chan.
const RECORD_OVERHEAD: u32 = 9;
/// Upper bound on a single record body — anything larger is corruption,
/// not a real record.
const MAX_RECORD_LEN: u32 = 1 << 30;

/// Live log segment file name.
pub const LOG_FILE: &str = "wal.log";
/// Rotated-out segment (exists only inside a checkpoint window).
pub const PREV_FILE: &str = "wal.prev";
/// Latest durable snapshot.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
const SNAPSHOT_TMP: &str = "snapshot.tmp";

/// When the log is fsynced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync after every appended record.
    Always,
    /// Group commit: fsync once every N appended records (and at
    /// checkpoint rotation). On power loss at most the tail since the
    /// last fsync is lost; `kill -9` loses nothing (the OS page cache
    /// survives the process).
    EveryN(u64),
    /// Never fsync explicitly; the OS flushes on its own schedule. Still
    /// survives process crashes (`kill -9`) — only power loss can drop
    /// acknowledged writes.
    Off,
}

impl SyncPolicy {
    /// Parse `always` / `every_n:<N>` / `off` (used by CLI flags).
    pub fn parse(s: &str) -> Option<SyncPolicy> {
        match s {
            "always" => Some(SyncPolicy::Always),
            "off" => Some(SyncPolicy::Off),
            other => {
                let n = other.strip_prefix("every_n:").or_else(|| other.strip_prefix("every_n="))?;
                n.parse().ok().filter(|&n| n > 0).map(SyncPolicy::EveryN)
            }
        }
    }
}

impl std::fmt::Display for SyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncPolicy::Always => write!(f, "always"),
            SyncPolicy::EveryN(n) => write!(f, "every_n:{n}"),
            SyncPolicy::Off => write!(f, "off"),
        }
    }
}

/// Options for [`WalStore::open`].
#[derive(Debug, Clone, Copy)]
pub struct WalOptions {
    pub sync: SyncPolicy,
}

impl Default for WalOptions {
    fn default() -> Self {
        // Group-commit default: one fsync per 256 records. On ordinary
        // disks an fsync costs low milliseconds, so a narrower window
        // taxes bulk writes hard (`crossebench --workload live-mix
        // --trace 1` reports it as `wal.write_overhead_us`) while
        // `kill -9` safety is unaffected — only power loss can drop the
        // window (`tests/durability.rs`).
        WalOptions { sync: SyncPolicy::EveryN(256) }
    }
}

/// One recovered redo record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    pub lsn: u64,
    pub chan: u8,
    pub payload: Vec<u8>,
}

/// Snapshot payload: `(channel, encoded section)` pairs in written order.
pub type SnapshotSections = Vec<(u8, Vec<u8>)>;

/// Everything recovery found in the directory, ready to replay: the
/// snapshot sections (if any), then `records` in LSN order.
#[derive(Debug, Default)]
pub struct Recovered {
    /// LSN the snapshot covers (0 = no snapshot).
    pub snapshot_lsn: u64,
    /// Tagged snapshot sections, in written order.
    pub sections: SnapshotSections,
    /// Log records with `lsn > snapshot_lsn`, dense and ascending.
    pub records: Vec<Record>,
    /// Non-fatal recovery notes (torn tail truncated, ...).
    pub warnings: Vec<String>,
}

/// Point-in-time durability counters (see CLI `\wal-stats`).
#[derive(Debug, Clone)]
pub struct WalStats {
    /// Last assigned LSN (0 = nothing ever logged).
    pub last_lsn: u64,
    /// LSN covered by the latest durable snapshot.
    pub snapshot_lsn: u64,
    /// Bytes in the live segment (plus any rotated-out segment still on
    /// disk).
    pub log_bytes: u64,
    /// Wall-clock age of the latest durable snapshot, if one exists.
    pub last_checkpoint_age: Option<Duration>,
    pub sync_policy: SyncPolicy,
}

#[derive(Debug)]
struct Appender {
    file: File,
    last_lsn: u64,
    since_sync: u64,
    log_bytes: u64,
}

#[derive(Debug, Default)]
struct CkptState {
    running: Option<JoinHandle<Result<()>>>,
    last_error: Option<WalError>,
}


/// The write-ahead log + checkpoint manager for one directory.
#[derive(Debug)]
pub struct WalStore {
    dir: PathBuf,
    policy: SyncPolicy,
    /// Mutators hold this for reading across log-then-apply; the
    /// checkpointer holds it for writing while pinning. See module docs.
    barrier: RwLock<()>,
    appender: Mutex<Appender>,
    snapshot_lsn: AtomicU64,
    last_ckpt_at: Mutex<Option<SystemTime>>,
    ckpt: Mutex<CkptState>,
}

/// Locks the WAL's own group-commit discipline holds across its fsyncs by
/// design: the appender (fsync is part of the append critical section)
/// and the caller's barrier read side. Any *other* lock held across a WAL
/// fsync is a latency bug the tracking layer flags.
const FSYNC_EXPECTED: &[&str] = &["wal.appender", "wal.barrier"];

impl WalStore {
    /// Open (or create) a durable directory: load the latest valid
    /// snapshot, scan both log segments, tolerate a torn final record
    /// (truncate-and-warn, reported in [`Recovered::warnings`]), reject
    /// mid-log corruption with a typed error, consolidate the survivors
    /// into a single fresh `wal.log`, and return the store positioned for
    /// appending.
    pub fn open(dir: impl AsRef<Path>, opts: WalOptions) -> Result<(Arc<WalStore>, Recovered)> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| WalError::io(format!("create {}", dir.display()), e))?;
        // A leftover snapshot.tmp is an interrupted checkpoint write —
        // never valid, always safe to discard.
        let _ = fs::remove_file(dir.join(SNAPSHOT_TMP));

        let snap_path = dir.join(SNAPSHOT_FILE);
        let mut snapshot_lsn = 0u64;
        let mut sections = Vec::new();
        let mut snap_mtime = None;
        let have_snapshot = snap_path.exists();
        if have_snapshot {
            let (lsn, secs) = read_snapshot(&snap_path)?;
            snapshot_lsn = lsn;
            sections = secs;
            snap_mtime = fs::metadata(&snap_path).ok().and_then(|m| m.modified().ok());
        }

        let mut warnings = Vec::new();
        let mut records: Vec<Record> = Vec::new();
        let mut earliest_base: Option<u64> = None;
        let mut had_prev = false;
        for name in [PREV_FILE, LOG_FILE] {
            let path = dir.join(name);
            if !path.exists() {
                continue;
            }
            if name == PREV_FILE {
                had_prev = true;
            }
            let (base, mut recs) = read_segment(&path, name, &mut warnings)?;
            if let Some(base) = base {
                if earliest_base.is_none() {
                    earliest_base = Some(base);
                }
                recs.retain(|r| r.lsn > snapshot_lsn);
                records.append(&mut recs);
            }
        }

        if let Some(base) = earliest_base {
            if base > snapshot_lsn {
                return Err(if have_snapshot {
                    WalError::LsnGap { expected: snapshot_lsn, found: base }
                } else {
                    WalError::MissingSnapshot { base_lsn: base }
                });
            }
        }
        // The surviving records must continue the snapshot without holes.
        for (expected, r) in (snapshot_lsn + 1..).zip(records.iter()) {
            if r.lsn != expected {
                return Err(WalError::LsnGap { expected, found: r.lsn });
            }
        }
        let last_lsn = records.last().map(|r| r.lsn).unwrap_or(snapshot_lsn);

        // Consolidate into one fresh segment based at the snapshot LSN:
        // post-open invariant is a single wal.log whose records are
        // exactly the replayed tail (torn bytes and wal.prev gone).
        let consolidated = dir.join("wal.new");
        {
            let mut enc = Encoder::with_capacity(
                records.iter().map(|r| r.payload.len() + 17).sum::<usize>() + 16,
            );
            enc_segment_header(&mut enc, snapshot_lsn);
            for r in &records {
                enc_record(&mut enc, r.lsn, r.chan, &r.payload);
            }
            let mut f = File::create(&consolidated)
                .map_err(|e| WalError::io(format!("create {}", consolidated.display()), e))?;
            f.write_all(enc.as_slice())
                .map_err(|e| WalError::io(format!("write {}", consolidated.display()), e))?;
            f.sync_data()
                .map_err(|e| WalError::io(format!("sync {}", consolidated.display()), e))?;
        }
        let log_path = dir.join(LOG_FILE);
        fs::rename(&consolidated, &log_path)
            .map_err(|e| WalError::io(format!("rename to {}", log_path.display()), e))?;
        if had_prev {
            let _ = fs::remove_file(dir.join(PREV_FILE));
        }
        sync_dir(&dir);

        let file = OpenOptions::new()
            .append(true)
            .open(&log_path)
            .map_err(|e| WalError::io(format!("open {} for append", log_path.display()), e))?;
        let log_bytes = fs::metadata(&log_path).map(|m| m.len()).unwrap_or(0);

        let store = Arc::new(WalStore {
            dir,
            policy: opts.sync,
            barrier: RwLock::new_labeled("wal.barrier", ()),
            appender: Mutex::new_labeled(
                "wal.appender",
                Appender { file, last_lsn, since_sync: 0, log_bytes },
            ),
            snapshot_lsn: AtomicU64::new(snapshot_lsn),
            last_ckpt_at: Mutex::new_labeled("wal.ckpt_at", snap_mtime),
            ckpt: Mutex::new_labeled("wal.ckpt", CkptState::default()),
        });
        Ok((store, Recovered { snapshot_lsn, sections, records, warnings }))
    }

    /// The append/checkpoint barrier. Mutators MUST hold the read side
    /// across their whole append-then-apply critical section
    /// ([`crate::RedoLog::guard`] takes it); the checkpointer takes the
    /// write side while pinning.
    pub fn barrier(&self) -> &RwLock<()> {
        &self.barrier
    }

    /// Append one redo record to the OS without fsyncing; returns its
    /// LSN. The caller is expected to hold the [`WalStore::barrier`] read
    /// lock, and to call [`WalStore::sync_policy`] once its own locks are
    /// released — until then the record survives `kill -9` (page cache)
    /// but not power loss.
    pub fn append_nosync(&self, chan: u8, payload: &[u8]) -> Result<u64> {
        if payload.len() as u64 > (MAX_RECORD_LEN - RECORD_OVERHEAD) as u64 {
            return Err(WalError::BadRecord(format!(
                "record payload of {} bytes exceeds the {} byte limit",
                payload.len(),
                MAX_RECORD_LEN - RECORD_OVERHEAD
            )));
        }
        let mut app = self.appender.lock();
        let lsn = app.last_lsn + 1;
        let mut enc = Encoder::with_capacity(payload.len() + 17);
        enc_record(&mut enc, lsn, chan, payload);
        app.file
            .write_all(enc.as_slice())
            .map_err(|e| WalError::io("append to wal.log", e))?;
        app.last_lsn = lsn;
        app.log_bytes += enc.len() as u64;
        app.since_sync += 1;
        Ok(lsn)
    }

    /// Fsync the live segment if (and only if) the sync policy says the
    /// unsynced tail is due. The deferred half of
    /// [`WalStore::append_nosync`]; cheap when nothing is due.
    pub fn sync_policy(&self) -> Result<()> {
        let mut app = self.appender.lock();
        let due = match self.policy {
            SyncPolicy::Always => app.since_sync > 0,
            SyncPolicy::EveryN(n) => app.since_sync >= n,
            SyncPolicy::Off => false,
        };
        if due {
            let _io = tracking::blocking_region_allowing("wal.fsync", FSYNC_EXPECTED);
            app.file.sync_data().map_err(|e| WalError::io("fsync wal.log", e))?;
            app.since_sync = 0;
        }
        Ok(())
    }

    /// Take a checkpoint. Under the barrier write lock this (1) reads the
    /// pin LSN, (2) rotates `wal.log` to `wal.prev` and starts a fresh
    /// segment, and (3) runs `pin` to capture cheap handles on the
    /// in-memory state (generational `Arc` snapshots — `pin` must be
    /// fast). The expensive part — `encode` and the snapshot file write —
    /// runs on a background thread while writers proceed; once the
    /// snapshot is durably renamed, `wal.prev` is deleted, truncating the
    /// log up to the checkpoint LSN. Returns the checkpoint LSN.
    ///
    /// Checkpoints are serialised: a new call first joins the previous
    /// background writer (reporting its error, if any).
    pub fn checkpoint<T, F, G>(self: &Arc<Self>, pin: F, encode: G) -> Result<u64>
    where
        T: Send + 'static,
        F: FnOnce() -> T,
        G: FnOnce(T) -> SnapshotSections + Send + 'static,
    {
        let mut ckpt = self.ckpt.lock();
        if let Some(handle) = ckpt.running.take() {
            join_ckpt(handle, &mut ckpt)?;
        }
        ckpt.last_error = None;

        let lsn;
        let pinned;
        {
            let _barrier = self.barrier.write();
            let mut app = self.appender.lock();
            lsn = app.last_lsn;
            {
                // Rotation does rename/create under the barrier write lock
                // by design — that stall is the checkpoint pin window
                // itself. Scoped so the marker ends before `pin()` runs
                // engine code that takes its own locks.
                let _io = tracking::blocking_region_allowing(
                    "wal.rotate",
                    &["wal.ckpt", "wal.barrier", "wal.appender"],
                );
                let log_path = self.dir.join(LOG_FILE);
                let prev_path = self.dir.join(PREV_FILE);
                fs::rename(&log_path, &prev_path)
                    .map_err(|e| WalError::io("rotate wal.log to wal.prev", e))?;
                let mut enc = Encoder::with_capacity(16);
                enc_segment_header(&mut enc, lsn);
                let mut file = File::create(&log_path)
                    .map_err(|e| WalError::io("create fresh wal.log", e))?;
                file.write_all(enc.as_slice())
                    .map_err(|e| WalError::io("write wal.log header", e))?;
                app.file = file;
                app.since_sync = 0;
                app.log_bytes = SEGMENT_HEADER_LEN;
            }
            drop(app);
            pinned = pin();
        }

        let me = Arc::clone(self);
        let handle = std::thread::spawn(move || -> Result<()> {
            let sections = encode(pinned);
            me.write_snapshot(lsn, &sections)?;
            me.snapshot_lsn.store(lsn, Ordering::Release);
            *me.last_ckpt_at.lock() = Some(SystemTime::now());
            let _ = fs::remove_file(me.dir.join(PREV_FILE));
            sync_dir(&me.dir);
            Ok(())
        });
        ckpt.running = Some(handle);
        Ok(lsn)
    }

    /// Wait for any in-flight background snapshot write and surface its
    /// result.
    pub fn checkpoint_join(&self) -> Result<()> {
        let mut ckpt = self.ckpt.lock();
        if let Some(handle) = ckpt.running.take() {
            join_ckpt(handle, &mut ckpt)?;
        }
        match ckpt.last_error.clone() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn write_snapshot(&self, lsn: u64, sections: &[(u8, Vec<u8>)]) -> Result<()> {
        // Runs on the background checkpoint thread with no locks held; the
        // marker catches any future caller that drags a lock in here.
        let _io = tracking::blocking_region("wal.snapshot_write");
        let mut body = Encoder::with_capacity(
            16 + sections.iter().map(|(_, b)| b.len() + 5).sum::<usize>(),
        );
        body.u64(lsn);
        body.u32(sections.len() as u32);
        for (tag, bytes) in sections {
            body.u8(*tag);
            body.bytes(bytes);
        }
        let crc = crc32(body.as_slice());
        let tmp = self.dir.join(SNAPSHOT_TMP);
        let mut f = File::create(&tmp).map_err(|e| WalError::io("create snapshot.tmp", e))?;
        f.write_all(SNAP_MAGIC).map_err(|e| WalError::io("write snapshot.tmp", e))?;
        f.write_all(body.as_slice()).map_err(|e| WalError::io("write snapshot.tmp", e))?;
        f.write_all(&crc.to_le_bytes()).map_err(|e| WalError::io("write snapshot.tmp", e))?;
        f.sync_all().map_err(|e| WalError::io("sync snapshot.tmp", e))?;
        drop(f);
        fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE))
            .map_err(|e| WalError::io("rename snapshot.tmp to snapshot.bin", e))?;
        sync_dir(&self.dir);
        Ok(())
    }

    /// Current durability counters.
    pub fn stats(&self) -> WalStats {
        let app = self.appender.lock();
        let mut log_bytes = app.log_bytes;
        let last_lsn = app.last_lsn;
        drop(app);
        if let Ok(m) = fs::metadata(self.dir.join(PREV_FILE)) {
            log_bytes += m.len();
        }
        WalStats {
            last_lsn,
            snapshot_lsn: self.snapshot_lsn.load(Ordering::Acquire),
            log_bytes,
            last_checkpoint_age: self
                .last_ckpt_at
                .lock()
                .and_then(|t| SystemTime::now().duration_since(t).ok()),
            sync_policy: self.policy,
        }
    }

    /// The directory this store manages.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

fn join_ckpt(handle: JoinHandle<Result<()>>, ckpt: &mut CkptState) -> Result<()> {
    match handle.join() {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e)) => {
            ckpt.last_error = Some(e.clone());
            Err(e)
        }
        Err(_) => {
            let e = WalError::Io("checkpoint writer thread panicked".into());
            ckpt.last_error = Some(e.clone());
            Err(e)
        }
    }
}

fn enc_segment_header(enc: &mut Encoder, base_lsn: u64) {
    for &b in LOG_MAGIC {
        enc.u8(b);
    }
    enc.u64(base_lsn);
}

fn enc_record(enc: &mut Encoder, lsn: u64, chan: u8, payload: &[u8]) {
    let mut body = Encoder::with_capacity(payload.len() + 9);
    body.u64(lsn);
    body.u8(chan);
    let body = {
        let mut v = body.into_vec();
        v.extend_from_slice(payload);
        v
    };
    enc.u32(body.len() as u32);
    enc.u32(crc32(&body));
    enc.raw(&body);
}

fn sync_dir(dir: &Path) {
    // Make renames/unlinks durable where the platform supports fsync on
    // directories; elsewhere this is a silent no-op.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Parse one segment. Returns `(base_lsn, records)`; a torn tail appends
/// to `warnings` and stops the scan, mid-file corruption is a typed
/// error. `base_lsn` is `None` when even the header is torn (the segment
/// contributes nothing).
fn read_segment(
    path: &Path,
    name: &str,
    warnings: &mut Vec<String>,
) -> Result<(Option<u64>, Vec<Record>)> {
    let bytes = fs::read(path).map_err(|e| WalError::io(format!("read {name}"), e))?;
    if bytes.len() < SEGMENT_HEADER_LEN as usize {
        if !bytes.is_empty() {
            warnings.push(format!("{name}: torn segment header ({} bytes), ignored", bytes.len()));
        }
        return Ok((None, Vec::new()));
    }
    if &bytes[..8] != LOG_MAGIC {
        return Err(WalError::Corrupt {
            segment: name.to_string(),
            offset: 0,
            reason: "bad segment magic".into(),
        });
    }
    let base_lsn = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let mut records = Vec::new();
    let mut off = SEGMENT_HEADER_LEN as usize;
    let mut expected_lsn = base_lsn + 1;
    while off < bytes.len() {
        let remaining = bytes.len() - off;
        if remaining < 8 {
            warnings.push(format!(
                "{name}: torn record framing at byte {off} ({remaining} trailing bytes dropped)"
            ));
            break;
        }
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().expect("4 bytes"));
        if !(RECORD_OVERHEAD..=MAX_RECORD_LEN).contains(&len) {
            return Err(WalError::Corrupt {
                segment: name.to_string(),
                offset: off as u64,
                reason: format!("implausible record length {len}"),
            });
        }
        let body_end = off + 8 + len as usize;
        if body_end > bytes.len() {
            warnings.push(format!(
                "{name}: torn final record at byte {off} ({} of {len} body bytes present, dropped)",
                bytes.len() - off - 8
            ));
            break;
        }
        let body = &bytes[off + 8..body_end];
        if crc32(body) != crc {
            if body_end == bytes.len() {
                // A bad checksum on the very last record is
                // indistinguishable from a torn write: truncate and warn.
                warnings.push(format!(
                    "{name}: checksum mismatch on final record at byte {off}, dropped"
                ));
                break;
            }
            return Err(WalError::Corrupt {
                segment: name.to_string(),
                offset: off as u64,
                reason: "checksum mismatch".into(),
            });
        }
        let mut d = Decoder::new(body);
        let lsn = d.u64().expect("length checked");
        let chan = d.u8().expect("length checked");
        if lsn != expected_lsn {
            return Err(WalError::Corrupt {
                segment: name.to_string(),
                offset: off as u64,
                reason: format!("non-sequential lsn {lsn} (expected {expected_lsn})"),
            });
        }
        expected_lsn += 1;
        records.push(Record { lsn, chan, payload: body[9..].to_vec() });
        off = body_end;
    }
    Ok((Some(base_lsn), records))
}

fn read_snapshot(path: &Path) -> Result<(u64, SnapshotSections)> {
    let bytes =
        fs::read(path).map_err(|e| WalError::CorruptSnapshot(format!("unreadable: {e}")))?;
    if bytes.len() < 24 || &bytes[..8] != SNAP_MAGIC {
        return Err(WalError::CorruptSnapshot("bad magic or truncated header".into()));
    }
    let body = &bytes[8..bytes.len() - 4];
    let stored_crc =
        u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
    if crc32(body) != stored_crc {
        return Err(WalError::CorruptSnapshot("checksum mismatch".into()));
    }
    let mut d = Decoder::new(body);
    let lsn = d.u64().map_err(|e| WalError::CorruptSnapshot(e.to_string()))?;
    let n = d.u32().map_err(|e| WalError::CorruptSnapshot(e.to_string()))?;
    let mut sections = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let tag = d.u8().map_err(|e| WalError::CorruptSnapshot(e.to_string()))?;
        let b = d.bytes().map_err(|e| WalError::CorruptSnapshot(e.to_string()))?;
        sections.push((tag, b.to_vec()));
    }
    d.finish().map_err(|e| WalError::CorruptSnapshot(e.to_string()))?;
    Ok((lsn, sections))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tests write records directly: append-and-sync in one call, and
    /// a forced fsync.
    impl WalStore {
        fn append(&self, chan: u8, payload: &[u8]) -> Result<u64> {
            let lsn = self.append_nosync(chan, payload)?;
            self.sync_policy()?;
            Ok(lsn)
        }

        fn sync(&self) -> Result<()> {
            let mut app = self.appender.lock();
            let _io = tracking::blocking_region_allowing("wal.fsync", FSYNC_EXPECTED);
            app.file.sync_data().map_err(|e| WalError::io("fsync wal.log", e))?;
            app.since_sync = 0;
            Ok(())
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("crosse-wal-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn reopen(dir: &Path) -> (Arc<WalStore>, Recovered) {
        WalStore::open(dir, WalOptions::default()).unwrap()
    }

    #[test]
    fn fresh_dir_appends_and_recovers() {
        let dir = tmp("fresh");
        let (wal, rec) = reopen(&dir);
        assert_eq!(rec.snapshot_lsn, 0);
        assert!(rec.records.is_empty() && rec.sections.is_empty());
        assert_eq!(wal.append(1, b"alpha").unwrap(), 1);
        assert_eq!(wal.append(2, b"beta").unwrap(), 2);
        wal.sync().unwrap();
        drop(wal);

        let (wal, rec) = reopen(&dir);
        assert_eq!(rec.records.len(), 2);
        assert_eq!(rec.records[0], Record { lsn: 1, chan: 1, payload: b"alpha".to_vec() });
        assert_eq!(rec.records[1].chan, 2);
        assert_eq!(wal.stats().last_lsn, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_truncates_log_and_recovery_replays_tail() {
        let dir = tmp("ckpt");
        let (wal, _) = reopen(&dir);
        wal.append(1, b"one").unwrap();
        wal.append(1, b"two").unwrap();
        let lsn = wal
            .checkpoint(|| b"pinned".to_vec(), |p| vec![(1u8, p)])
            .unwrap();
        assert_eq!(lsn, 2);
        wal.checkpoint_join().unwrap();
        wal.append(1, b"three").unwrap();
        wal.sync().unwrap();
        assert!(!dir.join(PREV_FILE).exists(), "prev segment deleted after checkpoint");
        drop(wal);

        let (_, rec) = reopen(&dir);
        assert_eq!(rec.snapshot_lsn, 2);
        assert_eq!(rec.sections, vec![(1u8, b"pinned".to_vec())]);
        assert_eq!(rec.records.len(), 1, "only the post-checkpoint tail replays");
        assert_eq!(rec.records[0].lsn, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_between_rotate_and_snapshot_keeps_both_segments() {
        let dir = tmp("midckpt");
        let (wal, _) = reopen(&dir);
        wal.append(1, b"one").unwrap();
        wal.sync().unwrap();
        drop(wal);
        // Simulate the window after rotation but before the snapshot
        // rename: wal.prev holds the old records, wal.log is fresh.
        fs::rename(dir.join(LOG_FILE), dir.join(PREV_FILE)).unwrap();
        let mut enc = Encoder::new();
        enc_segment_header(&mut enc, 1);
        enc_record(&mut enc, 2, 1, b"two");
        fs::write(dir.join(LOG_FILE), enc.as_slice()).unwrap();

        let (_, rec) = reopen(&dir);
        assert_eq!(rec.snapshot_lsn, 0);
        let payloads: Vec<&[u8]> = rec.records.iter().map(|r| r.payload.as_slice()).collect();
        assert_eq!(payloads, vec![b"one".as_slice(), b"two".as_slice()]);
        assert!(!dir.join(PREV_FILE).exists(), "open consolidates the segments");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_truncates_with_warning() {
        let dir = tmp("torn");
        let (wal, _) = reopen(&dir);
        wal.append(1, b"good").unwrap();
        wal.append(1, b"will-be-torn").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let path = dir.join(LOG_FILE);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();

        let (_, rec) = reopen(&dir);
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.records[0].payload, b"good");
        assert!(!rec.warnings.is_empty(), "torn tail must be reported");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_mid_log_is_typed_corruption() {
        let dir = tmp("flip");
        let (wal, _) = reopen(&dir);
        wal.append(1, b"first-record-payload").unwrap();
        wal.append(1, b"second-record-payload").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let path = dir.join(LOG_FILE);
        let mut bytes = fs::read(&path).unwrap();
        // Flip a payload byte inside the FIRST record (offset: header 16 +
        // frame 8 + lsn 8 + chan 1 + a few payload bytes).
        bytes[16 + 8 + 9 + 3] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        let err = WalStore::open(&dir, WalOptions::default()).unwrap_err();
        assert!(
            matches!(err, WalError::Corrupt { .. }),
            "mid-log corruption must be typed, got {err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_on_final_record_truncates_with_warning() {
        let dir = tmp("flip-tail");
        let (wal, _) = reopen(&dir);
        wal.append(1, b"keep-me").unwrap();
        wal.append(1, b"flip-me").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let path = dir.join(LOG_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 2] ^= 0x01;
        fs::write(&path, &bytes).unwrap();

        let (_, rec) = reopen(&dir);
        assert_eq!(rec.records.len(), 1);
        assert!(rec.warnings.iter().any(|w| w.contains("checksum")), "{:?}", rec.warnings);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_snapshot_with_rebased_log_is_typed_error() {
        let dir = tmp("nosnap");
        let (wal, _) = reopen(&dir);
        wal.append(1, b"a").unwrap();
        wal.checkpoint(|| (), |_| vec![(1u8, b"s".to_vec())]).unwrap();
        wal.checkpoint_join().unwrap();
        wal.append(1, b"b").unwrap();
        wal.sync().unwrap();
        drop(wal);
        fs::remove_file(dir.join(SNAPSHOT_FILE)).unwrap();

        let err = WalStore::open(&dir, WalOptions::default()).unwrap_err();
        assert!(matches!(err, WalError::MissingSnapshot { base_lsn: 1 }), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_is_typed_error() {
        let dir = tmp("badsnap");
        let (wal, _) = reopen(&dir);
        wal.append(1, b"a").unwrap();
        wal.checkpoint(|| (), |_| vec![(1u8, b"section".to_vec())]).unwrap();
        wal.checkpoint_join().unwrap();
        drop(wal);
        let path = dir.join(SNAPSHOT_FILE);
        let mut bytes = fs::read(&path).unwrap();
        bytes[12] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        let err = WalStore::open(&dir, WalOptions::default()).unwrap_err();
        assert!(matches!(err, WalError::CorruptSnapshot(_)), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_snapshot_with_long_tail_recovers() {
        let dir = tmp("stale");
        let (wal, _) = reopen(&dir);
        wal.append(1, b"a").unwrap();
        wal.checkpoint(|| (), |_| vec![(1u8, b"old".to_vec())]).unwrap();
        wal.checkpoint_join().unwrap();
        for i in 0..50 {
            wal.append(1, format!("tail-{i}").as_bytes()).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);

        let (_, rec) = reopen(&dir);
        assert_eq!(rec.snapshot_lsn, 1);
        assert_eq!(rec.sections, vec![(1u8, b"old".to_vec())]);
        assert_eq!(rec.records.len(), 50);
        assert_eq!(rec.records.last().unwrap().lsn, 51);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_policy_parsing() {
        assert_eq!(SyncPolicy::parse("always"), Some(SyncPolicy::Always));
        assert_eq!(SyncPolicy::parse("off"), Some(SyncPolicy::Off));
        assert_eq!(SyncPolicy::parse("every_n:8"), Some(SyncPolicy::EveryN(8)));
        assert_eq!(SyncPolicy::parse("every_n=32"), Some(SyncPolicy::EveryN(32)));
        assert_eq!(SyncPolicy::parse("every_n:0"), None);
        assert_eq!(SyncPolicy::parse("sometimes"), None);
        assert_eq!(SyncPolicy::EveryN(64).to_string(), "every_n:64");
    }

    #[test]
    fn stats_track_lsn_and_bytes() {
        let dir = tmp("stats");
        let (wal, _) = reopen(&dir);
        let s0 = wal.stats();
        assert_eq!(s0.last_lsn, 0);
        wal.append(1, b"x").unwrap();
        let s1 = wal.stats();
        assert_eq!(s1.last_lsn, 1);
        assert!(s1.log_bytes > s0.log_bytes);
        assert!(s1.last_checkpoint_age.is_none());
        wal.checkpoint(|| (), |_| vec![]).unwrap();
        wal.checkpoint_join().unwrap();
        assert!(wal.stats().last_checkpoint_age.is_some());
        assert_eq!(wal.stats().snapshot_lsn, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn writers_proceed_while_checkpoint_encodes() {
        let dir = tmp("concurrent");
        let (wal, _) = reopen(&dir);
        wal.append(1, b"before").unwrap();
        // Encode stage sleeps; appends during it must succeed and land in
        // the fresh segment.
        let lsn = wal
            .checkpoint(
                || (),
                |_| {
                    std::thread::sleep(Duration::from_millis(50));
                    vec![(1u8, b"slow".to_vec())]
                },
            )
            .unwrap();
        assert_eq!(lsn, 1);
        let during = wal.append(1, b"during").unwrap();
        assert_eq!(during, 2);
        wal.checkpoint_join().unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, rec) = reopen(&dir);
        assert_eq!(rec.snapshot_lsn, 1);
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.records[0].payload, b"during");
        let _ = fs::remove_dir_all(&dir);
    }
}
