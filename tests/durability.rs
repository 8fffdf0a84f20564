//! Engine-level durability tests: the fault-injection matrix (torn
//! tails, bit-flipped records, missing/stale snapshots) and the
//! crash-equivalence property — recovery after a crash at any record
//! boundary must reproduce exactly the prefix of the workload that made
//! it to the log.
//!
//! Faults are injected by editing the on-disk WAL directly, using the
//! documented format: a 16-byte segment header (`CROSWAL1` magic +
//! base LSN), then length-prefixed records `[len u32][crc u32][body]`,
//! all little-endian.

use proptest::prelude::*;

use crosse::core::sqm::SesqlEngine;
use crosse::core::Error as CoreError;
use crosse::rdf::provenance::KnowledgeBase;
use crosse::rdf::store::Triple;
use crosse::rdf::term::Term;
use crosse::relational::{Database, Value};
use std::path::{Path, PathBuf};

const WAL_HEADER: usize = 16;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "crosse-durability-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Byte offsets of each record boundary in `wal.log` (the offset *after*
/// each record), by walking the `[len][crc][body]` framing.
fn record_boundaries(dir: &Path) -> Vec<usize> {
    let bytes = std::fs::read(dir.join("wal.log")).unwrap();
    let mut offsets = Vec::new();
    let mut at = WAL_HEADER;
    while at + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        if at + 8 + len > bytes.len() {
            break;
        }
        at += 8 + len;
        offsets.push(at);
    }
    offsets
}

fn truncate_log(dir: &Path, len: usize) {
    let log = dir.join("wal.log");
    let bytes = std::fs::read(&log).unwrap();
    std::fs::write(&log, &bytes[..len.min(bytes.len())]).unwrap();
}

/// Flip one bit inside the record that *ends* at `boundary`.
fn corrupt_record_at(dir: &Path, start: usize) {
    let log = dir.join("wal.log");
    let mut bytes = std::fs::read(&log).unwrap();
    // Flip a bit in the CRC field so the frame length stays plausible.
    bytes[start + 4] ^= 0x40;
    std::fs::write(&log, &bytes).unwrap();
}

fn seeded(dir: &Path) -> SesqlEngine {
    let engine = SesqlEngine::open(dir).unwrap();
    engine
        .database()
        .execute_script(
            "CREATE TABLE t (x INT);
             INSERT INTO t VALUES (1), (2), (3);
             INSERT INTO t VALUES (4);",
        )
        .unwrap();
    engine
}

#[test]
fn truncated_tail_recovers_with_warning() {
    let dir = tmp_dir("torn");
    drop(seeded(&dir));
    let boundaries = record_boundaries(&dir);
    assert!(boundaries.len() >= 3, "workload should log several records");
    // Cut mid-way through the final record.
    truncate_log(&dir, boundaries[boundaries.len() - 1] - 2);
    let engine = SesqlEngine::open(&dir).unwrap();
    assert!(!engine.recovery_warnings().is_empty());
    // The torn record was the second INSERT; the first batch survived.
    let rows = engine.database().query("SELECT COUNT(*) AS n FROM t").unwrap();
    assert_eq!(rows.rows[0][0], Value::Int(3));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flip_in_final_record_is_a_torn_tail() {
    let dir = tmp_dir("flip-final");
    drop(seeded(&dir));
    let boundaries = record_boundaries(&dir);
    let start = boundaries[boundaries.len() - 2];
    corrupt_record_at(&dir, start);
    let engine = SesqlEngine::open(&dir).unwrap();
    assert!(
        !engine.recovery_warnings().is_empty(),
        "a corrupt final record truncates with a warning"
    );
    let rows = engine.database().query("SELECT COUNT(*) AS n FROM t").unwrap();
    assert_eq!(rows.rows[0][0], Value::Int(3));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flip_mid_log_is_a_typed_error() {
    let dir = tmp_dir("flip-mid");
    drop(seeded(&dir));
    let boundaries = record_boundaries(&dir);
    assert!(boundaries.len() >= 3);
    // Corrupt the first record: valid records follow it, so this is not
    // a torn tail and recovery must refuse rather than guess.
    corrupt_record_at(&dir, WAL_HEADER);
    match SesqlEngine::open(&dir) {
        Err(CoreError::Storage(m)) => {
            assert!(m.contains("corrupt"), "unexpected message: {m}")
        }
        Err(e) => panic!("expected a Storage error, got {e:?}"),
        Ok(_) => panic!("mid-log corruption must not open"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_snapshot_is_a_typed_error() {
    let dir = tmp_dir("no-snap");
    {
        let engine = seeded(&dir);
        engine.checkpoint().unwrap();
        engine.checkpoint_join().unwrap();
        engine.database().execute("INSERT INTO t VALUES (5)").unwrap();
    }
    std::fs::remove_file(dir.join("snapshot.bin")).unwrap();
    match SesqlEngine::open(&dir) {
        Err(CoreError::Storage(m)) => {
            assert!(m.contains("snapshot"), "unexpected message: {m}")
        }
        Err(e) => panic!("expected a Storage error, got {e:?}"),
        Ok(_) => panic!("a log with a checkpointed base needs its snapshot"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn foreign_tables_stay_out_of_the_log_and_the_snapshot() {
    let dir = tmp_dir("foreign");
    {
        let engine = seeded(&dir);
        let logged = engine.wal_stats().unwrap().last_lsn;
        let national = Database::new();
        national
            .execute_script("CREATE TABLE landfill (name TEXT); INSERT INTO landfill VALUES ('a');")
            .unwrap();
        let source = crosse::federation::LocalSource::new("it", national);
        engine.database().register_source(std::sync::Arc::new(source)).unwrap();
        let rows = engine.database().query("SELECT COUNT(*) FROM it__landfill").unwrap();
        assert_eq!(rows.rows[0][0], Value::Int(1));
        assert_eq!(engine.wal_stats().unwrap().last_lsn, logged, "registering and reading log nothing");
        engine.checkpoint().unwrap();
        engine.checkpoint_join().unwrap();
    }
    let engine = SesqlEngine::open(&dir).unwrap();
    assert!(engine.recovery_warnings().is_empty(), "{:?}", engine.recovery_warnings());
    assert!(!engine.database().catalog().has_table("it__landfill"), "no snapshot entry");
    let rows = engine.database().query("SELECT COUNT(*) AS n FROM t").unwrap();
    assert_eq!(rows.rows[0][0], Value::Int(4));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_snapshot_with_long_tail_recovers() {
    let dir = tmp_dir("stale");
    {
        let engine = seeded(&dir);
        engine.knowledge_base().register_user("u");
        engine.checkpoint().unwrap();
        engine.checkpoint_join().unwrap();
        // A long post-checkpoint tail on both channels.
        for i in 0..200 {
            engine
                .database()
                .execute(&format!("INSERT INTO t VALUES ({})", 10 + i))
                .unwrap();
            engine
                .knowledge_base()
                .assert_statement(
                    "u",
                    &Triple::new(
                        Term::iri(format!("s{i}")),
                        Term::iri("p"),
                        Term::lit(i.to_string()),
                    ),
                )
                .unwrap();
        }
    }
    let engine = SesqlEngine::open(&dir).unwrap();
    assert!(engine.recovery_warnings().is_empty(), "clean close, clean open");
    let rows = engine.database().query("SELECT COUNT(*) AS n FROM t").unwrap();
    assert_eq!(rows.rows[0][0], Value::Int(204));
    assert_eq!(engine.knowledge_base().statements_by("u").len(), 200);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_snapshot_is_a_typed_error_not_a_panic() {
    let dir = tmp_dir("bad-snap");
    {
        let engine = seeded(&dir);
        engine.checkpoint().unwrap();
        engine.checkpoint_join().unwrap();
    }
    let snap = dir.join("snapshot.bin");
    let mut bytes = std::fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&snap, &bytes).unwrap();
    assert!(
        SesqlEngine::open(&dir).is_err(),
        "a snapshot failing its CRC must be rejected, not half-loaded"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- crash-equivalence property --------------------------------------------

/// One workload operation, applicable to a durable engine and to the
/// in-memory reference alike.
#[derive(Debug, Clone)]
enum Op {
    Insert(i64),
    Delete(i64),
    Assert(u8),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0i64..50).prop_map(Op::Insert),
            (0i64..50).prop_map(Op::Delete),
            any::<u8>().prop_map(|s| Op::Assert(s % 20)),
        ],
        1..24,
    )
}

fn apply(op: &Op, db: &Database, kb: &KnowledgeBase) {
    match op {
        Op::Insert(x) => {
            db.execute(&format!("INSERT INTO t VALUES ({x})")).unwrap();
        }
        Op::Delete(x) => {
            db.execute(&format!("DELETE FROM t WHERE x = {x}")).unwrap();
        }
        Op::Assert(s) => {
            kb.assert_statement(
                "u",
                &Triple::new(
                    Term::iri(format!("s{s}")),
                    Term::iri("observed"),
                    // Distinct object per call so repeated asserts of one
                    // subject are distinct statements.
                    Term::lit(format!("{s}-{}", kb.statements_by("u").len())),
                ),
            )
            .unwrap();
        }
    }
}

/// Observable state of an engine: the table contents plus the per-subject
/// statement counts visible to the user.
fn observe(db: &Database, kb: &KnowledgeBase) -> (Vec<Vec<Value>>, usize, usize) {
    let rows = db.query("SELECT x FROM t ORDER BY x").unwrap().rows;
    let stmts = kb.statements_by("u").len();
    let sols = kb
        .query_as("u", "SELECT ?s ?o WHERE { ?s <observed> ?o }")
        .unwrap()
        .len();
    (rows, stmts, sols)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Run a workload against a durable engine, cut the log at an
    /// arbitrary operation boundary (simulating a crash whose last write
    /// completed there), reopen, and compare against an in-memory
    /// reference that executed exactly the surviving prefix.
    #[test]
    fn crash_at_any_op_boundary_matches_prefix_reference(
        ops in arb_ops(),
        cut_raw in any::<u32>(),
    ) {
        let dir = tmp_dir("prop");
        // Byte length of wal.log after each op: op boundaries are record
        // boundaries, so cutting there is a legal crash point.
        let mut cut_points = Vec::with_capacity(ops.len() + 1);
        {
            let engine = SesqlEngine::open_with(
                &dir,
                crosse::core::WalOptions { sync: crosse::core::SyncPolicy::Off },
            ).unwrap();
            engine.database().execute("CREATE TABLE t (x INT)").unwrap();
            engine.knowledge_base().register_user("u");
            cut_points.push(std::fs::metadata(dir.join("wal.log")).unwrap().len() as usize);
            for op in &ops {
                apply(op, engine.database(), engine.knowledge_base());
                cut_points.push(
                    std::fs::metadata(dir.join("wal.log")).unwrap().len() as usize
                );
            }
        }
        let k = cut_raw as usize % cut_points.len();
        truncate_log(&dir, cut_points[k]);

        // Recover the truncated directory.
        let engine = SesqlEngine::open(&dir).unwrap();

        // Reference: a fresh in-memory engine executing ops[..k].
        let ref_db = Database::new();
        let ref_kb = KnowledgeBase::new();
        ref_db.execute("CREATE TABLE t (x INT)").unwrap();
        ref_kb.register_user("u");
        for op in &ops[..k] {
            apply(op, &ref_db, &ref_kb);
        }

        prop_assert_eq!(
            observe(engine.database(), engine.knowledge_base()),
            observe(&ref_db, &ref_kb)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
