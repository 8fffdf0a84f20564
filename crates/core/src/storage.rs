//! Engine-wide durability: one write-ahead log shared by the relational
//! databank and the RDF knowledge base.
//!
//! The two substrates log redo records on separate channels of a single
//! [`crosse_wal::WalStore`] (`CHAN_REL` for relational DML/DDL, `CHAN_RDF`
//! for triple mutations), so a checkpoint can pin one generation across
//! **both** stores under a single barrier section: no interleaving between
//! the relational pin and the RDF pin, hence no snapshot that reflects a
//! SESQL execution's SQL half but not its annotation half.
//!
//! [`SesqlEngine::open`](crate::sqm::SesqlEngine::open) is the recovery
//! entry point: load the latest valid snapshot (both sections), replay the
//! log tail in LSN order dispatching by channel, attach the redo logs,
//! and rebuild the [`KnowledgeBase`] provenance counters from the
//! recovered meta graph. Engine caches need no explicit flush on recovery:
//! every cache (SPARQL-leg solutions, keyed SCHEMA*/BOOL* legs,
//! REPLACEVARIABLE pairs tables, prepared plans) is version-checked against the recovered stores, and a
//! freshly opened engine starts with empty caches keyed by the recovered
//! KB/catalog versions.

use std::path::Path;
use std::sync::Arc;

use crosse_rdf::persist::{apply_rdf_op, decode_store, encode_store, pin_store};
use crosse_rdf::provenance::KnowledgeBase;
use crosse_rdf::store::TripleStore;
use crosse_relational::storage::snapshot::{decode_catalog, encode_catalog, pin_catalog};
use crosse_relational::storage::wal::apply_rel_op;
use crosse_relational::storage::Catalog;
use crosse_relational::Database;
use crosse_wal::{RedoLog, WalStore, CHAN_RDF, CHAN_REL};

pub use crosse_wal::{SyncPolicy, WalOptions, WalStats};

use crate::error::{Error, Result};
use crate::sqm::SesqlEngine;

/// A durable engine's hold on its data directory: the shared log, and
/// the two stores a checkpoint pins in one barrier section into a
/// two-section snapshot.
pub(crate) struct EngineDurability {
    wal: Arc<WalStore>,
    catalog: Catalog,
    store: TripleStore,
    warnings: Vec<String>,
}

impl EngineDurability {
    /// Take a checkpoint; returns the pinned LSN. Blocks only for the pin
    /// phase — the snapshot is encoded and written on a background thread
    /// (join with [`EngineDurability::checkpoint_join`]).
    pub fn checkpoint(&self) -> Result<u64> {
        let catalog = self.catalog.clone();
        let store = self.store.clone();
        // The pin closure runs under the WAL barrier write lock: both
        // stores are frozen at the same LSN. Encoding runs off-thread.
        Ok(self.wal.checkpoint(
            move || (pin_catalog(&catalog), pin_store(&store)),
            |(cat, rdf)| vec![(CHAN_REL, encode_catalog(&cat)), (CHAN_RDF, encode_store(&rdf))],
        )?)
    }

    /// Wait for any in-flight checkpoint and surface its error, if any.
    pub fn checkpoint_join(&self) -> Result<()> {
        Ok(self.wal.checkpoint_join()?)
    }

    pub fn wal_stats(&self) -> WalStats {
        self.wal.stats()
    }

    /// Non-fatal recovery notes from open (e.g. a torn final record that
    /// was truncated).
    pub fn recovery_warnings(&self) -> &[String] {
        &self.warnings
    }
}

/// Open (or create) a durable engine at `dir`: recover both stores from
/// the latest snapshot + log tail, attach the redo logs, and rebuild the
/// knowledge base's provenance state. See
/// [`SesqlEngine::open`](crate::sqm::SesqlEngine::open) for the public
/// face.
pub fn open_engine(dir: impl AsRef<Path>, opts: WalOptions) -> Result<SesqlEngine> {
    let (wal, recovered) = WalStore::open(dir, opts)?;
    let db = Database::new();
    let store = TripleStore::new();

    // 1. Restore the checkpoint snapshot, one section per substrate.
    for (tag, bytes) in &recovered.sections {
        match *tag {
            CHAN_REL => decode_catalog(db.catalog(), bytes, db.interner())?,
            CHAN_RDF => decode_store(&store, bytes)?,
            other => {
                return Err(Error::storage(format!(
                    "snapshot carries unknown section tag {other}"
                )))
            }
        }
    }

    // 2. Replay the log tail in LSN order, dispatching by channel. No
    //    log is attached yet, so replay never re-logs.
    for rec in &recovered.records {
        match rec.chan {
            CHAN_REL => apply_rel_op(db.catalog(), &rec.payload, db.interner())?,
            CHAN_RDF => apply_rdf_op(&store, &rec.payload)?,
            other => {
                return Err(Error::storage(format!(
                    "log record {} carries unknown channel {other}",
                    rec.lsn
                )))
            }
        }
    }

    // 3. Start logging on both channels, sharing one barrier and one log.
    db.catalog().attach_sink(RedoLog::new(Arc::clone(&wal), CHAN_REL));
    store.attach_sink(RedoLog::new(Arc::clone(&wal), CHAN_RDF));
    let durability = EngineDurability {
        wal,
        catalog: db.catalog().clone(),
        store: store.clone(),
        warnings: recovered.warnings,
    };

    // 4. Rebuild provenance state (next statement id) from the recovered
    //    meta graph. On a fresh directory this also creates the meta and
    //    common graphs — through the log, so they are durable too.
    let kb = KnowledgeBase::from_store(store)?;
    Ok(SesqlEngine::new(db, kb).with_durability(durability))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crosse_rdf::store::Triple;
    use crosse_rdf::term::Term;
    use std::path::PathBuf;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "crosse-core-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn open(dir: &Path) -> SesqlEngine {
        SesqlEngine::open(dir).unwrap()
    }

    #[test]
    fn both_substrates_survive_reopen() {
        let dir = tmp_dir("both");
        {
            let engine = open(&dir);
            engine
                .database()
                .execute_script(
                    "CREATE TABLE elem (name TEXT, amount FLOAT);
                     INSERT INTO elem VALUES ('Hg', 12.5), ('Pb', 30.0);",
                )
                .unwrap();
            engine.knowledge_base().register_user("director").unwrap();
            engine
                .knowledge_base()
                .assert_statement(
                    "director",
                    &Triple::new(
                        Term::iri("Hg"),
                        Term::iri("dangerLevel"),
                        Term::lit("5"),
                    ),
                )
                .unwrap();
        }
        let engine = open(&dir);
        let rows = engine.database().query("SELECT COUNT(*) AS n FROM elem").unwrap();
        assert_eq!(rows.rows[0][0], crosse_relational::Value::Int(2));
        assert!(engine.knowledge_base().is_registered("director"));
        let sols = engine
            .knowledge_base()
            .query_as("director", "SELECT ?o WHERE { <Hg> <dangerLevel> ?o }")
            .unwrap();
        assert_eq!(sols.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_covers_both_channels_and_statement_ids_resume() {
        let dir = tmp_dir("ckpt");
        let first_id;
        {
            let engine = open(&dir);
            engine
                .database()
                .execute_script("CREATE TABLE t (x INT); INSERT INTO t VALUES (1);")
                .unwrap();
            engine.knowledge_base().register_user("u").unwrap();
            first_id = engine
                .knowledge_base()
                .assert_statement(
                    "u",
                    &Triple::new(Term::iri("a"), Term::iri("p"), Term::lit("1")),
                )
                .unwrap();
            let lsn = engine.checkpoint().unwrap();
            engine.checkpoint_join().unwrap();
            assert!(lsn > 0);
            // Post-checkpoint tail on both channels.
            engine.database().execute("INSERT INTO t VALUES (2)").unwrap();
            engine
                .knowledge_base()
                .assert_statement(
                    "u",
                    &Triple::new(Term::iri("b"), Term::iri("p"), Term::lit("2")),
                )
                .unwrap();
            let stats = engine.wal_stats().unwrap();
            assert!(stats.snapshot_lsn > 0, "{stats:?}");
            assert!(stats.last_lsn > stats.snapshot_lsn, "{stats:?}");
        }
        let engine = open(&dir);
        let rows = engine.database().query("SELECT COUNT(*) AS n FROM t").unwrap();
        assert_eq!(rows.rows[0][0], crosse_relational::Value::Int(2));
        assert_eq!(engine.knowledge_base().statements_by("u").len(), 2);
        // Fresh statements must not collide with recovered ids.
        let next = engine
            .knowledge_base()
            .assert_statement(
                "u",
                &Triple::new(Term::iri("c"), Term::iri("p"), Term::lit("3")),
            )
            .unwrap();
        assert!(next.0 > first_id.0, "recovered counter resumed too low");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pairs_tables_are_not_persisted() {
        let dir = tmp_dir("pairs");
        {
            let engine = open(&dir);
            engine
                .database()
                .execute_script(
                    "CREATE TABLE elem_contained (elem_name TEXT, amount FLOAT);
                     INSERT INTO elem_contained VALUES ('Hg', 12.5), ('Cu', 3.0);",
                )
                .unwrap();
            engine.knowledge_base().register_user("director").unwrap();
            engine
                .knowledge_base()
                .assert_statement(
                    "director",
                    &Triple::new(
                        Term::iri("Hg"),
                        Term::iri("oreAssemblage"),
                        Term::iri("Cu"),
                    ),
                )
                .unwrap();
            let before = engine.database().catalog().table_names();
            let r = engine
                .execute(
                    "director",
                    "SELECT elem_name, amount FROM elem_contained \
                     WHERE ${elem_name = 'Hg':c1} \
                     ENRICH REPLACEVARIABLE(c1, elem_name, oreAssemblage)",
                )
                .unwrap();
            assert_eq!(r.rows.len(), 2, "expansion matches Hg and Cu");
            assert_eq!(engine.database().catalog().table_names(), before);
        }
        let engine = open(&dir);
        let names = engine.database().catalog().table_names();
        assert_eq!(names, ["elem_contained"], "a pairs table leaked into the WAL");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_memory_engine_rejects_checkpoint_with_typed_error() {
        let engine = SesqlEngine::new(Database::new(), KnowledgeBase::new());
        assert!(!engine.is_durable());
        let err = engine.checkpoint().unwrap_err();
        assert!(matches!(err, Error::Storage(_)), "{err:?}");
        assert!(engine.wal_stats().is_none());
        assert!(engine.recovery_warnings().is_empty());
    }

    #[test]
    fn recovery_warnings_surface_torn_tail() {
        let dir = tmp_dir("torn");
        {
            let engine = open(&dir);
            engine
                .database()
                .execute_script("CREATE TABLE t (x INT); INSERT INTO t VALUES (1);")
                .unwrap();
        }
        // Tear the final record: chop bytes off the end of the log.
        let log = dir.join("wal.log");
        let bytes = std::fs::read(&log).unwrap();
        std::fs::write(&log, &bytes[..bytes.len() - 3]).unwrap();
        let engine = open(&dir);
        assert!(
            !engine.recovery_warnings().is_empty(),
            "torn tail should produce a recovery warning"
        );
        // The engine is usable and the table survived (only the torn
        // record was dropped).
        assert!(engine.database().catalog().has_table("t"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
