//! The `postgres_fdw` pattern end to end: the databanks of
//! [`crate::source`] registered as foreign tables of a mediator
//! `Database`. The mediator itself is `Database::register_source` plus
//! the planner's `Plan::ForeignScan` leaf (see `crosse_relational::foreign`);
//! the tests below pin what it guarantees — every read is live, filters
//! bound to one foreign table travel to its source, the leaves of one
//! query are fetched concurrently, and a failing or changed source is a
//! typed error.

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use crosse_relational::{DataSource, Database, Error, Params, Result, RowSet, Schema, Value};

    use crate::source::{LatencyModel, LocalSource, RemoteSource};

    fn national_db() -> Database {
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE landfill (name TEXT, city TEXT);
             INSERT INTO landfill VALUES ('Basse di Stura','Torino'), ('Barricalla','Collegno');",
        )
        .unwrap();
        db
    }

    fn eu_db() -> Database {
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE waste_stats (country TEXT, tons FLOAT);
             INSERT INTO waste_stats VALUES ('Italy', 29000.0), ('France', 34000.0);",
        )
        .unwrap();
        db
    }

    /// A mediator over `it` (local) and `eu` (remote), plus handles on the
    /// two sources for their transfer statistics.
    fn fed() -> (Database, LocalSource, RemoteSource) {
        let it = LocalSource::new("it", national_db());
        let eu = RemoteSource::new("eu", eu_db(), LatencyModel::instant());
        let fed = Database::new();
        fed.register_source(Arc::new(it.clone())).unwrap();
        fed.register_source(Arc::new(eu.clone())).unwrap();
        (fed, it, eu)
    }

    fn explain(db: &Database, sql: &str) -> String {
        let rows = db.query(&format!("EXPLAIN {sql}")).unwrap().rows;
        rows.iter().map(|r| r[0].lexical_form()).collect::<Vec<_>>().join("\n")
    }

    #[test]
    fn prepared_federated_query_binds_and_refreshes() {
        let national = national_db();
        let it = LocalSource::new("it", national.clone());
        let fed = Database::new();
        fed.register_source(Arc::new(it.clone())).unwrap();
        let p = fed.prepare("SELECT name FROM it__landfill WHERE city = $city").unwrap();
        let count = fed.prepare("SELECT COUNT(*) FROM it__landfill").unwrap();
        assert_eq!(p.param_slots().len(), 1);
        assert_eq!(it.stats().requests, 0, "planning fetches nothing");
        let torino = Params::new().set("city", "Torino");
        assert_eq!(p.query(&torino).unwrap().len(), 1);
        assert_eq!(count.query(&Params::new()).unwrap().rows[0][0], Value::Int(2));
        // Every execution reads the source, a replayed template included.
        national.execute("INSERT INTO landfill VALUES ('Nuovo','Torino')").unwrap();
        assert_eq!(p.query(&torino).unwrap().len(), 2);
        assert_eq!(count.query(&Params::new()).unwrap().rows[0][0], Value::Int(3));
        // Execute-many with a different binding, same handle.
        assert_eq!(p.query(&Params::new().set("city", "Collegno")).unwrap().len(), 1);
    }

    #[test]
    fn import_creates_prefixed_tables() {
        let (fed, ..) = fed();
        assert_eq!(fed.catalog().table_names(), ["eu__waste_stats", "it__landfill"]);
        let t = fed.catalog().get_table("it__landfill").unwrap();
        assert!(t.foreign().is_some() && t.is_ephemeral());
    }

    #[test]
    fn registration_is_all_or_nothing() {
        // The second of the source's two tables collides with a native
        // table: nothing of the source may stay behind.
        let national = national_db();
        national.execute("CREATE TABLE waste (kind TEXT)").unwrap();
        let fed = Database::new();
        fed.execute("CREATE TABLE it__waste (x INT)").unwrap();
        let err = fed.register_source(Arc::new(LocalSource::new("it", national))).unwrap_err();
        assert!(err.to_string().contains("already exists"), "{err}");
        assert_eq!(fed.catalog().table_names(), ["it__waste"]);
    }

    #[test]
    fn cross_source_join() {
        let (fed, ..) = fed();
        // Pair each Italian landfill with the Italian national total.
        let rs = fed
            .query(
                "SELECT l.name, w.tons FROM it__landfill l, eu__waste_stats w \
                 WHERE w.country = 'Italy'",
            )
            .unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.rows[0][1], Value::Float(29000.0));
    }

    #[test]
    fn live_query_refetches_only_referenced_tables() {
        let (fed, it, eu) = fed();
        fed.query("SELECT * FROM it__landfill").unwrap();
        fed.query("SELECT * FROM it__landfill").unwrap();
        assert_eq!((it.stats().requests, eu.stats().requests), (2, 0));
    }

    #[test]
    fn name_collision_between_sources_errors() {
        let fed = Database::new();
        fed.register_source(Arc::new(LocalSource::new("a", national_db()))).unwrap();
        let err = fed
            .register_source(Arc::new(LocalSource::new("a", national_db())))
            .unwrap_err();
        assert!(err.to_string().contains("already exists"));
    }

    #[test]
    fn pushdown_ships_filter_and_reduces_transfer() {
        let (fed, it, _) = fed();
        let sql = "SELECT name FROM it__landfill WHERE city = 'Torino'";
        let plan = explain(&fed, sql);
        assert!(plan.contains("remote: SELECT * FROM landfill WHERE (city = 'Torino')"), "{plan}");
        assert_eq!(fed.query(sql).unwrap().len(), 1);
        assert_eq!(it.stats().rows_transferred, 1, "only the matching row moved");
    }

    #[test]
    fn pushdown_agrees_with_plain_live_query() {
        // Against local snapshots of the same tables (`CREATE TABLE` +
        // `INSERT … SELECT`), which ship nothing.
        let (fed, ..) = fed();
        fed.execute_script(
            "CREATE TABLE it_copy (name TEXT, city TEXT);
             INSERT INTO it_copy SELECT * FROM it__landfill;
             CREATE TABLE eu_copy (country TEXT, tons FLOAT);
             INSERT INTO eu_copy SELECT * FROM eu__waste_stats;",
        )
        .unwrap();
        for sql in [
            "SELECT name FROM it__landfill WHERE city = 'Torino' ORDER BY name",
            "SELECT l.name, w.tons FROM it__landfill l, eu__waste_stats w \
             WHERE w.country = 'Italy' AND l.city = 'Torino'",
            "SELECT COUNT(*) FROM it__landfill",
            "SELECT w.country FROM eu__waste_stats w WHERE w.tons / 2.0 > 15000.25",
        ] {
            let local = sql.replace("it__landfill", "it_copy").replace("eu__waste_stats", "eu_copy");
            assert_eq!(fed.query(sql).unwrap().rows, fed.query(&local).unwrap().rows, "{sql}");
        }
    }

    #[test]
    fn pushdown_with_alias_strips_qualifier_in_remote_sql() {
        let (fed, ..) = fed();
        let sql = "SELECT l.name FROM it__landfill l WHERE l.city = 'Torino'";
        let plan = explain(&fed, sql);
        assert!(plan.contains("remote: SELECT * FROM landfill WHERE (city = 'Torino')"), "{plan}");
        assert_eq!(fed.query(sql).unwrap().len(), 1);
    }

    #[test]
    fn pushdown_does_not_push_below_left_join_nullable_side() {
        let (fed, _, eu) = fed();
        // `w.country IS NULL OR w.tons > 30000` binds against w alone but
        // sits on the nullable side of the LEFT join — must not be pushed.
        let sql = "SELECT l.name FROM it__landfill l \
                   LEFT JOIN eu__waste_stats w ON l.city = w.country \
                   WHERE w.country IS NULL OR w.tons > 30000";
        let plan = explain(&fed, sql);
        assert!(plan.contains("remote: SELECT * FROM waste_stats)"), "{plan}");
        assert_eq!(fed.query(sql).unwrap().len(), 2, "no city is a country: both rows pad");
        assert_eq!(eu.stats().rows_transferred, 2, "the eu leg fetched its whole table");
    }

    #[test]
    fn pushdown_without_foreign_tables_runs_locally() {
        let (fed, it, eu) = fed();
        fed.execute_script("CREATE TABLE notes (txt TEXT); INSERT INTO notes VALUES ('hi');")
            .unwrap();
        assert_eq!(fed.query("SELECT txt FROM notes").unwrap().len(), 1);
        assert!(!explain(&fed, "SELECT txt FROM notes").contains("ForeignScan"));
        assert_eq!(it.stats().requests + eu.stats().requests, 0);
    }

    #[test]
    fn pushdown_rejects_non_select() {
        // Foreign tables are read-only: writes fail and reach no source.
        let (fed, it, _) = fed();
        for sql in [
            "DELETE FROM it__landfill",
            "DELETE FROM it__landfill WHERE city = 'Torino'",
            "INSERT INTO it__landfill VALUES ('x', 'y')",
            "UPDATE it__landfill SET city = 'x'",
            "CREATE INDEX i ON it__landfill (city)",
        ] {
            let err = fed.execute(sql).unwrap_err();
            assert!(err.to_string().contains("read-only"), "{sql}: {err}");
        }
        assert_eq!(it.stats().requests, 0);
    }

    /// A source that fails every fetch after the first `allowed` — a
    /// databank going offline mid-session.
    struct FlakySource {
        inner: LocalSource,
        allowed: u64,
        seen: AtomicU64,
    }

    impl FlakySource {
        fn new(name: &str, db: Database, allowed: u64) -> Self {
            FlakySource { inner: LocalSource::new(name, db), allowed, seen: AtomicU64::new(0) }
        }
    }

    impl DataSource for FlakySource {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn table_names(&self) -> Vec<String> {
            self.inner.table_names()
        }
        fn table_schema(&self, table: &str) -> Result<Schema> {
            self.inner.table_schema(table)
        }
        fn fetch_query(&self, sql: &str) -> Result<RowSet> {
            if self.seen.fetch_add(1, Ordering::Relaxed) >= self.allowed {
                return Err(Error::eval("source is offline"));
            }
            self.inner.fetch_query(sql)
        }
    }

    #[test]
    fn pushdown_propagates_source_failure_and_cleans_staging() {
        let fed = Database::new();
        fed.register_source(Arc::new(FlakySource::new("it", national_db(), 0))).unwrap();
        let tables = fed.catalog().table_names();
        let err = fed
            .query("SELECT name FROM it__landfill WHERE city = 'Torino'")
            .unwrap_err();
        assert!(err.to_string().contains("offline"), "{err}");
        assert_eq!(fed.catalog().table_names(), tables, "a failed query leaves no table");
    }

    #[test]
    fn parallel_refresh_propagates_failure_from_any_source() {
        // One query reads a healthy and a dead source concurrently.
        let fed = Database::new();
        fed.register_source(Arc::new(LocalSource::new("ok", national_db()))).unwrap();
        fed.register_source(Arc::new(FlakySource::new("bad", eu_db(), 0))).unwrap();
        let err = fed
            .query("SELECT l.name FROM ok__landfill l, bad__waste_stats w")
            .unwrap_err();
        assert!(err.to_string().contains("offline"), "{err}");
        // The healthy source alone still answers.
        assert_eq!(fed.query("SELECT name FROM ok__landfill").unwrap().len(), 2);
    }

    #[test]
    fn live_query_fails_cleanly_when_source_dies_midway() {
        let fed = Database::new();
        fed.register_source(Arc::new(FlakySource::new("it", national_db(), 1))).unwrap();
        // The first query consumes the one allowed fetch...
        assert_eq!(fed.query("SELECT * FROM it__landfill").unwrap().len(), 2);
        // ...the next one hits the dead source: an error, never stale rows.
        let err = fed.query("SELECT COUNT(*) FROM it__landfill").unwrap_err();
        assert!(err.to_string().contains("offline"), "{err}");
    }

    #[test]
    fn parallel_refresh_matches_sequential_and_overlaps_latency() {
        let fed = Database::new();
        for i in 0..4 {
            let db = Database::new();
            db.execute_script(&format!(
                "CREATE TABLE t{i} (x INT); INSERT INTO t{i} VALUES (1), (2);"
            ))
            .unwrap();
            fed.register_source(Arc::new(RemoteSource::new(
                format!("s{i}"),
                db,
                LatencyModel::with_rtt(Duration::from_millis(20)),
            )))
            .unwrap();
        }
        let t0 = Instant::now();
        let rs = fed.query("SELECT COUNT(*) FROM s0__t0, s1__t1, s2__t2, s3__t3").unwrap();
        let one_query = t0.elapsed();
        assert_eq!(rs.rows[0][0], Value::Int(16));
        // 4 sequential RTTs would be ≥80ms; concurrent fetches stay well under.
        assert!(one_query < Duration::from_millis(70), "one query took {one_query:?}");
        let t0 = Instant::now();
        for i in 0..4 {
            fed.query(&format!("SELECT COUNT(*) FROM s{i}__t{i}")).unwrap();
        }
        assert!(t0.elapsed() >= Duration::from_millis(80), "sequential baseline");
    }

    #[test]
    fn remote_table_changing_shape_is_a_typed_error() {
        let national = national_db();
        let fed = Database::new();
        fed.register_source(Arc::new(LocalSource::new("it", national.clone()))).unwrap();
        national
            .execute_script(
                "DROP TABLE landfill;
                 CREATE TABLE landfill (name TEXT, city TEXT, tons FLOAT);
                 INSERT INTO landfill VALUES ('a', 'Torino', 1.0);",
            )
            .unwrap();
        match fed.query("SELECT name FROM it__landfill") {
            Err(Error::Catalog(m)) => assert!(m.contains("no longer matches"), "{m}"),
            other => panic!("expected a catalog error, got {other:?}"),
        }
    }

    #[test]
    fn native_tables_coexist() {
        let (fed, ..) = fed();
        fed.execute("CREATE TABLE notes (txt TEXT)").unwrap();
        fed.execute("INSERT INTO notes VALUES ('hello')").unwrap();
        let rs = fed
            .query("SELECT n.txt, l.name FROM notes n, it__landfill l WHERE l.city = 'Torino'")
            .unwrap();
        assert_eq!(rs.len(), 1);
    }
}
