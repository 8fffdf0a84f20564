//! Simulated databanks behind the integration layer.
//!
//! The SmartGround platform "integrates existing information from national
//! and international databanks" over `postgres_fdw` (paper Sec. I-A). Each
//! databank here is a [`DataSource`] over a [`Database`] of its own:
//! [`LocalSource`] is colocated with the mediator, [`RemoteSource`] adds a
//! configurable latency/transfer cost so the integration layer can be
//! exercised under network conditions without a network. Register either
//! with [`Database::register_source`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crosse_relational::{DataSource, Database, Result, RowSet, Schema};

/// Transfer statistics of a source.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceStats {
    pub requests: u64,
    pub rows_transferred: u64,
    /// Total simulated network time in nanoseconds.
    pub simulated_network_nanos: u64,
}

impl SourceStats {
    pub fn simulated_network(&self) -> Duration {
        Duration::from_nanos(self.simulated_network_nanos)
    }
}

#[derive(Debug, Default)]
struct StatCounters {
    requests: AtomicU64,
    rows: AtomicU64,
    nanos: AtomicU64,
}

impl StatCounters {
    fn snapshot(&self) -> SourceStats {
        SourceStats {
            requests: self.requests.load(Ordering::Relaxed),
            rows_transferred: self.rows.load(Ordering::Relaxed),
            simulated_network_nanos: self.nanos.load(Ordering::Relaxed),
        }
    }
}

/// A source colocated with the mediator: no transfer cost.
#[derive(Clone)]
pub struct LocalSource {
    name: String,
    db: Database,
    stats: Arc<StatCounters>,
}

impl LocalSource {
    pub fn new(name: impl Into<String>, db: Database) -> Self {
        LocalSource { name: name.into(), db, stats: Arc::default() }
    }

    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Cumulative transfer statistics (shared by clones).
    pub fn stats(&self) -> SourceStats {
        self.stats.snapshot()
    }
}

impl DataSource for LocalSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn table_names(&self) -> Vec<String> {
        self.db.catalog().table_names()
    }

    fn table_schema(&self, table: &str) -> Result<Schema> {
        Ok(self.db.catalog().get_table(table)?.schema.clone())
    }

    fn fetch_query(&self, sql: &str) -> Result<RowSet> {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        let rs = self.db.query(sql)?;
        self.stats.rows.fetch_add(rs.len() as u64, Ordering::Relaxed);
        Ok(rs)
    }
}

/// Network cost model for a remote source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Fixed round-trip latency per request.
    pub per_request: Duration,
    /// Marginal transfer cost per row.
    pub per_row: Duration,
    /// When true the cost is actually slept; when false it is only
    /// accounted in [`SourceStats::simulated_network_nanos`] (useful in
    /// unit tests).
    pub realtime: bool,
}

impl LatencyModel {
    pub fn instant() -> Self {
        LatencyModel { per_request: Duration::ZERO, per_row: Duration::ZERO, realtime: false }
    }

    pub fn with_rtt(per_request: Duration) -> Self {
        LatencyModel { per_request, per_row: Duration::ZERO, realtime: true }
    }

    fn cost(&self, rows: usize) -> Duration {
        self.per_request + self.per_row * rows as u32
    }
}

/// A remote databank reached over a (simulated) network link —
/// the `postgres_fdw` peer of the paper's Fig. 1.
#[derive(Clone)]
pub struct RemoteSource {
    name: String,
    db: Database,
    latency: LatencyModel,
    stats: Arc<StatCounters>,
}

impl RemoteSource {
    pub fn new(name: impl Into<String>, db: Database, latency: LatencyModel) -> Self {
        RemoteSource { name: name.into(), db, latency, stats: Arc::default() }
    }

    pub fn database(&self) -> &Database {
        &self.db
    }

    pub fn latency(&self) -> LatencyModel {
        self.latency
    }

    /// Cumulative transfer statistics (shared by clones).
    pub fn stats(&self) -> SourceStats {
        self.stats.snapshot()
    }

    fn charge(&self, rows: usize) {
        let cost = self.latency.cost(rows);
        self.stats
            .nanos
            .fetch_add(cost.as_nanos() as u64, Ordering::Relaxed);
        if self.latency.realtime && !cost.is_zero() {
            std::thread::sleep(cost);
        }
    }
}

impl DataSource for RemoteSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn table_names(&self) -> Vec<String> {
        self.db.catalog().table_names()
    }

    fn table_schema(&self, table: &str) -> Result<Schema> {
        Ok(self.db.catalog().get_table(table)?.schema.clone())
    }

    fn fetch_query(&self, sql: &str) -> Result<RowSet> {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        let rs = self.db.query(sql)?;
        self.stats.rows.fetch_add(rs.len() as u64, Ordering::Relaxed);
        self.charge(rs.len());
        Ok(rs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded_db() -> Database {
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE landfill (name TEXT, city TEXT);
             INSERT INTO landfill VALUES ('a','Torino'), ('b','Milano');",
        )
        .unwrap();
        db
    }

    #[test]
    fn local_source_fetches() {
        let src = LocalSource::new("main", seeded_db());
        let rs = src.fetch_query("SELECT * FROM landfill").unwrap();
        assert_eq!(rs.len(), 2);
        let stats = src.stats();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.rows_transferred, 2);
        assert_eq!(stats.simulated_network_nanos, 0);
    }

    #[test]
    fn remote_source_accounts_latency_without_sleeping() {
        let latency = LatencyModel {
            per_request: Duration::from_millis(10),
            per_row: Duration::from_micros(100),
            realtime: false,
        };
        let src = RemoteSource::new("eu-stats", seeded_db(), latency);
        src.fetch_query("SELECT * FROM landfill").unwrap();
        let stats = src.stats();
        // 10ms + 2 * 100µs
        assert_eq!(stats.simulated_network(), Duration::from_micros(10_200));
    }

    #[test]
    fn remote_realtime_actually_waits() {
        let latency = LatencyModel {
            per_request: Duration::from_millis(5),
            per_row: Duration::ZERO,
            realtime: true,
        };
        let src = RemoteSource::new("r", seeded_db(), latency);
        let t0 = std::time::Instant::now();
        src.fetch_query("SELECT * FROM landfill").unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn unknown_table_is_error() {
        let src = LocalSource::new("main", seeded_db());
        assert!(src.fetch_query("SELECT * FROM nope").is_err());
        assert!(src.table_schema("nope").is_err());
    }

    #[test]
    fn table_listing_and_schema() {
        let src = LocalSource::new("main", seeded_db());
        assert_eq!(src.table_names(), vec!["landfill"]);
        assert_eq!(src.table_schema("landfill").unwrap().len(), 2);
    }

    #[test]
    fn stats_accumulate_across_clones() {
        let src = LocalSource::new("main", seeded_db());
        let src2 = src.clone();
        src.fetch_query("SELECT * FROM landfill").unwrap();
        src2.fetch_query("SELECT * FROM landfill").unwrap();
        assert_eq!(src.stats().requests, 2);
    }
}
