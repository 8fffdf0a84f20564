//! Per-layer accounting of a traced run. Everything here is read from
//! outside the engine: returned `PipelineReport`s and `SparqlRun`s, cache
//! and WAL and server statistics, wire replies, and the benchmark's own
//! timings of direct calls. Layers a workload bypasses read 0.

use crosse_core::sqm::{CacheStats, PipelineReport, SesqlEngine};

use crate::stats::median;

/// The four caches with public statistics, in print order. The pairs
/// tables have none of their own: their hits and evictions count into the
/// leg cache's, and `sqm.pairs_hit_ratio` is taken from the `SparqlRun`s.
const CACHES: [&str; 4] = ["leg", "ast", "prepared", "plan"];

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheSnap([(u64, u64, u64); 4]);

impl CacheSnap {
    pub fn take(engine: &SesqlEngine) -> CacheSnap {
        let t = |s: CacheStats| (s.hits, s.misses, s.evictions);
        CacheSnap([
            t(engine.cache_stats()),
            t(engine.ast_cache_stats()),
            t(engine.prepared_cache_stats()),
            t(engine.database().prepare_cache_stats()),
        ])
    }

    pub fn since(&self, before: &CacheSnap) -> CacheSnap {
        let mut out = *self;
        for (now, then) in out.0.iter_mut().zip(before.0) {
            *now = (now.0 - then.0, now.1 - then.1, now.2 - then.2);
        }
        out
    }
}

#[derive(Debug, Default)]
pub struct Layers {
    // core::sqm and the stages it reports (per enrichment query).
    call_ns: u64,
    stage_ns: [u64; 5],
    self_us: Vec<f64>,
    query_us: Vec<f64>,
    sql_leg_us: Vec<f64>,
    final_sql_us: Vec<f64>,
    join_us: Vec<f64>,
    sparql_miss_us: Vec<f64>,
    sparql_runs: u64,
    sparql_cached: u64,
    sparql_shared: u64,
    /// Query latencies of the untraced slice that precedes the traced one.
    pub untraced_query_us: Vec<f64>,
    // Probes.
    pub parse_us: Vec<f64>,
    pub direct_query_us: Vec<f64>,
    pub rdf_direct_us: Vec<f64>,
    pub probed_call_ns: u64,
    pub probed_direct_ns: u64,
    pub rows_scanned: u64,
    pub rows_out: u64,
    // Writes.
    pub assert_us: Vec<f64>,
    pub insert_ns: u64,
    pub insert_rows: u64,
    pub write_us: Vec<f64>,
    pub twin_write_us: Vec<f64>,
    pub user_bytes: u64,
    pub wal_records: u64,
    pub wal_bytes: u64,
    pub wal_checkpoint_s: f64,
    pub wal_recovery_s: f64,
    // Wire.
    wire_us: Vec<f64>,
    server: [u64; 4],
    // Whole-run readings.
    pub caches: CacheSnap,
    pub exec_threads: usize,
    pub scan_speedup: f64,
    pub triples: usize,
    pub spans: usize,
}

const STAGES: [&str; 5] = ["parse", "sql_exec", "sparql_exec", "join", "final_sql"];

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

impl Layers {
    /// The report's stage durations as trace children, in pipeline order.
    pub fn stages(r: &PipelineReport) -> [(&'static str, u64); 5] {
        let ns = |d: std::time::Duration| d.as_nanos() as u64;
        [
            ("sesql.parse", ns(r.parse)),
            ("rel.sql_leg", ns(r.sql_exec)),
            ("rdf.sparql_legs", ns(r.sparql_exec)),
            ("fed.join", ns(r.join)),
            ("rel.final_sql", ns(r.final_sql)),
        ]
    }

    pub fn record_report(&mut self, call_ns: u64, r: &PipelineReport) {
        let stages = Layers::stages(r);
        self.call_ns += call_ns;
        for (sum, (_, ns)) in self.stage_ns.iter_mut().zip(stages) {
            *sum += ns;
        }
        let staged: u64 = stages.iter().map(|s| s.1).sum();
        self.self_us
            .push(call_ns.saturating_sub(staged) as f64 / 1e3);
        self.query_us.push(call_ns as f64 / 1e3);
        self.sql_leg_us.push(stages[1].1 as f64 / 1e3);
        self.final_sql_us.push(stages[4].1 as f64 / 1e3);
        self.join_us.push(stages[3].1 as f64 / 1e3);
        for run in &r.sparql_runs {
            self.sparql_runs += 1;
            self.sparql_cached += u64::from(run.cached);
            self.sparql_shared += u64::from(run.shared);
            if !run.cached {
                self.sparql_miss_us.push(run.duration.as_secs_f64() * 1e6);
            }
        }
    }

    pub fn record_wire(&mut self, call_us: f64, rows_scanned: u64, rows: u64) {
        self.wire_us.push(call_us);
        self.query_us.push(call_us);
        // `u64::MAX` marks a path that does not track scanned rows.
        if rows_scanned != u64::MAX {
            self.rows_scanned += rows_scanned;
            self.rows_out += rows;
        }
    }

    pub fn record_server(&mut self, before: &[(String, u64)], after: &[(String, u64)]) {
        let get = |snap: &[(String, u64)], key: &str| {
            snap.iter().find(|(k, _)| k == key).map_or(0, |(_, v)| *v)
        };
        for (slot, key) in
            self.server
                .iter_mut()
                .zip(["completed", "shed", "query_errors", "protocol_errors"])
        {
            *slot = get(after, key) - get(before, key);
        }
    }

    pub fn merge(&mut self, o: Layers) {
        self.call_ns += o.call_ns;
        for (a, b) in self.stage_ns.iter_mut().zip(o.stage_ns) {
            *a += b;
        }
        for (mine, theirs) in [
            (&mut self.self_us, o.self_us),
            (&mut self.query_us, o.query_us),
            (&mut self.sql_leg_us, o.sql_leg_us),
            (&mut self.final_sql_us, o.final_sql_us),
            (&mut self.join_us, o.join_us),
            (&mut self.sparql_miss_us, o.sparql_miss_us),
            (&mut self.untraced_query_us, o.untraced_query_us),
            (&mut self.parse_us, o.parse_us),
            (&mut self.direct_query_us, o.direct_query_us),
            (&mut self.rdf_direct_us, o.rdf_direct_us),
            (&mut self.assert_us, o.assert_us),
            (&mut self.write_us, o.write_us),
            (&mut self.twin_write_us, o.twin_write_us),
            (&mut self.wire_us, o.wire_us),
        ] {
            mine.extend(theirs);
        }
        self.sparql_runs += o.sparql_runs;
        self.sparql_cached += o.sparql_cached;
        self.sparql_shared += o.sparql_shared;
        self.probed_call_ns += o.probed_call_ns;
        self.probed_direct_ns += o.probed_direct_ns;
        self.rows_scanned += o.rows_scanned;
        self.rows_out += o.rows_out;
        self.insert_ns += o.insert_ns;
        self.insert_rows += o.insert_rows;
    }

    /// Every per-layer metric of `BENCHMARK.json`, in its order.
    pub fn metrics(&self) -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> = Vec::new();
        let mut put = |name: &str, value: f64| out.push((name.to_string(), value));
        let enriched = !self.self_us.is_empty();

        put("sesql.parse_us", median(&self.parse_us));
        put("sesql.ast_hit_ratio", {
            let (hits, misses, _) = self.caches.0[1];
            ratio(hits as f64, (hits + misses) as f64)
        });
        put("sqm.self_us", median(&self.self_us));
        for (stage, ns) in STAGES.iter().zip(self.stage_ns) {
            put(
                &format!("sqm.stage_share.{stage}"),
                ratio(ns as f64, self.call_ns as f64),
            );
        }
        put(
            "sqm.leg_hit_ratio",
            ratio(self.sparql_cached as f64, self.sparql_runs as f64),
        );
        put(
            "sqm.pairs_hit_ratio",
            ratio(self.sparql_shared as f64, self.sparql_runs as f64),
        );
        put(
            "sqm.sparql_evals",
            (self.sparql_runs - self.sparql_cached) as f64,
        );
        // Enriched statement over its plain-SQL baseline, on probed ops.
        put(
            "sqm.enrich_overhead_ratio",
            if enriched {
                ratio(self.probed_call_ns as f64, self.probed_direct_ns as f64)
            } else {
                0.0
            },
        );
        put("rel.sql_leg_us", median(&self.sql_leg_us));
        put("rel.final_sql_us", median(&self.final_sql_us));
        put("rel.direct_query_us", median(&self.direct_query_us));
        put(
            "rel.rows_scanned_per_row_out",
            ratio(self.rows_scanned as f64, self.rows_out as f64),
        );
        put("rel.plan_hit_ratio", {
            let (hits, misses, _) = self.caches.0[3];
            ratio(hits as f64, (hits + misses) as f64)
        });
        put(
            "rel.insert_rows_per_s",
            ratio(self.insert_rows as f64, self.insert_ns as f64 / 1e9),
        );
        put("rdf.sparql_leg_us", median(&self.sparql_miss_us));
        put("rdf.direct_query_us", median(&self.rdf_direct_us));
        put("rdf.assert_us", median(&self.assert_us));
        put("rdf.triples", self.triples as f64);
        put("fed.join_us", median(&self.join_us));
        for (cache, (hits, misses, evictions)) in CACHES.iter().zip(self.caches.0) {
            put(&format!("cache.{cache}.hits"), hits as f64);
            put(&format!("cache.{cache}.misses"), misses as f64);
            put(&format!("cache.{cache}.evictions"), evictions as f64);
        }
        put("exec.threads", self.exec_threads as f64);
        put("exec.scan_speedup", self.scan_speedup);
        put("wal.records", self.wal_records as f64);
        put(
            "wal.bytes_per_user_byte",
            ratio(self.wal_bytes as f64, self.user_bytes as f64),
        );
        put(
            "wal.write_overhead_us",
            if self.twin_write_us.is_empty() {
                0.0
            } else {
                median(&self.write_us) - median(&self.twin_write_us)
            },
        );
        put("wal.checkpoint_s", self.wal_checkpoint_s);
        put("wal.recovery_s", self.wal_recovery_s);
        put(
            "srv.wire_overhead_us",
            if self.wire_us.is_empty() {
                0.0
            } else {
                median(&self.wire_us) - median(&self.direct_query_us)
            },
        );
        for (key, count) in ["completed", "shed", "query_errors", "protocol_errors"]
            .iter()
            .zip(self.server)
        {
            put(&format!("srv.{key}"), count as f64);
        }
        put("trace.spans", self.spans as f64);
        put(
            "trace.overhead_ratio",
            ratio(median(&self.query_us), median(&self.untraced_query_us)),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_cover_the_contract_in_order() {
        let names: Vec<String> = Layers::default()
            .metrics()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let contract: Vec<String> = crate::spec::per_layer()
            .into_iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(names, contract);
    }

    #[test]
    fn cache_deltas_and_server_deltas_subtract() {
        let before = CacheSnap([(1, 2, 0), (0, 0, 0), (5, 5, 1), (0, 0, 0)]);
        let after = CacheSnap([(4, 2, 0), (0, 0, 0), (9, 6, 3), (0, 0, 0)]);
        assert_eq!(after.since(&before).0[0], (3, 0, 0));
        assert_eq!(after.since(&before).0[2], (4, 1, 2));
        let mut l = Layers::default();
        let snap = |done: u64| vec![("completed".to_string(), done), ("shed".to_string(), 0)];
        l.record_server(&snap(10), &snap(25));
        assert_eq!(l.server, [15, 0, 0, 0]);
    }
}
