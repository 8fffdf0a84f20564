//! Server counters and latency percentiles (the `\server-stats` surface).
//!
//! Counters are relaxed atomics (monotone, read racily for display);
//! accepted-request latencies go into a bounded ring of recent samples
//! from which p50/p95 are computed on demand. The ring lock is labelled
//! for the lock-order tracker and never held across blocking work.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// Recent-latency window size: big enough for stable percentiles, small
/// enough that a snapshot sort is trivial.
const LATENCY_WINDOW: usize = 1024;

/// Counters shared by every connection of one server.
#[derive(Default)]
pub struct ServerStats {
    /// Connections accepted (including ones later rejected over capacity).
    pub accepted_conns: AtomicU64,
    /// Connections open right now.
    pub active_conns: AtomicU64,
    /// Connections rejected because `max_conns` was reached.
    pub rejected_conns: AtomicU64,
    /// Query/Execute requests admitted for execution.
    pub accepted_queries: AtomicU64,
    /// Queries that completed successfully.
    pub completed: AtomicU64,
    /// Queries shed with `BUSY` by admission control.
    pub shed: AtomicU64,
    /// Queries ending in `Cancelled` (disconnect or shutdown).
    pub cancelled: AtomicU64,
    /// Queries ending in `DeadlineExceeded` (in queue or mid-stream).
    pub deadline_exceeded: AtomicU64,
    /// Queries failing in the engine (parse/plan/eval/...).
    pub query_errors: AtomicU64,
    /// Frames rejected as protocol violations.
    pub protocol_errors: AtomicU64,
    /// Queries stopped by the per-query row budget.
    pub row_budget_hits: AtomicU64,
    latencies: Mutex<VecDeque<u64>>,
}

impl ServerStats {
    pub fn new() -> Self {
        ServerStats {
            latencies: Mutex::new_labeled("server.latency", VecDeque::new()),
            ..Default::default()
        }
    }

    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one accepted request's end-to-end latency (queue + execute
    /// + stream), keeping the most recent `LATENCY_WINDOW` samples.
    pub fn record_latency_us(&self, us: u64) {
        let mut ring = self.latencies.lock();
        if ring.len() == LATENCY_WINDOW {
            ring.pop_front();
        }
        ring.push_back(us);
    }

    /// `(p50, p95)` over the recent window, in microseconds (zeros when
    /// no samples yet).
    pub fn latency_percentiles(&self) -> (u64, u64) {
        let mut sorted: Vec<u64> = self.latencies.lock().iter().copied().collect();
        if sorted.is_empty() {
            return (0, 0);
        }
        sorted.sort_unstable();
        let pick = |p: f64| {
            let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
            sorted[idx.min(sorted.len() - 1)]
        };
        (pick(0.50), pick(0.95))
    }

    /// Render every counter (plus queue depth supplied by the caller) as
    /// ordered key/value pairs for the `STATS` response.
    pub fn snapshot(&self, active_queries: usize, queue_depth: usize) -> Vec<(String, u64)> {
        let (p50, p95) = self.latency_percentiles();
        let c = |a: &AtomicU64| a.load(Ordering::Relaxed);
        vec![
            ("accepted_conns".into(), c(&self.accepted_conns)),
            ("active_conns".into(), c(&self.active_conns)),
            ("rejected_conns".into(), c(&self.rejected_conns)),
            ("accepted_queries".into(), c(&self.accepted_queries)),
            ("completed".into(), c(&self.completed)),
            ("shed".into(), c(&self.shed)),
            ("cancelled".into(), c(&self.cancelled)),
            ("deadline_exceeded".into(), c(&self.deadline_exceeded)),
            ("query_errors".into(), c(&self.query_errors)),
            ("protocol_errors".into(), c(&self.protocol_errors)),
            ("row_budget_hits".into(), c(&self.row_budget_hits)),
            ("active_queries".into(), active_queries as u64),
            ("queue_depth".into(), queue_depth as u64),
            ("p50_us".into(), p50),
            ("p95_us".into(), p95),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_over_known_samples() {
        let s = ServerStats::new();
        for us in 1..=100 {
            s.record_latency_us(us);
        }
        let (p50, p95) = s.latency_percentiles();
        assert!((45..=55).contains(&p50), "p50 = {p50}");
        assert!((90..=100).contains(&p95), "p95 = {p95}");
    }

    #[test]
    fn window_is_bounded() {
        let s = ServerStats::new();
        for us in 0..(LATENCY_WINDOW as u64 + 500) {
            s.record_latency_us(us);
        }
        assert_eq!(s.latencies.lock().len(), LATENCY_WINDOW);
        // Only the most recent window remains.
        let (p50, _) = s.latency_percentiles();
        assert!(p50 >= 500);
    }

    #[test]
    fn snapshot_has_stable_keys() {
        let s = ServerStats::new();
        let snap = s.snapshot(2, 3);
        let keys: Vec<&str> = snap.iter().map(|(k, _)| k.as_str()).collect();
        assert!(keys.contains(&"shed"));
        assert!(keys.contains(&"p95_us"));
        let get = |k: &str| snap.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
        assert_eq!(get("active_queries"), Some(2));
        assert_eq!(get("queue_depth"), Some(3));
    }
}
