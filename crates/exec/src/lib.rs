// srclint: allow(R002): each task slot is claimed by exactly one worker index; a double-take is a scheduler bug worth crashing on
//! # crosse-exec
//!
//! A dependency-free scoped worker pool for intra-query parallelism, in
//! the spirit of morsel-driven execution (Leis et al.): callers partition
//! their input into small *morsels*, workers pull morsels from a shared
//! atomic counter (so fast workers steal the tail from slow ones), and the
//! results are merged back **in input order** so parallel operators stay
//! deterministic. Its one user is the relational executor's morsel
//! driver; SPARQL evaluation runs on the caller's thread. The crate also
//! holds the [`CancelToken`] every layer polls.
//!
//! The pool is built on [`std::thread::scope`] — no crates.io
//! dependencies, no unsafe, no global state (its only dep is the
//! workspace's std-backed `parking_lot` shim, for lock-order tracking).
//! Threads are spawned per call, and the calling thread works alongside
//! them, so a call on `n` threads spawns `n − 1`. A spawn costs tens of
//! microseconds, which is why every entry point falls back to the
//! caller's thread for single-threaded pools, single tasks, or when the
//! caller's partitioning produced one chunk. The executor gates the
//! parallel path on input size so small queries never pay the spawn cost.
//!
//! ```
//! use crosse_exec::WorkerPool;
//! let pool = WorkerPool::new(4);
//! let data: Vec<u64> = (0..10_000).collect();
//! let sums = pool.map_chunks(&data, 1024, |_idx, chunk| chunk.iter().sum::<u64>());
//! assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
//! ```

#![forbid(unsafe_code)]

mod cancel;

pub use cancel::{AmbientGuard, CancelToken, Interrupt};

use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A scoped worker pool: a target thread count plus the scheduling logic.
///
/// The pool owns no threads between calls (creation is free); each
/// `map_*` call runs inside one [`std::thread::scope`], so borrowed data
/// (table snapshots, hash tables, probers) can be shared with workers
/// without `'static` bounds or reference counting.
#[derive(Debug, Clone)]
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// A pool that aims for `threads` concurrent workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        WorkerPool { threads: threads.max(1) }
    }

    /// Target worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether this pool would actually run anything concurrently.
    pub fn is_parallel(&self) -> bool {
        self.threads > 1
    }

    /// Run `f(task_index, task)` over every task, returning the results in
    /// task order. Tasks are claimed from a shared counter, so workers
    /// load-balance automatically when task costs are skewed.
    ///
    /// A panicking task aborts the whole call (the scope re-raises the
    /// panic on the caller's thread), matching the single-threaded
    /// behaviour.
    pub fn run_tasks<T, R, F>(&self, tasks: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        if self.threads <= 1 || tasks.len() <= 1 {
            return tasks.into_iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let n = tasks.len();
        let slots: Vec<Mutex<Option<T>>> = tasks
            .into_iter()
            .map(|t| Mutex::new_labeled("exec.task_slot", Some(t)))
            .collect();
        let next = AtomicUsize::new(0);
        let workers = self.threads.min(n);
        let mut merged: Vec<(usize, R)> = Vec::with_capacity(n);
        {
            let collected: Mutex<&mut Vec<(usize, R)>> =
                Mutex::new_labeled("exec.results", &mut merged);
            let work = || {
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let task = slots[i]
                        .lock()
                        .take()
                        .expect("task claimed twice");
                    local.push((i, f(i, task)));
                }
                if !local.is_empty() {
                    collected.lock().append(&mut local);
                }
            };
            std::thread::scope(|scope| {
                for _ in 1..workers {
                    scope.spawn(work);
                }
                work();
            });
        }
        merged.sort_unstable_by_key(|(i, _)| *i);
        merged.into_iter().map(|(_, r)| r).collect()
    }

    /// Partition `items` into chunks of at most `chunk` elements and run
    /// `f(chunk_index, chunk_slice)` over them, order-preserving. The
    /// canonical morsel shape: the caller pins a snapshot, the pool maps
    /// borrowed slices of it.
    pub fn map_chunks<T, R, F>(&self, items: &[T], chunk: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> R + Sync,
    {
        let chunk = chunk.max(1);
        let ranges: Vec<std::ops::Range<usize>> = (0..items.len())
            .step_by(chunk)
            .map(|lo| lo..(lo + chunk).min(items.len()))
            .collect();
        self.run_tasks(ranges, |i, range| f(i, &items[range]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert!(!pool.is_parallel());
    }

    #[test]
    fn run_tasks_preserves_order() {
        let pool = WorkerPool::new(4);
        let tasks: Vec<usize> = (0..100).collect();
        let out = pool.run_tasks(tasks, |i, t| {
            assert_eq!(i, t);
            t * 2
        });
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_chunks_covers_every_element_once() {
        let pool = WorkerPool::new(3);
        let data: Vec<u64> = (0..10_001).collect();
        let touched = AtomicU64::new(0);
        let partials = pool.map_chunks(&data, 512, |_, chunk| {
            touched.fetch_add(chunk.len() as u64, Ordering::Relaxed);
            chunk.iter().sum::<u64>()
        });
        assert_eq!(touched.load(Ordering::Relaxed), data.len() as u64);
        assert_eq!(partials.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn map_chunks_order_preserving_merge() {
        let pool = WorkerPool::new(4);
        let data: Vec<u32> = (0..5_000).collect();
        let chunks = pool.map_chunks(&data, 128, |_, c| c.to_vec());
        let merged: Vec<u32> = chunks.into_iter().flatten().collect();
        assert_eq!(merged, data, "order-preserving merge");
    }

    #[test]
    fn sequential_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        let tid = std::thread::current().id();
        let out = pool.run_tasks(vec![(), ()], |_, ()| std::thread::current().id());
        assert!(out.iter().all(|t| *t == tid), "no spawn for 1 thread");
    }

    #[test]
    fn borrowed_state_shared_across_workers() {
        // The scoped design's point: workers can read caller-borrowed data.
        let pool = WorkerPool::new(4);
        let snapshot: Vec<u64> = (0..4_096).collect();
        let total = AtomicU64::new(0);
        pool.map_chunks(&snapshot, 256, |_, chunk| {
            total.fetch_add(chunk.iter().sum::<u64>(), Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), snapshot.iter().sum::<u64>());
    }

    #[test]
    fn skewed_tasks_still_complete() {
        let pool = WorkerPool::new(4);
        let out = pool.run_tasks((0..32usize).collect(), |_, t| {
            if t == 0 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            t
        });
        assert_eq!(out.len(), 32);
    }
}
