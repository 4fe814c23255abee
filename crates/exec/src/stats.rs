//! Executor observability: deque operation counters and per-worker
//! busy/idle span accounting.
//!
//! A [`DequeStats`] block is shared by a [`Worker`](crate::Worker) and
//! its [`Stealer`](crate::Stealer)s (attach it with
//! [`Worker::with_stats`](crate::Worker::with_stats)); every push,
//! pop and steal outcome bumps a relaxed counter, and the worker-side
//! push path tracks a high-water queue-depth gauge. The counters live
//! on the *typed* deque layer, so the raw algorithm the loom suite
//! model-checks is unchanged.
//!
//! [`DequeStats::publish`] folds the block into a
//! [`Telemetry`] handle under the
//! `exec.*` counter names (depth as a max-merge so concurrent workers
//! keep the true high-water mark) and emits one `exec` trace event so
//! the flight recorder and trace stream see the totals too.
//!
//! A [`WorkerObserver`] accounts each worker thread's time into
//! `exec.busy_ns` / `exec.idle_ns` histograms through thread-local
//! [`LocalRecorder`]s, which merge into the shared telemetry on drop —
//! no cross-thread traffic per task, one merge per worker lifetime.

use std::time::{Duration, Instant};

use cirlearn_telemetry::json::Json;
use cirlearn_telemetry::{counters, histograms, LocalRecorder, Telemetry};

use crate::sync::atomic::{AtomicU64, Ordering};

/// Shared operation counters for one deque (see the
/// [module docs](self)).
#[derive(Debug, Default)]
pub struct DequeStats {
    pushes: AtomicU64,
    pops: AtomicU64,
    steals: AtomicU64,
    steal_empty: AtomicU64,
    steal_retry: AtomicU64,
    depth_max: AtomicU64,
}

impl DequeStats {
    /// A fresh, zeroed stats block.
    pub fn new() -> DequeStats {
        DequeStats::default()
    }

    pub(crate) fn on_push(&self, depth_after: u64) {
        // relaxed-ok: monotonic event counters read only after the
        // threads that bump them are joined (publish) or by
        // monitoring code that tolerates slightly stale totals.
        self.pushes.fetch_add(1, Ordering::Relaxed);
        // relaxed-ok: high-water gauge; same staleness tolerance.
        self.depth_max.fetch_max(depth_after, Ordering::Relaxed);
    }

    pub(crate) fn on_pop(&self) {
        // relaxed-ok: monotonic event counter (see `on_push`).
        self.pops.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_steal(&self) {
        // relaxed-ok: monotonic event counter (see `on_push`).
        self.steals.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_steal_empty(&self) {
        // relaxed-ok: monotonic event counter (see `on_push`).
        self.steal_empty.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_steal_retry(&self) {
        // relaxed-ok: monotonic event counter (see `on_push`).
        self.steal_retry.fetch_add(1, Ordering::Relaxed);
    }

    /// Items pushed by the worker.
    pub fn pushes(&self) -> u64 {
        self.pushes.load(Ordering::Relaxed)
    }

    /// Items the worker popped back (LIFO hits).
    pub fn pops(&self) -> u64 {
        self.pops.load(Ordering::Relaxed)
    }

    /// Successful steals.
    pub fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Steal attempts that observed an empty deque.
    pub fn steal_empty(&self) -> u64 {
        self.steal_empty.load(Ordering::Relaxed)
    }

    /// Steal attempts that lost a race and should retry.
    pub fn steal_retry(&self) -> u64 {
        self.steal_retry.load(Ordering::Relaxed)
    }

    /// The deepest the queue has been right after a push.
    pub fn depth_max(&self) -> u64 {
        self.depth_max.load(Ordering::Relaxed)
    }

    /// Folds this block into `telemetry`'s `exec.*` counters (sums,
    /// except the depth gauge which max-merges) and emits one `exec`
    /// trace/flight event carrying the totals.
    pub fn publish(&self, telemetry: &Telemetry) {
        let (pushes, pops) = (self.pushes(), self.pops());
        let (steals, empty, retry) = (self.steals(), self.steal_empty(), self.steal_retry());
        let depth = self.depth_max();
        telemetry.add(counters::EXEC_PUSHES, pushes);
        telemetry.add(counters::EXEC_POPS, pops);
        telemetry.add(counters::EXEC_STEALS, steals);
        telemetry.add(counters::EXEC_STEAL_EMPTY, empty);
        telemetry.add(counters::EXEC_STEAL_RETRY, retry);
        telemetry.set_counter_max(counters::EXEC_DEPTH_MAX, depth);
        telemetry.trace(
            "exec",
            &[
                ("pushes", Json::from(pushes)),
                ("pops", Json::from(pops)),
                ("steals", Json::from(steals)),
                ("steal_empty", Json::from(empty)),
                ("steal_retry", Json::from(retry)),
                ("depth_max", Json::from(depth)),
            ],
        );
    }
}

/// Per-worker busy/idle time accounting (see the [module docs](self)).
///
/// One observer lives on each worker thread. Call [`busy`](Self::busy)
/// when the worker picks up a task and [`idle`](Self::idle) when it
/// starts waiting for work; each call closes the previous span into
/// the matching histogram. Dropping the observer closes the open span
/// and merges both recorders into the shared telemetry.
#[derive(Debug)]
pub struct WorkerObserver {
    busy_ns: LocalRecorder,
    idle_ns: LocalRecorder,
    since: Instant,
    is_busy: bool,
}

impl WorkerObserver {
    /// Registers one worker with `telemetry` (bumps `exec.workers`)
    /// and starts accounting, initially idle.
    pub fn new(telemetry: &Telemetry) -> WorkerObserver {
        telemetry.incr(counters::EXEC_WORKERS);
        WorkerObserver {
            busy_ns: telemetry.local_recorder(histograms::EXEC_BUSY_NS),
            idle_ns: telemetry.local_recorder(histograms::EXEC_IDLE_NS),
            since: Instant::now(),
            is_busy: false,
        }
    }

    /// A no-op observer for workers running without telemetry.
    pub fn disabled() -> WorkerObserver {
        WorkerObserver {
            busy_ns: LocalRecorder::disabled(),
            idle_ns: LocalRecorder::disabled(),
            since: Instant::now(),
            is_busy: false,
        }
    }

    fn close_span(&mut self) -> Duration {
        let elapsed = self.since.elapsed();
        let recorder = if self.is_busy {
            &self.busy_ns
        } else {
            &self.idle_ns
        };
        recorder.record_duration(elapsed);
        self.since = Instant::now();
        elapsed
    }

    /// The worker picked up a task: closes the current idle span.
    pub fn busy(&mut self) {
        if !self.is_busy {
            self.close_span();
            self.is_busy = true;
        }
    }

    /// The worker ran out of local work: closes the current busy span.
    pub fn idle(&mut self) {
        if self.is_busy {
            self.close_span();
            self.is_busy = false;
        }
    }
}

impl Drop for WorkerObserver {
    fn drop(&mut self) {
        self.close_span();
        // The LocalRecorders merge into the shared histograms as they
        // drop right after this.
    }
}

#[cfg(all(test, not(any(loom, race))))]
mod tests {
    use super::*;
    use crate::sync::Arc;
    use crate::Worker;

    #[test]
    fn counters_track_push_pop_and_steal_outcomes() {
        let stats = Arc::new(DequeStats::new());
        let w: Worker<u64> = Worker::with_stats(8, Arc::clone(&stats));
        let s = w.stealer();
        for v in 0..4 {
            w.push(v).unwrap();
        }
        assert_eq!(w.pop(), Some(3));
        assert_eq!(s.steal().success(), Some(0));
        assert_eq!(stats.pushes(), 4);
        assert_eq!(stats.pops(), 1);
        assert_eq!(stats.steals(), 1);
        assert_eq!(stats.depth_max(), 4, "high-water mark after pushes");
        while s.steal().success().is_some() {}
        assert!(stats.steal_empty() >= 1, "final steal saw it empty");
    }

    #[test]
    fn publish_folds_into_telemetry_counters() {
        let stats = DequeStats::new();
        stats.on_push(3);
        stats.on_push(7);
        stats.on_pop();
        stats.on_steal();
        stats.on_steal_empty();
        stats.on_steal_retry();
        let t = Telemetry::recording();
        stats.publish(&t);
        assert_eq!(t.counter(counters::EXEC_PUSHES), 2);
        assert_eq!(t.counter(counters::EXEC_POPS), 1);
        assert_eq!(t.counter(counters::EXEC_STEALS), 1);
        assert_eq!(t.counter(counters::EXEC_STEAL_EMPTY), 1);
        assert_eq!(t.counter(counters::EXEC_STEAL_RETRY), 1);
        assert_eq!(t.counter(counters::EXEC_DEPTH_MAX), 7);
    }

    #[test]
    fn publish_depth_is_a_max_merge_across_deques() {
        let t = Telemetry::recording();
        let a = DequeStats::new();
        a.on_push(9);
        let b = DequeStats::new();
        b.on_push(4);
        a.publish(&t);
        b.publish(&t);
        assert_eq!(
            t.counter(counters::EXEC_DEPTH_MAX),
            9,
            "the shallower deque must not clobber the high-water mark"
        );
    }

    #[test]
    fn observer_accounts_busy_and_idle_time_into_histograms() {
        let t = Telemetry::recording();
        {
            let mut obs = WorkerObserver::new(&t);
            obs.busy();
            std::thread::sleep(Duration::from_millis(1));
            obs.idle();
            obs.busy(); // second busy span, closed by drop
        }
        assert_eq!(t.counter(counters::EXEC_WORKERS), 1);
        let report = t.report();
        let busy = report
            .histograms
            .get(histograms::EXEC_BUSY_NS)
            .expect("busy histogram merged on drop");
        assert_eq!(busy.count, 2);
        assert!(busy.max >= 1_000_000, "slept at least 1ms");
        assert_eq!(
            report
                .histograms
                .get(histograms::EXEC_IDLE_NS)
                .expect("idle histogram merged on drop")
                .count,
            2,
            "the startup idle span plus the explicit one"
        );
    }

    #[test]
    fn disabled_observer_records_nothing() {
        let mut obs = WorkerObserver::disabled();
        obs.busy();
        obs.idle();
    }
}
