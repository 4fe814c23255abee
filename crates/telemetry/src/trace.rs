//! A structured JSONL trace-event stream.
//!
//! A [`TraceWriter`] emits one JSON object per line so a run can be
//! replayed, diffed or converted to a flamegraph offline. Every line
//! carries:
//!
//! - `t_us` — microseconds since the trace started, taken from a
//!   monotonic clock (never wall time, so lines are ordered per
//!   thread even across clock adjustments),
//! - `kind` — the event kind (see below),
//! - `stage` — the `/`-joined span path active when the event fired
//!   (`""` at top level),
//! - `tid` — a small stable per-thread id (0 for the first thread that
//!   ever traced, 1 for the next, ...), so multi-threaded streams can
//!   be demultiplexed; within one `tid` timestamps are monotone.
//!
//! Kinds emitted by the pipeline:
//!
//! | kind         | extra fields                                             |
//! |--------------|----------------------------------------------------------|
//! | `span_open`  | `id`, `name`                                             |
//! | `span_close` | `id`, `name`, `elapsed_us`                               |
//! | `node`       | `output`, `depth`, `queries`, `elapsed_us`, `kind2`      |
//! | `pass`       | `pass`, `round`, `gates_before`, `gates_after`, ...      |
//! | `checkpoint` | `label`, `at_us`, `remaining_us`                         |
//! | `event`      | `level`, `message`                                       |
//! | `metrics`    | `queries`, `queries_per_s`, `aig_nodes`, `peak_rss_kb`   |
//! | `attr`       | `output`, `queries`, `query_ns`, `gates`                 |
//!
//! `span_open`/`span_close` lines are balanced: the telemetry layer
//! emits a close for every open, including spans force-closed by an
//! out-of-order guard drop, so offline consumers can rebuild the stage
//! tree with a simple per-`tid` stack.
//!
//! Unlike [`Reporter`](crate::Reporter) events, the trace stream is
//! not level-filtered: it records everything, because it exists for
//! offline analysis rather than live reading.

use std::io::Write;
use std::time::Instant;

use crate::json::Json;
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Arc, Mutex};

/// Global allocator of small per-thread trace ids.
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // relaxed-ok: allocates a unique id; nothing is published through it.
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// The calling thread's stable trace id: a small integer assigned on
/// first use, dense across the threads that ever emitted an event.
pub fn current_tid() -> u64 {
    TID.with(|t| *t)
}

struct TraceInner {
    out: Box<dyn Write + Send>,
    lines: u64,
    /// First write error, if any; reported once instead of spamming.
    failed: bool,
}

impl TraceInner {
    /// Writes one pre-formatted `\n`-terminated line to the sink,
    /// updating the line count and the sticky failure flag.
    fn write_line(&mut self, line: &str) -> bool {
        if self.out.write_all(line.as_bytes()).is_err() {
            if !self.failed {
                // blocking-ok: one-shot failure notice on a sticky
                // error path, never repeated.
                eprintln!("cirlearn: trace stream write failed; further events dropped");
            }
            self.failed = true;
            return false;
        }
        self.lines += 1;
        true
    }
}

struct TraceShared {
    start: Instant,
    inner: Mutex<TraceInner>,
}

/// Formats one event line (without writing it anywhere).
pub(crate) fn format_line(
    t_us: u64,
    tid: u64,
    kind: &str,
    stage: &str,
    fields: &[(&'static str, Json)],
) -> String {
    let mut pairs = Vec::with_capacity(4 + fields.len());
    pairs.push(("t_us".to_owned(), Json::from(t_us)));
    pairs.push(("kind".to_owned(), Json::from(kind)));
    pairs.push(("stage".to_owned(), Json::from(stage)));
    pairs.push(("tid".to_owned(), Json::from(tid)));
    for (k, v) in fields {
        pairs.push(((*k).to_owned(), v.clone()));
    }
    let mut line = Json::Object(pairs).to_compact();
    line.push('\n');
    line
}

/// A shared, clonable handle writing trace events as JSON lines.
///
/// High-rate events (FBDT `node` lines, `pass` lines, `metrics`
/// snapshots) stay in the sink's buffer; structural events — span
/// open/close, faults, checkpoints — flush it, as does
/// [`TraceWriter::flush`]. File streams wrap a `BufWriter`, so the hot
/// path costs a formatted line and a memcpy instead of a syscall per
/// event, while a crashed run (panic, which unwinds into the flushing
/// drop guards) still keeps everything emitted before the crash and
/// loses at most the node lines since the last structural event on an
/// outright abort.
///
/// # Examples
///
/// ```
/// use cirlearn_telemetry::{Level, Telemetry, TraceWriter};
///
/// let (trace, sink) = TraceWriter::to_shared_buffer();
/// let telemetry = Telemetry::recording();
/// telemetry.set_trace(trace);
/// {
///     let _span = telemetry.span("support");
///     telemetry.event(Level::Info, "probing");
/// }
/// let text = sink.take_string();
/// let kinds: Vec<&str> = text
///     .lines()
///     .map(|l| if l.contains("span_open") { "open" } else { "other" })
///     .collect();
/// assert_eq!(kinds.len(), 3); // open, event, close
/// ```
#[derive(Clone)]
pub struct TraceWriter {
    shared: Arc<TraceShared>,
}

impl std::fmt::Debug for TraceWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TraceWriter")
    }
}

impl TraceWriter {
    /// A trace stream over any writer. The monotonic clock starts now.
    pub fn to_writer(out: Box<dyn Write + Send>) -> TraceWriter {
        TraceWriter {
            shared: Arc::new(TraceShared {
                start: Instant::now(),
                inner: Mutex::new(TraceInner {
                    out,
                    lines: 0,
                    failed: false,
                }),
            }),
        }
    }

    /// A trace stream writing to (truncating) the file at `path`,
    /// buffered between structural events.
    pub fn to_file(path: &std::path::Path) -> std::io::Result<TraceWriter> {
        let file = std::fs::File::create(path)?;
        Ok(TraceWriter::to_writer(Box::new(std::io::BufWriter::new(
            file,
        ))))
    }

    /// A trace stream into an in-memory buffer, plus a handle to read
    /// it back — for tests.
    pub fn to_shared_buffer() -> (TraceWriter, SharedBuffer) {
        let buffer = SharedBuffer::default();
        (TraceWriter::to_writer(Box::new(buffer.clone())), buffer)
    }

    /// Emits one event line. `fields` are appended after the standard
    /// `t_us` / `kind` / `stage` / `tid` quadruple.
    pub fn emit(&self, kind: &str, stage: &str, fields: &[(&'static str, Json)]) {
        let t_us = u64::try_from(self.shared.start.elapsed().as_micros()).unwrap_or(u64::MAX);
        let line = format_line(t_us, current_tid(), kind, stage, fields);
        // blocking-ok: the learner records from one thread, so the
        // stream mutex is never contended.
        let mut inner = self.shared.inner.lock().unwrap_or_else(|p| p.into_inner());
        if !inner.write_line(&line) {
            return;
        }
        // Structural events are rare and mark progress worth keeping
        // on disk; per-node / per-pass / metrics events ride the
        // buffer.
        if !matches!(kind, "node" | "pass" | "metrics") {
            let _ = inner.out.flush();
        }
    }

    /// Lines successfully written so far.
    pub fn lines(&self) -> u64 {
        // blocking-ok: stats accessor used by tests and reports, not
        // the per-event path.
        self.shared
            .inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .lines
    }

    /// Flushes the underlying writer.
    pub fn flush(&self) {
        // blocking-ok: flush is a join point (span close, dump,
        // finish), not the per-event path.
        let mut inner = self.shared.inner.lock().unwrap_or_else(|p| p.into_inner());
        let _ = inner.out.flush();
    }
}

/// An in-memory `Write` sink shared between a [`TraceWriter`] and a
/// test that wants to inspect what was written.
#[derive(Clone, Default)]
pub struct SharedBuffer {
    bytes: Arc<Mutex<Vec<u8>>>,
}

impl SharedBuffer {
    /// Takes the accumulated bytes as UTF-8 text (lossy), leaving the
    /// buffer empty.
    pub fn take_string(&self) -> String {
        let mut bytes = self.bytes.lock().unwrap_or_else(|p| p.into_inner());
        String::from_utf8_lossy(&std::mem::take(&mut *bytes)).into_owned()
    }
}

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        // blocking-ok: in-memory test sink; the mutex guards a Vec.
        self.bytes
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_line_is_valid_compact_json_with_the_standard_envelope() {
        let (trace, sink) = TraceWriter::to_shared_buffer();
        trace.emit("event", "learn/fbdt", &[("message", Json::from("hi"))]);
        trace.emit("checkpoint", "", &[("remaining_us", Json::Null)]);
        assert_eq!(trace.lines(), 2);
        let text = sink.take_string();
        let mut prev_t = 0;
        for line in text.lines() {
            let parsed = Json::parse(line).expect("each line parses alone");
            let t = parsed.get("t_us").and_then(Json::as_u64).expect("t_us");
            assert!(t >= prev_t, "timestamps are monotone");
            prev_t = t;
            assert!(parsed.get("kind").and_then(Json::as_str).is_some());
            assert!(parsed.get("stage").and_then(Json::as_str).is_some());
            assert!(
                parsed.get("tid").and_then(Json::as_u64).is_some(),
                "every event carries a tid: {line}"
            );
        }
        assert_eq!(text.lines().count(), 2);
    }

    #[test]
    fn clones_share_the_stream() {
        let (trace, sink) = TraceWriter::to_shared_buffer();
        let t2 = trace.clone();
        trace.emit("a", "", &[]);
        t2.emit("b", "", &[]);
        assert_eq!(trace.lines(), 2);
        assert_eq!(sink.take_string().lines().count(), 2);
    }

    struct FailingSink;
    impl Write for FailingSink {
        fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("disk full"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_failures_drop_events_instead_of_panicking() {
        let trace = TraceWriter::to_writer(Box::new(FailingSink));
        trace.emit("event", "", &[]);
        trace.emit("event", "", &[]);
        assert_eq!(trace.lines(), 0);
    }

    #[test]
    fn tids_are_stable_within_a_thread() {
        assert_eq!(current_tid(), current_tid());
        let here = current_tid();
        let there = std::thread::spawn(current_tid).join().expect("join");
        assert_ne!(here, there, "each thread gets its own tid");
    }
}
