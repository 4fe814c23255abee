//! A structured JSONL trace-event stream.
//!
//! A [`TraceWriter`] receives one JSON object per line so a run can be
//! replayed, diffed or converted to a flamegraph offline. The
//! telemetry layer formats each event once, under its lock, and hands
//! the same line to the trace stream and to the flight recorder, so
//! the two agree byte for byte. Every line carries:
//!
//! - `t_us` — microseconds since the telemetry handle was created,
//!   taken from a monotonic clock (never wall time, so lines are
//!   ordered per thread even across clock adjustments); a stream
//!   attached mid-run therefore starts at a nonzero stamp,
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

use crate::json::{write_string, Json};
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

/// Formats one event line (without writing it anywhere).
pub(crate) fn format_line(
    t_us: u64,
    tid: u64,
    kind: &str,
    stage: &str,
    fields: &[(&'static str, Json)],
) -> String {
    // alloc-ok: the one line both the trace sink and the flight log keep.
    let mut line = String::new();
    line.push_str("{\"t_us\":");
    Json::Number(t_us as f64).write_compact(&mut line);
    line.push_str(",\"kind\":");
    write_string(&mut line, kind);
    line.push_str(",\"stage\":");
    write_string(&mut line, stage);
    line.push_str(",\"tid\":");
    Json::Number(tid as f64).write_compact(&mut line);
    for (k, v) in fields {
        line.push(',');
        write_string(&mut line, k);
        line.push(':');
        v.write_compact(&mut line);
    }
    line.push_str("}\n");
    line
}

/// The sink of a JSONL trace stream, handed to
/// [`Telemetry::set_trace`](crate::Telemetry::set_trace), which owns
/// it and writes every event line into it under the telemetry lock.
///
/// High-rate events (FBDT `node` lines, `pass` lines, `metrics`
/// snapshots) stay in the sink's buffer; structural events — span
/// open/close, faults, checkpoints — flush it, as does
/// [`Telemetry::flush_trace`](crate::Telemetry::flush_trace). File
/// streams wrap a `BufWriter`, so the hot path costs a formatted line
/// and a memcpy instead of a syscall per event, while a crashed run
/// (panic, which unwinds into the flushing drop guards) still keeps
/// everything emitted before the crash and loses at most the node
/// lines since the last structural event on an outright abort.
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
pub struct TraceWriter {
    out: Box<dyn Write + Send>,
    /// Set by the first write error, which is reported once instead of
    /// spamming.
    failed: bool,
}

impl std::fmt::Debug for TraceWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TraceWriter")
    }
}

impl TraceWriter {
    /// A trace stream over any writer.
    pub fn to_writer(out: Box<dyn Write + Send>) -> TraceWriter {
        TraceWriter { out, failed: false }
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

    /// Writes one formatted `\n`-terminated line of event `kind`. A
    /// failed write drops the line; structural kinds flush the sink.
    pub(crate) fn write_line(&mut self, kind: &str, line: &str) {
        if self.out.write_all(line.as_bytes()).is_err() {
            if !self.failed {
                // blocking-ok: one-shot failure notice on a sticky
                // error path, never repeated.
                eprintln!("cirlearn: trace stream write failed; further events dropped");
            }
            self.failed = true;
            return;
        }
        // Structural events are rare and mark progress worth keeping
        // on disk; per-node / per-pass / metrics events ride the
        // buffer.
        if !matches!(kind, "node" | "pass" | "metrics") {
            self.flush();
        }
    }

    /// Flushes the underlying writer.
    pub(crate) fn flush(&mut self) {
        let _ = self.out.flush();
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
    use crate::Telemetry;

    #[test]
    fn every_line_is_valid_compact_json_with_the_standard_envelope() {
        let (trace, sink) = TraceWriter::to_shared_buffer();
        let telemetry = Telemetry::recording();
        telemetry.set_trace(trace);
        {
            let _span = telemetry.span("learn");
            telemetry.trace("event", &[("message", Json::from("hi"))]);
        }
        telemetry.trace("checkpoint", &[("remaining_us", Json::Null)]);
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
        assert_eq!(text.lines().count(), 4);
    }

    #[test]
    fn clones_share_the_stream() {
        let (trace, sink) = TraceWriter::to_shared_buffer();
        let telemetry = Telemetry::recording();
        telemetry.set_trace(trace);
        let t2 = telemetry.clone();
        telemetry.trace("a", &[]);
        t2.trace("b", &[]);
        let text = sink.take_string();
        let kinds: Vec<&str> = text
            .lines()
            .map(|l| {
                if l.contains("\"kind\":\"a\"") {
                    "a"
                } else {
                    "b"
                }
            })
            .collect();
        assert_eq!(kinds, ["a", "b"], "one stream, in append order");
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
        let mut trace = TraceWriter::to_writer(Box::new(FailingSink));
        trace.write_line("event", "{}\n");
        assert!(trace.failed);
        trace.write_line("event", "{}\n");
        let telemetry = Telemetry::recording();
        telemetry.set_trace(trace);
        telemetry.trace("event", &[]);
        telemetry.flush_trace();
    }

    #[test]
    fn tids_are_stable_within_a_thread() {
        assert_eq!(current_tid(), current_tid());
        let here = current_tid();
        let there = std::thread::spawn(current_tid).join().expect("join");
        assert_ne!(here, there, "each thread gets its own tid");
    }
}
