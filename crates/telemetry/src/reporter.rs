//! Event sinks: where human-readable telemetry lines go.

/// Severity / verbosity of an event, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The run cannot proceed as requested.
    Error,
    /// Something degraded (budget exhausted, forced leaves, ...).
    Warn,
    /// Stage-level progress, one line per pipeline step.
    Info,
    /// Per-output and per-pass detail (the old `--verbose` output).
    Debug,
    /// Per-node / per-call firehose.
    Trace,
}

impl Level {
    /// Lower-case name, as accepted by `Level`'s [`FromStr`](std::str::FromStr) impl.
    pub fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Level {
    type Err = String;

    fn from_str(s: &str) -> Result<Level, String> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Ok(Level::Error),
            "warn" | "warning" => Ok(Level::Warn),
            "info" => Ok(Level::Info),
            "debug" | "verbose" => Ok(Level::Debug),
            "trace" => Ok(Level::Trace),
            other => Err(format!(
                "unknown log level `{other}` (error|warn|info|debug|trace)"
            )),
        }
    }
}

/// A sink for telemetry events.
///
/// Implementations decide formatting and destination; the pipeline
/// only calls [`Reporter::event`]. `stage` is the `/`-joined span path
/// active when the event fired (empty outside any span).
pub trait Reporter {
    /// Handles one event.
    fn event(&mut self, level: Level, stage: &str, message: &str);
}

/// Discards everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullReporter;

impl Reporter for NullReporter {
    fn event(&mut self, _level: Level, _stage: &str, _message: &str) {}
}

/// Writes `[cirlearn level stage] message` lines to stderr, filtering
/// by a minimum level. This replaces the scattered `eprintln!`s the
/// pipeline used to carry.
#[derive(Debug, Clone)]
pub struct StderrReporter {
    max_level: Level,
}

impl StderrReporter {
    /// Reports events up to and including `max_level`.
    pub fn new(max_level: Level) -> Self {
        StderrReporter { max_level }
    }
}

impl Reporter for StderrReporter {
    fn event(&mut self, level: Level, stage: &str, message: &str) {
        if level <= self.max_level {
            if stage.is_empty() {
                // blocking-ok: stderr IS this reporter's sink; events
                // are level-filtered and structural, never per-query.
                eprintln!("[cirlearn {level}] {message}");
            } else {
                // blocking-ok: same as above.
                eprintln!("[cirlearn {level} {stage}] {message}");
            }
        }
    }
}

/// Collects events in memory — for tests and for harnesses that want
/// to post-process the narrative.
#[derive(Debug, Default)]
pub struct BufferReporter {
    events: Vec<(Level, String, String)>,
}

impl BufferReporter {
    /// An empty buffer.
    pub fn new() -> Self {
        BufferReporter::default()
    }

    /// The collected `(level, stage, message)` triples.
    pub fn events(&self) -> &[(Level, String, String)] {
        &self.events
    }
}

impl Reporter for BufferReporter {
    fn event(&mut self, level: Level, stage: &str, message: &str) {
        self.events
            .push((level, stage.to_owned(), message.to_owned()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    #[test]
    fn levels_order_by_severity() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Info < Level::Debug);
        assert!(Level::Debug < Level::Trace);
    }

    #[test]
    fn level_parsing_accepts_aliases() {
        assert_eq!(Level::from_str("warn"), Ok(Level::Warn));
        assert_eq!(Level::from_str("WARNING"), Ok(Level::Warn));
        assert_eq!(Level::from_str("verbose"), Ok(Level::Debug));
        assert!(Level::from_str("loud").is_err());
    }

    #[test]
    fn buffer_reporter_collects_in_order() {
        let mut r = BufferReporter::new();
        r.event(Level::Info, "a", "first");
        r.event(Level::Debug, "a/b", "second");
        assert_eq!(r.events().len(), 2);
        assert_eq!(r.events()[0].2, "first");
        assert_eq!(r.events()[1].1, "a/b");
    }
}
