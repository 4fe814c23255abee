//! `cirlearn top <status.json>` — renders the live status snapshot a
//! `--status` run rewrites.
//!
//! By default it follows the file like `top(1)`: clear the screen,
//! render the snapshot, sleep, repeat — until the snapshot says `done`
//! or the writing process is gone. `--once` renders a single snapshot
//! and exits (the scripting/CI mode). Reads are naturally torn-free:
//! the writer replaces the file atomically, so every read sees a
//! complete snapshot.

use cirlearn_telemetry::StatusSnapshot;

use crate::Opts;

pub(crate) fn cmd_top(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &["interval"])?;
    let [path] = opts.positional.as_slice() else {
        return Err("top expects exactly one status file".to_owned());
    };
    let once = opts.present("once");
    let interval = opts.seconds("interval", 1.0)?;
    let mut waiting_printed = false;
    loop {
        let snap = match std::fs::read_to_string(path) {
            Ok(text) => StatusSnapshot::parse(&text)
                .map_err(|e| format!("parsing status file {path}: {e}"))?,
            Err(e) if once => return Err(format!("reading status file {path}: {e}")),
            Err(_) => {
                // Follow mode tolerates a not-yet-written file: the run
                // may still be starting up.
                if !waiting_printed {
                    eprintln!("waiting for {path} ...");
                    waiting_printed = true;
                }
                std::thread::sleep(interval);
                continue;
            }
        };
        if once {
            out!("{}", snap.render())?;
            return Ok(());
        }
        // Clear screen + home, like top(1). A reader that has gone away
        // ends the follow loop.
        use std::io::Write as _;
        let mut stdout = std::io::stdout().lock();
        match write!(stdout, "\x1b[2J\x1b[H{}", snap.render()).and_then(|()| stdout.flush()) {
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => return Ok(()),
            Err(e) => return Err(format!("writing to stdout: {e}")),
            Ok(()) => {}
        }
        if snap.done {
            return Ok(());
        }
        if !pid_alive(snap.pid) {
            eprintln!("writer (pid {}) exited without finishing", snap.pid);
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

/// Whether the snapshot's writer is still running, via the classic
/// `kill(pid, 0)` existence probe.
#[cfg(unix)]
fn pid_alive(pid: u64) -> bool {
    // SAFETY: `kill(2)` is a standard libc symbol with exactly this
    // signature; declaring it is sound and calls are checked below.
    unsafe extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    if pid == 0 || pid > i32::MAX as u64 {
        return false;
    }
    // SAFETY: signal 0 sends nothing — kill(2) only performs the
    // existence/permission check and cannot affect the target.
    (unsafe { kill(pid as i32, 0) }) == 0
}

#[cfg(not(unix))]
fn pid_alive(_pid: u64) -> bool {
    // No cheap probe: keep following until the snapshot says done.
    true
}
