//! Crash-safe file persistence: atomic tmp + fsync + rename writes.
//!
//! Every machine-readable artifact the pipeline produces — run
//! reports, BENCH JSON, trace exports, checkpoints — goes through
//! [`write_atomic`] so a crash (or SIGKILL) mid-flush can never leave
//! a torn, truncated file behind. The protocol is the classic one:
//!
//! 1. write the full contents to `<path>.tmp` in the target directory,
//! 2. `fsync` the temporary file so the bytes are durable,
//! 3. `rename` it over the destination (atomic on POSIX),
//! 4. `fsync` the parent directory so the rename itself is durable.
//!
//! Readers therefore observe either the old file or the complete new
//! one, never a prefix.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

/// Atomically replaces `path` with `contents` (tmp + fsync + rename).
///
/// The temporary file is `<path>.tmp` in the same directory, so the
/// final rename never crosses a filesystem boundary. On any error the
/// destination is left untouched and the temporary file is removed;
/// the error returned is the one that stopped the write.
pub fn write_atomic(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) -> io::Result<()> {
    let path = path.as_ref();
    let tmp = tmp_path(path);
    let mut file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp)?;
    let written = file
        .write_all(contents.as_ref())
        .and_then(|()| file.sync_all());
    drop(file);
    if let Err(e) = written.and_then(|()| std::fs::rename(&tmp, path)) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    sync_parent_dir(path);
    Ok(())
}

fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Fsyncs the directory containing `path` so a completed rename
/// survives power loss. Best-effort: some filesystems (and all
/// non-unix platforms) refuse directory handles, and by this point the
/// data itself is already durable.
fn sync_parent_dir(path: &Path) {
    #[cfg(unix)]
    {
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    #[cfg(not(unix))]
    let _ = path;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cirlearn-persist-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    #[test]
    fn writes_new_file() {
        let dir = scratch_dir("new");
        let path = dir.join("report.json");
        write_atomic(&path, b"{\"ok\":true}").expect("atomic write");
        assert_eq!(std::fs::read(&path).expect("read back"), b"{\"ok\":true}");
        assert!(
            !tmp_path(&path).exists(),
            "tmp file must be renamed away on success"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replaces_existing_file_completely() {
        let dir = scratch_dir("replace");
        let path = dir.join("bench.json");
        write_atomic(&path, "old contents, much longer than the new ones").expect("first write");
        write_atomic(&path, "new").expect("second write");
        assert_eq!(std::fs::read_to_string(&path).expect("read back"), "new");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_tmp_from_a_crash_is_overwritten() {
        let dir = scratch_dir("stale");
        let path = dir.join("ckpt.json");
        // Simulate a crash that left a half-written tmp file behind.
        std::fs::write(tmp_path(&path), "torn garb").expect("plant stale tmp");
        write_atomic(&path, "complete").expect("atomic write");
        assert_eq!(
            std::fs::read_to_string(&path).expect("read back"),
            "complete"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn error_on_missing_directory_leaves_no_destination() {
        let dir = scratch_dir("missing").join("nope");
        let path = dir.join("out.json");
        assert!(write_atomic(&path, "x").is_err());
        assert!(!path.exists());
    }

    #[test]
    fn failed_rename_removes_the_tmp_file() {
        let dir = scratch_dir("rename-fails");
        // The destination is a nonempty directory, so the write and
        // fsync succeed but the rename over it fails.
        let path = dir.join("occupied");
        std::fs::create_dir_all(path.join("inside")).expect("create target dir");
        let err = write_atomic(&path, "x").expect_err("cannot rename over a directory");
        assert_ne!(
            err.kind(),
            io::ErrorKind::NotFound,
            "the rename's own error: {err}"
        );
        assert!(!tmp_path(&path).exists(), "no tmp file left behind");
        assert!(path.join("inside").is_dir(), "the destination is untouched");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
