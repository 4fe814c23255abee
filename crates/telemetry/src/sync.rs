//! The crate's single synchronization surface, switchable at compile
//! time between three backends:
//!
//! - **default** — real `std::sync` types: zero-overhead production
//!   builds;
//! - **`--cfg loom`** — the vendored weak-memory model checker: every
//!   atomic op becomes a scheduling point and every load a value branch
//!   point, so `cargo test --test loom_* ` explores interleavings *and*
//!   stale-read behaviors exhaustively (see `vendor/loom`);
//! - **`--cfg race`** — the vendored happens-before race detector:
//!   real full-speed threads with vector clocks riding alongside, so
//!   `cargo test --test race_*` panics with both stacks when a run
//!   exhibits an unsynchronized conflicting pair (see `vendor/tsan`).
//!
//! Everything in this crate that synchronizes imports from here instead
//! of naming `std::sync` / `std::sync::atomic` directly — enforced by
//! `cirlearn-lint`'s atomic-alias rule — so the concurrency tests run
//! the *exact* production code path with no parallel type plumbing.
//!
//! Invariant for the loom backend: `Mutex` stays the `std` mutex there
//! (the shim serializes model threads, so a lock held across code with
//! no scheduling points cannot block anyone), which requires critical
//! sections to contain **no atomic operations**. Keep atomics outside
//! mutex-guarded regions — the histogram and trace paths already do.
//
// cirlearn-lint: allow(atomic-alias) — this module *is* the alias; it is
// the one place in the crate allowed to name the backend sync types.

#[cfg(all(loom, race))]
compile_error!("--cfg loom and --cfg race are mutually exclusive backends");

#[cfg(not(any(loom, race)))]
mod backend {
    pub use std::sync::{Arc, Mutex, MutexGuard};

    /// Atomic types (std backend).
    pub mod atomic {
        pub use std::sync::atomic::{AtomicU64, Ordering};
    }
}

#[cfg(loom)]
mod backend {
    pub use loom::sync::Arc;
    pub use std::sync::{Mutex, MutexGuard};

    /// Atomic types (loom weak-memory model backend).
    pub mod atomic {
        pub use loom::sync::atomic::{AtomicU64, Ordering};
    }
}

#[cfg(race)]
mod backend {
    pub use tsan::sync::{Arc, Mutex, MutexGuard};

    /// Atomic types (race-detector backend).
    pub mod atomic {
        pub use tsan::sync::atomic::{AtomicU64, Ordering};
    }
}

pub use backend::*;
