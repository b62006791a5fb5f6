//! Deterministic fault injection (test-only hooks).
//!
//! Like `profit_core::test_hooks`, these are process-global switches
//! that default to off and cost one relaxed atomic load on the hot
//! path. Production code never sets them; integration tests flip one,
//! exercise a store or serve path, and assert the fault surfaces as the
//! right typed error or degraded response — deterministically, because
//! the fault fires at an exact byte offset or request, not at random.
//!
//! Hook → injection point:
//!
//! * [`set_torn_write_at`] — [`crate::write_atomic`] persists exactly
//!   `k` payload bytes to the temp file, then fails as if the process
//!   crashed (the rename never runs);
//! * [`set_disk_full_at`] — writes fail with ENOSPC after `k` bytes,
//!   but the process *survives*: [`crate::write_atomic`] must clean up
//!   its temp file and leave the target untouched, and
//!   [`crate::log::SalesLog::append`] must leave a tail the next open
//!   truncates away;
//! * [`set_short_read_at`] — [`crate::read_file`] returns only the
//!   first `k` bytes, as if the file were truncated on disk;
//! * [`set_corrupt_byte_at`] — [`crate::read_file`] flips the low bit
//!   of byte `k`, as if the medium decayed;
//! * [`set_read_delay_ms`] — [`crate::read_file`] sleeps first (slow
//!   disk / cold NFS), for reload-under-latency tests;
//! * [`set_compute_delay_ms`] / [`set_compute_panic`] — consulted by
//!   `pm-serve` inside its per-request compute section, to force the
//!   deadline-blown and matcher-error degraded paths;
//! * [`set_handle_panic`] — consulted by `pm-serve` in its
//!   per-connection handling *outside* the compute section, to prove
//!   that a panic there is unwind-isolated (counted, logged, connection
//!   dropped) instead of killing the worker thread;
//! * [`set_control_panic`] — consulted by `pm-serve` at the start of
//!   every control-plane job (reload, ingest, checkpoint), to prove the
//!   executor's one unwind boundary turns a panic into that op's
//!   failure and keeps running.
//!
//! Because the hooks are process-global, an armed hook is visible to
//! every test running concurrently in the same binary. So every test in
//! a binary that arms a hook — not only the ones that arm it — takes
//! [`test_lock`] first (it also recovers from a poisoned lock, so one
//! failing test cannot cascade) and holds the [`FaultGuard`] it returns
//! for its whole body; all hooks reset when the guard drops.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Sentinel for "hook disabled" on the byte-offset hooks.
const OFF: usize = usize::MAX;

static TORN_WRITE_AT: AtomicUsize = AtomicUsize::new(OFF);
static DISK_FULL_AT: AtomicUsize = AtomicUsize::new(OFF);
static VANISH_PARENT: AtomicBool = AtomicBool::new(false);
static SHORT_READ_AT: AtomicUsize = AtomicUsize::new(OFF);
static CORRUPT_BYTE_AT: AtomicUsize = AtomicUsize::new(OFF);
static READ_DELAY_MS: AtomicU64 = AtomicU64::new(0);
static COMPUTE_DELAY_MS: AtomicU64 = AtomicU64::new(0);
static COMPUTE_PANIC: AtomicBool = AtomicBool::new(false);
static HANDLE_PANIC: AtomicBool = AtomicBool::new(false);
static CONTROL_PANIC: AtomicBool = AtomicBool::new(false);

/// Make the next writes crash after persisting `k` payload bytes.
pub fn set_torn_write_at(k: Option<usize>) {
    TORN_WRITE_AT.store(k.unwrap_or(OFF), Ordering::Relaxed);
}

/// The active torn-write offset, if any.
pub fn torn_write_at() -> Option<usize> {
    match TORN_WRITE_AT.load(Ordering::Relaxed) {
        OFF => None,
        k => Some(k),
    }
}

/// Make the next writes fail with ENOSPC ("No space left on device")
/// after persisting `k` bytes — a full disk mid-write. Unlike
/// [`set_torn_write_at`] the process survives the error, so the
/// graceful-failure paths (temp cleanup, intact target, recoverable
/// log tail) are what's under test.
pub fn set_disk_full_at(k: Option<usize>) {
    DISK_FULL_AT.store(k.unwrap_or(OFF), Ordering::Relaxed);
}

/// The active disk-full offset, if any.
pub fn disk_full_at() -> Option<usize> {
    match DISK_FULL_AT.load(Ordering::Relaxed) {
        OFF => None,
        k => Some(k),
    }
}

/// Make the next atomic write's target parent directory vanish between
/// the temp-file write and the rename — as if a concurrent cleanup
/// removed the data directory mid-write. One-shot: the hook disarms
/// itself when it fires, so the test can recreate the directory and
/// retry without re-tripping.
pub fn set_vanish_parent_before_rename(on: bool) {
    VANISH_PARENT.store(on, Ordering::Relaxed);
}

/// Consume the vanish-parent fault if armed. Called by
/// [`crate::write_atomic`] right before its rename.
pub fn take_vanish_parent() -> bool {
    VANISH_PARENT.swap(false, Ordering::Relaxed)
}

/// Make reads return only the first `k` bytes.
pub fn set_short_read_at(k: Option<usize>) {
    SHORT_READ_AT.store(k.unwrap_or(OFF), Ordering::Relaxed);
}

/// The active short-read offset, if any.
pub fn short_read_at() -> Option<usize> {
    match SHORT_READ_AT.load(Ordering::Relaxed) {
        OFF => None,
        k => Some(k),
    }
}

/// Make reads flip the low bit of byte `k`.
pub fn set_corrupt_byte_at(k: Option<usize>) {
    CORRUPT_BYTE_AT.store(k.unwrap_or(OFF), Ordering::Relaxed);
}

/// The active corruption offset, if any.
pub fn corrupt_byte_at() -> Option<usize> {
    match CORRUPT_BYTE_AT.load(Ordering::Relaxed) {
        OFF => None,
        k => Some(k),
    }
}

/// Delay every read by `ms` milliseconds (0 = off).
pub fn set_read_delay_ms(ms: u64) {
    READ_DELAY_MS.store(ms, Ordering::Relaxed);
}

/// Sleep for the configured read delay, if any.
pub fn apply_read_delay() {
    let ms = READ_DELAY_MS.load(Ordering::Relaxed);
    if ms > 0 {
        std::thread::sleep(Duration::from_millis(ms));
    }
}

/// Delay every serve-side compute section by `ms` milliseconds (0 = off).
pub fn set_compute_delay_ms(ms: u64) {
    COMPUTE_DELAY_MS.store(ms, Ordering::Relaxed);
}

/// Sleep for the configured compute delay, if any. Called by `pm-serve`
/// inside the per-request deadline window.
pub fn apply_compute_delay() {
    let ms = COMPUTE_DELAY_MS.load(Ordering::Relaxed);
    if ms > 0 {
        std::thread::sleep(Duration::from_millis(ms));
    }
}

/// Make the serve-side compute section panic (a stand-in for a matcher
/// bug), to exercise the catch-and-degrade path.
pub fn set_compute_panic(on: bool) {
    COMPUTE_PANIC.store(on, Ordering::Relaxed);
}

/// Panic if the compute-panic fault is armed. Called by `pm-serve`
/// inside its unwind-isolated compute section.
pub fn apply_compute_panic() {
    if COMPUTE_PANIC.load(Ordering::Relaxed) {
        panic!("injected matcher panic (pm_store::faults::set_compute_panic)");
    }
}

/// Make `pm-serve`'s per-connection handling panic *outside* the
/// unwind-isolated compute section — a stand-in for a bug anywhere in
/// the request path — to exercise the connection-level panic isolation.
/// One-shot: the hook disarms itself when it fires, so the daemon can be
/// shown to keep answering afterwards.
pub fn set_handle_panic(on: bool) {
    HANDLE_PANIC.store(on, Ordering::Relaxed);
}

/// Panic (once) if the handle-panic fault is armed. Called by `pm-serve`
/// in per-connection handling, outside the compute section.
pub fn apply_handle_panic() {
    if HANDLE_PANIC.swap(false, Ordering::Relaxed) {
        panic!("injected connection-handling panic (pm_store::faults::set_handle_panic)");
    }
}

/// Make the next `pm-serve` control-plane job panic as it starts — a
/// stand-in for a bug in any reload, ingest or checkpoint. One-shot,
/// like [`set_handle_panic`], so the next job of the same kind can be
/// shown to succeed.
pub fn set_control_panic(on: bool) {
    CONTROL_PANIC.store(on, Ordering::Relaxed);
}

/// Panic (once) if the control-panic fault is armed. Called by
/// `pm-serve` at the start of every control-plane job.
pub fn apply_control_panic() {
    if CONTROL_PANIC.swap(false, Ordering::Relaxed) {
        panic!("injected control-job panic (pm_store::faults::set_control_panic)");
    }
}

/// Reset every hook to off.
pub fn reset() {
    set_torn_write_at(None);
    set_disk_full_at(None);
    set_vanish_parent_before_rename(false);
    set_short_read_at(None);
    set_corrupt_byte_at(None);
    set_read_delay_ms(0);
    set_compute_delay_ms(0);
    set_compute_panic(false);
    set_handle_panic(false);
    set_control_panic(false);
}

/// Drop guard from [`test_lock`]: resets all hooks and releases the
/// inter-test mutex.
pub struct FaultGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        reset();
    }
}

/// Serialize fault-injecting tests within a process and guarantee the
/// hooks are clean on entry and reset on exit (even on panic).
pub fn test_lock() -> FaultGuard {
    static LOCK: Mutex<()> = Mutex::new(());
    // A test that panicked while holding the lock poisons it; the hooks
    // are plain atomics, so recovering the guard is safe.
    let lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    reset();
    FaultGuard { _lock: lock }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hooks_default_off_and_reset() {
        let _guard = test_lock();
        assert_eq!(torn_write_at(), None);
        assert_eq!(short_read_at(), None);
        assert_eq!(corrupt_byte_at(), None);
        set_torn_write_at(Some(7));
        set_disk_full_at(Some(9));
        set_short_read_at(Some(3));
        set_corrupt_byte_at(Some(0));
        set_compute_delay_ms(5);
        set_compute_panic(true);
        set_handle_panic(true);
        set_control_panic(true);
        assert_eq!(torn_write_at(), Some(7));
        assert_eq!(disk_full_at(), Some(9));
        reset();
        assert_eq!(torn_write_at(), None);
        assert_eq!(disk_full_at(), None);
        assert_eq!(short_read_at(), None);
        assert_eq!(corrupt_byte_at(), None);
        apply_compute_panic(); // must not panic after reset
        apply_handle_panic(); // must not panic after reset
        apply_control_panic();
    }

    #[test]
    fn handle_panic_is_one_shot() {
        let _guard = test_lock();
        set_handle_panic(true);
        assert!(std::panic::catch_unwind(apply_handle_panic).is_err());
        // The hook disarmed itself on firing.
        apply_handle_panic();
    }

    #[test]
    fn control_panic_is_one_shot() {
        let _guard = test_lock();
        set_control_panic(true);
        assert!(std::panic::catch_unwind(apply_control_panic).is_err());
        apply_control_panic();
    }

    #[test]
    fn guard_resets_on_drop() {
        // Takes the lock twice in turn, to watch the first guard's drop.
        {
            let _guard = test_lock();
            set_short_read_at(Some(1));
        }
        let _guard = test_lock();
        assert_eq!(short_read_at(), None);
    }
}
