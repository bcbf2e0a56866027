//! The runtime lock-order witness (debug/test builds only).
//!
//! Armed by setting `MULTIPUB_LOCK_WITNESS=1` (or `true`/`on`), each
//! thread keeps a stack of the ranked locks it currently holds. Every
//! [`crate::Mutex`]/[`crate::RwLock`] acquisition first checks that its
//! rank is **strictly greater** than every rank already held by the
//! thread; a violation panics with the backtraces of both acquisition
//! sites — the one that took the conflicting lock and the one that just
//! tried to. Two passes over the same evidence:
//!
//! * the lint's pass L6 (`xtask`) proves the order for the nestings it can
//!   see lexically (a guard scope enclosing another acquisition),
//! * the witness catches the rest at runtime — nestings threaded through
//!   function calls, trait objects, or closures, which no token-level
//!   pass can resolve.
//!
//! Disarmed (the default), the cost is one relaxed atomic load per
//! acquisition; release builds do not compile this module at all, so the
//! wrappers are pure pass-throughs.
//!
//! Backtraces are captured eagerly on every acquisition while armed
//! (symbol resolution is deferred until a panic actually prints them),
//! which makes armed runs measurably slower — the witness is a CI/debug
//! tool, not a production mode.

use std::backtrace::Backtrace;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU8, Ordering};

/// Environment variable arming the witness: `1`, `true` or `on`.
const WITNESS_ENV: &str = "MULTIPUB_LOCK_WITNESS";

const STATE_UNSET: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNSET);

/// Whether the witness is armed, reading `MULTIPUB_LOCK_WITNESS` on first call.
fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => {
            let armed = std::env::var(WITNESS_ENV).is_ok_and(|value| {
                let value = value.trim();
                value == "1"
                    || value.eq_ignore_ascii_case("true")
                    || value.eq_ignore_ascii_case("on")
            });
            STATE.store(if armed { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
            armed
        }
    }
}

/// Arms or disarms the witness explicitly, overriding the environment.
/// For tests and tools; takes effect for acquisitions that start after
/// the call.
pub fn set_enabled(armed: bool) {
    STATE.store(if armed { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

struct HeldLock {
    rank: u16,
    name: &'static str,
    serial: u64,
    backtrace: Backtrace,
}

thread_local! {
    static HELD: RefCell<Vec<HeldLock>> = const { RefCell::new(Vec::new()) };
    static NEXT_SERIAL: Cell<u64> = const { Cell::new(1) };
}

/// Witness registration for one acquisition; removed from the thread's
/// held set when dropped (guards drop their token after the inner
/// unlock). Serial 0 means the witness was disarmed at acquisition time.
pub(crate) struct Token(u64);

impl Drop for Token {
    fn drop(&mut self) {
        if self.0 == 0 {
            return;
        }
        let serial = self.0;
        // `try_with`: thread-local storage may already be torn down if a
        // guard lives in a TLS destructor; losing the entry then is fine.
        let _ = HELD.try_with(|held| held.borrow_mut().retain(|lock| lock.serial != serial));
    }
}

/// Records an acquisition of `(rank, name)` on this thread, panicking on
/// a rank-order violation.
pub(crate) fn acquire(rank: u16, name: &'static str) -> Token {
    if !enabled() {
        return Token(0);
    }
    let serial = HELD.try_with(|held| {
        let mut held = held.borrow_mut();
        if let Some(conflict) = held.iter().filter(|lock| lock.rank >= rank).max_by_key(|l| l.rank)
        {
            // lint:allow(panic) aborting on an observed lock-order inversion is the witness's entire job
            panic!(
                "lock-order violation: acquiring `{name}` (rank {rank}) on a thread already \
                 holding `{held_name}` (rank {held_rank}); ranks must be strictly increasing in \
                 acquisition order (DESIGN.md §14)\n\
                 --- conflicting lock `{held_name}` was acquired at ---\n{held_backtrace}\n\
                 --- violating acquisition of `{name}` at ---\n{acquire_backtrace}",
                held_name = conflict.name,
                held_rank = conflict.rank,
                held_backtrace = conflict.backtrace,
                acquire_backtrace = Backtrace::force_capture(),
            );
        }
        let serial = NEXT_SERIAL.with(|next| {
            let serial = next.get();
            next.set(serial.wrapping_add(1).max(1));
            serial
        });
        held.push(HeldLock { rank, name, serial, backtrace: Backtrace::force_capture() });
        serial
    });
    Token(serial.unwrap_or(0))
}

/// The `(rank, name)` pairs this thread currently holds, innermost last.
/// Empty when the witness is disarmed. Introspection for tests.
pub fn held() -> Vec<(u16, &'static str)> {
    HELD.try_with(|held| held.borrow().iter().map(|lock| (lock.rank, lock.name)).collect())
        .unwrap_or_default()
}
