//! Synchronization primitives for the broker, re-exported from
//! [`multipub_sync`].
//!
//! Every lock in this crate is a rank-carrying [`multipub_sync::Mutex`]
//! (DESIGN.md §14): the lint's pass L6 (`xtask`) checks the declared
//! `// lock:rank(name, N)` order statically, and debug builds with
//! `MULTIPUB_LOCK_WITNESS=1` enforce it at runtime. The backend is
//! `std::sync` with poison recovery, so a panicked holder never wedges
//! the data path; under `RUSTFLAGS="--cfg loom"` the same types switch
//! to `loom::sync` so `tests/loom_models.rs` can exhaustively check the
//! per-shard maps. The `loom` crate is deliberately **not** declared in
//! `Cargo.toml` — the CI loom job appends the dependency transiently
//! before testing (see `.github/workflows/ci.yml` and DESIGN.md §9).
//!
//! The one lock *not* from here is `Shared::peer_conns`
//! (`tokio::sync::Mutex`): its guard is held across `.await` while
//! dialing, which the per-OS-thread witness cannot model. It carries a
//! `lock:rank` annotation for the static pass only.

pub(crate) use multipub_sync::{AtomicU64, Mutex, Ordering};
