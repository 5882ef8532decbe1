//! `ehsim-verify`: the workspace's checked-in verification layer.
//!
//! Two independent tools live here, both wired into CI (see DESIGN.md
//! §2.7 for the full catalogue):
//!
//! * **The invariant linter** ([`lint`]): a token/line-level analyzer
//!   over `crates/*/src/**/*.rs` that enforces deny-by-default repo
//!   invariants — `#![forbid(unsafe_code)]` in every crate root, no
//!   wall-clock or OS randomness in the deterministic crates, no
//!   iteration-order-nondeterministic hash collections outside
//!   `crates/bench`, no `unwrap()`/`expect()` in library code, observer
//!   emission sites guarded by `enabled()`, and no `f32` or lossy
//!   float→int casts in energy/timing arithmetic. Known-good exceptions
//!   are carried by `verify-allow.toml` ([`allow`]), each with a written
//!   justification; stale entries fail the run.
//!
//! * **The bounded model checker** ([`engine`], [`model`]): a reusable
//!   explicit-state BFS over a [`engine::Model`] — state dedup by
//!   fingerprint, a configurable depth/state budget, and counterexample
//!   traces on invariant violations. [`model::WriteBackModel`] is an
//!   abstract, fully-fingerprintable model of the §5 asynchronous
//!   write-back protocol (a small direct-mapped cache with DirtyQueue,
//!   NVM, and in-flight ACKs) checked against five invariants; injectable
//!   protocol [`model::Mutation`]s demonstrate that each invariant has
//!   teeth. The concrete `WlCache` implementation is driven through the
//!   same engine by `crates/core/tests/protocol_exhaustive.rs`.
//!   The model's reachable space is ~9.86 M states; the CLI's default
//!   budget (depth 12, 1 M states) stops at the state cap, and CI's
//!   `--smoke` preset (depth 8, 150 k states) covers 143,866 states.
//!
//! Like `crates/bench`, this crate follows the workspace's offline
//! philosophy — its only dependency is the in-workspace `ehsim-obs`
//! (for the `MetricsRegistry` run summary), which keeps `wl-cache`
//! free to use it as a dev-dependency without a cycle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allow;
pub mod engine;
pub mod lint;
pub mod model;
pub mod source;
