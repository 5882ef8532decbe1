//! `ehsim-verify`: the workspace's bounded model checker, wired into CI
//! (DESIGN.md §2.7). The workspace invariants are rustc and clippy lints
//! configured in the root `Cargo.toml` and `clippy.toml`; this crate's
//! `tests/lint_wiring.rs` checks that every crate stays wired in.
//!
//! The bounded model checker ([`engine`], [`model`]) is a reusable
//! explicit-state BFS over a [`engine::Model`]: state dedup by
//! fingerprint, a configurable depth/state budget, and counterexample
//! traces on invariant violations. [`model::WriteBackModel`] is an
//! abstract, fully-fingerprintable model of the §5 asynchronous
//! write-back protocol (a small direct-mapped cache with DirtyQueue,
//! NVM, and in-flight ACKs) checked against five invariants; injectable
//! protocol [`model::Mutation`]s demonstrate that each invariant has
//! teeth. The concrete `WlCache` implementation is driven through the
//! same engine by `crates/core/tests/protocol_exhaustive.rs`.
//! The model's reachable space is ~9.86 M states; the CLI's default
//! budget (depth 12, 1 M states) stops at the state cap, and CI's
//! `--smoke` preset (depth 8, 150 k states) covers 143,866 states.
//!
//! Its only dependency is the in-workspace `ehsim-obs` (for the
//! `MetricsRegistry` run summary), which keeps `wl-cache` free to use it
//! as a dev-dependency without a cycle.

pub mod engine;
pub mod model;
