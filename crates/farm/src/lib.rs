//! Persistent content-addressed result store for sweep simulations.
//!
//! `EHSIM_RESULT_STORE=<dir>` promotes the sweep executor's in-memory
//! memo map to disk: one fully-validated, checksummed `.ehres` file per
//! simulation ([`store`]), keyed by the injective [`key::SimKey`]
//! encoding of (configuration, workload, scale). Deterministic
//! simulation makes the store a pure cache: a hit is byte-identical to
//! execution, any validation failure falls back to execution, and a
//! sweep warms the store for every later process — including one
//! started after a `kill -9` of its predecessor.
//!
//! The crate deliberately does not depend on `ehsim-bench`: bench's
//! executor uses [`key`]/[`store`] for its memo and store layers.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "fixed-width slice conversions behind the store's own length checks (L004)"
)]

mod codec;
pub mod key;
pub mod store;

pub use key::{sim_key, SimKey, KEY_VERSION};
pub use store::{LoadOutcome, ResultStore, STORE_VERSION};
