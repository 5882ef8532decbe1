//! End-to-end robustness of the persistent result store under the
//! sweep executor (`EHSIM_RESULT_STORE`).
//!
//! The farm crate's unit tests pin the validation outcomes at the
//! `ResultStore` level; this test pins the *executor's* behavior on
//! top: a warm entry is served without executing (and byte-identical
//! to direct execution), while a truncated file, a flipped payload
//! byte, a wrong format version and a stale key-encoding version each
//! fall back to execution — no panic, correct report, and the
//! `store_hits`/`store_misses`/`store_rejects` counters surfaced
//! through the telemetry metrics registry name the path taken.
//!
//! Kept as a single `#[test]` because the store is wired through a
//! process-wide environment variable read once.

use ehsim::{Report, SimConfig};
use ehsim_bench::exec::{self, Job};
use ehsim_bench::telemetry;
use ehsim_farm::{sim_key, ResultStore, SimKey, KEY_VERSION};
use ehsim_obs::MetricValue;
use ehsim_workloads::Scale;
use std::path::PathBuf;

const WORKLOAD: usize = 0; // sha — cheap at Scale::Small

fn counter(name: &str) -> u64 {
    match telemetry::registry().get(name) {
        Some(MetricValue::Counter(v)) => *v,
        other => panic!("registry has no counter `{name}`: {other:?}"),
    }
}

/// A config family where each member is one cheap, distinct sim.
fn cfg(capacitor_uf: f64) -> SimConfig {
    SimConfig::wl_cache().with_capacitor_uf(capacitor_uf)
}

fn job(capacitor_uf: f64) -> Job {
    Job::new(cfg(capacitor_uf), WORKLOAD, Scale::Small)
}

#[expect(
    clippy::expect_used,
    reason = "test code: a failure here fails the test"
)]
fn key_of(j: &Job) -> SimKey {
    sim_key(&j.cfg, j.workload, j.scale).expect("native workloads are keyed")
}

/// The report direct execution would produce for `j` (bypasses the
/// executor entirely — no memo, no store).
fn direct(j: &Job) -> Report {
    let w = &ehsim_workloads::all23(j.scale)[j.workload];
    ehsim_bench::run(j.cfg.clone(), w.as_ref())
}

/// Runs one job through the executor and returns (report, counter
/// deltas as (sims_run, store_hits, store_misses, store_rejects)).
fn run_counted(j: &Job) -> (Report, (u64, u64, u64, u64)) {
    let before = (
        counter("sims_run"),
        counter("store_hits"),
        counter("store_misses"),
        counter("store_rejects"),
    );
    let out = exec::run_batch(std::slice::from_ref(j));
    let after = (
        counter("sims_run"),
        counter("store_hits"),
        counter("store_misses"),
        counter("store_rejects"),
    );
    (
        (*out[0]).clone(),
        (
            after.0 - before.0,
            after.1 - before.1,
            after.2 - before.2,
            after.3 - before.3,
        ),
    )
}

/// FNV-1a with the store's constants, for re-sealing a tampered entry.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[test]
fn executor_survives_every_store_failure_mode() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("ehsim-result-store-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("EHSIM_RESULT_STORE", &dir);
    let store = ResultStore::open(&dir);

    // --- Cold miss: executes, saves, counts store_misses. -----------
    let j = job(1.31);
    let (report, (sims, hits, misses, rejects)) = run_counted(&j);
    assert_eq!((sims, hits, misses, rejects), (1, 0, 1, 0), "cold miss");
    assert!(store.path_for(&key_of(&j)).is_file(), "miss must persist");
    assert_eq!(report, direct(&j), "executed report matches direct run");

    // --- Warm hit: pre-seeded entry served without executing. -------
    let j = job(1.32);
    let seeded = direct(&j);
    store.save(&key_of(&j), &seeded).expect("seed save");
    let (report, deltas) = run_counted(&j);
    assert_eq!(deltas, (0, 1, 0, 0), "warm hit executes nothing");
    assert_eq!(report, seeded, "store hit is byte-identical");

    // --- Corruptions: each rejects, falls back to execution, and the
    // --- re-executed result refreshes the entry to a loadable state.
    type Corrupt = fn(&mut Vec<u8>);
    let corruptions: &[(&str, Corrupt)] = &[
        ("truncated file", |b| b.truncate(b.len() / 2)),
        ("flipped payload byte", |b| {
            let at = b.len() - 9; // inside the payload, before the sum
            b[at] ^= 0x40;
        }),
        ("wrong format version", |b| b[7] = b[7].wrapping_add(1)),
        ("stale key-encoding version", |b| {
            // Re-seal the checksum so only the version check can fire.
            b[8..12].copy_from_slice(&(KEY_VERSION + 1).to_le_bytes());
            let body_end = b.len() - 8;
            let sum = fnv1a(&b[8..body_end]);
            b[body_end..].copy_from_slice(&sum.to_le_bytes());
        }),
    ];
    for (i, (what, corrupt)) in corruptions.iter().enumerate() {
        let j = job(1.41 + i as f64 * 0.01);
        let expected = direct(&j);
        store.save(&key_of(&j), &expected).expect("seed save");
        let path = store.path_for(&key_of(&j));
        let mut bytes = std::fs::read(&path).expect("seeded entry");
        corrupt(&mut bytes);
        std::fs::write(&path, &bytes).expect("write corruption");

        let (report, deltas) = run_counted(&j);
        assert_eq!(deltas, (1, 0, 0, 1), "{what}: reject then execute");
        assert_eq!(report, expected, "{what}: fallback matches direct");
        assert!(
            matches!(store.load(&key_of(&j)), ehsim_farm::LoadOutcome::Hit(r) if *r == expected),
            "{what}: entry was refreshed after the reject"
        );
    }

    std::env::remove_var("EHSIM_RESULT_STORE");
}
