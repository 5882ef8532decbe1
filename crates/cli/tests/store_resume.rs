//! The result store on the real binary: warm reruns and crash resume.
//!
//! A reference fig04 sweep without a store, then a cold and a warm one
//! over a fresh store: the warm process serves every job from disk, so
//! it runs no sims and counts no misses or rejects, and all three write
//! the same table.
//!
//! A Small-scale `ehsim-cli sweep` runs with `EHSIM_RESULT_STORE` set
//! and is SIGKILLed as soon as its first `.ehres` entry lands. A fresh
//! `sweep --figure fig04` over the same store must then load what the
//! killed process persisted (more than zero store hits, zero rejects:
//! temp-file + rename never publishes a torn entry) and still write a
//! fig04 TSV that hashes to the pinned golden.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// fig04's Small-scale golden, kept in lockstep with the fig04 entry of
/// `crates/bench/tests/pinned_goldens.rs`.
const FIG04_SMALL_FNV: u64 = 0x8510e75cec527477;

fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn entries(store: &Path) -> usize {
    std::fs::read_dir(store).map_or(0, |dir| {
        dir.filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "ehres"))
            .count()
    })
}

/// A sweep over `store` with no other knob set, run in `workdir` so its
/// `results/small/*.tsv` land in the test's own directory.
fn sweep(store: &Path, workdir: &Path, args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ehsim-cli"));
    for knob in ehsim_bench::KNOBS {
        cmd.env_remove(knob);
    }
    cmd.arg("sweep")
        .args(args)
        .env("EHSIM_RESULT_STORE", store)
        .current_dir(workdir);
    cmd
}

/// Runs `cmd` and returns its stdout; a non-zero exit fails the test.
fn summary(mut cmd: Command) -> String {
    let out = cmd.output().unwrap_or_else(|e| panic!("spawn sweep: {e}"));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(out.status.success(), "sweep failed:\n{stdout}");
    stdout
}

/// The executed-sim count of the summary's `sims` line.
fn sims_run(summary: &str) -> u64 {
    summary
        .lines()
        .find_map(|l| {
            let mut words = l.strip_prefix("sims ")?.split_whitespace();
            let n = words.next()?.parse().ok()?;
            (words.next() == Some("run,")).then_some(n)
        })
        .unwrap_or_else(|| panic!("no sims line in:\n{summary}"))
}

/// The three counters of the summary's `store` line.
fn store_counters(summary: &str) -> (u64, u64, u64) {
    let line = summary
        .lines()
        .find_map(|l| l.strip_prefix("store "))
        .unwrap_or_else(|| panic!("no store line in:\n{summary}"));
    let n: Vec<u64> = line
        .split_whitespace()
        .filter_map(|w| w.parse().ok())
        .collect();
    assert_eq!(n.len(), 3, "malformed store line: {line}");
    (n[0], n[1], n[2])
}

#[test]
fn warm_sweep_runs_no_sims_and_writes_the_same_table() {
    let root: PathBuf =
        std::env::temp_dir().join(format!("ehsim_store_warm_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (store, workdir) = (root.join("store"), root.join("work"));
    std::fs::create_dir_all(&workdir).expect("create workdir");
    let fig04 = ["--figure", "fig04", "--scale", "small"];
    let table = || std::fs::read(workdir.join("results/small/fig04.tsv")).expect("read fig04.tsv");

    let mut reference = sweep(&store, &workdir, &fig04);
    reference.env_remove("EHSIM_RESULT_STORE");
    summary(reference);
    let reference = table();

    let cold = summary(sweep(&store, &workdir, &fig04));
    assert!(sims_run(&cold) >= 1, "a cold sweep ran no sims:\n{cold}");
    assert!(table() == reference, "the cold sweep's fig04 differs");

    let warm = summary(sweep(&store, &workdir, &fig04));
    assert_eq!(sims_run(&warm), 0, "a warm sweep ran sims:\n{warm}");
    let (hits, misses, rejects) = store_counters(&warm);
    assert!(hits >= 1, "a warm sweep hit nothing:\n{warm}");
    assert_eq!((misses, rejects), (0, 0), "{warm}");
    assert!(table() == reference, "the warm sweep's fig04 differs");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn killed_sweep_resumes_warm_from_the_store() {
    let root: PathBuf =
        std::env::temp_dir().join(format!("ehsim_store_resume_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (store, workdir) = (root.join("store"), root.join("work"));
    std::fs::create_dir_all(&workdir).expect("create workdir");

    let mut child = sweep(&store, &workdir, &["--scale", "small"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sweep");
    let deadline = Instant::now() + Duration::from_secs(300);
    while entries(&store) == 0 {
        assert!(
            child.try_wait().expect("poll sweep").is_none(),
            "sweep exited before persisting anything"
        );
        assert!(Instant::now() < deadline, "no store entry within 300 s");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        child.try_wait().expect("poll sweep").is_none(),
        "sweep finished before it could be killed"
    );
    child.kill().expect("SIGKILL the sweep");
    child.wait().expect("reap the sweep");

    let out = sweep(&store, &workdir, &["--figure", "fig04", "--scale", "small"])
        .output()
        .expect("rerun fig04");
    let summary = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "rerun failed:\n{summary}");
    let (hits, _misses, rejects) = store_counters(&summary);
    assert!(
        hits > 0,
        "rerun loaded nothing the killed sweep stored:\n{summary}"
    );
    assert_eq!(rejects, 0, "a killed sweep left a torn entry:\n{summary}");

    let tsv = std::fs::read(workdir.join("results/small/fig04.tsv")).expect("read fig04.tsv");
    assert_eq!(
        fnv1a(&tsv),
        FIG04_SMALL_FNV,
        "store-served fig04 drifted off the pinned golden"
    );
    let _ = std::fs::remove_dir_all(&root);
}
