//! The trace and sweep verbs on the real binary, each test in a temp
//! directory of its own: the bytes the plot and profile verbs write,
//! the Chrome trace and JSONL capture verbs, the verbs and options
//! `usage()` names and the retired ones, the arguments a verb rejects,
//! and the progress stream of a real sweep.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A fresh, empty directory for one test.
fn workdir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ehsim_verbs_{test}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    dir
}

/// Runs `ehsim-cli args` in `dir` with the `EHSIM_*` knobs in `env`
/// set and every other one cleared.
fn spawn(dir: &Path, env: &[(&str, &str)], args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ehsim-cli"));
    for knob in ehsim_bench::KNOBS {
        cmd.env_remove(knob);
    }
    cmd.envs(env.iter().copied())
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap_or_else(|e| panic!("spawn ehsim-cli: {e}"))
}

/// Runs `ehsim-cli args` in `dir` with no knob set and returns its
/// stdout; a non-zero exit fails the test.
fn cli(dir: &Path, args: &[&str]) -> String {
    cli_env(dir, &[], args)
}

/// [`cli`] with the knobs in `env` set.
fn cli_env(dir: &Path, env: &[(&str, &str)], args: &[&str]) -> String {
    let out = spawn(dir, env, args);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "ehsim-cli {args:?} failed:\n{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn read(dir: &Path, name: &str) -> Vec<u8> {
    std::fs::read(dir.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// The run every capture and plot test records (WL-Cache, the default
/// design, unless a test adds `--design`).
const FFT_RF3: [&str; 6] = ["--workload", "FFT_i", "--trace", "rf3", "--scale", "small"];

/// A fixed progress stream, so the per-design table has no wall-clock
/// bytes in it.
const PROGRESS: &str = "\
{\"kind\":\"meta\",\"host_cores\":2,\"jobs\":2,\"engine\":\"replay\",\"git_rev\":\"abc123\",\"scale\":\"small\"}
{\"kind\":\"sim\",\"ordinal\":1,\"design\":\"WL-Cache\",\"trace\":\"tr.3(RF)\",\"workload\":\"FFT_i\",\"engine\":\"replay\",\"elapsed_ns\":3000000,\"outages\":14,\"instructions\":120000,\"instr_per_s\":40000000}
{\"kind\":\"sim\",\"ordinal\":2,\"design\":\"NVSRAM\",\"trace\":\"tr.3(RF)\",\"workload\":\"FFT_i\",\"engine\":\"replay\",\"elapsed_ns\":2500000,\"outages\":16,\"instructions\":120000,\"instr_per_s\":48000000}
";

/// Pins every TSV and SVG that `voltage-plot`, `dq-plot`,
/// `energy-plot` and `profile-sweep` write, byte for byte.
#[test]
fn plot_and_profile_outputs_are_pinned() {
    let dir = workdir("plots");
    for verb in ["voltage-plot", "dq-plot", "energy-plot"] {
        let (tsv, svg) = (format!("{verb}.tsv"), format!("{verb}.svg"));
        let mut args = vec![verb];
        args.extend(FFT_RF3);
        args.extend(["--tsv-out", &tsv, "--svg-out", &svg]);
        cli(&dir, &args);
    }
    std::fs::write(dir.join("p.jsonl"), PROGRESS).unwrap();
    let out = cli(
        &dir,
        &["profile-sweep", "p.jsonl", "--design-out", "design.tsv"],
    );
    assert!(out.contains("(0 unparseable lines skipped)"), "{out}");
    let pinned: [(&str, usize, u64); 7] = [
        ("voltage-plot.tsv", 790_971, 0x799c_934d_e7d5_4ac1),
        ("voltage-plot.svg", 291_322, 0x81db_7c35_7415_3e57),
        ("dq-plot.tsv", 158_307, 0x6250_b319_b688_a0b2),
        ("dq-plot.svg", 258_581, 0x71d2_e881_13e4_da9a),
        ("energy-plot.tsv", 194, 0x5cbf_b132_2fc9_df98),
        ("energy-plot.svg", 1_778, 0xa974_3174_8ffe_4254),
        ("design.tsv", 132, 0xb839_6987_e4f9_9db6),
    ];
    let got = pinned.map(|(name, _, _)| {
        let bytes = read(&dir, name);
        (name, bytes.len(), fnv1a(&bytes))
    });
    assert_eq!(got, pinned);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two JSONL captures of one kernel, WL-Cache against WL-Cache(dyn):
/// the dynamic raise changes the run, and `diff-traces` says where.
#[test]
fn wl_and_wl_dyn_captures_diff_to_a_first_divergence() {
    let dir = workdir("diff");
    for (design, path) in [("wl", "wl.jsonl"), ("wl-dyn", "dyn.jsonl")] {
        let mut args = vec!["run"];
        args.extend(FFT_RF3);
        args.extend(["--design", design, "--stream-out", path]);
        cli(&dir, &args);
    }
    let out = cli(&dir, &["diff-traces", "wl.jsonl", "dyn.jsonl"]);
    assert!(out.contains("first divergence"), "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `run --stream-out` derives its Chrome JSON and interval TSV from the
/// capture it just wrote; both equal a plain in-memory run's, byte for
/// byte.
#[test]
fn stream_derived_exports_equal_in_memory_ones() {
    let dir = workdir("exports");
    let mut streamed = vec!["run"];
    streamed.extend(FFT_RF3);
    streamed.extend([
        "--stream-out",
        "s.jsonl",
        "--trace-out",
        "a.json",
        "--metrics-out",
        "a.tsv",
    ]);
    cli(&dir, &streamed);
    let mut plain = vec!["run"];
    plain.extend(FFT_RF3);
    plain.extend(["--trace-out", "b.json", "--metrics-out", "b.tsv"]);
    cli(&dir, &plain);
    for (a, b) in [("a.json", "b.json"), ("a.tsv", "b.tsv")] {
        assert!(read(&dir, a) == read(&dir, b), "{a} differs from {b}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A traced run writes a non-empty Chrome trace and interval table,
/// and `validate-trace` accepts the trace; with its last span end
/// dropped, it rejects it.
#[test]
fn traced_run_exports_a_trace_that_validates() {
    let dir = workdir("validate");
    let mut args = vec!["run"];
    args.extend(FFT_RF3);
    args.extend(["--trace-out", "a.json", "--metrics-out", "a.tsv"]);
    cli(&dir, &args);
    for name in ["a.json", "a.tsv"] {
        assert!(!read(&dir, name).is_empty(), "{name} is empty");
    }
    let out = cli(&dir, &["validate-trace", "a.json"]);
    assert!(out.contains("a.json: valid ("), "{out}");

    let json = String::from_utf8(read(&dir, "a.json")).unwrap();
    let last_end = json.rfind("{\"ph\":\"E\"").expect("a span end");
    let line_end = last_end + json[last_end..].find('\n').unwrap();
    let unbalanced = format!("{}{}", &json[..last_end], &json[line_end + 1..]);
    std::fs::write(dir.join("unbalanced.json"), unbalanced).unwrap();
    let out = spawn(&dir, &[], &["validate-trace", "unbalanced.json"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("never closed"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Verbs retired with what they drove: `record-bus`, `replay` and
/// `import-trace` with the `.bustrace` file format, `convert-trace` with
/// the second way to make Chrome JSON (`run --stream-out … --trace-out`
/// writes it).
const RETIRED: [&str; 4] = ["record-bus", "replay", "import-trace", "convert-trace"];

/// Each retired verb is an unknown command, exit 2.
#[test]
fn retired_verbs_are_unknown_commands() {
    let dir = workdir("retired");
    for verb in RETIRED {
        let out = spawn(&dir, &[], &[verb, "--workload", "sha"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{verb}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: unknown command '{verb}'")),
            "{verb}: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `usage()` names exactly the verbs `parse` knows: every indented
/// `ehsim-cli <verb>` line parses as a known command (bare, it may
/// still lack an argument), and no retired verb is named or known.
/// Every `--flag` it names is an option row, and every row is named.
#[test]
fn usage_names_exactly_the_verbs_parse_accepts() {
    let usage = ehsim_cli::usage();
    let verbs: Vec<&str> = usage
        .lines()
        .filter_map(|l| l.strip_prefix("  ehsim-cli "))
        .filter_map(|rest| rest.split_whitespace().next())
        .collect();
    assert!(verbs.len() >= 10, "too few verbs in usage: {verbs:?}");
    for verb in &verbs {
        if let Err(e) = ehsim_cli::parse(&[verb.to_string()]) {
            assert!(!e.starts_with("unknown command"), "{verb}: {e}");
        }
    }
    for verb in RETIRED {
        assert!(!verbs.contains(&verb), "usage still names {verb}");
        let e = ehsim_cli::parse(&[verb.to_string()]).unwrap_err();
        assert!(
            e.starts_with(&format!("unknown command '{verb}'")),
            "{verb}: {e}"
        );
    }
    let rows: Vec<&str> = ehsim_cli::OPTIONS
        .iter()
        .flat_map(|&(_, rows)| rows.iter().map(|&(name, ..)| name))
        .collect();
    let named: Vec<&str> = usage
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|word| word.starts_with("--"))
        .collect();
    for flag in &named {
        assert!(
            rows.contains(flag),
            "usage names {flag}, which is no option"
        );
    }
    for row in &rows {
        assert!(named.contains(row), "usage does not name {row}");
    }
}

/// Every option row against every verb, in process: `parse` accepts
/// the option exactly on the verbs its row lists, and otherwise names
/// both the option and the verb. Nothing is simulated.
#[test]
fn each_verb_takes_exactly_the_options_its_row_lists() {
    for &(takers, rows) in ehsim_cli::OPTIONS {
        for &(name, placeholder, _) in rows {
            let value = match name {
                "--scale" => "small",
                "--cache" | "--ways" | "--maxline" | "--capacitor-uf" => "2",
                "--dq-policy" | "--cache-policy" => "lru",
                "--adaptation" => "static",
                _ => "x",
            };
            for &(verb, positional) in ehsim_cli::VERBS {
                let mut argv = vec![verb.to_string()];
                argv.extend(positional.iter().map(|p| p.to_string()));
                argv.push(name.to_string());
                if !placeholder.is_empty() {
                    argv.push(value.to_string());
                }
                match ehsim_cli::parse(&argv) {
                    Ok(_) => assert!(takers.contains(&verb), "{argv:?} parsed"),
                    Err(e) => {
                        assert!(!takers.contains(&verb), "{argv:?}: {e}");
                        assert!(e.contains(verb) && e.contains(name), "{argv:?}: {e}");
                    }
                }
            }
        }
    }
}

/// An argument the verb does not take exits 2 before anything runs,
/// and the error names it: options another verb takes, a flag that is
/// no option, and a positional argument too many.
#[test]
fn arguments_a_verb_does_not_take_exit_2() {
    let dir = workdir("rejected");
    for (line, needle) in [
        (
            "compare --workload sha --scale small --design nvsram --trace-out x.json",
            "--design",
        ),
        (
            "dq-plot --workload sha --scale small --stream-out y.jsonl",
            "--stream-out",
        ),
        ("sweep --figure fig04 --all --scale small", "--all"),
        ("list --workload sha", "--workload"),
        ("diff-traces a b c", "'c'"),
    ] {
        let args: Vec<&str> = line.split_whitespace().collect();
        let out = spawn(&dir, &[], &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{line}: {stderr}");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(first.contains(needle), "{line}: {stderr}");
        assert!(out.stdout.is_empty(), "{line} printed output");
    }
    let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(left.is_empty(), "a rejected command wrote {left:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A real sweep's progress stream has its meta and sim lines and no
/// other kind, and `profile-sweep` reads all of it back into its
/// per-design table.
#[test]
fn sweep_progress_stream_reads_back_through_profile_sweep() {
    let dir = workdir("progress");
    cli(
        &dir,
        &[
            "sweep",
            "--figure",
            "fig04",
            "--scale",
            "small",
            "--progress-out",
            "progress.jsonl",
        ],
    );
    let log = String::from_utf8_lossy(&read(&dir, "progress.jsonl")).into_owned();
    for kind in ["meta", "sim"] {
        let line = format!("\"kind\":\"{kind}\"");
        assert!(log.contains(&line), "no {kind} line in:\n{log}");
    }
    for line in log.lines() {
        let known = ["meta", "sim"].map(|kind| format!("{{\"kind\":\"{kind}\","));
        assert!(
            known.iter().any(|k| line.starts_with(k.as_str())),
            "a line of another kind: {line}"
        );
    }
    let out = cli(
        &dir,
        &[
            "profile-sweep",
            "progress.jsonl",
            "--design-out",
            "designs.tsv",
        ],
    );
    assert!(out.contains("(0 unparseable lines skipped)"), "{out}");
    assert!(read(&dir, "designs.tsv").starts_with(b"design\t"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A Small-scale sweep saves under `results/small/`, so run from the
/// repository root it leaves the committed Default-scale tables alone.
#[test]
fn small_sweep_saves_under_results_small() {
    let dir = workdir("small");
    let out = cli(&dir, &["sweep", "--figure", "fig04", "--scale", "small"]);
    assert!(dir.join("results/small/fig04.tsv").is_file(), "{out}");
    assert!(
        !dir.join("results/fig04.tsv").exists(),
        "a Small sweep wrote a Default-scale table:\n{out}"
    );
    assert!(out.contains("regenerated under results/small/"), "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `EHSIM_TRACE_WORKLOAD` and `EHSIM_TRACE_DIR` are retired: a sweep
/// with both set writes no capture and the table an unset sweep writes.
/// `run --stream-out` is the one capture producer.
#[test]
fn retired_trace_knobs_leave_a_sweep_alone() {
    let dir = workdir("trace_knobs");
    let sweep = ["sweep", "--figure", "fig04", "--scale", "small"];
    cli(&dir, &sweep);
    let plain = read(&dir, "results/small/fig04.tsv");
    let knobs = [
        ("EHSIM_TRACE_WORKLOAD", "sha"),
        ("EHSIM_TRACE_DIR", "captures"),
    ];
    cli_env(&dir, &knobs, &sweep);
    assert!(
        read(&dir, "results/small/fig04.tsv") == plain,
        "the retired knobs changed fig04"
    );
    for capture_dir in ["captures", "traces"] {
        assert!(
            !dir.join(capture_dir).exists(),
            "a sweep wrote {capture_dir}/"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
