//! Deep model-checking runs over the abstract §5 write-back protocol:
//! the faithful model must sustain all five invariants across a large
//! deduplicated state space, and every injected protocol bug must be
//! refuted with a concrete counterexample trace.

use ehsim_verify::engine::{explore, run_path, Limits};
use ehsim_verify::model::{Act, Mutation, WriteBackModel};

/// The headline number: ≥ 100,000 deduplicated states with all five
/// invariants holding. (The full reachable space is ~9.86 M states; the
/// CLI's default budget of depth 12 / 1 M states stops at the state cap
/// at depth 11.)
#[test]
fn faithful_protocol_holds_over_100k_deduplicated_states() {
    let out = explore(&WriteBackModel::faithful(), Limits::new(64, 120_000));
    assert!(out.holds(), "invariant violated:\n{:?}", out.violation);
    assert!(
        out.states >= 100_000,
        "only {} states explored (budget allowed 120k)",
        out.states
    );
    assert!(out.dedup_hits > 0, "dedup must prune re-reached states");
}

/// The skip-stale-drop mutant from the issue text: cleaning selection
/// issues stale entries instead of lazily dropping them, so another
/// line's bytes land at the stale address — caught by the NVM
/// consistency invariant, with a minimal counterexample trace.
#[test]
fn skip_stale_drop_mutant_yields_counterexample_trace() {
    let out = explore(
        &WriteBackModel::mutated(Mutation::SkipStaleDrop),
        Limits::new(10, 500_000),
    );
    let v = out.violation.expect("mutant must be refuted");
    assert!(
        v.message.starts_with("I1"),
        "wrong invariant: {}",
        v.message
    );
    assert!(
        !v.trace.is_empty() && v.trace.len() <= 6,
        "BFS finds a short counterexample, got {} steps",
        v.trace.len()
    );
    // The rendered trace is a replayable action list.
    let rendered = format!("{v}");
    assert!(rendered.contains("counterexample"));
    assert!(
        rendered.contains("Store"),
        "trace must show the stores: {rendered}"
    );

    // Replaying the counterexample through run_path on the same mutant
    // reproduces the violation — the trace is not just decorative.
    let acts: Vec<Act> = v
        .trace
        .iter()
        .map(|t| parse_act(t).unwrap_or_else(|| panic!("unparseable action `{t}`")))
        .collect();
    let replay = run_path(&WriteBackModel::mutated(Mutation::SkipStaleDrop), &acts);
    assert!(replay.is_err(), "replay must hit the same violation");
    // The faithful protocol survives the same schedule.
    let faithful = run_path(&WriteBackModel::faithful(), &acts);
    assert!(
        faithful.is_ok(),
        "faithful protocol must survive: {faithful:?}"
    );
}

/// Each of the six mutants is refuted, and by the invariant it was
/// designed to break (every invariant has teeth).
#[test]
fn all_mutants_are_refuted_by_their_invariant() {
    let cases = [
        (Mutation::SkipJitFlush, "I1"),
        (Mutation::SkipStaleDrop, "I1"),
        (Mutation::OverfillQueue, "I2"),
        (Mutation::SkipMinRecompute, "I3"),
        (Mutation::LowerThresholdMidInterval, "I4"),
        (Mutation::FreeSlotAtIssue, "I5"),
    ];
    for (m, inv) in cases {
        let out = explore(&WriteBackModel::mutated(m), Limits::new(12, 500_000));
        let v = out
            .violation
            .unwrap_or_else(|| panic!("{m:?} survived the bounded search"));
        assert!(
            v.message.starts_with(inv),
            "{m:?} hit {} instead",
            v.message
        );
    }
}

/// Parse a `Debug`-rendered [`Act`] back into an action (supports the
/// replay assertion above).
fn parse_act(s: &str) -> Option<Act> {
    if s == "IssueCleaning" {
        return Some(Act::IssueCleaning);
    }
    if s == "Crash" {
        return Some(Act::Crash);
    }
    let (name, arg) = s.split_once('(')?;
    let n: u8 = arg.strip_suffix(')')?.parse().ok()?;
    match name {
        "Store" => Some(Act::Store(n)),
        "Load" => Some(Act::Load(n)),
        "DeliverAck" => Some(Act::DeliverAck(n)),
        _ => None,
    }
}
