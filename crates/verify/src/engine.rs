//! A small bounded explicit-state model checker.
//!
//! [`explore`] runs a breadth-first search over a [`Model`]'s state
//! graph: every reachable state is checked against the model's
//! invariants, duplicate states are pruned by fingerprint, and an
//! invariant violation yields a [`Violation`] carrying the full action
//! trace from the initial state (a counterexample, minimal in length by
//! BFS construction). Models that cannot soundly fingerprint their
//! state (e.g. the concrete `WlCache` harness) return `None` from
//! [`Model::fingerprint`] and get exhaustive bounded enumeration
//! instead of dedup.

use std::collections::BTreeSet;
use std::collections::VecDeque;
use std::fmt;

/// A transition system with checkable invariants.
pub trait Model {
    /// Full system state; cloned along the BFS frontier.
    type State: Clone;
    /// One enabled transition out of a state.
    type Action: Clone + fmt::Debug;

    /// The single initial state.
    fn initial(&self) -> Self::State;

    /// Enumerate the actions enabled in `state` into `out` (cleared by
    /// the caller). Determinism matters: the same state must always
    /// yield the same action list, in the same order.
    fn actions(&self, state: &Self::State, out: &mut Vec<Self::Action>);

    /// Apply `action` to a copy of `state`. `Ok(None)` means the action
    /// turned out to be a no-op/disabled (the successor is discarded);
    /// `Err` is an invariant violation raised mid-transition.
    fn step(
        &self,
        state: &Self::State,
        action: &Self::Action,
    ) -> Result<Option<Self::State>, String>;

    /// Check every invariant of `state`; `Err` carries the violated
    /// invariant's description.
    fn check(&self, state: &Self::State) -> Result<(), String>;

    /// A collision-resistant-enough fingerprint for dedup, or `None` to
    /// disable dedup (every path is then explored to the depth bound).
    fn fingerprint(&self, state: &Self::State) -> Option<u64>;
}

/// Exploration budget.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Maximum BFS depth (actions from the initial state).
    pub max_depth: usize,
    /// Maximum number of distinct states to visit.
    pub max_states: usize,
}

impl Limits {
    /// A budget with the given depth and state caps.
    pub fn new(max_depth: usize, max_states: usize) -> Self {
        Self {
            max_depth,
            max_states,
        }
    }
}

impl Default for Limits {
    fn default() -> Self {
        Self::new(64, 1_000_000)
    }
}

/// A counterexample: the violated invariant plus the action trace that
/// reaches the bad state from the initial state.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Description of the violated invariant (from [`Model::check`] or
    /// a failing [`Model::step`]).
    pub message: String,
    /// Debug-rendered actions, in order, from the initial state.
    pub trace: Vec<String>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "invariant violated: {}", self.message)?;
        writeln!(f, "counterexample ({} steps):", self.trace.len())?;
        for (i, a) in self.trace.iter().enumerate() {
            writeln!(f, "  {:>3}. {a}", i + 1)?;
        }
        Ok(())
    }
}

/// What an exploration did.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Distinct states visited (post-dedup).
    pub states: usize,
    /// Transitions taken (successor states generated, including dups).
    pub transitions: usize,
    /// Deepest level reached.
    pub max_depth: usize,
    /// Successors discarded because their fingerprint was already seen.
    pub dedup_hits: usize,
    /// Whether a budget limit cut the search short.
    pub truncated: bool,
    /// First invariant violation found, if any (search stops there).
    pub violation: Option<Violation>,
}

impl Outcome {
    /// Whether every explored state satisfied every invariant.
    pub fn holds(&self) -> bool {
        self.violation.is_none()
    }
}

/// Arena node for counterexample reconstruction.
struct Lineage<A> {
    parent: usize,
    action: Option<A>,
}

/// Breadth-first exploration of `model` within `limits`.
pub fn explore<M: Model>(model: &M, limits: Limits) -> Outcome {
    let mut out = Outcome::default();
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    let mut lineage: Vec<Lineage<M::Action>> = Vec::new();
    let mut frontier: VecDeque<(M::State, usize, usize)> = VecDeque::new();

    let init = model.initial();
    if let Err(msg) = model.check(&init) {
        out.states = 1;
        out.violation = Some(Violation {
            message: msg,
            trace: Vec::new(),
        });
        return out;
    }
    if let Some(fp) = model.fingerprint(&init) {
        seen.insert(fp);
    }
    lineage.push(Lineage {
        parent: usize::MAX,
        action: None,
    });
    frontier.push_back((init, 0, 0));
    out.states = 1;

    let mut actions: Vec<M::Action> = Vec::new();
    while let Some((state, node, depth)) = frontier.pop_front() {
        if depth >= limits.max_depth {
            out.truncated = true;
            continue;
        }
        actions.clear();
        model.actions(&state, &mut actions);
        for action in actions.iter() {
            let succ = match model.step(&state, action) {
                Ok(Some(s)) => s,
                Ok(None) => continue,
                Err(msg) => {
                    out.violation = Some(Violation {
                        message: msg,
                        trace: trace_of(&lineage, node, Some(action)),
                    });
                    return out;
                }
            };
            out.transitions += 1;
            if let Some(fp) = model.fingerprint(&succ) {
                if !seen.insert(fp) {
                    out.dedup_hits += 1;
                    continue;
                }
            }
            if let Err(msg) = model.check(&succ) {
                out.violation = Some(Violation {
                    message: msg,
                    trace: trace_of(&lineage, node, Some(action)),
                });
                return out;
            }
            out.states += 1;
            out.max_depth = out.max_depth.max(depth + 1);
            if out.states >= limits.max_states {
                out.truncated = true;
                return out;
            }
            lineage.push(Lineage {
                parent: node,
                action: Some(action.clone()),
            });
            frontier.push_back((succ, lineage.len() - 1, depth + 1));
        }
    }
    out
}

/// Reconstruct the action trace from the arena root to `node`, plus the
/// optional final action that produced the violating successor.
fn trace_of<A: Clone + fmt::Debug>(
    lineage: &[Lineage<A>],
    node: usize,
    last: Option<&A>,
) -> Vec<String> {
    let mut rev: Vec<String> = Vec::new();
    if let Some(a) = last {
        rev.push(format!("{a:?}"));
    }
    let mut cur = node;
    while cur != usize::MAX {
        let n = &lineage[cur];
        if let Some(a) = &n.action {
            rev.push(format!("{a:?}"));
        }
        cur = n.parent;
    }
    rev.reverse();
    rev
}

/// Drive `model` along a fixed action sequence, checking invariants
/// after every step. Useful for replaying counterexamples and for
/// directed scenario tests. Actions that report `Ok(None)` are skipped.
pub fn run_path<M: Model>(model: &M, path: &[M::Action]) -> Result<M::State, Violation> {
    let mut state = model.initial();
    let mut taken: Vec<String> = Vec::new();
    let fail = |msg: String, taken: &[String], a: &M::Action| Violation {
        message: msg,
        trace: taken.iter().cloned().chain([format!("{a:?}")]).collect(),
    };
    if let Err(msg) = model.check(&state) {
        return Err(Violation {
            message: msg,
            trace: Vec::new(),
        });
    }
    for a in path {
        match model.step(&state, a) {
            Ok(Some(s)) => state = s,
            Ok(None) => continue,
            Err(msg) => return Err(fail(msg, &taken, a)),
        }
        taken.push(format!("{a:?}"));
        if let Err(msg) = model.check(&state) {
            return Err(Violation {
                message: msg,
                trace: taken.clone(),
            });
        }
    }
    Ok(state)
}

/// FNV-1a 64-bit, the workspace's standard checksum primitive — small,
/// deterministic, dependency-free. Feed it bytes via [`Fnv::write`].
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Absorb bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Absorb a u64 (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Final digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A counter mod N with increment/decrement; invariant: value != bad.
    struct Counter {
        n: u8,
        bad: Option<u8>,
    }

    #[derive(Clone, Debug)]
    enum Op {
        Inc,
        Dec,
    }

    impl Model for Counter {
        type State = u8;
        type Action = Op;
        fn initial(&self) -> u8 {
            0
        }
        fn actions(&self, _: &u8, out: &mut Vec<Op>) {
            out.push(Op::Inc);
            out.push(Op::Dec);
        }
        fn step(&self, s: &u8, a: &Op) -> Result<Option<u8>, String> {
            Ok(Some(match a {
                Op::Inc => (s + 1) % self.n,
                Op::Dec => (s + self.n - 1) % self.n,
            }))
        }
        fn check(&self, s: &u8) -> Result<(), String> {
            match self.bad {
                Some(b) if *s == b => Err(format!("reached forbidden value {b}")),
                _ => Ok(()),
            }
        }
        fn fingerprint(&self, s: &u8) -> Option<u64> {
            Some(u64::from(*s))
        }
    }

    #[test]
    fn dedup_visits_each_state_once() {
        let m = Counter { n: 10, bad: None };
        let out = explore(&m, Limits::new(100, 1000));
        assert!(out.holds());
        assert_eq!(out.states, 10);
        assert!(out.dedup_hits > 0);
        assert!(!out.truncated);
    }

    #[test]
    fn violation_trace_is_shortest_path() {
        let m = Counter {
            n: 10,
            bad: Some(7),
        };
        let out = explore(&m, Limits::new(100, 1000));
        let v = out.violation.expect("7 is reachable");
        // BFS reaches 7 fastest by three Dec steps (0 -> 9 -> 8 -> 7).
        assert_eq!(v.trace.len(), 3);
        assert!(v.to_string().contains("forbidden value 7"));
    }

    #[test]
    fn depth_limit_truncates_without_dedup() {
        struct NoFp;
        impl Model for NoFp {
            type State = u8;
            type Action = ();
            fn initial(&self) -> u8 {
                0
            }
            fn actions(&self, _: &u8, out: &mut Vec<()>) {
                out.push(());
            }
            fn step(&self, s: &u8, _: &()) -> Result<Option<u8>, String> {
                Ok(Some(s.wrapping_add(1)))
            }
            fn check(&self, _: &u8) -> Result<(), String> {
                Ok(())
            }
            fn fingerprint(&self, _: &u8) -> Option<u64> {
                None
            }
        }
        let out = explore(&NoFp, Limits::new(5, 1000));
        assert!(out.truncated);
        assert_eq!(out.max_depth, 5);
        assert_eq!(out.states, 6);
    }

    #[test]
    fn run_path_checks_every_step() {
        let m = Counter {
            n: 10,
            bad: Some(2),
        };
        assert!(run_path(&m, &[Op::Inc]).is_ok());
        let v = run_path(&m, &[Op::Inc, Op::Inc]).unwrap_err();
        assert_eq!(v.trace.len(), 2);
    }

    #[test]
    fn fnv_is_stable() {
        let mut h = Fnv::default();
        h.write(b"ehsim");
        let a = h.finish();
        let mut h2 = Fnv::default();
        h2.write(b"ehsim");
        assert_eq!(a, h2.finish());
        let mut h3 = Fnv::default();
        h3.write(b"ehsi m");
        assert_ne!(a, h3.finish());
    }
}
