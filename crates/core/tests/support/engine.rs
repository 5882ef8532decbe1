//! A small explicit-state model checker: breadth-first search over a
//! [`Model`], with exact dedup on each state's canonical [`Model::Key`].
//!
//! Every newly reached state is checked against the model's invariants.
//! A violation carries the action trace from the initial state, which
//! BFS makes a shortest one. Keys are compared whole in a `BTreeSet`,
//! never hashed, so no collision can prune an unexplored state.

use std::collections::{BTreeSet, VecDeque};
use std::fmt;

/// A transition system over a fixed alphabet, with checkable invariants.
pub trait Model {
    /// Full system state; cloned along the BFS frontier.
    type State: Clone;
    /// One transition label.
    type Action: Copy + fmt::Debug;
    /// The canonical form of a state: two states with equal keys must
    /// have the same future, so only the first one reached is explored.
    type Key: Ord;

    /// The single initial state.
    fn initial(&self) -> Self::State;

    /// The actions enabled in every state, in a fixed order.
    fn actions(&self) -> &[Self::Action];

    /// `action` applied to a copy of `state`; `Err` is an invariant
    /// violation raised mid-transition.
    fn step(&self, state: &Self::State, action: Self::Action) -> Result<Self::State, String>;

    /// Every invariant of `state`; `Err` names the violated one.
    fn check(&self, state: &Self::State) -> Result<(), String>;

    /// The dedup key of `state`.
    fn key(&self, state: &Self::State) -> Self::Key;
}

/// A counterexample: the violated invariant and the actions that reach
/// the bad state from the initial state.
pub struct Violation<A> {
    /// What was violated (from [`Model::check`] or [`Model::step`]).
    pub message: String,
    /// The actions, in order, from the initial state.
    pub trace: Vec<A>,
}

impl<A: fmt::Debug> fmt::Display for Violation<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "invariant violated: {}", self.message)?;
        writeln!(f, "counterexample ({} steps):", self.trace.len())?;
        for (i, a) in self.trace.iter().enumerate() {
            writeln!(f, "  {:>3}. {a:?}", i + 1)?;
        }
        Ok(())
    }
}

/// What a search did.
pub struct Outcome<A> {
    /// Distinct states reached, the initial one included.
    pub states: usize,
    /// Whether the depth bound left states unexpanded (`false`: every
    /// reachable state was explored).
    pub truncated: bool,
    /// The first violation found; the search stops there.
    pub violation: Option<Violation<A>>,
}

/// The actions from the initial state to arena node `node`, then `last`.
fn trace_of<A: Copy>(lineage: &[(usize, Option<A>)], mut node: usize, last: A) -> Vec<A> {
    let mut rev = vec![last];
    while let Some(&(parent, Some(a))) = lineage.get(node) {
        rev.push(a);
        node = parent;
    }
    rev.reverse();
    rev
}

/// Breadth-first search of `model` up to `max_depth` actions deep.
pub fn explore<M: Model>(model: &M, max_depth: usize) -> Outcome<M::Action> {
    let mut out = Outcome {
        states: 1,
        truncated: false,
        violation: None,
    };
    let init = model.initial();
    if let Err(message) = model.check(&init) {
        out.violation = Some(Violation {
            message,
            trace: Vec::new(),
        });
        return out;
    }
    let mut seen = BTreeSet::from([model.key(&init)]);
    // (parent node, action from it); the root has no action.
    let mut lineage: Vec<(usize, Option<M::Action>)> = vec![(usize::MAX, None)];
    let mut frontier = VecDeque::from([(init, 0usize, 0usize)]);
    while let Some((state, node, depth)) = frontier.pop_front() {
        if depth == max_depth {
            out.truncated = true;
            continue;
        }
        for &action in model.actions() {
            let next = model.step(&state, action).and_then(|s| {
                if seen.insert(model.key(&s)) {
                    model.check(&s).map(|()| Some(s))
                } else {
                    Ok(None)
                }
            });
            match next {
                Ok(Some(s)) => {
                    out.states += 1;
                    lineage.push((node, Some(action)));
                    frontier.push_back((s, lineage.len() - 1, depth + 1));
                }
                Ok(None) => {}
                Err(message) => {
                    out.violation = Some(Violation {
                        message,
                        trace: trace_of(&lineage, node, action),
                    });
                    return out;
                }
            }
        }
    }
    out
}

/// Drives `model` along `path`, checking the invariants after each step.
pub fn run_path<M: Model>(model: &M, path: &[M::Action]) -> Result<M::State, Violation<M::Action>> {
    let mut state = model.initial();
    for (i, &action) in path.iter().enumerate() {
        state = model
            .step(&state, action)
            .and_then(|s| model.check(&s).map(|()| s))
            .map_err(|message| Violation {
                message,
                trace: path[..=i].to_vec(),
            })?;
    }
    Ok(state)
}
