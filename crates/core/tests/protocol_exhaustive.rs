//! Exhaustive check of the WL-Cache write-back protocol (§5) on the real
//! [`WlCache`], up to a depth bound, with exact state dedup.
//!
//! The model wraps the cache in a harness of real NVM, port and energy
//! components. A breadth-first search ([`engine::explore`]) applies every
//! event of a ten-event alphabet to every reached state: stores and
//! loads to four lines over two direct-mapped sets (`A`/`C` and `B`/`D`
//! conflict, so evictions leave stale DirtyQueue entries, §5.4), a `Wait`
//! that lets in-flight ACKs land, and a `PowerCycle`. Each newly reached
//! state is checked against:
//!
//! - **I1**: NVM equals the oracle on every line that is not dirty and
//!   resident in the cache;
//! - **I2**: DirtyQueue occupancy ≤ `maxline` ≤ capacity;
//! - **I3**: `DirtyQueue::next_ack` equals the earliest ACK among the
//!   queue's entries (its cached minimum against a full scan);
//! - **I4**: `maxline` is never below its value at the last reboot;
//! - **I5**: the queue's `Cleaning` entries are exactly the write-backs
//!   the cache reported issued (`WritebackIssued`) and not yet ACKed
//!   (`DqAck`), by base and ACK time;
//! - **crash**: a JIT checkpoint taken at this state leaves NVM equal to
//!   the oracle byte for byte.
//!
//! The search runs once with static thresholds and once with dynamic
//! raises (`WL-Cache (dyn)`), which is what moves `maxline` within an
//! interval.
//!
//! # The dedup key
//!
//! [`ProtocolModel::key`] is a canonical form of a state: states with
//! equal keys have the same future, event for event, so exploring the
//! first one reached covers both. It holds, per alphabet line, its NVM
//! word, oracle word, residency, dirty bit and cached word; the queue's
//! entries in order, each with its state and ACK time; `next_ack`; the
//! in-flight write-backs; the port backlog; `maxline`, `waterline`, the
//! reboot `maxline` and the boots seen. The argument:
//!
//! - **Data independence.** `WlCache` never branches on a data value,
//!   and every store writes a value no word holds yet (`stores += 1`).
//!   So two states that differ by a renaming of values behave alike,
//!   and words are keyed by their order of first appearance. Only the
//!   first word of each alphabet line is ever stored to; every other
//!   byte of NVM, oracle and cache lines stays zero (I1 and the crash
//!   check compare every byte, so a write there would show).
//! - **Times relative to `now`.** No decision reads the absolute clock:
//!   the port serves at `max(now, busy_until)`, and an ACK is due once
//!   `ack_at ≤ now`. So ACK times and the port's `busy_until` enter the
//!   key as their distance past `now`, saturating at zero, since every
//!   due ACK is popped alike at the next poll.
//! - **Recency stamps do not matter.** With one way per set the victim
//!   is the set's only line, and FIFO DirtyQueue selection asks the tag
//!   array only whether a line is still dirty, never for its stamp.
//! - **Boot history.** The controller keeps the last two on-times. The
//!   harness reboots with a constant on-time, so the boots seen, capped
//!   at two, fix that history.
//!
//! What the key leaves out feeds no decision: energy, statistics, the
//! absolute clock and the store counter.
//!
//! Out-of-order ACK delivery is not explored: a single `NvmPort` serves
//! write-backs in issue order, so the real cache never sees it
//! (DESIGN §2.7).

#[path = "support/engine.rs"]
mod engine;

use ehsim_cache::designs::WriteBackDesign;
use ehsim_cache::{CacheDesign, CacheGeometry, CacheStats, MemCtx};
use ehsim_energy::EnergyMeter;
use ehsim_mem::{AccessSize, FunctionalMem, NvmEnergy, NvmPort, NvmTiming, Ps};
use ehsim_obs::{Event, Observer, ObserverBox};
use engine::{explore, run_path, Model};
use std::cell::RefCell;
use std::collections::btree_map::{BTreeMap, Entry};
use wl_cache::{AdaptationMode, DqState, Thresholds, WlCache, WlCacheBuilder};

/// The four alphabet lines: `A` and `C` share set 0, `B` and `D` set 1.
const LINES: [u32; 4] = [0x000, 0x040, 0x080, 0x0c0];
const LINE_BYTES: u32 = 64;
const MEM_BYTES: u32 = 256;
/// The power-on time every reboot reports.
const ON_TIME: Ps = 1_000_000;

/// The event alphabet.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    /// A store of a fresh value to line `LINES[i]`.
    Store(usize),
    /// A load from line `LINES[i]`, checked against the oracle.
    Load(usize),
    /// Let 500 ns pass, so every in-flight ACK lands.
    Wait,
    /// Power failure: JIT checkpoint, crash check, cold reboot.
    PowerCycle,
}

const ALPHABET: [Ev; 10] = [
    Ev::Store(0),
    Ev::Store(1),
    Ev::Store(2),
    Ev::Store(3),
    Ev::Load(0),
    Ev::Load(1),
    Ev::Load(2),
    Ev::Load(3),
    Ev::Wait,
    Ev::PowerCycle,
];

thread_local! {
    /// The events the cache emitted during the current operation.
    static EVENTS: RefCell<Vec<(Ps, Event)>> = const { RefCell::new(Vec::new()) };
}

/// Appends every event to [`EVENTS`].
struct EventLog;

impl Observer for EventLog {
    fn event(&mut self, at: Ps, ev: Event) {
        EVENTS.with_borrow_mut(|log| log.push((at, ev)));
    }
}

/// The real cache plus its memory-system harness.
#[derive(Clone)]
struct ProtoState {
    cache: WlCache,
    port: NvmPort,
    nvm: FunctionalMem,
    oracle: FunctionalMem,
    meter: EnergyMeter,
    stats: CacheStats,
    now: Ps,
    /// Stores so far; each store writes the new count.
    stores: u64,
    /// Write-backs reported issued and not yet ACKed: (base, ACK time).
    in_flight: Vec<(u32, Ps)>,
    /// `maxline` at the last reboot (at build before the first).
    boot_maxline: usize,
    /// Reboots so far, capped at 2.
    boots: u64,
}

/// The concrete §5 protocol as a [`Model`].
struct ProtocolModel {
    mode: AdaptationMode,
    timing: NvmTiming,
    energy: NvmEnergy,
}

impl ProtocolModel {
    fn new(mode: AdaptationMode) -> Self {
        Self {
            mode,
            timing: NvmTiming::default(),
            energy: NvmEnergy::default(),
        }
    }

    /// Runs `f` on the cache with a `MemCtx` over the harness, then
    /// replays the write-back issues and ACKs it reported into
    /// `in_flight`. An ACK of no issued write-back violates I5.
    fn with_ctx<R>(
        &self,
        s: &mut ProtoState,
        f: impl FnOnce(&mut WlCache, &mut MemCtx<'_>) -> R,
    ) -> Result<R, String> {
        let mut obs = ObserverBox::custom(EventLog);
        let mut ctx = MemCtx {
            now: s.now,
            port: &mut s.port,
            timing: &self.timing,
            energy: &self.energy,
            nvm: &mut s.nvm,
            meter: &mut s.meter,
            stats: &mut s.stats,
            cap_voltage: 3.3,
            obs: &mut obs,
        };
        let r = f(&mut s.cache, &mut ctx);
        for (at, ev) in EVENTS.take() {
            match ev {
                Event::WritebackIssued { base, ack_at } => s.in_flight.push((base, ack_at)),
                Event::DqAck { base } => {
                    let i = s.in_flight.iter().position(|&w| w == (base, at));
                    let i = i.ok_or_else(|| {
                        format!("I5: ACK of {base:#x} at {at} ps matches no issued write-back")
                    })?;
                    s.in_flight.swap_remove(i);
                }
                _ => {}
            }
        }
        Ok(r)
    }

    /// JIT checkpoint, crash check and cold reboot.
    fn power_cycle(&self, s: &mut ProtoState) -> Result<(), String> {
        s.now = self.with_ctx(s, |cache, ctx| cache.checkpoint(ctx))?;
        s.cache.power_off();
        s.port.reset();
        // The writes landed in NVM at issue; their ACKs die with the port.
        s.in_flight.clear();
        if s.nvm.as_bytes() != s.oracle.as_bytes() {
            return Err("crash: NVM diverged from the oracle after the JIT checkpoint".into());
        }
        s.now = self.with_ctx(s, |cache, ctx| cache.reboot(ctx, ON_TIME))?;
        s.boot_maxline = s.cache.thresholds_config().maxline();
        s.boots = (s.boots + 1).min(2);
        Ok(())
    }
}

/// Numbers values by first appearance.
#[derive(Default)]
struct Relabel(Vec<u64>);

impl Relabel {
    fn id(&mut self, v: u64) -> u64 {
        let i = self.0.iter().position(|&x| x == v).unwrap_or_else(|| {
            self.0.push(v);
            self.0.len() - 1
        });
        i as u64
    }
}

impl Model for ProtocolModel {
    type State = ProtoState;
    type Action = Ev;
    type Key = Vec<u64>;

    #[expect(
        clippy::expect_used,
        reason = "test code: a failure here fails the test"
    )]
    fn initial(&self) -> ProtoState {
        // Direct-mapped, 2 lines of 64 B: maximal conflict pressure.
        let thresholds = Thresholds::new(4, 2, 1).expect("valid");
        let mut builder = WlCacheBuilder::new();
        builder
            .geometry(CacheGeometry::new(128, 1, 64))
            .thresholds(thresholds)
            .adaptation(self.mode);
        ProtoState {
            cache: builder.build(),
            port: NvmPort::new(),
            nvm: FunctionalMem::new(MEM_BYTES),
            oracle: FunctionalMem::new(MEM_BYTES),
            meter: EnergyMeter::new(),
            stats: CacheStats::new(),
            now: 0,
            stores: 0,
            in_flight: Vec::new(),
            boot_maxline: thresholds.maxline(),
            boots: 0,
        }
    }

    fn actions(&self) -> &[Ev] {
        &ALPHABET
    }

    fn step(&self, s: &ProtoState, ev: Ev) -> Result<ProtoState, String> {
        let mut s = s.clone();
        match ev {
            Ev::Store(i) => {
                s.stores += 1;
                let val = s.stores;
                s.now = self.with_ctx(&mut s, |cache, ctx| {
                    cache.store(ctx, LINES[i], AccessSize::B4, val)
                })?;
                s.oracle.write(LINES[i], AccessSize::B4, val);
            }
            Ev::Load(i) => {
                let (done, v) = self.with_ctx(&mut s, |cache, ctx| {
                    cache.load(ctx, LINES[i], AccessSize::B4)
                })?;
                s.now = done;
                let expected = s.oracle.read(LINES[i], AccessSize::B4);
                if v != expected {
                    return Err(format!("load returned {v:#x}, oracle has {expected:#x}"));
                }
            }
            Ev::Wait => s.now += 500_000,
            Ev::PowerCycle => self.power_cycle(&mut s)?,
        }
        Ok(s)
    }

    fn check(&self, s: &ProtoState) -> Result<(), String> {
        let array = s.cache.core().array();
        for base in (0..MEM_BYTES).step_by(LINE_BYTES as usize) {
            let dirty = array.lookup(base).is_some_and(|sw| array.is_dirty(sw));
            let line = (base as usize)..((base + LINE_BYTES) as usize);
            if !dirty && s.nvm.as_bytes()[line.clone()] != s.oracle.as_bytes()[line] {
                return Err(format!(
                    "I1: line {base:#x} is not dirty, but NVM differs from the oracle"
                ));
            }
        }
        let dq = s.cache.dirty_queue();
        let t = s.cache.thresholds_config();
        if dq.len() > t.maxline() || t.maxline() > t.dq_capacity() {
            return Err(format!(
                "I2: {} entries, maxline {}, capacity {}",
                dq.len(),
                t.maxline(),
                t.dq_capacity()
            ));
        }
        let mut cleaning: Vec<(u32, Ps)> = dq
            .iter()
            .filter_map(|e| match e.state {
                DqState::Cleaning { ack_at } => Some((e.base, ack_at)),
                DqState::Dirty => None,
            })
            .collect();
        let scanned = cleaning.iter().map(|&(_, ack)| ack).min();
        if dq.next_ack() != scanned {
            return Err(format!(
                "I3: next_ack is {:?}, the entries' earliest ACK {scanned:?}",
                dq.next_ack()
            ));
        }
        if t.maxline() < s.boot_maxline {
            return Err(format!(
                "I4: maxline {} fell below {} set at the last reboot",
                t.maxline(),
                s.boot_maxline
            ));
        }
        let mut in_flight = s.in_flight.clone();
        cleaning.sort_unstable();
        in_flight.sort_unstable();
        if cleaning != in_flight {
            return Err(format!(
                "I5: Cleaning entries {cleaning:?}, write-backs in flight {in_flight:?}"
            ));
        }
        self.power_cycle(&mut s.clone())
    }

    fn key(&self, s: &ProtoState) -> Vec<u64> {
        let rel = |t: Ps| t.saturating_sub(s.now);
        let line_ix = |base: u32| u64::from(base / LINE_BYTES);
        let mut values = Relabel::default();
        let mut key = Vec::with_capacity(48);
        let array = s.cache.core().array();
        for addr in LINES {
            key.push(values.id(s.nvm.read(addr, AccessSize::B4)));
            key.push(values.id(s.oracle.read(addr, AccessSize::B4)));
            match array.lookup(addr) {
                None => key.push(0),
                Some(sw) => {
                    key.push(1 + u64::from(array.is_dirty(sw)));
                    key.push(values.id(array.read(sw, addr, AccessSize::B4)));
                }
            }
        }
        let dq = s.cache.dirty_queue();
        key.push(dq.len() as u64);
        for e in dq.iter() {
            key.push(line_ix(e.base));
            key.push(match e.state {
                DqState::Dirty => 0,
                DqState::Cleaning { ack_at } => 1 + rel(ack_at),
            });
        }
        key.push(dq.next_ack().map_or(0, |t| 1 + rel(t)));
        let mut in_flight: Vec<(u64, u64)> = s
            .in_flight
            .iter()
            .map(|&(b, t)| (line_ix(b), rel(t)))
            .collect();
        in_flight.sort_unstable();
        key.push(in_flight.len() as u64);
        key.extend(in_flight.into_iter().flat_map(|(b, t)| [b, t]));
        let t = s.cache.thresholds_config();
        key.extend([
            rel(s.port.busy_until()),
            t.maxline() as u64,
            t.waterline() as u64,
            s.boot_maxline as u64,
            s.boots,
        ]);
        key
    }
}

/// Explores `mode` to `depth` and returns the distinct states reached.
fn explore_clean(mode: AdaptationMode, depth: usize) -> usize {
    let out = explore(&ProtocolModel::new(mode), depth);
    if let Some(v) = &out.violation {
        panic!("protocol violation ({mode:?}):\n{v}");
    }
    assert!(out.truncated, "the depth bound is what stops this search");
    out.states
}

#[test]
fn static_thresholds_hold_every_invariant_to_depth_16() {
    assert_eq!(explore_clean(AdaptationMode::Static, 16), 12_153);
}

#[test]
fn dynamic_raises_hold_every_invariant_to_depth_12() {
    assert_eq!(explore_clean(AdaptationMode::Dynamic, 12), 68_209);
}

/// The key and check verdict of every state along every two-event
/// suffix of a state.
type Future = Vec<(Vec<u64>, Result<(), String>)>;

/// The [`Future`] of `s`.
fn future(m: &ProtocolModel, s: &ProtoState) -> Future {
    let verdict = |t: Result<ProtoState, String>| match t {
        Ok(t) => (m.key(&t), m.check(&t)),
        Err(e) => (Vec::new(), Err(e)),
    };
    let mut out = Vec::new();
    for &a in m.actions() {
        let s1 = m.step(s, a);
        if let Ok(s1) = &s1 {
            out.extend(m.actions().iter().map(|&b| verdict(m.step(s1, b))));
        }
        out.push(verdict(s1));
    }
    out
}

/// A spot-check of the key: in a depth-6 search, every state whose key
/// was seen before is driven through every two-event suffix beside the
/// first state seen with that key, and the two must pass through equal
/// keys with equal check verdicts. Dynamic mode, whose key has the most
/// fields in play.
#[test]
fn states_with_equal_keys_have_equal_futures() {
    let m = ProtocolModel::new(AdaptationMode::Dynamic);
    let init = m.initial();
    let mut first: BTreeMap<Vec<u64>, (ProtoState, Option<Future>)> = BTreeMap::new();
    first.insert(m.key(&init), (init.clone(), None));
    let mut level = vec![init];
    let mut pairs = 0;
    for _ in 0..6 {
        let mut next = Vec::new();
        for s in &level {
            for &ev in m.actions() {
                let t = m.step(s, ev).unwrap_or_else(|e| panic!("{e}"));
                match first.entry(m.key(&t)) {
                    Entry::Vacant(v) => {
                        v.insert((t.clone(), None));
                        next.push(t);
                    }
                    Entry::Occupied(mut o) => {
                        pairs += 1;
                        let (f, want) = o.get_mut();
                        let want = want.get_or_insert_with(|| future(&m, f));
                        assert!(
                            *want == future(&m, &t),
                            "equal keys, different futures: {:?}",
                            o.key()
                        );
                    }
                }
            }
        }
        level = next;
    }
    assert_eq!((first.len(), pairs), (5_034, 19_867));
}

#[test]
fn a_store_racing_its_lines_write_back_leaves_a_redundant_entry() {
    // §5.3: the cleaning StoreB starts marks A clean before issuing its
    // write-back, so a store to A while it is in flight re-dirties the
    // line and queues a second entry for it. Dynamic mode raises maxline
    // for it rather than stalling until the ACK.
    let m = ProtocolModel::new(AdaptationMode::Dynamic);
    let s = run_path(&m, &[Ev::Store(0), Ev::Store(1), Ev::Store(0)])
        .unwrap_or_else(|v| panic!("racing-store scenario violated:\n{v}"));
    let a: Vec<DqState> = s
        .cache
        .dirty_queue()
        .iter()
        .filter(|e| e.base == LINES[0])
        .map(|e| e.state)
        .collect();
    assert!(
        matches!(a[..], [DqState::Cleaning { .. }, DqState::Dirty]),
        "{a:?}"
    );
}
