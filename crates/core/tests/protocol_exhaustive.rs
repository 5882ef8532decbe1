//! Bounded exhaustive check of the WL-Cache write policy (§5), driven
//! through `ehsim-verify`'s explicit-state model-checking engine.
//!
//! The [`Model`] below wraps the *concrete* [`WlCache`] in a harness of
//! real NVM/port/energy components; the engine's BFS then explores every
//! event sequence up to the depth bound, over an alphabet designed to
//! hit the protocol's corner cases (redundant DirtyQueue entries, stale
//! entries from evictions, checkpoints racing in-flight write-backs).
//! `check()` runs at **every** explored state and plays the crash card
//! each time: a clone of the harness is JIT-checkpointed and its NVM
//! compared byte-for-byte with the oracle, so consistency is verified
//! after every prefix, not only at explicit `PowerCycle` events.
//!
//! The concrete harness deliberately returns `None` from
//! `fingerprint()`: hashing a full simulator state would risk unsound
//! dedup, so the engine enumerates all `6^depth` paths — the same
//! strength as the original hand-rolled odometer loop, minus the
//! boilerplate. The fully-fingerprintable *abstract* twin of this model
//! (millions of deduplicated states) lives in `ehsim_verify::model`.

use ehsim_cache::{CacheDesign, CacheGeometry, CacheStats, MemCtx};
use ehsim_energy::EnergyMeter;
use ehsim_mem::{AccessSize, FunctionalMem, NvmEnergy, NvmPort, NvmTiming, Ps};
use ehsim_verify::engine::{explore, run_path, Limits, Model};
use wl_cache::{AdaptationMode, Thresholds, WlCache, WlCacheBuilder};

/// The event alphabet. Addresses are chosen so that:
/// - `A` (0x000) and `C` (0x100) conflict in the direct-mapped cache
///   (stale-entry path, §5.4);
/// - `B` (0x040) lives in the other set;
/// - `StoreA` twice in a row exercises the §5.3 redundant-entry path
///   when the first store's cleaning is still in flight.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    StoreA,
    StoreB,
    StoreC,
    LoadA,
    /// Let time pass so in-flight ACKs land.
    Wait,
    /// Power failure: checkpoint, verify, power off, reboot cold.
    PowerCycle,
}

const ALPHABET: [Event; 6] = [
    Event::StoreA,
    Event::StoreB,
    Event::StoreC,
    Event::LoadA,
    Event::Wait,
    Event::PowerCycle,
];

/// Concrete protocol state: the real cache plus its memory-system
/// harness. Cloned along the BFS frontier; the observer is not
/// cloneable (and must stay disabled anyway), so each clone gets a
/// fresh `Noop`.
struct ProtoState {
    cache: WlCache,
    port: NvmPort,
    nvm: FunctionalMem,
    oracle: FunctionalMem,
    meter: EnergyMeter,
    stats: CacheStats,
    now: Ps,
    stores: u32,
    obs: ehsim_obs::ObserverBox,
}

impl Clone for ProtoState {
    fn clone(&self) -> Self {
        Self {
            cache: self.cache.clone(),
            port: self.port.clone(),
            nvm: self.nvm.clone(),
            oracle: self.oracle.clone(),
            meter: self.meter,
            stats: self.stats,
            now: self.now,
            stores: self.stores,
            obs: ehsim_obs::ObserverBox::Noop,
        }
    }
}

impl ProtoState {
    /// Split-borrow helper: hands the closure the cache and a `MemCtx`
    /// over the *other* harness fields.
    fn with_ctx<R>(
        &mut self,
        timing: &NvmTiming,
        energy: &NvmEnergy,
        f: impl FnOnce(&mut WlCache, &mut MemCtx<'_>) -> R,
    ) -> R {
        let now = self.now;
        let Self {
            cache,
            port,
            nvm,
            meter,
            stats,
            obs,
            ..
        } = self;
        let mut ctx = MemCtx {
            now,
            port,
            timing,
            energy,
            nvm,
            meter,
            stats,
            cap_voltage: 3.3,
            obs,
        };
        f(cache, &mut ctx)
    }

    /// The JIT checkpoint + verify + cold reboot sequence.
    fn power_cycle(&mut self, timing: &NvmTiming, energy: &NvmEnergy) -> Result<(), String> {
        self.now = self.with_ctx(timing, energy, |cache, ctx| cache.checkpoint(ctx));
        self.cache.power_off();
        self.port.reset();
        if self.nvm.as_bytes() != self.oracle.as_bytes() {
            return Err("NVM diverged from the oracle after the JIT checkpoint".into());
        }
        self.now = self.with_ctx(timing, energy, |cache, ctx| cache.reboot(ctx, 1_000_000));
        Ok(())
    }
}

/// The concrete §5 protocol as an `ehsim-verify` model.
struct ProtocolModel {
    timing: NvmTiming,
    energy: NvmEnergy,
}

impl ProtocolModel {
    fn new() -> Self {
        Self {
            timing: NvmTiming::default(),
            energy: NvmEnergy::default(),
        }
    }
}

impl Model for ProtocolModel {
    type State = ProtoState;
    type Action = Event;

    #[expect(
        clippy::expect_used,
        reason = "test code: a failure here fails the test"
    )]
    fn initial(&self) -> ProtoState {
        // Direct-mapped, 2 lines of 64 B: maximal conflict pressure.
        let mut builder = WlCacheBuilder::new();
        builder
            .geometry(CacheGeometry::new(128, 1, 64))
            .thresholds(Thresholds::new(4, 2, 1).expect("valid"))
            .adaptation(AdaptationMode::Static);
        ProtoState {
            cache: builder.build(),
            port: NvmPort::new(),
            nvm: FunctionalMem::new(1024),
            oracle: FunctionalMem::new(1024),
            meter: EnergyMeter::new(),
            stats: CacheStats::new(),
            now: 0,
            stores: 0,
            obs: ehsim_obs::ObserverBox::Noop,
        }
    }

    fn actions(&self, _: &ProtoState, out: &mut Vec<Event>) {
        out.extend_from_slice(&ALPHABET);
    }

    fn step(&self, s: &ProtoState, ev: &Event) -> Result<Option<ProtoState>, String> {
        let mut s = s.clone();
        match ev {
            Event::StoreA | Event::StoreB | Event::StoreC => {
                let addr = match ev {
                    Event::StoreA => 0x000,
                    Event::StoreB => 0x040,
                    _ => 0x100,
                };
                // Distinct value per store along the path, as the old
                // odometer loop's counter provided.
                s.stores = s.stores.wrapping_mul(31).wrapping_add(1);
                let val = u64::from(s.stores);
                s.now = s.with_ctx(&self.timing, &self.energy, |cache, ctx| {
                    cache.store(ctx, addr, AccessSize::B4, val)
                });
                s.oracle.write(addr, AccessSize::B4, val);
            }
            Event::LoadA => {
                let (done, v) = s.with_ctx(&self.timing, &self.energy, |cache, ctx| {
                    cache.load(ctx, 0x000, AccessSize::B4)
                });
                s.now = done;
                // Read-your-writes against the oracle.
                let expected = s.oracle.read(0x000, AccessSize::B4);
                if v != expected {
                    return Err(format!("load returned {v:#x}, oracle has {expected:#x}"));
                }
            }
            Event::Wait => {
                s.now += 500_000; // 500 ns: every in-flight ACK lands
            }
            Event::PowerCycle => {
                s.power_cycle(&self.timing, &self.energy)?;
            }
        }
        Ok(Some(s))
    }

    /// Crash at every state: a throwaway clone is checkpointed and its
    /// NVM compared with the oracle, plus the cheap structural bounds.
    fn check(&self, s: &ProtoState) -> Result<(), String> {
        let maxline = s.cache.thresholds_config().maxline();
        if s.cache.dq_len() > maxline {
            return Err(format!(
                "DirtyQueue holds {} entries, maxline is {maxline}",
                s.cache.dq_len()
            ));
        }
        let mut crashed = s.clone();
        crashed
            .power_cycle(&self.timing, &self.energy)
            .map_err(|e| format!("crash at this state: {e}"))
    }

    /// No dedup: hashing the full concrete simulator state would risk
    /// unsound pruning, so every path is enumerated (bounded-exhaustive,
    /// exactly like the original test).
    fn fingerprint(&self, _: &ProtoState) -> Option<u64> {
        None
    }
}

#[test]
fn all_sequences_up_to_length_5_are_consistent() {
    // 6^0 + … + 6^5 = 9331 states, each crash-verified in `check`, so
    // every sequence of ≤ 5 events ends with a forced checkpoint+verify
    // — the original enumeration's guarantee, plus all prefixes.
    let out = explore(&ProtocolModel::new(), Limits::new(5, usize::MAX));
    if let Some(v) = &out.violation {
        panic!("protocol violation:\n{v}");
    }
    assert_eq!(out.states, 9331, "bounded-exhaustive coverage shrank");
    assert!(out.truncated, "depth bound is what stops this search");
}

#[test]
fn the_papers_racing_store_scenario_is_covered() {
    // §5.3's motivating interleaving, explicitly: store A, force a
    // cleaning via pressure, re-store A while the write-back is in
    // flight, then fail. The final NVM value must be the second store's.
    let end = run_path(
        &ProtocolModel::new(),
        &[
            Event::StoreA,
            Event::StoreB,
            Event::StoreC, // waterline exceeded: cleaning launches
            Event::StoreA, // re-dirty while (possibly) in flight
            Event::PowerCycle,
        ],
    )
    .unwrap_or_else(|v| panic!("racing-store scenario violated:\n{v}"));
    assert_eq!(end.nvm.as_bytes(), end.oracle.as_bytes());
}
