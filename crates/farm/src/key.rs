//! Canonical simulation keys: an injective word encoding of
//! (configuration, workload, scale).
//!
//! This is PR 1's in-memory memo key, promoted to a crate of its own so
//! the persistent result store ([`crate::store`]) and the in-process
//! memo cache in `ehsim-bench::exec` key on the *same* identity — a
//! report written by one is exactly the report the other would compute.
//!
//! Hashing and equality run over the encoded words, so two keys are
//! equal exactly when every encoded field is identical. Floats are
//! encoded by bit pattern — injective by construction (distinct values
//! can never alias one entry; the only theoretical asymmetry, `0.0` vs
//! `-0.0` comparing `==` but encoding differently, errs toward a
//! redundant simulation, never toward a wrong figure).
//!
//! The encoding is versioned by [`KEY_VERSION`]. Any change to the
//! word layout — a new `SimConfig` field, a reordered discriminant —
//! must bump it; the store embeds the version in both the entry
//! filename and the file body, so stale-encoding entries are never
//! mistaken for current ones (see `store_key_version_embedded`).

use ehsim::{DesignKind, SimConfig};
use ehsim_cache::ReplacementPolicy;
use ehsim_energy::TraceKind;
use ehsim_workloads::Scale;
use wl_cache::{AdaptationMode, DqPolicy};

/// Version of the key word-encoding below. Bump whenever the layout
/// changes (new field, reordered discriminant, different float
/// packing); the result store treats entries written under any other
/// version as rejects, falling back to execution.
pub const KEY_VERSION: u32 = 1;

/// An injective word encoding of one simulation:
/// configuration × workload index × scale.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimKey(Vec<u64>);

impl SimKey {
    /// The encoded words (the store serializes these verbatim and
    /// compares them on load — a content-address, not a hash).
    pub fn words(&self) -> &[u64] {
        &self.0
    }

    /// 64-bit FNV-1a fingerprint over [`KEY_VERSION`] and the encoded
    /// words — the store's entry filename. Collisions are harmless:
    /// the file body carries the full word vector and a mismatch is
    /// treated as a miss, never as a hit.
    pub fn fingerprint(&self) -> u64 {
        let mut h = fnv1a_seed();
        h = fnv1a_u64(h, u64::from(KEY_VERSION));
        for &w in &self.0 {
            h = fnv1a_u64(h, w);
        }
        h
    }
}

/// 64-bit FNV-1a offset basis.
fn fnv1a_seed() -> u64 {
    0xcbf2_9ce4_8422_2325
}

/// Folds one word into an FNV-1a state, little-endian byte order.
fn fnv1a_u64(mut h: u64, w: u64) -> u64 {
    for b in w.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Encodes a simulation as a [`SimKey`], or `None` when it must not be
/// keyed: a custom power trace (`SimConfig::custom_trace`, an
/// `Option<PowerTrace>`) has no stable identity among the key words
/// yet; keying one needs a trace spec or a digest of its segments
/// among them.
pub fn sim_key(cfg: &SimConfig, workload: usize, scale: Scale) -> Option<SimKey> {
    // Exhaustive destructuring: adding a `SimConfig` field breaks this
    // binding until the encoding below covers it (and KEY_VERSION is
    // bumped).
    let SimConfig {
        design,
        geometry,
        cache_policy,
        trace,
        custom_trace,
        capacitor_uf,
        cpu,
        nvm_timing,
        nvm_energy,
        charging,
        verify,
        max_outages,
    } = cfg;
    if custom_trace.is_some() {
        return None;
    }
    let mut k: Vec<u64> = Vec::with_capacity(40);
    match design {
        DesignKind::VCacheWt => k.push(0),
        DesignKind::NvCacheWb => k.push(1),
        DesignKind::NvSram => k.push(2),
        DesignKind::Replay { region_instrs } => {
            k.push(3);
            k.push(*region_instrs);
        }
        DesignKind::WBuf { capacity } => {
            k.push(4);
            k.push(*capacity as u64);
        }
        DesignKind::Wl {
            thresholds,
            dq_policy,
            adaptation,
        } => {
            k.push(5);
            k.push(thresholds.dq_capacity() as u64);
            k.push(thresholds.maxline() as u64);
            k.push(thresholds.waterline() as u64);
            k.push(match dq_policy {
                DqPolicy::Fifo => 0,
                DqPolicy::Lru => 1,
            });
            k.push(match adaptation {
                AdaptationMode::Static => 0,
                AdaptationMode::Adaptive => 1,
                AdaptationMode::Dynamic => 2,
            });
        }
    }
    k.push(u64::from(geometry.size_bytes()));
    k.push(u64::from(geometry.ways()));
    k.push(u64::from(geometry.line_bytes()));
    k.push(match cache_policy {
        ReplacementPolicy::Lru => 0,
        ReplacementPolicy::Fifo => 1,
    });
    k.push(trace_discriminant(*trace));
    k.push(capacitor_uf.to_bits());
    let ehsim::CpuParams {
        ps_per_cycle,
        compute_pj_per_cycle,
        reg_checkpoint_ps,
        reg_checkpoint_pj,
        reg_restore_ps,
        reg_restore_pj,
        static_power_uw,
    } = cpu;
    k.push(*ps_per_cycle);
    k.push(compute_pj_per_cycle.to_bits());
    k.push(*reg_checkpoint_ps);
    k.push(reg_checkpoint_pj.to_bits());
    k.push(*reg_restore_ps);
    k.push(reg_restore_pj.to_bits());
    k.push(static_power_uw.to_bits());
    let ehsim_mem::NvmTiming {
        t_ck,
        t_burst,
        t_rcd,
        t_cl,
        t_wtr,
        t_wr,
        t_xaw,
    } = nvm_timing;
    for t in [t_ck, t_burst, t_rcd, t_cl, t_wtr, t_wr, t_xaw] {
        k.push(t.to_bits());
    }
    let ehsim_mem::NvmEnergy {
        read_pj_per_byte,
        write_pj_per_byte,
        activate_pj,
    } = nvm_energy;
    for e in [read_pj_per_byte, write_pj_per_byte, activate_pj] {
        k.push(e.to_bits());
    }
    let ehsim_energy::ChargingModel { v_knee, steepness } = charging;
    k.push(v_knee.to_bits());
    k.push(*steepness as u64);
    k.push(u64::from(*verify));
    k.push(*max_outages);
    k.push(match scale {
        Scale::Small => 0,
        Scale::Default => 1,
    });
    k.push(workload as u64);
    Some(SimKey(k))
}

/// Stable discriminant of a [`TraceKind`] — the index into
/// [`TraceKind::ALL`], shared with the report codec so a stored
/// report's `&'static str` trace label decodes by table lookup.
pub(crate) fn trace_discriminant(trace: TraceKind) -> u64 {
    match trace {
        TraceKind::None => 0,
        TraceKind::Rf1 => 1,
        TraceKind::Rf2 => 2,
        TraceKind::Rf3 => 3,
        TraceKind::Solar => 4,
        TraceKind::Thermal => 5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehsim::CpuParams;
    use std::collections::BTreeSet;

    fn key(cfg: SimConfig) -> SimKey {
        sim_key(&cfg, 0, Scale::Small).expect("keyable")
    }

    /// Every mutated configuration must land on a distinct key: the
    /// encoding is injective field by field.
    #[test]
    fn keys_distinguish_every_field() {
        let base = SimConfig::wl_cache();
        let mut keys: BTreeSet<SimKey> = BTreeSet::new();
        let variants: Vec<SimConfig> = vec![
            base.clone(),
            SimConfig::vcache_wt(),
            SimConfig::nvcache_wb(),
            SimConfig::nvsram(),
            SimConfig::replay(),
            SimConfig::write_buffer(),
            SimConfig::wl_cache_dyn(),
            base.clone().with_trace(TraceKind::Rf2),
            base.clone().with_capacitor_uf(33.0),
            base.clone().with_verify(),
            {
                let mut c = base.clone();
                c.max_outages = 7;
                c
            },
            {
                let mut c = base.clone();
                c.cpu = CpuParams {
                    compute_pj_per_cycle: base.cpu.compute_pj_per_cycle + 1.0,
                    ..c.cpu
                };
                c
            },
            {
                let mut c = base.clone();
                c.nvm_energy.write_pj_per_byte += 0.5;
                c
            },
            {
                let mut c = base.clone();
                c.charging.steepness += 1;
                c
            },
        ];
        let n = variants.len();
        for cfg in variants {
            keys.insert(key(cfg));
        }
        assert_eq!(keys.len(), n, "two distinct configs shared a key");
    }

    #[test]
    fn scale_and_workload_feed_the_key() {
        let cfg = SimConfig::wl_cache();
        let a = sim_key(&cfg, 0, Scale::Small).unwrap();
        let b = sim_key(&cfg, 1, Scale::Small).unwrap();
        let c = sim_key(&cfg, 0, Scale::Default).unwrap();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn equal_jobs_share_a_key_and_fingerprint() {
        let a = sim_key(&SimConfig::wl_cache(), 3, Scale::Small).unwrap();
        let b = sim_key(&SimConfig::wl_cache(), 3, Scale::Small).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn custom_traces_are_never_keyed() {
        let trace = ehsim_energy::PowerTrace::constant(100.0);
        let cfg = SimConfig::wl_cache().with_custom_trace(trace);
        assert_eq!(sim_key(&cfg, 0, Scale::Small), None);
    }

    #[test]
    fn fingerprint_depends_on_words() {
        let a = sim_key(&SimConfig::wl_cache(), 0, Scale::Small).unwrap();
        let b = sim_key(&SimConfig::wl_cache(), 1, Scale::Small).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
