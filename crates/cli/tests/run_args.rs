//! Every configuration the figure tables and the write-buffer ablation
//! build has an `ehsim-cli run` line: [`run_args`] writes it, and
//! `config_of(parse(line))` builds the same `SimConfig` back. Nothing
//! is simulated.

use ehsim::{DesignKind, SimConfig};
use ehsim_cache::{CacheGeometry, ReplacementPolicy};
use ehsim_cli::{config_of, parse, Command};
use ehsim_energy::{PowerTrace, TraceKind};
use wl_cache::{AdaptationMode, DqPolicy, Thresholds};

/// The `ehsim-cli run` line (after the binary name) that builds `cfg`,
/// or `None` when no line does: a custom trace, a design variant no
/// `--design` names, or a CPU, NVM, charging model or outage guard
/// other than the defaults, which no option sets.
fn run_args(cfg: &SimConfig) -> Option<Vec<String>> {
    let base = SimConfig::wl_cache();
    let fixed = cfg.custom_trace.is_none()
        && cfg.cpu == base.cpu
        && cfg.nvm_timing == base.nvm_timing
        && cfg.nvm_energy == base.nvm_energy
        && cfg.charging == base.charging
        && cfg.max_outages == base.max_outages
        && cfg.geometry.line_bytes() == 64;
    if !fixed {
        return None;
    }
    let mut args = vec!["run".to_string()];
    let mut flag = |name: &str, value: String| args.extend([name.to_string(), value]);
    let design = match cfg.design {
        DesignKind::NvSram => "nvsram",
        DesignKind::NvCacheWb => "nvcache",
        DesignKind::VCacheWt => "wt",
        DesignKind::Replay { region_instrs: 64 } => "replay",
        DesignKind::WBuf { capacity: 6 } => "wbuf",
        DesignKind::Wl {
            thresholds,
            dq_policy,
            adaptation,
        } => {
            let dq = match dq_policy {
                DqPolicy::Fifo => "fifo",
                DqPolicy::Lru => "lru",
            };
            flag("--dq-policy", dq.into());
            let paper = thresholds == Thresholds::paper_default();
            match adaptation {
                AdaptationMode::Dynamic if paper => "wl-dyn",
                AdaptationMode::Adaptive if paper => "wl",
                AdaptationMode::Static => {
                    let maxline =
                        (1..=8).find(|&m| Thresholds::with_maxline(8, m) == Ok(thresholds))?;
                    flag("--maxline", maxline.to_string());
                    "wl"
                }
                _ => return None,
            }
        }
        _ => return None,
    };
    let trace = match cfg.trace {
        TraceKind::None => "none",
        TraceKind::Rf1 => "rf1",
        TraceKind::Rf2 => "rf2",
        TraceKind::Rf3 => "rf3",
        TraceKind::Solar => "solar",
        TraceKind::Thermal => "thermal",
    };
    let cache_policy = match cfg.cache_policy {
        ReplacementPolicy::Lru => "lru",
        ReplacementPolicy::Fifo => "fifo",
    };
    flag("--design", design.into());
    flag("--trace", trace.into());
    flag("--cache", cfg.geometry.size_bytes().to_string());
    flag("--ways", cfg.geometry.ways().to_string());
    flag("--cache-policy", cache_policy.into());
    flag("--capacitor-uf", cfg.capacitor_uf.to_string());
    if cfg.verify {
        args.push("--verify".into());
    }
    Some(args)
}

/// `run_args(cfg)` parses and builds `cfg` back.
fn round_trip(cfg: &SimConfig) {
    let args = run_args(cfg).unwrap_or_else(|| panic!("no run line builds {cfg:?}"));
    let line = args.join(" ");
    let Ok(Command::Run(opt)) = parse(&args) else {
        panic!("{line} does not parse as a run");
    };
    let built = config_of(&opt).unwrap_or_else(|e| panic!("{line}: {e}"));
    assert_eq!(&built, cfg, "{line}");
}

/// Every constructor `figures.rs` and the ablation use, with each DQ
/// policy (a no-op off WL-Cache) and each static maxline.
fn designs() -> Vec<SimConfig> {
    let mut designs = vec![
        SimConfig::nvsram(),
        SimConfig::nvcache_wb(),
        SimConfig::vcache_wt(),
        SimConfig::replay(),
        SimConfig::write_buffer(),
        SimConfig::wl_cache(),
        SimConfig::wl_cache_dyn(),
    ];
    designs.extend((1..=8).map(SimConfig::wl_cache_static));
    let lru: Vec<SimConfig> = designs
        .iter()
        .map(|cfg| cfg.clone().with_dq_policy(DqPolicy::Lru))
        .collect();
    designs.extend(lru);
    designs
}

#[test]
fn every_figure_configuration_round_trips_through_a_run_line() {
    let traces = [
        TraceKind::None,
        TraceKind::Rf1,
        TraceKind::Rf2,
        TraceKind::Rf3,
        TraceKind::Solar,
        TraceKind::Thermal,
    ];
    let mut checked = 0;
    for design in designs() {
        for &trace in &traces {
            for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Fifo] {
                let cfg = design.clone().with_trace(trace).with_cache_policy(policy);
                round_trip(&cfg);
                round_trip(&cfg.with_verify());
                checked += 2;
            }
        }
        for size in [128, 256, 512, 1024, 2048, 4096] {
            for ways in [1, 2, 4] {
                if let Ok(geometry) = CacheGeometry::try_new(size, ways, 64) {
                    round_trip(&design.clone().with_geometry(geometry));
                    checked += 1;
                }
            }
        }
        for uf in [0.1, 0.344, 1.0, 10.0, 100.0, 500.0, 1000.0] {
            round_trip(
                &design
                    .clone()
                    .with_capacitor_uf(uf)
                    .with_trace(TraceKind::Rf1),
            );
            checked += 1;
        }
    }
    assert!(checked > 1_000, "only {checked} configurations");
}

#[test]
fn configurations_no_option_sets_have_no_run_line() {
    let base = SimConfig::wl_cache;
    let mut cfgs = vec![
        base().with_custom_trace(PowerTrace::constant(1_000.0)),
        base().with_geometry(CacheGeometry::new(1024, 2, 32)),
    ];
    for edit in [
        |c: &mut SimConfig| c.cpu.ps_per_cycle += 1,
        |c: &mut SimConfig| c.nvm_timing.t_ck *= 2.0,
        |c: &mut SimConfig| c.nvm_energy.activate_pj *= 2.0,
        |c: &mut SimConfig| c.charging.steepness += 1,
        |c: &mut SimConfig| c.max_outages = 7,
        |c: &mut SimConfig| c.design = DesignKind::WBuf { capacity: 4 },
    ] {
        let mut cfg = base();
        edit(&mut cfg);
        cfgs.push(cfg);
    }
    for cfg in cfgs {
        assert_eq!(run_args(&cfg), None, "{cfg:?}");
    }
}
