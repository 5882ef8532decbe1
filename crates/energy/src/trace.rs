//! Harvesting power traces.
//!
//! The paper evaluates with two RF power traces recorded at a home and an
//! office (from NVPsim \[16\]), a third RFID-class RF trace (Mementos \[57\]),
//! and solar/thermal traces. Those recordings are not publicly
//! distributed, so this module synthesises deterministic, seeded
//! equivalents as two-state (burst/fade) renewal processes. During a
//! burst the harvester delivers more power than the system draws (the
//! capacitor tops up and execution proceeds); during a fade delivery is
//! near zero and the system drains its buffer and fails — so outage
//! counts are governed by fade arrivals, exactly the dynamics of real
//! RF sources. Solar/thermal are strong with rare shallow dips. The
//! generator parameters order the traces by quality (tr1 is the most
//! stable RF trace, tr3 the least; solar and thermal are stronger
//! still), but they are *not* calibrated to the paper's absolute outage
//! counts (33/45/121/12/9 for tr1/tr2/tr3/solar/thermal, §6.6): with
//! the suite's shorter kernels WL-Cache sees a mean of 5.8 outages per
//! run on tr1 and 6.7 on tr2 (`results/stats66.tsv`). See DESIGN.md §4,
//! substitution 2.
//!
//! Storage is shared: a [`PowerTrace`] holds its segments behind an
//! `Arc`, so [`PowerTrace::cursor`] hands out cursors without deep
//! copies no matter how many machines simulate against the same trace,
//! and [`TraceKind::build`] generates each built-in trace once per
//! process. Cursor queries are the seed implementation's exact segment
//! walk — the committed figure goldens depend on its accumulation
//! order, so the sharing refactor must not (and does not) change a
//! single floating-point operation.

use ehsim_mem::{ps_to_f64, Pj, Ps};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::{Arc, OnceLock};

/// 1 µW sustained for 1 ps delivers 1e-6 pJ.
const UW_PS_TO_PJ: f64 = 1e-6;

/// Which harvesting environment to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// No power failures: an effectively unlimited supply (Fig 4).
    None,
    /// RF, home recording — the paper's Power Trace 1 (more stable).
    Rf1,
    /// RF, office recording — the paper's Power Trace 2 (less stable).
    Rf2,
    /// RF, RFID-class (Mementos \[57\]) — very frequent outages.
    Rf3,
    /// Solar — strong and stable.
    Solar,
    /// Thermal — strongest and most stable.
    Thermal,
}

impl TraceKind {
    /// All trace kinds, in the order used by Fig 13(a).
    pub const ALL: [TraceKind; 6] = [
        TraceKind::None,
        TraceKind::Rf1,
        TraceKind::Rf2,
        TraceKind::Rf3,
        TraceKind::Solar,
        TraceKind::Thermal,
    ];

    /// Human-readable label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::None => "no-failure",
            TraceKind::Rf1 => "tr.1(RF)",
            TraceKind::Rf2 => "tr.2(RF)",
            TraceKind::Rf3 => "tr.3(RF)",
            TraceKind::Solar => "solar",
            TraceKind::Thermal => "thermal",
        }
    }

    /// The deterministic power trace for this kind.
    ///
    /// The trace is generated once per process, on first use, and every
    /// call returns a handle to that one copy: a [`PowerTrace`] is
    /// immutable and shares its storage, so machines built on the same
    /// kind need not regenerate 4096 segments each.
    pub fn build(self) -> PowerTrace {
        static TRACES: TraceCache = TraceCache::new();
        TRACES.get(self)
    }

    /// Generates this kind's trace from its seed.
    fn generate(self) -> PowerTrace {
        match self {
            // 10 W constant: the capacitor stays pinned at Vmax, so the
            // voltage monitor never fires — "no power failure" mode.
            TraceKind::None => PowerTrace::constant(1e7),
            TraceKind::Rf1 => PowerTrace::two_state(
                TRACE_SEED,
                TwoState {
                    p_good: 0.55,
                    good_uw: (8_000.0, 20_000.0),
                    bad_uw: (0.0, 300.0),
                    good_dur_us: (200.0, 800.0),
                    bad_dur_us: (300.0, 1_500.0),
                },
            ),
            TraceKind::Rf2 => PowerTrace::two_state(
                TRACE_SEED ^ 1,
                TwoState {
                    p_good: 0.50,
                    good_uw: (7_000.0, 18_000.0),
                    bad_uw: (0.0, 250.0),
                    good_dur_us: (150.0, 700.0),
                    bad_dur_us: (300.0, 1_800.0),
                },
            ),
            TraceKind::Rf3 => PowerTrace::two_state(
                TRACE_SEED ^ 2,
                TwoState {
                    p_good: 0.40,
                    good_uw: (6_000.0, 14_000.0),
                    bad_uw: (0.0, 200.0),
                    good_dur_us: (80.0, 400.0),
                    bad_dur_us: (300.0, 2_000.0),
                },
            ),
            TraceKind::Solar => PowerTrace::two_state(
                TRACE_SEED ^ 3,
                TwoState {
                    p_good: 0.75,
                    good_uw: (15_000.0, 18_000.0),
                    bad_uw: (1_500.0, 3_000.0),
                    good_dur_us: (1_000.0, 3_500.0),
                    bad_dur_us: (600.0, 2_000.0),
                },
            ),
            TraceKind::Thermal => PowerTrace::two_state(
                TRACE_SEED ^ 4,
                TwoState {
                    p_good: 0.80,
                    good_uw: (16_000.0, 18_500.0),
                    bad_uw: (1_800.0, 3_200.0),
                    good_dur_us: (1_500.0, 5_000.0),
                    bad_dur_us: (500.0, 1_800.0),
                },
            ),
        }
    }
}

/// One lazily generated trace per [`TraceKind`].
struct TraceCache {
    slots: [OnceLock<PowerTrace>; TraceKind::ALL.len()],
}

impl TraceCache {
    const fn new() -> Self {
        Self {
            slots: [const { OnceLock::new() }; TraceKind::ALL.len()],
        }
    }

    /// `kind`'s trace, generated by the first caller; racing first
    /// callers wait for that one generation.
    fn get(&self, kind: TraceKind) -> PowerTrace {
        // Discriminants follow `TraceKind::ALL`'s order (tested).
        self.slots[kind as usize]
            .get_or_init(|| kind.generate())
            .clone()
    }
}

/// Base seed shared by all built-in traces (xor'd with a per-kind index).
const TRACE_SEED: u64 = 0x574c_4341_4348_4531; // "WLCACHE1"

/// Parameters of the two-state (good-burst / quiet) RF renewal process.
#[derive(Debug, Clone, Copy)]
struct TwoState {
    p_good: f64,
    good_uw: (f64, f64),
    bad_uw: (f64, f64),
    good_dur_us: (f64, f64),
    bad_dur_us: (f64, f64),
}

/// One constant-power span of a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Segment {
    duration_ps: Ps,
    power_uw: f64,
}

/// Immutable trace storage shared between a [`PowerTrace`] and all of
/// its cursors.
#[derive(Debug)]
struct TraceData {
    segments: Vec<Segment>,
    total_ps: Ps,
}

/// A harvesting power trace: piecewise-constant power over time, cycled
/// indefinitely.
#[derive(Debug, Clone)]
pub struct PowerTrace {
    data: Arc<TraceData>,
}

impl PartialEq for PowerTrace {
    fn eq(&self, other: &Self) -> bool {
        self.data.segments == other.data.segments
    }
}

impl PowerTrace {
    /// A trace with a single constant power level (µW).
    ///
    /// # Panics
    ///
    /// Panics if `uw` is negative or not finite.
    pub fn constant(uw: f64) -> Self {
        Self::from_segments(vec![(1_000_000_000_000, uw)]) // 1 s segment
    }

    /// Builds a trace from `(duration_ps, power_uw)` pairs. The trace
    /// repeats from the beginning when the last segment ends.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty, any duration is zero, any power
    /// is negative/not finite, or the durations sum past `u64::MAX`
    /// picoseconds.
    pub fn from_segments(segments: Vec<(Ps, f64)>) -> Self {
        assert!(!segments.is_empty(), "trace needs at least one segment");
        let mut total: Ps = 0;
        let segs = segments
            .into_iter()
            .map(|(d, p)| {
                assert!(d > 0, "segment duration must be positive");
                assert!(p >= 0.0 && p.is_finite(), "power must be finite and >= 0");
                total = match total.checked_add(d) {
                    Some(t) => t,
                    None => panic!("trace length overflows u64 picoseconds"),
                };
                Segment {
                    duration_ps: d,
                    power_uw: p,
                }
            })
            .collect();
        Self {
            data: Arc::new(TraceData {
                segments: segs,
                total_ps: total,
            }),
        }
    }

    fn two_state(seed: u64, p: TwoState) -> Self {
        const SEGMENTS: usize = 4_096;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut segs = Vec::with_capacity(SEGMENTS);
        for _ in 0..SEGMENTS {
            let good = rng.random_range(0.0..1.0) < p.p_good;
            let (uw, dur) = if good {
                (p.good_uw, p.good_dur_us)
            } else {
                (p.bad_uw, p.bad_dur_us)
            };
            let power = if uw.0 < uw.1 {
                rng.random_range(uw.0..uw.1)
            } else {
                uw.0
            };
            let dur_us = rng.random_range(dur.0..dur.1);
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "truncation (not rounding) of the segment length is load-bearing: \
                          the pinned goldens and results/*.tsv encode exactly this conversion"
            )]
            let dur_ps = (dur_us * 1e6) as Ps;
            segs.push((dur_ps, power));
        }
        Self::from_segments(segs)
    }

    /// Length of one cycle of the trace, in picoseconds.
    pub fn total_ps(&self) -> Ps {
        self.data.total_ps
    }

    /// Time-weighted mean power in µW over one cycle.
    pub fn mean_power_uw(&self) -> f64 {
        let sum: f64 = self
            .data
            .segments
            .iter()
            .map(|s| s.power_uw * s.duration_ps as f64)
            .sum();
        sum / self.data.total_ps as f64
    }

    /// Iterates over the trace's `(duration_ps, power_uw)` segments.
    pub fn segments_iter(&self) -> impl Iterator<Item = (Ps, f64)> + '_ {
        self.data
            .segments
            .iter()
            .map(|s| (s.duration_ps, s.power_uw))
    }

    /// Creates a cursor positioned at the start of the trace.
    ///
    /// The cursor shares the trace's segment storage (behind an `Arc`),
    /// so this is O(1) and allocation-free no matter how many machines
    /// hold cursors into the same trace.
    pub fn cursor(&self) -> TraceCursor {
        let first = self.data.segments[0];
        TraceCursor {
            data: Arc::clone(&self.data),
            seg_ix: 0,
            offset_ps: 0,
            seg_power_uw: first.power_uw,
            seg_left_ps: first.duration_ps,
        }
    }
}

/// A position within a [`PowerTrace`], advancing monotonically and
/// wrapping around at the end of the trace.
#[derive(Debug, Clone)]
pub struct TraceCursor {
    data: Arc<TraceData>,
    seg_ix: usize,
    offset_ps: Ps,
    /// Mirror of `segments[seg_ix].power_uw`, kept in the cursor so the
    /// common-case advance never dereferences the `Arc`.
    seg_power_uw: f64,
    /// Mirror of `segments[seg_ix].duration_ps - offset_ps` — time left
    /// in the current segment. Invariant: always > 0 (the cursor wraps
    /// eagerly at segment boundaries, exactly like the seed loop).
    seg_left_ps: Ps,
}

impl TraceCursor {
    /// Instantaneous harvesting power (µW) at the cursor.
    pub fn power_uw(&self) -> f64 {
        self.seg_power_uw
    }

    /// Re-derives the current-segment mirrors after `seg_ix`/`offset_ps`
    /// moved along the slow path.
    fn resync(&mut self) {
        let seg = &self.data.segments[self.seg_ix];
        self.seg_power_uw = seg.power_uw;
        self.seg_left_ps = seg.duration_ps - self.offset_ps;
    }

    /// Advances the cursor by `dt` picoseconds, returning the energy (pJ)
    /// harvested during that span.
    ///
    /// The typical settlement step is far shorter than a trace segment
    /// (segments are hundreds of µs, steps are ns), so the fast path
    /// below — stay inside the current segment, one multiply — is O(1)
    /// amortized. Its product `power · dt · 1e-6` is the exact
    /// single-iteration value of the seed's segment walk (`0.0 + x == x`
    /// for the non-negative energies involved), and the slow path *is*
    /// the seed's segment walk, so either path returns bit-identical
    /// energy. Prefix-sum differencing over the segment energies was
    /// deliberately rejected: a sum of per-segment totals rounds
    /// differently than the seed's sequential accumulation and would
    /// shift the figure goldens.
    #[inline]
    pub fn advance(&mut self, dt: Ps) -> Pj {
        if dt < self.seg_left_ps {
            self.seg_left_ps -= dt;
            self.offset_ps += dt;
            return self.seg_power_uw * ps_to_f64(dt) * UW_PS_TO_PJ;
        }
        self.advance_slow(dt)
    }

    /// Segment-crossing tail of [`advance`](Self::advance), kept out of
    /// line so the sub-segment fast path inlines cheaply at call sites.
    #[inline(never)]
    fn advance_slow(&mut self, mut dt: Ps) -> Pj {
        let mut harvested = 0.0;
        while dt > 0 {
            let seg = &self.data.segments[self.seg_ix];
            let left = seg.duration_ps - self.offset_ps;
            let step = left.min(dt);
            harvested += seg.power_uw * step as f64 * UW_PS_TO_PJ;
            dt -= step;
            self.offset_ps += step;
            if self.offset_ps == seg.duration_ps {
                self.offset_ps = 0;
                self.seg_ix = (self.seg_ix + 1) % self.data.segments.len();
            }
        }
        self.resync();
        harvested
    }

    /// Advances until `target_pj` picojoules have been harvested, up to a
    /// budget of `max_ps` picoseconds.
    ///
    /// Returns `Some(elapsed_ps)` on success (the cursor ends exactly at
    /// the point of completion, rounded up to the enclosing picosecond),
    /// or `None` if the target cannot be reached within `max_ps` (the
    /// cursor is then `max_ps` further along).
    pub fn time_to_harvest(&mut self, target_pj: Pj, max_ps: Ps) -> Option<Ps> {
        let mut remaining = target_pj;
        let mut elapsed: Ps = 0;
        while remaining > 0.0 {
            if elapsed >= max_ps {
                return None;
            }
            let seg = &self.data.segments[self.seg_ix];
            let left = seg.duration_ps - self.offset_ps;
            let budget = left.min(max_ps - elapsed);
            let seg_pj = seg.power_uw * budget as f64 * UW_PS_TO_PJ;
            if seg_pj >= remaining && seg.power_uw > 0.0 {
                // Finishes within this segment.
                #[expect(
                    clippy::cast_possible_truncation,
                    clippy::cast_sign_loss,
                    reason = "the ceiling of a positive quotient; `as` saturates a huge one, \
                              which the `min(budget)` below clamps"
                )]
                let need_ps = (remaining / (seg.power_uw * UW_PS_TO_PJ)).ceil() as Ps;
                let need_ps = need_ps.min(budget);
                self.advance(need_ps);
                return Some(elapsed + need_ps);
            }
            remaining -= seg_pj;
            elapsed += budget;
            self.advance(budget);
        }
        Some(elapsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_trace_harvests_linearly() {
        let t = PowerTrace::constant(1_000.0); // 1 mW
        let mut c = t.cursor();
        // 1 mW for 1 µs = 1 nJ = 1000 pJ.
        let pj = c.advance(1_000_000);
        assert!((pj - 1_000.0).abs() < 1e-6);
    }

    #[test]
    fn cursor_wraps_around() {
        let t = PowerTrace::from_segments(vec![(100, 1.0), (100, 3.0)]);
        let mut c = t.cursor();
        let one_cycle = c.advance(200);
        let again = c.advance(200);
        assert!((one_cycle - again).abs() < 1e-12);
        assert!((t.mean_power_uw() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn advance_splits_segments_exactly() {
        let t = PowerTrace::from_segments(vec![(100, 10.0), (100, 0.0)]);
        let mut c = t.cursor();
        let a = c.advance(150);
        let b = c.advance(50);
        // All energy is in the first 100 ps.
        assert!((a - 10.0 * 100.0 * 1e-6).abs() < 1e-12);
        assert_eq!(b, 0.0);
    }

    #[test]
    fn split_advances_sum_to_whole() {
        let t = TraceKind::Rf1.build();
        let mut split = t.cursor();
        let mut whole = t.cursor();
        let parts: f64 = (0..100).map(|i| split.advance(37_000 + i)).sum();
        let total = whole.advance((0..100).map(|i| 37_000 + i).sum());
        assert!((parts - total).abs() < 1e-6 * total.abs().max(1.0));
    }

    #[test]
    fn time_to_harvest_constant_power() {
        let t = PowerTrace::constant(1_000.0); // 1 mW = 1e-3 pJ/ps
        let mut c = t.cursor();
        let dt = c.time_to_harvest(1_000.0, u64::MAX).unwrap();
        assert_eq!(dt, 1_000_000); // 1 µs
    }

    #[test]
    fn time_to_harvest_skips_dead_segments() {
        let t = PowerTrace::from_segments(vec![(1_000, 0.0), (1_000_000, 1_000.0)]);
        let mut c = t.cursor();
        let dt = c.time_to_harvest(1.0, u64::MAX).unwrap();
        assert_eq!(dt, 1_000 + 1_000);
    }

    #[test]
    fn time_to_harvest_respects_cap() {
        let t = PowerTrace::constant(1.0);
        let mut c = t.cursor();
        assert_eq!(c.time_to_harvest(1e12, 1_000), None);
    }

    /// The seed implementation's segment walk, as an independent oracle
    /// for the fast-path cursor.
    struct RefWalk {
        segs: Vec<(Ps, f64)>,
        ix: usize,
        off: Ps,
    }

    impl RefWalk {
        fn new(t: &PowerTrace) -> Self {
            Self {
                segs: t.segments_iter().collect(),
                ix: 0,
                off: 0,
            }
        }

        fn advance(&mut self, mut dt: Ps) -> f64 {
            let mut harvested = 0.0;
            while dt > 0 {
                let (dur, p) = self.segs[self.ix];
                let left = dur - self.off;
                let step = left.min(dt);
                harvested += p * step as f64 * UW_PS_TO_PJ;
                dt -= step;
                self.off += step;
                if self.off == dur {
                    self.off = 0;
                    self.ix = (self.ix + 1) % self.segs.len();
                }
            }
            harvested
        }
    }

    #[test]
    fn advance_is_bit_identical_to_seed_segment_walk() {
        let t = TraceKind::Rf2.build();
        let mut oracle = RefWalk::new(&t);
        let mut c = t.cursor();
        let mut x: u64 = 0x243f_6a88_85a3_08d3;
        for i in 0..20_000u64 {
            // Mixed step sizes: zero, ns-scale (fast path), exactly to
            // the segment boundary, and multi-segment spans (slow path).
            let step = match i % 8 {
                0 => 0,
                1..=5 => x % 100_000,
                6 => t.data.segments[oracle.ix].duration_ps - oracle.off,
                _ => 300_000_000 + x % 1_000_000_000,
            };
            assert_eq!(
                c.advance(step).to_bits(),
                oracle.advance(step).to_bits(),
                "harvested energy diverged at step {i}"
            );
            assert_eq!((c.seg_ix, c.offset_ps), (oracle.ix, oracle.off));
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
        }
    }

    #[test]
    fn advance_is_monotonic_and_keeps_segment_mirrors() {
        let t = TraceKind::Rf1.build();
        let total = t.total_ps();
        let mut c = t.cursor();
        let mut elapsed: Ps = 0;
        let mut prev_pos: Ps = 0;
        for i in 0..5_000u64 {
            let step = (i * 977) % 250_000;
            c.advance(step);
            elapsed += step;
            // The cursor's absolute position advances by exactly `dt`
            // per call (modulo one trace cycle) and never runs backwards
            // within a cycle.
            let pos = t.data.segments[..c.seg_ix]
                .iter()
                .map(|s| s.duration_ps)
                .sum::<Ps>()
                + c.offset_ps;
            assert_eq!(pos, elapsed % total, "position drifted at step {i}");
            if elapsed % total >= prev_pos {
                assert!(pos >= prev_pos);
            }
            prev_pos = pos;
            // Mirror invariants behind the fast path.
            let seg = &t.data.segments[c.seg_ix];
            assert_eq!(c.seg_power_uw.to_bits(), seg.power_uw.to_bits());
            assert_eq!(c.seg_left_ps, seg.duration_ps - c.offset_ps);
            assert!(c.seg_left_ps > 0, "cursor must wrap eagerly");
        }
    }

    #[test]
    fn cursor_shares_segment_storage() {
        let t = TraceKind::Rf1.build();
        let a = t.cursor();
        let b = t.cursor();
        assert!(Arc::ptr_eq(&a.data, &b.data));
        assert!(Arc::ptr_eq(&a.data, &t.data));
    }

    #[test]
    fn every_kind_builds_one_shared_trace() {
        for kind in TraceKind::ALL {
            let a = kind.build();
            let b = kind.build();
            assert!(Arc::ptr_eq(&a.data, &b.data), "{kind:?} was rebuilt");
        }
    }

    #[test]
    fn cached_traces_equal_fresh_generations_segment_for_segment() {
        for (i, kind) in TraceKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{kind:?} indexes the wrong slot");
            let cached: Vec<(Ps, u64)> = kind
                .build()
                .segments_iter()
                .map(|(d, p)| (d, p.to_bits()))
                .collect();
            let fresh: Vec<(Ps, u64)> = kind
                .generate()
                .segments_iter()
                .map(|(d, p)| (d, p.to_bits()))
                .collect();
            assert_eq!(cached, fresh, "{kind:?}");
            assert_eq!(kind.build().total_ps(), kind.generate().total_ps());
        }
    }

    #[test]
    fn threads_racing_on_first_use_share_one_trace() {
        let cache = TraceCache::new();
        let start = std::sync::Barrier::new(2);
        let (a, b) = std::thread::scope(|s| {
            let race = || {
                start.wait();
                TraceKind::ALL.map(|k| cache.get(k))
            };
            let a = s.spawn(race);
            let b = s.spawn(race);
            (a.join().unwrap(), b.join().unwrap())
        });
        for ((x, y), kind) in a.iter().zip(&b).zip(TraceKind::ALL) {
            assert!(Arc::ptr_eq(&x.data, &y.data), "{kind:?} generated twice");
            assert!(Arc::ptr_eq(&x.data, &cache.get(kind).data));
        }
    }

    #[test]
    fn builtin_traces_are_deterministic() {
        let a = TraceKind::Rf1.generate();
        let b = TraceKind::Rf1.generate();
        assert!(!Arc::ptr_eq(&a.data, &b.data));
        assert_eq!(a, b);
        assert_ne!(a, TraceKind::Rf2.generate());
    }

    #[test]
    fn rf_traces_are_ordered_by_quality() {
        let m1 = TraceKind::Rf1.build().mean_power_uw();
        let m2 = TraceKind::Rf2.build().mean_power_uw();
        let m3 = TraceKind::Rf3.build().mean_power_uw();
        let ms = TraceKind::Solar.build().mean_power_uw();
        let mt = TraceKind::Thermal.build().mean_power_uw();
        assert!(m1 > m2 && m2 > m3, "{m1} {m2} {m3}");
        assert!(ms > m1 && mt > ms, "{ms} {mt}");
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(TraceKind::Rf1.label(), "tr.1(RF)");
        assert_eq!(TraceKind::Solar.label(), "solar");
        assert_eq!(TraceKind::ALL.len(), 6);
    }

    #[test]
    #[should_panic(expected = "overflows u64 picoseconds")]
    fn overflowing_trace_length_rejected() {
        let _ = PowerTrace::from_segments(vec![(u64::MAX, 1.0), (1, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn empty_trace_rejected() {
        let _ = PowerTrace::from_segments(vec![]);
    }
}
