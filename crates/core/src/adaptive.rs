//! Adaptive maxline management (§4).
//!
//! The runtime system cannot observe the harvesting environment
//! directly; it estimates source quality from **power-on times** (how
//! long each interval between `Von` and `Vbackup` lasted — a good source
//! tops the capacitor up while running, stretching the interval). At
//! each boot it compares the last two on-times and moves `maxline`
//! (and with it `waterline` and the `Vbackup` margin) up when the
//! source looks good, down when it looks poor.

use crate::Thresholds;
use ehsim_mem::Ps;

/// How WL-Cache adapts its thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AdaptationMode {
    /// Fixed thresholds for the whole run (the "static" configurations
    /// of Figs 9, 11, 12).
    Static,
    /// Boot-time reconfiguration from power-on-time history (§4) — the
    /// paper's default.
    #[default]
    Adaptive,
    /// Boot-time reconfiguration *plus* opportunistic mid-interval
    /// maxline raises when the capacitor has energy to spare —
    /// `WL-Cache (dyn)` in Fig 13(a).
    Dynamic,
}

impl AdaptationMode {
    /// Label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            AdaptationMode::Static => "static",
            AdaptationMode::Adaptive => "adaptive",
            AdaptationMode::Dynamic => "dynamic",
        }
    }
}

/// Relative change in on-time treated as significant (±15 %).
const SIGNIFICANT_CHANGE: f64 = 0.15;

/// Boot-time threshold controller.
///
/// Keeps the last two power-on times in (modelled) NVFF (§5.5), decides
/// the next interval's `maxline` at each boot, and tracks the §6.6
/// statistics: reconfiguration count, observed maxline range and
/// direction-prediction accuracy.
#[derive(Debug, Clone)]
pub struct AdaptiveController {
    mode: AdaptationMode,
    thresholds: Thresholds,
    /// The configured (boot) maxline, the ceiling of the boot policy's
    /// raises. It does not bound WL-Cache(dyn): a
    /// [`Self::try_dynamic_raise`] may take maxline above it (up to the
    /// DirtyQueue capacity), and the boot policy keeps that maxline
    /// into the next interval while on-times stay within ±15 %. A +1
    /// boot decision taken above the ceiling sets maxline back to it,
    /// which counts as a lower (a reconfiguration and a −1 prediction).
    /// Lowers bottom out at 2 lines, below which the cache degenerates
    /// to near write-through for no reserve benefit.
    max_maxline: usize,
    min_maxline: usize,
    t_prev: Option<Ps>,
    t_prev2: Option<Ps>,
    /// +1 / 0 / −1 direction chosen at the previous boot, for accuracy
    /// tracking.
    last_direction: i8,
    reconfigurations: u64,
    predictions: u64,
    correct_predictions: u64,
    maxline_min_seen: usize,
    maxline_max_seen: usize,
}

impl AdaptiveController {
    /// Creates a controller starting from `initial` thresholds.
    pub fn new(mode: AdaptationMode, initial: Thresholds) -> Self {
        let m = initial.maxline();
        Self {
            mode,
            thresholds: initial,
            max_maxline: m,
            min_maxline: 2.min(m),
            t_prev: None,
            t_prev2: None,
            last_direction: 0,
            reconfigurations: 0,
            predictions: 0,
            correct_predictions: 0,
            maxline_min_seen: m,
            maxline_max_seen: m,
        }
    }

    /// Adaptation mode.
    pub fn mode(&self) -> AdaptationMode {
        self.mode
    }

    /// Thresholds in force for the current interval.
    pub fn thresholds(&self) -> Thresholds {
        self.thresholds
    }

    /// Records the power-on time of the interval that just ended
    /// (called when the JIT checkpoint fires) and — at the next boot —
    /// reconfigures the thresholds. Returns the thresholds for the next
    /// interval.
    ///
    /// If the measured on-time grew by more than 15 % over the previous
    /// interval, `maxline` is raised by one (the source looks good); if
    /// it shrank by more than 15 %, lowered by one; otherwise the
    /// thresholds stay put — exactly the §4 policy.
    pub fn on_interval_end(&mut self, on_time: Ps) -> Thresholds {
        // Score the previous boot's direction choice before updating
        // history: a raise predicted a longer (or equal) interval, a
        // lower predicted a shorter one.
        if let (Some(prev), d) = (self.t_prev, self.last_direction) {
            if d != 0 {
                self.predictions += 1;
                let grew = on_time as f64 >= prev as f64 * (1.0 - SIGNIFICANT_CHANGE);
                let shrank = (on_time as f64) <= prev as f64 * (1.0 + SIGNIFICANT_CHANGE);
                let correct = (d > 0 && grew) || (d < 0 && shrank);
                if correct {
                    self.correct_predictions += 1;
                }
            }
        }

        self.t_prev2 = self.t_prev;
        self.t_prev = Some(on_time);

        if self.mode == AdaptationMode::Static {
            self.last_direction = 0;
            return self.thresholds;
        }

        let direction = match (self.t_prev2, self.t_prev) {
            (Some(older), Some(newer)) => {
                let ratio = newer as f64 / older.max(1) as f64;
                if ratio > 1.0 + SIGNIFICANT_CHANGE {
                    1
                } else if ratio < 1.0 - SIGNIFICANT_CHANGE {
                    -1
                } else {
                    0
                }
            }
            _ => 0,
        };

        let current = self.thresholds.maxline();
        let target = match direction {
            1 => (current + 1).min(self.max_maxline),
            -1 => current.saturating_sub(1).max(self.min_maxline),
            _ => current,
        };
        self.last_direction = match target.cmp(&current) {
            std::cmp::Ordering::Greater => 1,
            std::cmp::Ordering::Less => -1,
            std::cmp::Ordering::Equal => 0,
        };
        if target != current {
            self.thresholds = self.thresholds.reconfigured(target);
            self.reconfigurations += 1;
            self.maxline_min_seen = self.maxline_min_seen.min(target);
            self.maxline_max_seen = self.maxline_max_seen.max(target);
        }
        self.thresholds
    }

    /// Opportunistic dynamic raise (§4, "Dynamic adaptation"): when the
    /// DirtyQueue is full but the capacitor is still comfortably above
    /// the *raised* `Vbackup`, grow `maxline` by one instead of
    /// stalling. `headroom_ok` is the machine's judgement that the
    /// residual energy can JIT-checkpoint one more line.
    ///
    /// Returns the new thresholds if a raise happened.
    pub fn try_dynamic_raise(&mut self, headroom_ok: bool) -> Option<Thresholds> {
        if self.mode != AdaptationMode::Dynamic || !headroom_ok {
            return None;
        }
        let current = self.thresholds.maxline();
        if current >= self.thresholds.dq_capacity() {
            return None;
        }
        self.thresholds = self.thresholds.reconfigured(current + 1);
        self.reconfigurations += 1;
        self.maxline_max_seen = self.maxline_max_seen.max(current + 1);
        Some(self.thresholds)
    }

    /// Number of threshold reconfigurations performed (§6.6 reports ~11
    /// on trace 1 and ~12 on trace 2).
    pub fn reconfigurations(&self) -> u64 {
        self.reconfigurations
    }

    /// Smallest and largest maxline used so far (§6.6 reports 2 and 6).
    pub fn maxline_range(&self) -> (usize, usize) {
        (self.maxline_min_seen, self.maxline_max_seen)
    }

    /// Fraction of direction choices that matched the next interval's
    /// behaviour (§6.6 reports > 98 %); `None` before any prediction.
    pub fn prediction_accuracy(&self) -> Option<f64> {
        (self.predictions > 0).then(|| self.correct_predictions as f64 / self.predictions as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl(mode: AdaptationMode) -> AdaptiveController {
        AdaptiveController::new(mode, Thresholds::paper_default())
    }

    #[test]
    fn static_mode_never_moves() {
        let mut c = ctl(AdaptationMode::Static);
        for t in [100u64, 10_000, 100, 1_000_000] {
            let th = c.on_interval_end(t);
            assert_eq!(th.maxline(), 6);
        }
        assert_eq!(c.reconfigurations(), 0);
    }

    #[test]
    fn growing_on_times_raise_maxline_up_to_configured_cap() {
        let mut c = ctl(AdaptationMode::Adaptive);
        c.on_interval_end(1_000);
        let th = c.on_interval_end(2_000); // 2× growth: raise
        assert_eq!(th.maxline(), 6); // already at cap (6)
        assert_eq!(c.reconfigurations(), 0, "cap prevents raising past 6");
    }

    #[test]
    fn shrinking_on_times_lower_maxline() {
        let mut c = ctl(AdaptationMode::Adaptive);
        c.on_interval_end(10_000);
        let th = c.on_interval_end(5_000);
        assert_eq!(th.maxline(), 5);
        assert_eq!(th.waterline(), 4);
        let th = c.on_interval_end(2_000);
        assert_eq!(th.maxline(), 4);
        assert_eq!(c.reconfigurations(), 2);
    }

    #[test]
    fn lower_bound_is_two() {
        let mut c = ctl(AdaptationMode::Adaptive);
        let mut t = 1 << 30;
        c.on_interval_end(t);
        for _ in 0..10 {
            t /= 2;
            c.on_interval_end(t);
        }
        assert_eq!(c.thresholds().maxline(), 2);
        assert_eq!(c.maxline_range(), (2, 6));
    }

    #[test]
    fn recovery_after_dip_raises_again() {
        let mut c = ctl(AdaptationMode::Adaptive);
        c.on_interval_end(10_000);
        c.on_interval_end(3_000); // lower → 5
        c.on_interval_end(3_000); // stable → 5
        let th = c.on_interval_end(9_000); // raise → 6
        assert_eq!(th.maxline(), 6);
    }

    #[test]
    fn small_fluctuations_do_not_reconfigure() {
        let mut c = ctl(AdaptationMode::Adaptive);
        c.on_interval_end(1_000);
        c.on_interval_end(1_100);
        c.on_interval_end(950);
        assert_eq!(c.reconfigurations(), 0);
    }

    #[test]
    fn prediction_accuracy_tracks_choices() {
        let mut c = ctl(AdaptationMode::Adaptive);
        c.on_interval_end(10_000);
        c.on_interval_end(5_000); // lower; predicts shrink
        c.on_interval_end(2_000); // shrank → correct; lower again
        c.on_interval_end(1_000); // shrank → correct
        let acc = c.prediction_accuracy().unwrap();
        assert_eq!(acc, 1.0);
    }

    #[test]
    fn dynamic_raise_requires_mode_and_headroom() {
        let mut c = ctl(AdaptationMode::Adaptive);
        assert_eq!(c.try_dynamic_raise(true), None);
        let mut d = ctl(AdaptationMode::Dynamic);
        assert_eq!(d.try_dynamic_raise(false), None);
        let th = d.try_dynamic_raise(true).unwrap();
        assert_eq!(th.maxline(), 7);
        // Capacity-bounded.
        d.try_dynamic_raise(true);
        assert_eq!(d.thresholds().maxline(), 8);
        assert_eq!(d.try_dynamic_raise(true), None);
        assert_eq!(d.maxline_range().1, 8);
    }

    /// The configured maxline is no hard ceiling for WL-Cache(dyn): a
    /// dynamic raise outlives the interval that took it while on-times
    /// are stable, and a later +1 boot decision clamps it back to the
    /// ceiling, scored as a lower.
    #[test]
    fn dynamic_raise_survives_stable_boots_and_a_raise_above_the_ceiling_lowers() {
        let mut d = ctl(AdaptationMode::Dynamic);
        assert_eq!(d.try_dynamic_raise(true).map(|t| t.maxline()), Some(7));
        for _ in 0..3 {
            assert_eq!(
                d.on_interval_end(1_000).maxline(),
                7,
                "stable boots keep it"
            );
        }
        assert_eq!(d.reconfigurations(), 1);
        let th = d.on_interval_end(2_000); // 2× growth: a +1 decision
        assert_eq!(th.maxline(), 6, "clamped back to the configured 6");
        assert_eq!(d.reconfigurations(), 2);
        assert_eq!(d.maxline_range(), (6, 7));
        // Scored as a lower: the next interval grows again, which a
        // raise would have predicted and a lower did not.
        d.on_interval_end(4_000);
        assert_eq!(d.prediction_accuracy(), Some(0.0));
    }
}
