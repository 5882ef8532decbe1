//! The capacitor energy buffer.

use crate::select::{max0, min_to};
use ehsim_mem::Pj;

/// Joules → picojoules.
const J_TO_PJ: f64 = 1e12;

/// `J_TO_PJ / 2`, exact. [`Capacitor::voltage_for_energy`] computes
/// `e / HALF_J_TO_PJ` where the original form was `2.0 * e / J_TO_PJ`:
/// doubling is exact (below `f64::MAX / 2`), so both round the same
/// real quotient and one multiply leaves the settlement chain.
const HALF_J_TO_PJ: f64 = 5e11;

/// The capacitor that buffers harvested energy (`E = ½CV²`).
///
/// The capacitor operates between `v_min` (below which the system is
/// dead — a correctly provisioned design never reaches it) and `v_max`
/// (charging saturates). The default configuration matches the paper's
/// 1 µF buffer with a 2.8 V–3.5 V window (Table 2).
#[derive(Debug, Clone, PartialEq)]
pub struct Capacitor {
    capacitance_f: f64,
    voltage: f64,
    v_min: f64,
    v_max: f64,
    /// `energy_at_pj(v_min)`, precomputed once at construction with the
    /// identical `½CV²` expression so [`Capacitor::energy_above_min_pj`]
    /// returns bit-for-bit what `energy_above_pj(v_min)` would.
    e_at_v_min_pj: Pj,
}

impl Capacitor {
    /// Creates a capacitor of `capacitance_f` farads operating between
    /// `v_min` and `v_max` volts, initially charged to `v_min`.
    ///
    /// # Panics
    ///
    /// Panics if `capacitance_f <= 0` or `v_min >= v_max` or `v_min < 0`.
    pub fn new(capacitance_f: f64, v_min: f64, v_max: f64) -> Self {
        assert!(capacitance_f > 0.0, "capacitance must be positive");
        assert!(v_min >= 0.0 && v_min < v_max, "need 0 <= v_min < v_max");
        Self {
            capacitance_f,
            voltage: v_min,
            v_min,
            v_max,
            e_at_v_min_pj: 0.5 * capacitance_f * v_min * v_min * J_TO_PJ,
        }
    }

    /// Creates a capacitor specified in microfarads.
    pub fn with_uf(uf: f64, v_min: f64, v_max: f64) -> Self {
        Self::new(uf * 1e-6, v_min, v_max)
    }

    /// The paper's default buffer: 1 µF, 2.8 V–3.5 V (Table 2).
    pub fn paper_default() -> Self {
        Self::with_uf(1.0, 2.8, 3.5)
    }

    /// Capacitance in farads.
    pub fn capacitance_f(&self) -> f64 {
        self.capacitance_f
    }

    /// Current voltage in volts.
    #[inline]
    pub fn voltage(&self) -> f64 {
        self.voltage
    }

    /// Lower operating voltage bound.
    #[inline]
    pub fn v_min(&self) -> f64 {
        self.v_min
    }

    /// Upper operating voltage bound.
    #[inline]
    pub fn v_max(&self) -> f64 {
        self.v_max
    }

    /// Sets the voltage directly (clamped to `[0, v_max]`).
    #[inline]
    pub fn set_voltage(&mut self, v: f64) {
        self.voltage = v.clamp(0.0, self.v_max);
    }

    /// Total stored energy at the current voltage, in picojoules.
    #[inline]
    pub fn energy_pj(&self) -> Pj {
        self.energy_at_pj(self.voltage)
    }

    /// Stored energy at voltage `v`, in picojoules.
    #[inline]
    pub fn energy_at_pj(&self, v: f64) -> Pj {
        0.5 * self.capacitance_f * v * v * J_TO_PJ
    }

    /// Energy released when discharging from `v_hi` down to `v_lo`, in
    /// picojoules. Returns 0 if `v_hi <= v_lo`.
    #[inline]
    pub fn energy_between_pj(&self, v_hi: f64, v_lo: f64) -> Pj {
        (self.energy_at_pj(v_hi) - self.energy_at_pj(v_lo)).max(0.0)
    }

    /// Energy still available before the voltage would fall to `v_floor`.
    pub fn energy_above_pj(&self, v_floor: f64) -> Pj {
        self.energy_between_pj(self.voltage, v_floor)
    }

    /// Energy still available before the voltage would fall to `v_min` —
    /// equal to `energy_above_pj(self.v_min())`, with the floor energy
    /// taken from the construction-time cache instead of recomputed on
    /// every call (this sits on the simulator's per-retire path).
    #[inline]
    pub fn energy_above_min_pj(&self) -> Pj {
        (self.energy_at_pj(self.voltage) - self.e_at_v_min_pj).max(0.0)
    }

    /// Drains `pj` picojoules, lowering the voltage (floored at 0 V).
    /// Returns the new voltage.
    #[inline]
    pub fn drain_pj(&mut self, pj: Pj) -> f64 {
        self.voltage = self.drained_voltage_at(self.voltage, pj);
        self.voltage
    }

    /// Adds `pj` picojoules of charge, raising the voltage (capped at
    /// `v_max`). Returns the new voltage.
    #[inline]
    pub fn charge_pj(&mut self, pj: Pj) -> f64 {
        self.voltage = self.charged_voltage_at(self.voltage, pj);
        self.voltage
    }

    /// Voltage corresponding to a stored energy of `pj` picojoules:
    /// `sqrt(max(2·pj / J_TO_PJ / C, 0))`, computed as
    /// `pj / (J_TO_PJ / 2) / C` with the same two roundings.
    #[inline]
    pub fn voltage_for_energy(&self, pj: Pj) -> f64 {
        max0(pj / HALF_J_TO_PJ / self.capacitance_f).sqrt()
    }

    /// The voltage after adding `pj` picojoules to a capacitor at `v`
    /// (capped at `v_max`): the pure form of [`Capacitor::charge_pj`],
    /// kept separate so the tests can drive it on any `v`.
    #[inline]
    fn charged_voltage_at(&self, v: f64, pj: Pj) -> f64 {
        let e = self.energy_at_pj(v) + pj;
        min_to(self.voltage_for_energy(e), self.v_max)
    }

    /// The voltage after draining `pj` picojoules from a capacitor at
    /// `v` (floored at 0 V): the pure form of [`Capacitor::drain_pj`].
    #[inline]
    fn drained_voltage_at(&self, v: f64, pj: Pj) -> f64 {
        let e = max0(self.energy_at_pj(v) - pj);
        self.voltage_for_energy(e)
    }
}

impl Default for Capacitor {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_default_geometry() {
        let c = Capacitor::paper_default();
        assert_eq!(c.capacitance_f(), 1e-6);
        assert_eq!(c.v_min(), 2.8);
        assert_eq!(c.v_max(), 3.5);
        assert_eq!(c.voltage(), 2.8);
    }

    #[test]
    fn energy_formula_half_cv2() {
        let c = Capacitor::with_uf(1.0, 0.0, 5.0);
        // ½ · 1e-6 F · (2 V)² = 2e-6 J = 2e6 pJ
        assert!((c.energy_at_pj(2.0) - 2e6).abs() < 1.0);
    }

    #[test]
    fn usable_window_of_paper_buffer() {
        // ½·1µF·(3.3² − 2.8²) ≈ 1.525 µJ: the compute budget of an
        // NV-cache interval (boot at 3.3, die at 2.8).
        let c = Capacitor::paper_default();
        let e = c.energy_between_pj(3.3, 2.8);
        assert!((e - 1.525e6).abs() < 1e3, "got {e}");
    }

    #[test]
    fn drain_then_charge_round_trips() {
        let mut c = Capacitor::paper_default();
        c.set_voltage(3.3);
        let e0 = c.energy_pj();
        c.drain_pj(100_000.0);
        c.charge_pj(100_000.0);
        assert!((c.energy_pj() - e0).abs() < 1.0);
    }

    #[test]
    fn charge_saturates_at_v_max() {
        let mut c = Capacitor::paper_default();
        c.set_voltage(3.49);
        c.charge_pj(1e9);
        assert_eq!(c.voltage(), 3.5);
    }

    #[test]
    fn drain_floors_at_zero() {
        let mut c = Capacitor::paper_default();
        c.set_voltage(2.9);
        c.drain_pj(1e12);
        assert_eq!(c.voltage(), 0.0);
        assert_eq!(c.energy_pj(), 0.0);
    }

    #[test]
    fn set_voltage_clamps() {
        let mut c = Capacitor::paper_default();
        c.set_voltage(9.0);
        assert_eq!(c.voltage(), 3.5);
        c.set_voltage(-1.0);
        assert_eq!(c.voltage(), 0.0);
    }

    #[test]
    #[should_panic(expected = "capacitance")]
    fn zero_capacitance_rejected() {
        let _ = Capacitor::new(0.0, 2.8, 3.5);
    }

    /// The paper's buffer and every size the figures and tests sweep.
    fn capacitors() -> Vec<Capacitor> {
        [
            0.1, 0.15, 0.2, 0.344, 1.0, 3.3, 10.0, 33.0, 100.0, 500.0, 1000.0,
        ]
        .into_iter()
        .map(|uf| Capacitor::with_uf(uf, 2.8, 3.5))
        .collect()
    }

    #[test]
    fn settled_voltages_match_the_original_chain_at_the_edges() {
        let tiny = f64::from_bits(1); // smallest subnormal
        let vs = [
            0.0,
            -0.0,
            tiny,
            -tiny,
            f64::MIN_POSITIVE,
            1e-160, // v² underflows to a subnormal energy
            2.8,
            3.3,
            3.5 - f64::EPSILON,
            3.5,
            3.54, // the default charging knee
            4.0,
            f64::INFINITY,
            f64::NAN,
        ];
        let pjs = [
            0.0,
            -0.0,
            tiny,
            f64::MIN_POSITIVE,
            1e-300,
            1.0,
            6.125e6, // the 1 µF buffer's whole charge at 3.5 V
            1e7,
            1e12,
            f64::INFINITY,
            f64::NAN,
        ];
        for c in capacitors() {
            for v in vs {
                for pj in pjs {
                    let charged = c.charged_voltage_at(v, pj);
                    let drained = c.drained_voltage_at(v, pj);
                    assert_eq!(
                        charged.to_bits(),
                        original::charged(&c, v, pj).to_bits(),
                        "charge {pj} pJ at {v} V on {} F",
                        c.capacitance_f
                    );
                    assert_eq!(
                        drained.to_bits(),
                        original::drained(&c, v, pj).to_bits(),
                        "drain {pj} pJ at {v} V on {} F",
                        c.capacitance_f
                    );
                }
            }
            // The saturating arms are reachable and keep their values.
            assert_eq!(c.charged_voltage_at(3.5, 1e12), 3.5);
            assert_eq!(c.drained_voltage_at(2.8, 1e12).to_bits(), 0.0f64.to_bits());
        }
    }

    #[test]
    fn a_drained_or_charged_voltage_never_leaves_the_operating_range() {
        // `charge_pj`/`drain_pj` rely on this instead of clamping.
        for c in capacitors() {
            for i in 0..=700 {
                let v = f64::from(i) * 0.005;
                for pj in [1e-4, 1.0, 1e3, 1e6, 1e9] {
                    for out in [c.charged_voltage_at(v, pj), c.drained_voltage_at(v, pj)] {
                        assert!((0.0..=c.v_max()).contains(&out), "{out} from {v}");
                    }
                }
            }
        }
    }

    proptest! {
        #[test]
        fn voltage_for_energy_inverts_energy_at(v in 0.0f64..5.0) {
            let c = Capacitor::with_uf(3.3, 0.0, 5.0);
            let e = c.energy_at_pj(v);
            prop_assert!((c.voltage_for_energy(e) - v).abs() < 1e-9);
        }

        #[test]
        fn energy_above_min_matches_uncached(v in 0.0f64..3.5) {
            let mut c = Capacitor::paper_default();
            c.set_voltage(v);
            // Bit-identical, not approximately equal: the cached floor
            // energy must not perturb the per-retire context values.
            prop_assert_eq!(
                c.energy_above_min_pj().to_bits(),
                c.energy_above_pj(c.v_min()).to_bits()
            );
        }

        #[test]
        fn drain_is_monotone(v in 2.8f64..3.5, pj in 0.0f64..1e6) {
            let mut c = Capacitor::paper_default();
            c.set_voltage(v);
            let before = c.voltage();
            c.drain_pj(pj);
            prop_assert!(c.voltage() <= before);
        }

        #[test]
        fn charged_voltage_at_matches_the_original_chain(v in 0.0f64..3.5, pj in 0.0f64..1e7) {
            for c in capacitors() {
                let want = original::charged(&c, v, pj);
                prop_assert_eq!(c.charged_voltage_at(v, pj).to_bits(), want.to_bits());
            }
        }

        #[test]
        fn drained_voltage_at_matches_the_original_chain(v in 0.0f64..3.5, pj in 0.0f64..1e7) {
            for c in capacitors() {
                let want = original::drained(&c, v, pj);
                prop_assert_eq!(c.drained_voltage_at(v, pj).to_bits(), want.to_bits());
            }
        }

        #[test]
        fn charge_and_drain_pj_match_the_original_chain(v in 0.0f64..3.5, pj in 0.0f64..1e7) {
            for mut c in capacitors() {
                c.set_voltage(v);
                let want = original::charged(&c, v, pj);
                prop_assert_eq!(c.charge_pj(pj).to_bits(), want.to_bits());
                prop_assert_eq!(c.voltage().to_bits(), want.to_bits());
                let v = c.voltage();
                let want = original::drained(&c, v, pj);
                prop_assert_eq!(c.drain_pj(pj).to_bits(), want.to_bits());
                prop_assert_eq!(c.voltage().to_bits(), want.to_bits());
            }
        }

        #[test]
        fn settled_voltages_match_the_original_chain_on_any_bits(v_bits: u64, pj_bits: u64) {
            // Any f64 at all, NaNs and infinities included, inside the
            // one documented limit of the rewrite: `2·e` must not
            // overflow.
            let (v, pj) = (f64::from_bits(v_bits), f64::from_bits(pj_bits));
            for c in capacitors() {
                let e = c.energy_at_pj(v);
                if (e + pj).abs() > f64::MAX / 2.0 || (e - pj).abs() > f64::MAX / 2.0 {
                    continue;
                }
                prop_assert_eq!(
                    c.charged_voltage_at(v, pj).to_bits(),
                    original::charged(&c, v, pj).to_bits()
                );
                prop_assert_eq!(
                    c.drained_voltage_at(v, pj).to_bits(),
                    original::drained(&c, v, pj).to_bits()
                );
            }
        }
    }
}

/// The settlement chain as first written, kept as the oracle the
/// rewritten forms must match bit for bit (DESIGN.md §2.10).
#[cfg(test)]
mod original {
    use super::{Capacitor, J_TO_PJ};

    fn energy_at_pj(c: &Capacitor, v: f64) -> f64 {
        0.5 * c.capacitance_f * v * v * J_TO_PJ
    }

    fn voltage_for_energy(c: &Capacitor, pj: f64) -> f64 {
        (2.0 * pj / J_TO_PJ / c.capacitance_f).max(0.0).sqrt()
    }

    pub(super) fn charged(c: &Capacitor, v: f64, pj: f64) -> f64 {
        let e = energy_at_pj(c, v) + pj;
        voltage_for_energy(c, e).min(c.v_max)
    }

    pub(super) fn drained(c: &Capacitor, v: f64, pj: f64) -> f64 {
        let e = (energy_at_pj(c, v) - pj).max(0.0);
        voltage_for_energy(c, e)
    }
}
