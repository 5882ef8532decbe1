//! The capacitor energy buffer.

use crate::charging::ChargingModel;
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
    /// `½C`, the first product of `0.5 * C * v * v * J_TO_PJ`, so
    /// [`Capacitor::energy_at_pj`] starts from it with the same bits.
    half_c: f64,
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
    /// Panics where [`Capacitor::check_capacitance`] returns an error,
    /// or if `v_min >= v_max` or `v_min < 0`.
    pub fn new(capacitance_f: f64, v_min: f64, v_max: f64) -> Self {
        if let Err(e) = Self::check_capacitance(capacitance_f) {
            panic!("{e}");
        }
        assert!(v_min >= 0.0 && v_min < v_max, "need 0 <= v_min < v_max");
        Self {
            capacitance_f,
            half_c: 0.5 * capacitance_f,
            voltage: v_min,
            v_min,
            v_max,
            e_at_v_min_pj: 0.5 * capacitance_f * v_min * v_min * J_TO_PJ,
        }
    }

    /// Checks that `capacitance_f` farads can size a capacitor.
    ///
    /// # Errors
    ///
    /// Says so unless `capacitance_f` is positive and finite.
    pub fn check_capacitance(capacitance_f: f64) -> Result<(), String> {
        if capacitance_f > 0.0 && capacitance_f.is_finite() {
            Ok(())
        } else {
            Err("capacitance must be positive and finite".into())
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
        self.half_c * v * v * J_TO_PJ
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

    /// One settlement window's capacitor step (DESIGN.md §2.10): over a
    /// window (`harvested` is `Some`, even of 0 pJ), charge the harvest
    /// times the front end's efficiency at the present voltage; then
    /// drain `spent` if it is positive. `None` is a window of length 0,
    /// which charges nothing. The voltage is carried in a local and
    /// stored once: inlined, a store and reload between the charge and
    /// the drain put a store-forwarding delay on the chain.
    #[inline(always)]
    pub fn settle(&mut self, charging: &ChargingModel, harvested: Option<Pj>, spent: Pj) {
        let mut v = self.voltage;
        if let Some(h) = harvested {
            let eta = charging.efficiency(v);
            v = self.charged_voltage_at(v, h * eta);
        }
        if spent > 0.0 {
            v = self.drained_voltage_at(v, spent);
        }
        self.voltage = v;
    }

    /// [`Capacitor::settle`] on two capacitors, bit for bit. When both
    /// windows charge and drain under the default `r⁸` front end and
    /// stay on the common arm of every saturating select, the two
    /// chains run side by side on `[f64; 2]` lanes, which compile to
    /// packed SSE2 divides and square roots; otherwise both run the
    /// scalar chain.
    #[inline(always)]
    pub fn settle_pair(
        caps: [&mut Capacitor; 2],
        charging: [&ChargingModel; 2],
        harvested: [Option<Pj>; 2],
        spent: [Pj; 2],
    ) {
        let [a, b] = caps;
        let lanes = match (harvested, charging.map(squaring_knee)) {
            ([Some(ha), Some(hb)], [Some(ka), Some(kb)]) if spent[0] > 0.0 && spent[1] > 0.0 => {
                settled_pair([&*a, &*b], [ka, kb], [ha, hb], spent)
            }
            _ => None,
        };
        match lanes {
            Some([va, vb]) => {
                a.voltage = va;
                b.voltage = vb;
            }
            None => settle_each([a, b], charging, harvested, spent),
        }
    }
}

/// The knee of a front end whose efficiency is `1 − (v / knee)⁸` by
/// the inline squaring chain, or `None` for any other front end.
#[inline(always)]
fn squaring_knee(m: &ChargingModel) -> Option<f64> {
    (m.steepness == 8 && m.v_knee.is_finite()).then_some(m.v_knee)
}

/// The two-lane chain of [`Capacitor::settle_pair`]: both voltages
/// after a charge of `harvested · η(v)` and a drain of `spent`, or
/// `None` if either lane leaves the common arm of a select: `clamp01`
/// on η, `max0` on the charge's quotient, `min_to` on the charged
/// voltage, `max0` on the drained energy and on its quotient. Each
/// lane computes the scalar chain's operations in the scalar chain's
/// order, and on the common arm every select returns its argument, so
/// each lane rounds as the scalar chain does.
///
/// Two of the six arm tests are implied by the others: η = 1 − r⁸ is
/// at most 1 unless it is NaN, which `η ≥ 0` rejects, and the drain's
/// quotient is the drained energy over two positive divisors, so it is
/// positive only where that energy is.
#[inline(always)]
fn settled_pair(
    c: [&Capacitor; 2],
    knee: [f64; 2],
    harvested: [Pj; 2],
    spent: [Pj; 2],
) -> Option<[f64; 2]> {
    let v = lanes(|i| c[i].voltage);
    let r = lanes(|i| v[i] / knee[i]);
    let r2 = lanes(|i| r[i] * r[i]);
    let r4 = lanes(|i| r2[i] * r2[i]);
    let eta = lanes(|i| 1.0 - r4[i] * r4[i]);
    let e = lanes(|i| c[i].energy_at_pj(v[i]) + harvested[i] * eta[i]);
    let x = lanes(|i| e[i] / HALF_J_TO_PJ / c[i].capacitance_f);
    let charged = lanes(|i| x[i].sqrt());
    let left = lanes(|i| c[i].energy_at_pj(charged[i]) - spent[i]);
    let y = lanes(|i| left[i] / HALF_J_TO_PJ / c[i].capacitance_f);
    let drained = lanes(|i| y[i].sqrt());
    let common =
        |i: usize| (eta[i] >= 0.0) & (x[i] > 0.0) & (charged[i] < c[i].v_max) & (y[i] > 0.0);
    (common(0) & common(1)).then_some(drained)
}

/// `[f(0), f(1)]`: one step of the two-lane chain.
#[inline(always)]
fn lanes(f: impl Fn(usize) -> f64) -> [f64; 2] {
    [f(0), f(1)]
}

/// [`Capacitor::settle_pair`]'s fallback: the scalar chain on each.
#[cold]
#[inline(never)]
fn settle_each(
    caps: [&mut Capacitor; 2],
    charging: [&ChargingModel; 2],
    harvested: [Option<Pj>; 2],
    spent: [Pj; 2],
) {
    for (i, c) in caps.into_iter().enumerate() {
        c.settle(charging[i], harvested[i], spent[i]);
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

    /// One capacitor's settlement window: what [`Capacitor::settle`]
    /// takes.
    struct Lane {
        cap: Capacitor,
        model: ChargingModel,
        harvested: Option<Pj>,
        spent: Pj,
    }

    impl Lane {
        /// The voltage after the window by the chain every settlement
        /// ran before `settle`: `ChargingModel::efficiency`, then
        /// `charge_pj`, then `drain_pj`.
        fn reference(&self) -> u64 {
            let mut c = self.cap.clone();
            if let Some(h) = self.harvested {
                let eta = self.model.efficiency(c.voltage());
                c.charge_pj(h * eta);
            }
            if self.spent > 0.0 {
                c.drain_pj(self.spent);
            }
            c.voltage().to_bits()
        }
    }

    /// The lane shapes [`lane`] builds: 0 is the common arm, every
    /// other one leaves it.
    const ARMS: u32 = 11;

    /// A window of shape `arm` on capacitor `ix` of [`capacitors`]
    /// (modulo their number), drawn from `u`, `w`, `z` in `[0, 1)`:
    /// 0. the common arm: 2.8–3.5 V, up to 10⁴ pJ in and out;
    /// 1. at `v_max`, so the charge saturates;
    /// 2. a harvest far past `v_max`;
    /// 3. a drain past the charged energy, which floors at 0;
    /// 4. a drain of exactly the charged energy;
    /// 5. an empty capacitor and a zero harvest: the charged energy is 0;
    /// 6. a knee below the voltage, so η < 0;
    /// 7. a steepness other than 8;
    /// 8. an infinite knee;
    /// 9. no window (`dt = 0`);
    /// 10. nothing spent: `+0`, `-0` or a negative amount.
    fn lane(arm: u32, ix: usize, u: f64, w: f64, z: f64) -> Lane {
        let mut cap = capacitors()[ix % capacitors().len()].clone();
        cap.set_voltage(2.8 + 0.7 * u);
        let mut lane = Lane {
            model: ChargingModel::paper_default(),
            harvested: Some(1e4 * w),
            spent: 1e-3 + 1e4 * z,
            cap,
        };
        match arm {
            0 => {}
            1 => lane.cap.set_voltage(3.5),
            2 => lane.harvested = Some(lane.cap.energy_at_pj(3.5) * (1.0 + w)),
            3 => lane.spent = lane.cap.energy_at_pj(3.5) * (1.0 + z) + 1.0,
            4 => {
                let mut charged = lane.cap.clone();
                charged.settle(&lane.model, lane.harvested, 0.0);
                lane.spent = charged.energy_pj();
            }
            5 => {
                lane.cap.set_voltage(0.0);
                lane.harvested = Some(0.0);
            }
            6 => lane.model.v_knee = lane.cap.voltage() * (0.5 + 0.49 * w),
            7 => lane.model.steepness = [1, 2, 3, 6, 7, 9, 12][ix % 7],
            8 => lane.model = ChargingModel::ideal(),
            9 => lane.harvested = None,
            _ => lane.spent = [0.0, -0.0, -1e4 * z][ix % 3],
        }
        lane
    }

    /// Asserts that `settle` on each lane and `settle_pair` on both
    /// give the reference chain's voltages.
    fn assert_settles_as_the_reference(a: &Lane, b: &Lane) {
        for l in [a, b] {
            let mut c = l.cap.clone();
            c.settle(&l.model, l.harvested, l.spent);
            assert_eq!(c.voltage().to_bits(), l.reference(), "settle");
        }
        let (mut ca, mut cb) = (a.cap.clone(), b.cap.clone());
        Capacitor::settle_pair(
            [&mut ca, &mut cb],
            [&a.model, &b.model],
            [a.harvested, b.harvested],
            [a.spent, b.spent],
        );
        assert_eq!(ca.voltage().to_bits(), a.reference(), "settle_pair lane 0");
        assert_eq!(cb.voltage().to_bits(), b.reference(), "settle_pair lane 1");
    }

    #[test]
    fn every_arm_settles_as_the_reference_in_either_lane() {
        for arm_a in 0..ARMS {
            for arm_b in 0..ARMS {
                for (i, u) in [0.0, 0.37, 0.999].into_iter().enumerate() {
                    let a = lane(arm_a, i, u, 0.5, u);
                    let b = lane(arm_b, 12 - i, 1.0 - u, u, 0.25);
                    assert_settles_as_the_reference(&a, &b);
                }
            }
        }
    }

    #[test]
    fn the_cold_arms_are_reached() {
        let v_max = |l: &Lane| {
            let mut c = l.cap.clone();
            c.settle(&l.model, l.harvested, 0.0);
            c.voltage()
        };
        assert_eq!(v_max(&lane(1, 4, 0.5, 0.5, 0.5)), 3.5);
        assert_eq!(v_max(&lane(2, 0, 0.5, 0.5, 0.5)), 3.5);
        for arm in [3, 4, 5] {
            let l = lane(arm, 4, 0.5, 0.5, 0.5);
            assert_eq!(l.reference(), 0.0f64.to_bits(), "arm {arm}");
        }
        let l = lane(6, 4, 0.5, 0.5, 0.5);
        assert_eq!(l.model.efficiency(l.cap.voltage()), 0.0);
    }

    proptest! {
        #[test]
        fn settle_and_settle_pair_match_the_reference_chain(
            arms in (0u32..2 * ARMS, 0u32..2 * ARMS),
            caps in (0usize..64, 0usize..64),
            a in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
            b in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        ) {
            // Half the draws take the common arm, so both lanes run
            // side by side in about a quarter of the cases.
            let arm = |n: u32| if n < ARMS { n } else { 0 };
            let a = lane(arm(arms.0), caps.0, a.0, a.1, a.2);
            let b = lane(arm(arms.1), caps.1, b.0, b.1, b.2);
            assert_settles_as_the_reference(&a, &b);
        }

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
