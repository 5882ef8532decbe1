//! Harvesting front-end charging model.

use crate::select::clamp01;

/// Voltage-dependent charging efficiency of the harvesting front end.
///
/// A real energy-harvesting rectifier delivers less and less of the
/// ambient power into the capacitor as the capacitor voltage approaches
/// the front end's open-circuit voltage — the current collapses and the
/// last tenths of a volt take disproportionately long to charge. This
/// is why a design that must recharge to `Von = 3.5 V` (NVSRAM) pays a
/// much larger per-outage recharge penalty than one that boots at
/// `3.3 V`, which is one of the paper's key levers (Table 2, §6.3).
///
/// The model is `η(V) = 1 − (V / v_knee)^steepness`, clamped to
/// `[0, 1]`: near-unity at low voltage, collapsing as `V → v_knee`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChargingModel {
    /// Voltage at which delivered power reaches zero (slightly above
    /// the system's `Vmax`).
    pub v_knee: f64,
    /// Sharpness of the collapse.
    pub steepness: i32,
}

impl ChargingModel {
    /// The reproduction's default: knee just above the 3.5 V `Vmax`
    /// with a steep collapse — charging the 3.4 → 3.5 V tail runs at
    /// roughly half the efficiency of charging at 3.3 V, which is what
    /// makes a high `Von` (NVSRAM's warm-restore requirement at 3.5 V)
    /// expensive per outage while leaving the 3.3–3.45 V boot points of
    /// the other designs comparatively cheap.
    pub fn paper_default() -> Self {
        Self {
            v_knee: 3.54,
            steepness: 8,
        }
    }

    /// An ideal front end (η ≡ 1), useful in unit tests.
    pub fn ideal() -> Self {
        Self {
            v_knee: f64::INFINITY,
            steepness: 8,
        }
    }

    /// Fraction of harvested power actually delivered into the
    /// capacitor at voltage `v`.
    #[inline]
    pub fn efficiency(&self, v: f64) -> f64 {
        if !self.v_knee.is_finite() {
            return 1.0;
        }
        let r = v / self.v_knee;
        // `powi` with a runtime exponent is a library call on the settle
        // hot path. For the default steepness of 8 the call computes
        // `1.0 * ((r²)²)²` by repeated squaring; doing the same squaring
        // chain inline is bit-identical. Other exponents call `powi`
        // from an out-of-line function: written inline, LLVM hoists the
        // pure call above the branch and pays it on every window.
        let p = if self.steepness == 8 {
            let r2 = r * r;
            let r4 = r2 * r2;
            r4 * r4
        } else {
            powi_cold(r, self.steepness)
        };
        clamp01(1.0 - p)
    }
}

#[cold]
#[inline(never)]
fn powi_cold(r: f64, n: i32) -> f64 {
    r.powi(n)
}

impl Default for ChargingModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `efficiency` as first written, kept as the oracle the branchy
    /// clamp must match bit for bit.
    fn original_efficiency(m: &ChargingModel, v: f64) -> f64 {
        if !m.v_knee.is_finite() {
            return 1.0;
        }
        let r = v / m.v_knee;
        let p = if m.steepness == 8 {
            let r2 = r * r;
            let r4 = r2 * r2;
            r4 * r4
        } else {
            r.powi(m.steepness)
        };
        (1.0 - p).clamp(0.0, 1.0)
    }

    /// The default front end, the ideal one, and odd and even
    /// exponents off the squaring fast path.
    fn models() -> [ChargingModel; 4] {
        [
            ChargingModel::paper_default(),
            ChargingModel::ideal(),
            ChargingModel {
                v_knee: 3.54,
                steepness: 3,
            },
            ChargingModel {
                v_knee: 3.6,
                steepness: 6,
            },
        ]
    }

    #[test]
    fn efficiency_matches_the_original_at_the_edges() {
        let tiny = f64::from_bits(1);
        for m in models() {
            for v in [
                0.0,
                -0.0,
                tiny,
                -tiny,
                f64::MIN_POSITIVE,
                -1.0,
                -4.0,
                3.5,
                3.54,
                3.55,
                4.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
            ] {
                assert_eq!(
                    m.efficiency(v).to_bits(),
                    original_efficiency(&m, v).to_bits(),
                    "{m:?} at {v}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn efficiency_matches_the_original(v in 0.0f64..3.5, beyond in 3.5f64..8.0, bits: u64) {
            for m in models() {
                for v in [v, beyond, f64::from_bits(bits)] {
                    prop_assert_eq!(m.efficiency(v).to_bits(), original_efficiency(&m, v).to_bits());
                }
            }
        }
    }

    #[test]
    fn efficiency_is_monotone_decreasing() {
        let m = ChargingModel::paper_default();
        let mut last = 1.1;
        for i in 0..40 {
            let v = 2.6 + 0.025 * f64::from(i);
            let e = m.efficiency(v);
            assert!(e <= last);
            assert!((0.0..=1.0).contains(&e));
            last = e;
        }
    }

    #[test]
    fn tail_is_slower_than_midrange() {
        let m = ChargingModel::paper_default();
        assert!(m.efficiency(3.0) > 1.5 * m.efficiency(3.5));
    }

    #[test]
    fn zero_beyond_knee() {
        let m = ChargingModel::paper_default();
        assert_eq!(m.efficiency(3.55), 0.0);
    }

    #[test]
    fn ideal_is_unity_everywhere() {
        let m = ChargingModel::ideal();
        assert_eq!(m.efficiency(3.5), 1.0);
        assert_eq!(m.efficiency(0.1), 1.0);
    }
}
