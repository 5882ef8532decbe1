//! Saturating f64 selects written as predictable branches.
//!
//! `x.max(0.0)`, `x.min(hi)` and `x.clamp(0.0, 1.0)` compile to
//! select instructions, and a select waits for its comparison: on the
//! settlement chain (DESIGN.md §2.10) every one of them adds its
//! latency to the loop-carried voltage dependency. Each helper below
//! returns `x` itself on the common, non-saturating arm and leaves the
//! rare saturating arm to an out-of-line `#[cold]` function that
//! evaluates the original expression. The comparison then feeds a
//! branch the predictor resolves ahead of time instead of the data
//! path. The hot arm is only taken where the original expression
//! returns `x` exactly, and the cold arm *is* the original expression,
//! so every result — signed zeros and NaNs included — is bit-identical.

/// `x.max(0.0)`.
#[inline(always)]
pub(crate) fn max0(x: f64) -> f64 {
    if x > 0.0 {
        x
    } else {
        max0_cold(x)
    }
}

#[cold]
#[inline(never)]
fn max0_cold(x: f64) -> f64 {
    x.max(0.0)
}

/// `x.min(hi)`, for a `hi` that is not NaN.
#[inline(always)]
pub(crate) fn min_to(x: f64, hi: f64) -> f64 {
    if x < hi {
        x
    } else {
        min_to_cold(x, hi)
    }
}

#[cold]
#[inline(never)]
fn min_to_cold(x: f64, hi: f64) -> f64 {
    x.min(hi)
}

/// `x.clamp(0.0, 1.0)`.
#[inline(always)]
pub(crate) fn clamp01(x: f64) -> f64 {
    if (0.0..=1.0).contains(&x) {
        x
    } else {
        clamp01_cold(x)
    }
}

#[cold]
#[inline(never)]
fn clamp01_cold(x: f64) -> f64 {
    x.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Inputs at every boundary the hot arms test against.
    const EDGES: [f64; 14] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        4.9e-324,
        -4.9e-324,
        3.5,
        1.0 + f64::EPSILON,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
    ];

    /// `f64::max`/`f64::min` may return either zero when `-0.0` meets
    /// `+0.0`, and the choice can differ between a constant-folded and
    /// a runtime call, so those ties have no single answer to compare
    /// against. The settlement chain never forms one: its energies are
    /// `+0.0` or larger and `v_max` is positive (the capacitor tests
    /// feed it both zeros).
    fn zero_tie(x: f64, y: f64) -> bool {
        x == 0.0 && y == 0.0 && x.to_bits() != y.to_bits()
    }

    #[test]
    fn helpers_match_the_std_selects_at_the_edges() {
        for x in EDGES {
            if !zero_tie(x, 0.0) {
                assert_eq!(max0(x).to_bits(), x.max(0.0).to_bits(), "max0({x})");
            }
            assert_eq!(
                clamp01(x).to_bits(),
                x.clamp(0.0, 1.0).to_bits(),
                "clamp01({x})"
            );
            for hi in [1.0, 3.5, f64::INFINITY] {
                assert_eq!(
                    min_to(x, hi).to_bits(),
                    x.min(hi).to_bits(),
                    "min_to({x}, {hi})"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn helpers_match_the_std_selects_on_any_bits(bits: u64, hi in 0.0f64..8.0) {
            let x = f64::from_bits(bits);
            if !zero_tie(x, 0.0) {
                prop_assert_eq!(max0(x).to_bits(), x.max(0.0).to_bits());
            }
            if !zero_tie(x, hi) {
                prop_assert_eq!(min_to(x, hi).to_bits(), x.min(hi).to_bits());
            }
            prop_assert_eq!(clamp01(x).to_bits(), x.clamp(0.0, 1.0).to_bits());
        }
    }
}
