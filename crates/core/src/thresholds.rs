//! The `maxline` / `waterline` threshold pair (§3.1).

use std::error::Error;
use std::fmt;

/// DirtyQueue thresholds governing WL-Cache's write policy.
///
/// Invariants (enforced at construction): `waterline < maxline <=
/// dq_capacity`, and `maxline >= 1`.
///
/// - When the number of dirty lines exceeds `waterline`, WL-Cache picks
///   a dirty line and asynchronously writes it back (clean, no evict).
/// - When DirtyQueue occupancy reaches `maxline`, a store that would add
///   a new dirty line stalls until a slot frees up.
/// - The gap `maxline − waterline` is the ILP window: cleaning is in
///   flight while the core keeps executing.
///
/// Conceptually, `maxline = cache size` is a write-back cache and
/// `maxline = 0` is a write-through cache; WL-Cache lives in between and
/// can be moved along that spectrum at every reboot (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Thresholds {
    dq_capacity: usize,
    maxline: usize,
    waterline: usize,
}

/// Error constructing [`Thresholds`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThresholdsError {
    /// `maxline` exceeded the DirtyQueue capacity.
    MaxlineAboveCapacity {
        /// Requested maxline.
        maxline: usize,
        /// Physical queue capacity.
        capacity: usize,
    },
    /// `waterline` was not strictly below `maxline`.
    WaterlineNotBelowMaxline {
        /// Requested waterline.
        waterline: usize,
        /// Requested maxline.
        maxline: usize,
    },
    /// `maxline` must be at least 1.
    MaxlineZero,
}

impl fmt::Display for ThresholdsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThresholdsError::MaxlineAboveCapacity { maxline, capacity } => write!(
                f,
                "maxline ({maxline}) exceeds DirtyQueue capacity ({capacity})"
            ),
            ThresholdsError::WaterlineNotBelowMaxline { waterline, maxline } => write!(
                f,
                "waterline ({waterline}) must be strictly below maxline ({maxline})"
            ),
            ThresholdsError::MaxlineZero => write!(f, "maxline must be at least 1"),
        }
    }
}

impl Error for ThresholdsError {}

impl Thresholds {
    /// Creates a threshold configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ThresholdsError`] if the invariants described on the
    /// type do not hold.
    pub fn new(
        dq_capacity: usize,
        maxline: usize,
        waterline: usize,
    ) -> Result<Self, ThresholdsError> {
        if maxline == 0 {
            return Err(ThresholdsError::MaxlineZero);
        }
        if maxline > dq_capacity {
            return Err(ThresholdsError::MaxlineAboveCapacity {
                maxline,
                capacity: dq_capacity,
            });
        }
        if waterline >= maxline {
            return Err(ThresholdsError::WaterlineNotBelowMaxline { waterline, maxline });
        }
        Ok(Self {
            dq_capacity,
            maxline,
            waterline,
        })
    }

    /// The paper's default: DirtyQueue size 8, maxline 6, waterline 5
    /// (§6.1).
    #[expect(
        clippy::expect_used,
        reason = "literal arguments (8, 6, 5), validated by unit tests; cannot fail at run time"
    )]
    pub fn paper_default() -> Self {
        Self::new(8, 6, 5).expect("paper defaults are valid")
    }

    /// A configuration with the default `waterline = maxline − 1`.
    ///
    /// # Errors
    ///
    /// Same as [`Thresholds::new`].
    pub fn with_maxline(dq_capacity: usize, maxline: usize) -> Result<Self, ThresholdsError> {
        Self::new(dq_capacity, maxline, maxline.saturating_sub(1))
    }

    /// Physical DirtyQueue capacity.
    pub fn dq_capacity(&self) -> usize {
        self.dq_capacity
    }

    /// Maximum number of DirtyQueue entries before stores stall.
    pub fn maxline(&self) -> usize {
        self.maxline
    }

    /// Dirty-line count above which asynchronous cleaning starts.
    pub fn waterline(&self) -> usize {
        self.waterline
    }

    /// Returns a copy with a different maxline (waterline re-derived as
    /// `maxline − 1`), clamped to `[1, dq_capacity]` — used by the
    /// adaptive controller.
    pub fn reconfigured(&self, maxline: usize) -> Self {
        let m = maxline.clamp(1, self.dq_capacity);
        Self {
            dq_capacity: self.dq_capacity,
            maxline: m,
            waterline: m - 1,
        }
    }
}

impl Default for Thresholds {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_8_6_5() {
        let t = Thresholds::paper_default();
        assert_eq!(t.dq_capacity(), 8);
        assert_eq!(t.maxline(), 6);
        assert_eq!(t.waterline(), 5);
    }

    #[test]
    fn invalid_configurations_rejected() {
        assert_eq!(
            Thresholds::new(8, 9, 5),
            Err(ThresholdsError::MaxlineAboveCapacity {
                maxline: 9,
                capacity: 8
            })
        );
        assert_eq!(
            Thresholds::new(8, 4, 4),
            Err(ThresholdsError::WaterlineNotBelowMaxline {
                waterline: 4,
                maxline: 4
            })
        );
        assert_eq!(Thresholds::new(8, 0, 0), Err(ThresholdsError::MaxlineZero));
    }

    #[test]
    fn with_maxline_derives_waterline() {
        let t = Thresholds::with_maxline(8, 4).unwrap();
        assert_eq!(t.waterline(), 3);
        let t1 = Thresholds::with_maxline(8, 1).unwrap();
        assert_eq!(t1.waterline(), 0);
    }

    #[test]
    fn reconfigured_clamps_to_capacity() {
        let t = Thresholds::paper_default();
        assert_eq!(t.reconfigured(12).maxline(), 8);
        assert_eq!(t.reconfigured(0).maxline(), 1);
        assert_eq!(t.reconfigured(4).waterline(), 3);
    }

    #[test]
    fn error_messages_are_informative() {
        let e = Thresholds::new(8, 9, 5).unwrap_err();
        assert!(e.to_string().contains("capacity"));
    }
}
