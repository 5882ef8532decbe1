//! Per-category energy accounting (used for the Fig 13(b) breakdown).

use ehsim_mem::Pj;

/// Where a unit of energy was spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnergyCategory {
    /// Core computation (pipeline, ALU, register file).
    Compute,
    /// Cache reads (tag + data array).
    CacheRead,
    /// Cache writes.
    CacheWrite,
    /// NVM main-memory reads (demand fills, warm-cache restore).
    MemRead,
    /// NVM main-memory writes (write-through stores, write-backs,
    /// checkpoint flushes).
    MemWrite,
}

impl EnergyCategory {
    /// All categories, in Fig 13(b) legend order.
    pub const ALL: [EnergyCategory; 5] = [
        EnergyCategory::CacheRead,
        EnergyCategory::CacheWrite,
        EnergyCategory::MemRead,
        EnergyCategory::MemWrite,
        EnergyCategory::Compute,
    ];

    /// Legend label matching the paper's figure.
    pub fn label(self) -> &'static str {
        match self {
            EnergyCategory::Compute => "Compute",
            EnergyCategory::CacheRead => "Cache(read)",
            EnergyCategory::CacheWrite => "Cache(write)",
            EnergyCategory::MemRead => "Mem(read)",
            EnergyCategory::MemWrite => "Mem(write)",
        }
    }
}

/// Accumulates energy consumption per [`EnergyCategory`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyMeter {
    /// Core computation energy (pJ).
    pub compute: Pj,
    /// Cache read energy (pJ).
    pub cache_read: Pj,
    /// Cache write energy (pJ).
    pub cache_write: Pj,
    /// NVM read energy (pJ).
    pub mem_read: Pj,
    /// NVM write energy (pJ).
    pub mem_write: Pj,
}

impl EnergyMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `pj` picojoules to `category`.
    #[inline]
    pub fn add(&mut self, category: EnergyCategory, pj: Pj) {
        debug_assert!(pj >= 0.0, "energy must be non-negative, got {pj}");
        match category {
            EnergyCategory::Compute => self.compute += pj,
            EnergyCategory::CacheRead => self.cache_read += pj,
            EnergyCategory::CacheWrite => self.cache_write += pj,
            EnergyCategory::MemRead => self.mem_read += pj,
            EnergyCategory::MemWrite => self.mem_write += pj,
        }
    }

    /// Reads the accumulated energy for `category`.
    pub fn get(&self, category: EnergyCategory) -> Pj {
        match category {
            EnergyCategory::Compute => self.compute,
            EnergyCategory::CacheRead => self.cache_read,
            EnergyCategory::CacheWrite => self.cache_write,
            EnergyCategory::MemRead => self.mem_read,
            EnergyCategory::MemWrite => self.mem_write,
        }
    }

    /// Total energy across all categories (pJ).
    ///
    /// The sum is evaluated left-to-right in a fixed category order, so
    /// two calls with nothing metered in between return the same bits.
    #[inline]
    pub fn total(&self) -> Pj {
        self.compute + self.cache_read + self.cache_write + self.mem_read + self.mem_write
    }

    /// Component-wise sum of two meters.
    pub fn merged(&self, other: &EnergyMeter) -> EnergyMeter {
        EnergyMeter {
            compute: self.compute + other.compute,
            cache_read: self.cache_read + other.cache_read,
            cache_write: self.cache_write + other.cache_write,
            mem_read: self.mem_read + other.mem_read,
            mem_write: self.mem_write + other.mem_write,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_total() {
        let mut m = EnergyMeter::new();
        m.add(EnergyCategory::Compute, 10.0);
        m.add(EnergyCategory::MemWrite, 5.0);
        m.add(EnergyCategory::MemWrite, 5.0);
        assert_eq!(m.total(), 20.0);
        assert_eq!(m.get(EnergyCategory::MemWrite), 10.0);
        assert_eq!(m.get(EnergyCategory::CacheRead), 0.0);
    }

    #[test]
    fn get_covers_all_categories() {
        let mut m = EnergyMeter::new();
        for (i, c) in EnergyCategory::ALL.iter().enumerate() {
            m.add(*c, (i + 1) as f64);
        }
        let sum: f64 = EnergyCategory::ALL.iter().map(|c| m.get(*c)).sum();
        assert_eq!(sum, m.total());
        assert_eq!(m.total(), 15.0);
    }

    #[test]
    fn merged_is_componentwise() {
        let mut a = EnergyMeter::new();
        a.add(EnergyCategory::CacheRead, 1.0);
        let mut b = EnergyMeter::new();
        b.add(EnergyCategory::CacheRead, 2.0);
        b.add(EnergyCategory::Compute, 3.0);
        let m = a.merged(&b);
        assert_eq!(m.cache_read, 3.0);
        assert_eq!(m.compute, 3.0);
        assert_eq!(m.total(), 6.0);
    }

    #[test]
    fn labels_match_figure_legend() {
        assert_eq!(EnergyCategory::Compute.label(), "Compute");
        assert_eq!(EnergyCategory::MemWrite.label(), "Mem(write)");
    }
}
