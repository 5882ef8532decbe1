//! Cache layout and replacement-policy types.

/// Layout of a set-associative cache.
///
/// The paper's default is an 8 kB, 2-way cache with 64 B blocks
/// (Table 2); §6.5 sweeps associativity (direct-mapped/2/4-way) and cache
/// size (128 B – 4 kB).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    size_bytes: u32,
    ways: u32,
    line_bytes: u32,
}

impl CacheGeometry {
    /// Creates a geometry of `size_bytes` total capacity, `ways`-way
    /// associativity and `line_bytes` blocks.
    ///
    /// # Panics
    ///
    /// Panics where [`CacheGeometry::try_new`] returns an error.
    pub fn new(size_bytes: u32, ways: u32, line_bytes: u32) -> Self {
        Self::try_new(size_bytes, ways, line_bytes).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`CacheGeometry::new`] for layouts that come from user input.
    ///
    /// # Errors
    ///
    /// Names the broken rule unless `line_bytes` and the set count are
    /// powers of two, `ways >= 1`, and `size_bytes` is an exact multiple
    /// of `ways * line_bytes`.
    pub fn try_new(size_bytes: u32, ways: u32, line_bytes: u32) -> Result<Self, String> {
        if ways == 0 {
            return Err("need at least one way".into());
        }
        if !line_bytes.is_power_of_two() {
            return Err("line size must be a power of two".into());
        }
        let way_bytes = ways
            .checked_mul(line_bytes)
            .ok_or_else(|| format!("{ways} ways of {line_bytes} B lines overflow 32 bits"))?;
        if !size_bytes.is_multiple_of(way_bytes) {
            return Err(format!(
                "size must be a multiple of ways * line_bytes ({way_bytes})"
            ));
        }
        let n_sets = size_bytes / way_bytes;
        if !n_sets.is_power_of_two() {
            return Err(format!("set count must be a power of two (got {n_sets})"));
        }
        Ok(Self {
            size_bytes,
            ways,
            line_bytes,
        })
    }

    /// The paper's default data-cache layout: 8 kB, 2-way, 64 B blocks.
    pub fn paper_default() -> Self {
        Self::new(8 * 1024, 2, 64)
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> u32 {
        self.size_bytes
    }

    /// Associativity.
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Block (line) size in bytes.
    pub fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    /// Number of sets.
    pub fn n_sets(&self) -> u32 {
        self.size_bytes / (self.ways * self.line_bytes)
    }

    /// Total number of lines.
    pub fn n_lines(&self) -> u32 {
        self.n_sets() * self.ways
    }

    /// Set index of a byte address.
    #[inline]
    pub fn set_of(&self, addr: u32) -> u32 {
        (addr / self.line_bytes) & (self.n_sets() - 1)
    }

    /// Tag of a byte address.
    #[inline]
    pub fn tag_of(&self, addr: u32) -> u32 {
        addr / self.line_bytes / self.n_sets()
    }

    /// Line-aligned base address of `addr`.
    #[inline]
    pub fn line_base(&self, addr: u32) -> u32 {
        ehsim_mem::line_base(addr, self.line_bytes)
    }

    /// Reconstructs a line base address from a `(tag, set)` pair.
    #[inline]
    pub fn base_of(&self, tag: u32, set: u32) -> u32 {
        (tag * self.n_sets() + set) * self.line_bytes
    }
}

impl Default for CacheGeometry {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Cache (or DirtyQueue) replacement policy.
///
/// §6.5 of the paper finds FIFO *cache* replacement both faster and more
/// energy-efficient than LRU under intermittent power; §6.4 finds the
/// same for the DirtyQueue replacement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementPolicy {
    /// Least-recently-used.
    #[default]
    Lru,
    /// First-in-first-out (by fill order).
    Fifo,
}

impl ReplacementPolicy {
    /// Label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            ReplacementPolicy::Lru => "LRU",
            ReplacementPolicy::Fifo => "FIFO",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_layout() {
        let g = CacheGeometry::paper_default();
        assert_eq!(g.n_sets(), 64);
        assert_eq!(g.n_lines(), 128);
        assert_eq!(g.ways(), 2);
        assert_eq!(g.line_bytes(), 64);
    }

    #[test]
    fn index_and_tag_partition_the_address() {
        let g = CacheGeometry::new(1024, 2, 64); // 8 sets
        let addr = 0x0001_2345;
        let set = g.set_of(addr);
        let tag = g.tag_of(addr);
        assert!(set < g.n_sets());
        assert_eq!(g.base_of(tag, set), g.line_base(addr));
    }

    #[test]
    fn direct_mapped_works() {
        let g = CacheGeometry::new(512, 1, 64);
        assert_eq!(g.n_sets(), 8);
        assert_eq!(g.set_of(64), 1);
        assert_eq!(g.set_of(512 + 64), 1);
        assert_ne!(g.tag_of(64), g.tag_of(512 + 64));
    }

    #[test]
    fn tiny_cache_from_fig10a_sweep() {
        let g = CacheGeometry::new(128, 2, 64); // one set
        assert_eq!(g.n_sets(), 1);
        assert_eq!(g.set_of(0xffff_ffc0), 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let _ = CacheGeometry::new(3 * 128, 2, 64);
    }

    #[test]
    fn replacement_labels() {
        assert_eq!(ReplacementPolicy::Lru.label(), "LRU");
        assert_eq!(ReplacementPolicy::Fifo.label(), "FIFO");
        assert_eq!(ReplacementPolicy::default(), ReplacementPolicy::Lru);
    }
}
