//! Data-carrying set-associative tag/data array.

use crate::{CacheGeometry, ReplacementPolicy};
use ehsim_mem::AccessSize;

/// Identifies one line slot in a [`TagArray`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SetWay {
    /// Set index.
    pub set: u32,
    /// Way within the set.
    pub way: u32,
}

/// A set-associative cache array that stores both metadata and line
/// contents.
///
/// Carrying real bytes means the simulated hierarchy is *functionally*
/// correct: workloads read back exactly what they stored through whatever
/// sequence of fills, write-backs, evictions and power failures occurred.
/// This is the substrate of every cache design in the reproduction.
///
/// The array itself is policy-passive: callers decide when to fill,
/// invalidate and clean lines; [`TagArray::victim`] implements the
/// LRU/FIFO *selection* only. Timing and energy live in the designs.
///
/// # Layout
///
/// Storage is struct-of-arrays: one contiguous vector per metadata field
/// (`tags`, `dirty`, `last_use`, `filled_at`) indexed by
/// `set * ways + way`, plus a single flat data block holding every
/// line's bytes back to back. A set scan in `lookup`/`victim` therefore
/// walks `ways` adjacent elements of one small vector instead of
/// chasing a boxed allocation per line, and filling a line is a copy
/// into (or an NVM read directly targeting) a slice of the flat block.
/// The valid bit is folded into the tag: an invalid slot holds
/// [`INVALID_TAG`], which no address can produce (see
/// [`TagArray::new`]), so a lookup compares one vector, not two.
/// Set/tag extraction uses shift/mask forms precomputed from the
/// geometry's power-of-two invariants; they are exact integer
/// equivalents of the division-based [`CacheGeometry`] helpers. A
/// maintained counter makes [`TagArray::count_dirty`] O(1).
#[derive(Debug, Clone)]
pub struct TagArray {
    geom: CacheGeometry,
    policy: ReplacementPolicy,
    tick: u64,
    ways: u32,
    line_bytes: u32,
    /// log2(line_bytes); `addr >> line_shift` is the line number.
    line_shift: u32,
    /// log2(n_sets); the set index occupies this many bits above the
    /// line offset.
    set_shift: u32,
    /// `n_sets - 1`, the mask selecting the set bits.
    set_mask: u32,
    /// Number of valid dirty lines, maintained across fills,
    /// `set_dirty` transitions and invalidations (dirty implies valid).
    dirty_count: usize,
    /// Line tag per slot, or [`INVALID_TAG`] for an invalid slot.
    tags: Vec<u32>,
    dirty: Vec<bool>,
    last_use: Vec<u64>,
    filled_at: Vec<u64>,
    /// All line contents, `line_bytes` per slot, in slot-index order.
    data: Vec<u8>,
}

/// Tag stored in an invalid slot. A real tag is `addr >> (line_shift +
/// set_shift)` with a shift of at least one, so it is below `2^31` and
/// never equals the sentinel.
const INVALID_TAG: u32 = u32::MAX;

impl TagArray {
    /// Creates an empty (all-invalid) array.
    ///
    /// # Panics
    ///
    /// Panics on more than 64 ways, or on a single-set array of
    /// one-byte lines (whose tags would span all 32 address bits and so
    /// could collide with the invalid-slot sentinel).
    pub fn new(geom: CacheGeometry, policy: ReplacementPolicy) -> Self {
        let n = geom.n_lines() as usize;
        let line_bytes = geom.line_bytes();
        // `lookup` packs one hit bit per way into a u64 mask.
        assert!(geom.ways() <= 64, "lookup's hit mask holds at most 64 ways");
        assert!(
            line_bytes > 1 || geom.n_sets() > 1,
            "tags need at least one offset or set bit"
        );
        Self {
            geom,
            policy,
            tick: 0,
            ways: geom.ways(),
            line_bytes,
            line_shift: line_bytes.trailing_zeros(),
            set_shift: geom.n_sets().trailing_zeros(),
            set_mask: geom.n_sets() - 1,
            dirty_count: 0,
            tags: vec![INVALID_TAG; n],
            dirty: vec![false; n],
            last_use: vec![0; n],
            filled_at: vec![0; n],
            data: vec![0u8; n * line_bytes as usize],
        }
    }

    /// The array's geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// The replacement policy used by [`TagArray::victim`].
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    #[inline]
    fn ix(&self, sw: SetWay) -> usize {
        (sw.set * self.ways + sw.way) as usize
    }

    #[inline]
    fn set_of(&self, addr: u32) -> u32 {
        (addr >> self.line_shift) & self.set_mask
    }

    #[inline]
    fn tag_of(&self, addr: u32) -> u32 {
        addr >> (self.line_shift + self.set_shift)
    }

    /// Base address of the line whose tag is stored at slot `ix` in set
    /// `set`. Shift form of `CacheGeometry::base_of`, exact under
    /// wrapping as well.
    #[inline]
    fn base_of_ix(&self, ix: usize, set: u32) -> u32 {
        ((self.tags[ix] << self.set_shift) | set) << self.line_shift
    }

    #[inline]
    fn line_slice(&self, ix: usize) -> &[u8] {
        let lb = self.line_bytes as usize;
        &self.data[ix * lb..(ix + 1) * lb]
    }

    /// Finds the slot holding `addr`'s line, if present and valid.
    ///
    /// The scan is a branchless compare over the set's slice of the SoA
    /// tag vector (an invalid slot's sentinel tag never matches, so no
    /// valid bit is loaded): each way contributes one bit to a hit
    /// mask, and the lowest set bit picks the (unique, but lowest-way
    /// by construction) hit. With no early exit or data-dependent branch in the loop the
    /// compiler can unroll and autovectorize it across the `ways`
    /// adjacent `u32` lanes; equivalence with the early-exit scalar scan
    /// is debug-asserted on every call.
    #[inline]
    pub fn lookup(&self, addr: u32) -> Option<SetWay> {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let first = (set * self.ways) as usize;
        let n = self.ways as usize;
        let mut mask: u64 = 0;
        for (way, &t) in self.tags[first..first + n].iter().enumerate() {
            mask |= ((t == tag) as u64) << way;
        }
        let hit = if mask == 0 {
            None
        } else {
            Some(SetWay {
                set,
                way: mask.trailing_zeros(),
            })
        };
        debug_assert_eq!(
            hit,
            self.lookup_scalar(addr),
            "masked lookup diverged from the scalar scan"
        );
        hit
    }

    /// The reference early-exit scan [`TagArray::lookup`] is checked
    /// against in debug builds.
    fn lookup_scalar(&self, addr: u32) -> Option<SetWay> {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let first = (set * self.ways) as usize;
        for way in 0..self.ways {
            let ix = first + way as usize;
            if self.valid(ix) && self.tags[ix] == tag {
                return Some(SetWay { set, way });
            }
        }
        None
    }

    /// Records a use of `sw` for LRU bookkeeping.
    #[inline]
    pub fn touch(&mut self, sw: SetWay) {
        self.tick += 1;
        let ix = self.ix(sw);
        self.last_use[ix] = self.tick;
    }

    /// Chooses the way that `addr`'s fill should displace: an invalid way
    /// if one exists, otherwise the policy's victim (LRU stamp or FIFO
    /// fill order). Ties keep the lowest way.
    #[inline]
    pub fn victim(&self, addr: u32) -> SetWay {
        let set = self.set_of(addr);
        let first = (set * self.ways) as usize;
        let mut best: Option<(u64, u32)> = None;
        for way in 0..self.ways {
            let ix = first + way as usize;
            if !self.valid(ix) {
                return SetWay { set, way };
            }
            let key = match self.policy {
                ReplacementPolicy::Lru => self.last_use[ix],
                ReplacementPolicy::Fifo => self.filled_at[ix],
            };
            if best.is_none_or(|(k, _)| key < k) {
                best = Some((key, way));
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "geometry validation rejects zero-way configurations at construction, \
                      so the victim search always has a candidate"
        )]
        let way = best.expect("sets have at least one way").1;
        SetWay { set, way }
    }

    /// Installs `addr`'s line with contents `data`, valid and clean.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one line long.
    pub fn fill(&mut self, sw: SetWay, addr: u32, data: &[u8]) {
        assert_eq!(data.len(), self.line_bytes as usize);
        self.fill_slot(sw, addr).copy_from_slice(data);
    }

    /// Installs `addr`'s line metadata (valid, clean, fresh LRU/FIFO
    /// stamps) and returns the slot's data slice for the caller to fill
    /// in place — the allocation-free counterpart of [`TagArray::fill`],
    /// used to read a line straight from NVM into the array.
    #[inline]
    pub fn fill_slot(&mut self, sw: SetWay, addr: u32) -> &mut [u8] {
        self.tick += 1;
        let tick = self.tick;
        let tag = self.tag_of(addr);
        let ix = self.ix(sw);
        if self.dirty[ix] {
            self.dirty_count -= 1;
        }
        self.tags[ix] = tag;
        self.dirty[ix] = false;
        self.last_use[ix] = tick;
        self.filled_at[ix] = tick;
        let lb = self.line_bytes as usize;
        &mut self.data[ix * lb..(ix + 1) * lb]
    }

    #[inline]
    fn valid(&self, ix: usize) -> bool {
        self.tags[ix] != INVALID_TAG
    }

    /// Whether `sw` holds a valid line.
    pub fn is_valid(&self, sw: SetWay) -> bool {
        self.valid(self.ix(sw))
    }

    /// Whether `sw` holds a valid, dirty line. Only a valid line can be
    /// dirty (`set_dirty` asserts validity and every invalidation
    /// clears the bit), so the dirty bit alone answers.
    #[inline]
    pub fn is_dirty(&self, sw: SetWay) -> bool {
        self.dirty[self.ix(sw)]
    }

    /// Sets or clears the dirty bit of a valid line.
    ///
    /// # Panics
    ///
    /// Panics if the slot is invalid.
    #[inline]
    pub fn set_dirty(&mut self, sw: SetWay, dirty: bool) {
        let ix = self.ix(sw);
        assert!(self.valid(ix), "cannot mark an invalid line");
        if self.dirty[ix] != dirty {
            if dirty {
                self.dirty_count += 1;
            } else {
                self.dirty_count -= 1;
            }
            self.dirty[ix] = dirty;
        }
    }

    /// Invalidates one slot.
    pub fn invalidate(&mut self, sw: SetWay) {
        let ix = self.ix(sw);
        if self.dirty[ix] {
            self.dirty_count -= 1;
        }
        self.tags[ix] = INVALID_TAG;
        self.dirty[ix] = false;
    }

    /// Invalidates every line (volatile cache at power-off).
    pub fn invalidate_all(&mut self) {
        self.tags.fill(INVALID_TAG);
        self.dirty.fill(false);
        self.dirty_count = 0;
    }

    /// Base address of the line currently held at `sw`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is invalid.
    #[inline]
    pub fn base_addr(&self, sw: SetWay) -> u32 {
        let ix = self.ix(sw);
        assert!(self.valid(ix), "invalid slot has no address");
        self.base_of_ix(ix, sw.set)
    }

    /// Borrows the line contents at `sw`.
    #[inline]
    pub fn line_data(&self, sw: SetWay) -> &[u8] {
        self.line_slice(self.ix(sw))
    }

    /// LRU stamp of the line at `sw` (used by the DirtyQueue's LRU
    /// replacement policy, which searches for the least-recently-used
    /// dirty line).
    #[inline]
    pub fn last_use(&self, sw: SetWay) -> u64 {
        self.last_use[self.ix(sw)]
    }

    /// Reads `size` bytes at `addr` from the (hitting) line at `sw`,
    /// little-endian.
    ///
    /// # Panics
    ///
    /// Panics if `addr` does not fall within the line held at `sw`.
    #[inline]
    pub fn read(&self, sw: SetWay, addr: u32, size: AccessSize) -> u64 {
        let (ix, off) = self.offset_checked(sw, addr, size);
        read_le(&self.line_slice(ix)[off..], size)
    }

    /// Writes `size` bytes of `value` at `addr` into the line at `sw`.
    /// Does **not** change the dirty bit — that is a policy decision.
    ///
    /// # Panics
    ///
    /// Panics if `addr` does not fall within the line held at `sw`.
    #[inline]
    pub fn write(&mut self, sw: SetWay, addr: u32, size: AccessSize, value: u64) {
        let (ix, off) = self.offset_checked(sw, addr, size);
        let lb = self.line_bytes as usize;
        write_le(&mut self.data[ix * lb + off..(ix + 1) * lb], size, value);
    }

    /// Bounds-checks an access and returns `(slot index, line offset)`.
    ///
    /// The user-facing cross-line panic (`"not in line"`) stays a hard
    /// assert. Slot validity and the in-line size bound are internal
    /// invariants established by construction on the access path (the
    /// designs only hand out slots obtained from `lookup`/`fill`, and
    /// `AccessSize` is naturally aligned), so they are `debug_assert!`s;
    /// the offsets produced here index into a single line slice, so even
    /// in release builds an out-of-line access cannot read another
    /// line's bytes.
    #[inline]
    fn offset_checked(&self, sw: SetWay, addr: u32, size: AccessSize) -> (usize, usize) {
        let ix = self.ix(sw);
        debug_assert!(self.valid(ix), "access to invalid line");
        let base = self.base_of_ix(ix, sw.set);
        assert_eq!(
            addr & !(self.line_bytes - 1),
            base,
            "address 0x{addr:x} not in line at 0x{base:x}"
        );
        let off = (addr - base) as usize;
        debug_assert!(off + size.bytes() as usize <= self.line_bytes as usize);
        (ix, off)
    }

    /// Iterates over all valid dirty lines as `(slot, base_addr)`, in
    /// set-major slot order.
    pub fn dirty_lines(&self) -> impl Iterator<Item = (SetWay, u32)> + '_ {
        (0..self.set_mask + 1).flat_map(move |set| {
            (0..self.ways).filter_map(move |way| {
                let ix = (set * self.ways + way) as usize;
                self.dirty[ix].then(|| (SetWay { set, way }, self.base_of_ix(ix, set)))
            })
        })
    }

    /// Cleans every dirty line in the order of
    /// [`TagArray::dirty_lines`] (ascending slot index is set-major),
    /// handing `f` each line's base address and contents before its
    /// dirty bit clears. Allocation-free, and the walk stops at the
    /// last dirty line.
    pub fn clean_dirty_lines(&mut self, mut f: impl FnMut(u32, &[u8])) {
        let mut ix = 0;
        while self.dirty_count > 0 {
            if self.dirty[ix] {
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "a slot index is below sets × ways, both u32"
                )]
                let set = ix as u32 / self.ways;
                f(self.base_of_ix(ix, set), self.line_slice(ix));
                self.dirty[ix] = false;
                self.dirty_count -= 1;
            }
            ix += 1;
        }
    }

    /// Iterates over all valid lines as `(slot, base_addr)`, in
    /// set-major slot order.
    pub fn valid_lines(&self) -> impl Iterator<Item = (SetWay, u32)> + '_ {
        (0..self.set_mask + 1).flat_map(move |set| {
            (0..self.ways).filter_map(move |way| {
                let ix = (set * self.ways + way) as usize;
                self.valid(ix)
                    .then(|| (SetWay { set, way }, self.base_of_ix(ix, set)))
            })
        })
    }

    /// Number of valid dirty lines. O(1): the count is maintained.
    pub fn count_dirty(&self) -> usize {
        self.dirty_count
    }
}

/// The first `size.bytes()` bytes of `bytes` as a little-endian,
/// zero-extended value: one fixed-width load per width.
#[inline]
fn read_le(bytes: &[u8], size: AccessSize) -> u64 {
    match size {
        AccessSize::B1 => load_le::<1>(bytes),
        AccessSize::B2 => load_le::<2>(bytes),
        AccessSize::B4 => load_le::<4>(bytes),
        AccessSize::B8 => load_le::<8>(bytes),
    }
}

/// Stores the low `size.bytes()` bytes of `value` little-endian at the
/// front of `bytes`.
#[inline]
fn write_le(bytes: &mut [u8], size: AccessSize, value: u64) {
    match size {
        AccessSize::B1 => store_le::<1>(bytes, value),
        AccessSize::B2 => store_le::<2>(bytes, value),
        AccessSize::B4 => store_le::<4>(bytes, value),
        AccessSize::B8 => store_le::<8>(bytes, value),
    }
}

#[inline(always)]
fn load_le<const N: usize>(bytes: &[u8]) -> u64 {
    let mut le = [0u8; 8];
    le[..N].copy_from_slice(&bytes[..N]);
    u64::from_le_bytes(le)
}

#[inline(always)]
fn store_le<const N: usize>(bytes: &mut [u8], value: u64) {
    bytes[..N].copy_from_slice(&value.to_le_bytes()[..N]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TagArray {
        // 2 sets, 2 ways, 64 B lines.
        TagArray::new(CacheGeometry::new(256, 2, 64), ReplacementPolicy::Lru)
    }

    fn line(v: u8) -> Vec<u8> {
        vec![v; 64]
    }

    #[test]
    fn cold_array_misses_everything() {
        let a = small();
        assert!(a.lookup(0).is_none());
        assert_eq!(a.count_dirty(), 0);
        assert_eq!(a.dirty_lines().count(), 0);
    }

    #[test]
    fn fill_then_lookup_hits() {
        let mut a = small();
        let sw = a.victim(0x100);
        a.fill(sw, 0x100, &line(7));
        assert_eq!(a.lookup(0x100), Some(sw));
        assert_eq!(a.lookup(0x13f), Some(sw)); // same line
        assert!(a.lookup(0x140).is_none()); // next line
        assert_eq!(a.base_addr(sw), 0x100);
        assert_eq!(a.read(sw, 0x104, AccessSize::B4), 0x0707_0707);
    }

    #[test]
    fn victim_prefers_invalid_way() {
        let mut a = small();
        let sw0 = a.victim(0);
        a.fill(sw0, 0, &line(1));
        let sw1 = a.victim(0x100); // same set (set 0 of 2 sets? 0x100=256 → set 0)
        assert_eq!(sw1.set, sw0.set);
        assert_ne!(sw1.way, sw0.way);
    }

    #[test]
    fn lru_victim_is_least_recently_used() {
        let mut a = small();
        let s0 = a.victim(0x000);
        a.fill(s0, 0x000, &line(1));
        let s1 = a.victim(0x100);
        a.fill(s1, 0x100, &line(2));
        // Touch the older line; the newer becomes the LRU victim.
        a.touch(s0);
        let v = a.victim(0x200);
        assert_eq!(v, s1);
    }

    #[test]
    fn fifo_victim_ignores_touches() {
        let mut a = TagArray::new(CacheGeometry::new(256, 2, 64), ReplacementPolicy::Fifo);
        let s0 = a.victim(0x000);
        a.fill(s0, 0x000, &line(1));
        let s1 = a.victim(0x100);
        a.fill(s1, 0x100, &line(2));
        a.touch(s0);
        a.touch(s0);
        let v = a.victim(0x200);
        assert_eq!(v, s0, "FIFO evicts oldest fill regardless of touches");
    }

    #[test]
    fn write_read_round_trip_and_dirty_tracking() {
        let mut a = small();
        let sw = a.victim(0x40);
        a.fill(sw, 0x40, &line(0));
        a.write(sw, 0x48, AccessSize::B8, 0x1122_3344_5566_7788);
        assert_eq!(a.read(sw, 0x48, AccessSize::B8), 0x1122_3344_5566_7788);
        assert!(!a.is_dirty(sw), "write alone does not set dirty");
        a.set_dirty(sw, true);
        assert!(a.is_dirty(sw));
        assert_eq!(a.count_dirty(), 1);
        let d: Vec<_> = a.dirty_lines().collect();
        assert_eq!(d, vec![(sw, 0x40)]);
        a.set_dirty(sw, false);
        assert_eq!(a.count_dirty(), 0);
    }

    #[test]
    fn invalidate_all_clears_everything() {
        let mut a = small();
        for addr in [0u32, 0x40, 0x80, 0xc0] {
            let sw = a.victim(addr);
            a.fill(sw, addr, &line(9));
            a.set_dirty(sw, true);
        }
        assert_eq!(a.valid_lines().count(), 4);
        a.invalidate_all();
        assert_eq!(a.valid_lines().count(), 0);
        assert_eq!(a.count_dirty(), 0);
        assert!(a.lookup(0).is_none());
    }

    #[test]
    #[should_panic(expected = "not in line")]
    fn cross_line_access_panics() {
        let mut a = small();
        let sw = a.victim(0);
        a.fill(sw, 0, &line(0));
        let _ = a.read(sw, 0x40, AccessSize::B1);
    }

    #[test]
    fn invalidated_slot_misses_even_for_tag_zero() {
        let mut a = small();
        assert!(a.lookup(0).is_none(), "a cold slot's tag is not 0");
        let sw = a.victim(0);
        a.fill(sw, 0, &line(1));
        a.invalidate(sw);
        assert!(!a.is_valid(sw));
        assert!(a.lookup(0).is_none());
        assert_eq!(a.victim(0), sw, "the invalid way is the victim again");
    }

    #[test]
    #[should_panic(expected = "offset or set bit")]
    fn one_byte_single_set_geometry_is_rejected() {
        let _ = TagArray::new(CacheGeometry::new(2, 2, 1), ReplacementPolicy::Lru);
    }

    #[test]
    fn conflicting_fill_replaces_tag() {
        let mut a = TagArray::new(CacheGeometry::new(128, 1, 64), ReplacementPolicy::Lru);
        let sw = a.victim(0x000);
        a.fill(sw, 0x000, &line(1));
        // 0x80 maps to the same (single-way) set 0? set count = 2.
        let sw2 = a.victim(0x100);
        assert_eq!(sw2, sw);
        a.fill(sw2, 0x100, &line(2));
        assert!(a.lookup(0x000).is_none());
        assert_eq!(a.lookup(0x100), Some(sw));
    }

    #[test]
    fn fill_slot_matches_fill() {
        let mut a = small();
        let mut b = small();
        let sw = a.victim(0x80);
        a.fill(sw, 0x80, &line(5));
        let slot = b.fill_slot(sw, 0x80);
        slot.fill(5);
        assert_eq!(a.lookup(0x80), b.lookup(0x80));
        assert_eq!(a.line_data(sw), b.line_data(sw));
        assert_eq!(a.last_use(sw), b.last_use(sw));
        assert_eq!(a.base_addr(sw), b.base_addr(sw));
    }

    #[test]
    fn dirty_count_survives_refill_and_invalidate() {
        let mut a = small();
        let sw = a.victim(0x00);
        a.fill(sw, 0x00, &line(1));
        a.set_dirty(sw, true);
        assert_eq!(a.count_dirty(), 1);
        // Refilling a dirty slot drops it from the count.
        a.fill(sw, 0x00, &line(2));
        assert_eq!(a.count_dirty(), 0);
        a.set_dirty(sw, true);
        a.invalidate(sw);
        assert_eq!(a.count_dirty(), 0);
    }
}
