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
///
/// The dirty bits are kept apart from the rest, the array's
/// *residency* — tags, LRU/FIFO stamps and line bytes — so that a
/// write-back design can keep its own dirty bits over another array's
/// residency ([`TagArray::adopt`] and the `designs::Follow` view).
#[derive(Debug, Clone)]
pub struct TagArray {
    lines: Lines,
    /// Dirty bit per slot. Only a valid slot is ever dirty.
    dirty: Vec<bool>,
    /// Number of set dirty bits, maintained across fills, `set_dirty`
    /// transitions and invalidations.
    dirty_count: usize,
}

/// Everything of a [`TagArray`] but its dirty bits.
#[derive(Debug, Clone)]
struct Lines {
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
    /// Line tag per slot, or [`INVALID_TAG`] for an invalid slot.
    tags: Vec<u32>,
    last_use: Vec<u64>,
    filled_at: Vec<u64>,
    /// All line contents, `line_bytes` per slot, in slot-index order.
    data: Vec<u8>,
}

/// Tag stored in an invalid slot. A real tag is `addr >> (line_shift +
/// set_shift)` with a shift of at least one, so it is below `2^31` and
/// never equals the sentinel.
const INVALID_TAG: u32 = u32::MAX;

impl Lines {
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

    #[inline]
    fn valid(&self, ix: usize) -> bool {
        self.tags[ix] != INVALID_TAG
    }

    /// Base address of the line whose tag is stored at slot `ix` in set
    /// `set`. Shift form of `CacheGeometry::base_of`, exact under
    /// wrapping as well.
    #[inline]
    fn base_of_ix(&self, ix: usize, set: u32) -> u32 {
        ((self.tags[ix] << self.set_shift) | set) << self.line_shift
    }

    /// The set of slot `ix`.
    #[inline]
    fn set_of_ix(&self, ix: usize) -> u32 {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a slot index is below sets × ways, both u32"
        )]
        let ix = ix as u32;
        ix / self.ways
    }

    #[inline]
    fn line_slice(&self, ix: usize) -> &[u8] {
        let lb = self.line_bytes as usize;
        &self.data[ix * lb..(ix + 1) * lb]
    }
}

impl TagArray {
    /// Creates an empty (all-invalid) array.
    ///
    /// # Panics
    ///
    /// Panics where [`TagArray::check`] returns an error.
    pub fn new(geom: CacheGeometry, policy: ReplacementPolicy) -> Self {
        if let Err(e) = Self::check(geom) {
            panic!("{e}");
        }
        let n = geom.n_lines() as usize;
        let line_bytes = geom.line_bytes();
        Self {
            lines: Lines {
                geom,
                policy,
                tick: 0,
                ways: geom.ways(),
                line_bytes,
                line_shift: line_bytes.trailing_zeros(),
                set_shift: geom.n_sets().trailing_zeros(),
                set_mask: geom.n_sets() - 1,
                tags: vec![INVALID_TAG; n],
                last_use: vec![0; n],
                filled_at: vec![0; n],
                data: vec![0u8; n * line_bytes as usize],
            },
            dirty: vec![false; n],
            dirty_count: 0,
        }
    }

    /// Checks that a tag array can hold `geom`.
    ///
    /// # Errors
    ///
    /// Names the broken rule on more than 64 ways (`lookup` packs one
    /// hit bit per way into a u64 mask), or on a single-set array of
    /// one-byte lines (whose tags would span all 32 address bits and so
    /// could collide with the invalid-slot sentinel).
    pub fn check(geom: CacheGeometry) -> Result<(), String> {
        if geom.ways() > 64 {
            return Err(format!(
                "lookup's hit mask holds at most 64 ways (got {})",
                geom.ways()
            ));
        }
        if geom.line_bytes() == 1 && geom.n_sets() == 1 {
            return Err("tags need at least one offset or set bit".into());
        }
        Ok(())
    }

    /// The array's geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.lines.geom
    }

    /// The replacement policy used by [`TagArray::victim`].
    pub fn policy(&self) -> ReplacementPolicy {
        self.lines.policy
    }

    /// Takes `lead`'s residency — tags, LRU/FIFO stamps, the stamp
    /// clock and line bytes — and keeps this array's own dirty bits.
    ///
    /// A write-back design that followed `lead`'s residency (see
    /// `designs::Follow`) kept only its dirty bits current; adopting
    /// makes it a complete array again, equal to the one it would hold
    /// had it run every residency step itself.
    ///
    /// # Panics
    ///
    /// Panics if the two arrays differ in geometry or policy.
    pub fn adopt(&mut self, lead: &TagArray) {
        assert!(
            self.lines.geom == lead.lines.geom && self.lines.policy == lead.lines.policy,
            "only an array of the same geometry and policy has the same residency"
        );
        self.lines.clone_from(&lead.lines);
        debug_assert!(
            self.dirty
                .iter()
                .enumerate()
                .all(|(ix, &d)| !d || self.lines.valid(ix)),
            "a dirty slot is invalid in the adopted residency"
        );
    }

    /// Hands `f` the base address and bytes, in `lead`, of every line
    /// `lead` holds dirty and this array holds clean, in slot order.
    pub(crate) fn lines_dirty_only_in(&self, lead: &TagArray, mut f: impl FnMut(u32, &[u8])) {
        let l = &lead.lines;
        for (ix, (&theirs, &ours)) in lead.dirty.iter().zip(&self.dirty).enumerate() {
            if theirs && !ours {
                f(l.base_of_ix(ix, l.set_of_ix(ix)), l.line_slice(ix));
            }
        }
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
        let l = &self.lines;
        let set = l.set_of(addr);
        let tag = l.tag_of(addr);
        let first = (set * l.ways) as usize;
        let n = l.ways as usize;
        let mut mask: u64 = 0;
        for (way, &t) in l.tags[first..first + n].iter().enumerate() {
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
        let l = &self.lines;
        let set = l.set_of(addr);
        let tag = l.tag_of(addr);
        let first = (set * l.ways) as usize;
        for way in 0..l.ways {
            let ix = first + way as usize;
            if l.valid(ix) && l.tags[ix] == tag {
                return Some(SetWay { set, way });
            }
        }
        None
    }

    /// Records a use of `sw` for LRU bookkeeping.
    #[inline]
    pub fn touch(&mut self, sw: SetWay) {
        let l = &mut self.lines;
        l.tick += 1;
        let ix = l.ix(sw);
        l.last_use[ix] = l.tick;
    }

    /// Chooses the way that `addr`'s fill should displace: an invalid way
    /// if one exists, otherwise the policy's victim (LRU stamp or FIFO
    /// fill order). Ties keep the lowest way.
    #[inline]
    pub fn victim(&self, addr: u32) -> SetWay {
        let l = &self.lines;
        let set = l.set_of(addr);
        let first = (set * l.ways) as usize;
        let mut best: Option<(u64, u32)> = None;
        for way in 0..l.ways {
            let ix = first + way as usize;
            if !l.valid(ix) {
                return SetWay { set, way };
            }
            let key = match l.policy {
                ReplacementPolicy::Lru => l.last_use[ix],
                ReplacementPolicy::Fifo => l.filled_at[ix],
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
        assert_eq!(data.len(), self.lines.line_bytes as usize);
        self.fill_slot(sw, addr).copy_from_slice(data);
    }

    /// Installs `addr`'s line metadata (valid, clean, fresh LRU/FIFO
    /// stamps) and returns the slot's data slice for the caller to fill
    /// in place — the allocation-free counterpart of [`TagArray::fill`],
    /// used to read a line straight from NVM into the array.
    #[inline]
    pub fn fill_slot(&mut self, sw: SetWay, addr: u32) -> &mut [u8] {
        self.clear_dirty(sw);
        let l = &mut self.lines;
        l.tick += 1;
        let tick = l.tick;
        let tag = l.tag_of(addr);
        let ix = l.ix(sw);
        l.tags[ix] = tag;
        l.last_use[ix] = tick;
        l.filled_at[ix] = tick;
        let lb = l.line_bytes as usize;
        &mut l.data[ix * lb..(ix + 1) * lb]
    }

    /// Clears the dirty bit of `sw` without looking at its residency:
    /// the dirty-bit half of a fill.
    #[inline]
    pub(crate) fn clear_dirty(&mut self, sw: SetWay) {
        let ix = self.lines.ix(sw);
        if self.dirty[ix] {
            self.dirty_count -= 1;
            self.dirty[ix] = false;
        }
    }

    /// Whether `sw` holds a valid line.
    pub fn is_valid(&self, sw: SetWay) -> bool {
        self.lines.valid(self.lines.ix(sw))
    }

    /// Whether `sw` holds a valid, dirty line. Only a valid line can be
    /// dirty (`set_dirty` asserts validity and every invalidation
    /// clears the bit), so the dirty bit alone answers.
    #[inline]
    pub fn is_dirty(&self, sw: SetWay) -> bool {
        self.dirty[self.lines.ix(sw)]
    }

    /// Sets or clears the dirty bit of a valid line.
    ///
    /// # Panics
    ///
    /// Panics if the slot is invalid.
    #[inline]
    pub fn set_dirty(&mut self, sw: SetWay, dirty: bool) {
        assert!(self.is_valid(sw), "cannot mark an invalid line");
        self.set_dirty_bit(sw, dirty);
    }

    /// [`TagArray::set_dirty`] without the validity check, for an array
    /// whose residency is another's: the caller has checked the slot
    /// there.
    #[inline]
    pub(crate) fn set_dirty_bit(&mut self, sw: SetWay, dirty: bool) {
        let ix = self.lines.ix(sw);
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
        self.clear_dirty(sw);
        let ix = self.lines.ix(sw);
        self.lines.tags[ix] = INVALID_TAG;
    }

    /// Invalidates every line (volatile cache at power-off).
    pub fn invalidate_all(&mut self) {
        self.lines.tags.fill(INVALID_TAG);
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
        let ix = self.lines.ix(sw);
        assert!(self.lines.valid(ix), "invalid slot has no address");
        self.lines.base_of_ix(ix, sw.set)
    }

    /// Borrows the line contents at `sw`.
    #[inline]
    pub fn line_data(&self, sw: SetWay) -> &[u8] {
        self.lines.line_slice(self.lines.ix(sw))
    }

    /// LRU stamp of the line at `sw` (used by the DirtyQueue's LRU
    /// replacement policy, which searches for the least-recently-used
    /// dirty line).
    #[inline]
    pub fn last_use(&self, sw: SetWay) -> u64 {
        self.lines.last_use[self.lines.ix(sw)]
    }

    /// Fill stamp of the line at `sw`: the stamp clock's value when it
    /// was filled, which orders FIFO victims.
    #[inline]
    pub fn filled_at(&self, sw: SetWay) -> u64 {
        self.lines.filled_at[self.lines.ix(sw)]
    }

    /// Reads `size` bytes at `addr` from the (hitting) line at `sw`,
    /// little-endian.
    ///
    /// # Panics
    ///
    /// Panics if `addr` does not fall within the line held at `sw`.
    #[inline(always)]
    pub fn read(&self, sw: SetWay, addr: u32, size: AccessSize) -> u64 {
        let (ix, off) = self.offset_checked(sw, addr, size);
        read_le(&self.lines.line_slice(ix)[off..], size)
    }

    /// Writes `size` bytes of `value` at `addr` into the line at `sw`.
    /// Does **not** change the dirty bit — that is a policy decision.
    ///
    /// # Panics
    ///
    /// Panics if `addr` does not fall within the line held at `sw`.
    #[inline(always)]
    pub fn write(&mut self, sw: SetWay, addr: u32, size: AccessSize, value: u64) {
        let (ix, off) = self.offset_checked(sw, addr, size);
        let lb = self.lines.line_bytes as usize;
        write_le(
            &mut self.lines.data[ix * lb + off..(ix + 1) * lb],
            size,
            value,
        );
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
    #[inline(always)]
    fn offset_checked(&self, sw: SetWay, addr: u32, size: AccessSize) -> (usize, usize) {
        let l = &self.lines;
        let ix = l.ix(sw);
        debug_assert!(l.valid(ix), "access to invalid line");
        let base = l.base_of_ix(ix, sw.set);
        if addr & !(l.line_bytes - 1) != base {
            not_in_line(addr, base);
        }
        let off = (addr - base) as usize;
        debug_assert!(off + size.bytes() as usize <= l.line_bytes as usize);
        (ix, off)
    }

    /// Iterates over all valid dirty lines as `(slot, base_addr)`, in
    /// set-major slot order.
    pub fn dirty_lines(&self) -> impl Iterator<Item = (SetWay, u32)> + '_ {
        let l = &self.lines;
        (0..l.set_mask + 1).flat_map(move |set| {
            (0..l.ways).filter_map(move |way| {
                let ix = (set * l.ways + way) as usize;
                self.dirty[ix].then(|| (SetWay { set, way }, l.base_of_ix(ix, set)))
            })
        })
    }

    /// Cleans every dirty line in the order of
    /// [`TagArray::dirty_lines`] (ascending slot index is set-major),
    /// handing `f` each line's base address and contents before its
    /// dirty bit clears. Allocation-free, and the walk stops at the
    /// last dirty line.
    pub fn clean_dirty_lines(&mut self, f: impl FnMut(u32, &[u8])) {
        Self::clean(&mut self.dirty, &mut self.dirty_count, &self.lines, f);
    }

    /// [`TagArray::clean_dirty_lines`] over this array's dirty bits and
    /// `lines`' residency: base addresses and bytes come from `lines`.
    pub(crate) fn clean_dirty_lines_over(&mut self, lines: &TagArray, f: impl FnMut(u32, &[u8])) {
        Self::clean(&mut self.dirty, &mut self.dirty_count, &lines.lines, f);
    }

    fn clean(
        dirty: &mut [bool],
        dirty_count: &mut usize,
        lines: &Lines,
        mut f: impl FnMut(u32, &[u8]),
    ) {
        let mut ix = 0;
        while *dirty_count > 0 {
            if dirty[ix] {
                f(
                    lines.base_of_ix(ix, lines.set_of_ix(ix)),
                    lines.line_slice(ix),
                );
                dirty[ix] = false;
                *dirty_count -= 1;
            }
            ix += 1;
        }
    }

    /// Iterates over all valid lines as `(slot, base_addr)`, in
    /// set-major slot order.
    pub fn valid_lines(&self) -> impl Iterator<Item = (SetWay, u32)> + '_ {
        let l = &self.lines;
        (0..l.set_mask + 1).flat_map(move |set| {
            (0..l.ways).filter_map(move |way| {
                let ix = (set * l.ways + way) as usize;
                l.valid(ix)
                    .then(|| (SetWay { set, way }, l.base_of_ix(ix, set)))
            })
        })
    }

    /// Number of valid dirty lines. O(1): the count is maintained.
    pub fn count_dirty(&self) -> usize {
        self.dirty_count
    }
}

/// The panic of an access outside the line it names, out of line so
/// that the access paths stay small enough to inline.
#[cold]
#[inline(never)]
fn not_in_line(addr: u32, base: u32) -> ! {
    panic!("address 0x{addr:x} not in line at 0x{base:x}")
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
