//! Old-vs-new `TagArray` equivalence: drives the struct-of-arrays
//! implementation and a faithful copy of the seed's array-of-structs
//! implementation through identical random operation sequences and
//! asserts every observable agrees at every step — lookups, victim
//! selection, read-back values, dirty accounting, and the exact
//! iteration order of `dirty_lines`/`valid_lines`/`clean_dirty_lines`.
//!
//! The reference keeps a separate valid bit per line; the array under
//! test folds it into the tag as a sentinel, so the sequences run both
//! at the bottom and at the top of the 32-bit address space (the
//! largest tags) and check slot validity after every invalidation.

use ehsim_cache::{CacheGeometry, ReplacementPolicy, SetWay, TagArray};
use ehsim_mem::AccessSize;
use proptest::prelude::*;

/// The seed implementation: one heap-boxed struct per line, division-
/// based indexing through [`CacheGeometry`], O(n) dirty counting.
#[derive(Clone)]
struct RefLine {
    tag: u32,
    valid: bool,
    dirty: bool,
    last_use: u64,
    filled_at: u64,
    data: Box<[u8]>,
}

struct RefArray {
    geom: CacheGeometry,
    policy: ReplacementPolicy,
    lines: Vec<RefLine>,
    tick: u64,
}

impl RefArray {
    fn new(geom: CacheGeometry, policy: ReplacementPolicy) -> Self {
        let line = RefLine {
            tag: 0,
            valid: false,
            dirty: false,
            last_use: 0,
            filled_at: 0,
            data: vec![0u8; geom.line_bytes() as usize].into_boxed_slice(),
        };
        Self {
            geom,
            policy,
            lines: vec![line; geom.n_lines() as usize],
            tick: 0,
        }
    }

    fn ix(&self, sw: SetWay) -> usize {
        (sw.set * self.geom.ways() + sw.way) as usize
    }

    fn lookup(&self, addr: u32) -> Option<SetWay> {
        let set = self.geom.set_of(addr);
        let tag = self.geom.tag_of(addr);
        (0..self.geom.ways())
            .map(|way| SetWay { set, way })
            .find(|&sw| {
                let l = &self.lines[self.ix(sw)];
                l.valid && l.tag == tag
            })
    }

    fn touch(&mut self, sw: SetWay) {
        self.tick += 1;
        let tick = self.tick;
        let ix = self.ix(sw);
        self.lines[ix].last_use = tick;
    }

    #[expect(
        clippy::expect_used,
        reason = "test code: a failure here fails the test"
    )]
    fn victim(&self, addr: u32) -> SetWay {
        let set = self.geom.set_of(addr);
        let mut best: Option<(u64, SetWay)> = None;
        for way in 0..self.geom.ways() {
            let sw = SetWay { set, way };
            let l = &self.lines[self.ix(sw)];
            if !l.valid {
                return sw;
            }
            let key = match self.policy {
                ReplacementPolicy::Lru => l.last_use,
                ReplacementPolicy::Fifo => l.filled_at,
            };
            if best.is_none_or(|(k, _)| key < k) {
                best = Some((key, sw));
            }
        }
        best.expect("sets have at least one way").1
    }

    fn fill(&mut self, sw: SetWay, addr: u32, data: &[u8]) {
        self.tick += 1;
        let tick = self.tick;
        let tag = self.geom.tag_of(addr);
        let ix = self.ix(sw);
        let l = &mut self.lines[ix];
        l.tag = tag;
        l.valid = true;
        l.dirty = false;
        l.last_use = tick;
        l.filled_at = tick;
        l.data.copy_from_slice(data);
    }

    fn is_dirty(&self, sw: SetWay) -> bool {
        let l = &self.lines[self.ix(sw)];
        l.valid && l.dirty
    }

    fn set_dirty(&mut self, sw: SetWay, dirty: bool) {
        let ix = self.ix(sw);
        assert!(self.lines[ix].valid);
        self.lines[ix].dirty = dirty;
    }

    fn invalidate(&mut self, sw: SetWay) {
        let ix = self.ix(sw);
        self.lines[ix].valid = false;
        self.lines[ix].dirty = false;
    }

    fn invalidate_all(&mut self) {
        for l in &mut self.lines {
            l.valid = false;
            l.dirty = false;
        }
    }

    fn write(&mut self, sw: SetWay, addr: u32, size: AccessSize, value: u64) {
        let base = self.geom.base_of(self.lines[self.ix(sw)].tag, sw.set);
        let off = (addr - base) as usize;
        let ix = self.ix(sw);
        for i in 0..size.bytes() as usize {
            self.lines[ix].data[off + i] = (value >> (8 * i)) as u8;
        }
    }

    fn read(&self, sw: SetWay, addr: u32, size: AccessSize) -> u64 {
        let base = self.geom.base_of(self.lines[self.ix(sw)].tag, sw.set);
        let off = (addr - base) as usize;
        let data = &self.lines[self.ix(sw)].data;
        let mut v = 0u64;
        for i in 0..size.bytes() as usize {
            v |= u64::from(data[off + i]) << (8 * i);
        }
        v
    }

    fn dirty_lines(&self) -> Vec<(SetWay, u32)> {
        let ways = self.geom.ways();
        (0..self.geom.n_lines())
            .filter_map(|i| {
                let sw = SetWay {
                    set: i / ways,
                    way: i % ways,
                };
                let l = &self.lines[self.ix(sw)];
                (l.valid && l.dirty).then(|| (sw, self.geom.base_of(l.tag, sw.set)))
            })
            .collect()
    }

    fn valid_lines(&self) -> Vec<(SetWay, u32)> {
        let ways = self.geom.ways();
        (0..self.geom.n_lines())
            .filter_map(|i| {
                let sw = SetWay {
                    set: i / ways,
                    way: i % ways,
                };
                let l = &self.lines[self.ix(sw)];
                l.valid.then(|| (sw, self.geom.base_of(l.tag, sw.set)))
            })
            .collect()
    }

    fn count_dirty(&self) -> usize {
        self.lines.iter().filter(|l| l.valid && l.dirty).count()
    }
}

const GEOMS: [(u32, u32, u32); 4] = [
    (256, 2, 64),  // 2 sets × 2 ways
    (128, 1, 64),  // direct-mapped
    (512, 4, 32),  // 4 sets × 4 ways, short lines
    (8192, 4, 64), // the paper-sized array
];

/// Applies one decoded operation to both arrays and checks the
/// observables they expose afterwards. Addresses fall in
/// `base..base + addr_space`.
fn step(new: &mut TagArray, old: &mut RefArray, word: u64, base: u32, addr_space: u32) {
    let addr = base + (word as u32) % addr_space;
    let op = (word >> 32) % 100;
    let line_bytes = old.geom.line_bytes();
    let aligned = addr & !(line_bytes - 1);
    match op {
        // Fill the victim slot with a deterministic pattern.
        0..=39 => {
            let vn = new.victim(aligned);
            let vo = old.victim(aligned);
            assert_eq!(vn, vo, "victim diverged for 0x{aligned:x}");
            let fill: Vec<u8> = (0..line_bytes)
                .map(|i| (word.rotate_left(i % 61) & 0xff) as u8)
                .collect();
            new.fill(vn, aligned, &fill);
            old.fill(vo, aligned, &fill);
        }
        // Hit path: touch + word write + dirty transition.
        40..=69 => {
            let hn = new.lookup(addr);
            let ho = old.lookup(addr);
            assert_eq!(hn, ho, "lookup diverged for 0x{addr:x}");
            if let Some(sw) = hn {
                new.touch(sw);
                old.touch(sw);
                let wa = (addr & !7).min(aligned + (line_bytes - 8));
                new.write(sw, wa, AccessSize::B8, word);
                old.write(sw, wa, AccessSize::B8, word);
                new.set_dirty(sw, true);
                old.set_dirty(sw, true);
            }
        }
        // Clean a dirty line.
        70..=84 => {
            if let Some(sw) = old.lookup(addr) {
                if old.is_dirty(sw) {
                    new.set_dirty(sw, false);
                    old.set_dirty(sw, false);
                }
            }
        }
        // Invalidate a resident line: its slot stops hitting at once (a
        // duplicate fill of the same line in another way still may).
        85..=97 => {
            if let Some(sw) = old.lookup(addr) {
                new.invalidate(sw);
                old.invalidate(sw);
                assert!(!new.is_valid(sw) && !new.is_dirty(sw));
                let hit = new.lookup(addr);
                assert_ne!(hit, Some(sw), "invalidated 0x{addr:x} still hits");
                assert_eq!(hit, old.lookup(addr), "lookup(0x{addr:x}) after invalidate");
            }
        }
        // Rare full flush.
        _ => {
            new.invalidate_all();
            old.invalidate_all();
            assert_eq!(new.lookup(addr), None, "0x{addr:x} hits after a flush");
        }
    }
}

/// Full-state comparison across every observable the designs use.
fn assert_equivalent(new: &TagArray, old: &RefArray, base: u32, addr_space: u32) {
    assert_eq!(new.count_dirty(), old.count_dirty());
    assert_eq!(new.dirty_lines().collect::<Vec<_>>(), old.dirty_lines());
    assert_eq!(new.valid_lines().collect::<Vec<_>>(), old.valid_lines());
    // `clean_dirty_lines` visits the `dirty_lines` order with each
    // line's contents, and leaves the array clean.
    let mut cleaned = new.clone();
    let mut visited = Vec::new();
    cleaned.clean_dirty_lines(|b, data| visited.push((b, data.to_vec())));
    let want: Vec<(u32, Vec<u8>)> = old
        .dirty_lines()
        .into_iter()
        .map(|(sw, b)| (b, old.lines[old.ix(sw)].data.to_vec()))
        .collect();
    assert_eq!(visited, want);
    assert_eq!(cleaned.count_dirty(), 0);
    assert_eq!(cleaned.dirty_lines().count(), 0);
    assert_eq!(cleaned.valid_lines().collect::<Vec<_>>(), old.valid_lines());
    for i in 0..old.geom.n_lines() {
        let ways = old.geom.ways();
        let sw = SetWay {
            set: i / ways,
            way: i % ways,
        };
        assert_eq!(new.is_valid(sw), old.lines[old.ix(sw)].valid, "{sw:?}");
        assert_eq!(new.is_dirty(sw), old.is_dirty(sw), "{sw:?}");
    }
    let line_bytes = old.geom.line_bytes();
    for addr in (base..=base + (addr_space - line_bytes)).step_by(line_bytes as usize) {
        let hn = new.lookup(addr);
        assert_eq!(hn, old.lookup(addr), "lookup(0x{addr:x})");
        assert_eq!(new.victim(addr), old.victim(addr), "victim(0x{addr:x})");
        if let Some(sw) = hn {
            assert_eq!(new.base_addr(sw), addr);
            assert_eq!(new.is_dirty(sw), old.is_dirty(sw));
            assert_eq!(new.last_use(sw), old.lines[old.ix(sw)].last_use);
            for off in (0..line_bytes).step_by(8) {
                assert_eq!(
                    new.read(sw, addr + off, AccessSize::B8),
                    old.read(sw, addr + off, AccessSize::B8),
                    "read(0x{:x})",
                    addr + off
                );
            }
        }
    }
}

// Default case count (256, or `PROPTEST_CASES`): CI runs these at
// 20000 cases, since the folded valid bit and the fixed-width accesses
// are only exact if these hold.
proptest! {
    #[test]
    fn soa_array_matches_seed_implementation(
        geom_ix in 0usize..GEOMS.len(),
        policy_ix in 0usize..2,
        top in proptest::arbitrary::any::<bool>(),
        ops in prop::collection::vec(proptest::arbitrary::any::<u64>(), 50..400),
    ) {
        let (size, ways, line) = GEOMS[geom_ix];
        let geom = CacheGeometry::new(size, ways, line);
        let policy = if policy_ix == 0 {
            ReplacementPolicy::Lru
        } else {
            ReplacementPolicy::Fifo
        };
        // 4× the cache capacity so fills conflict and evict, at the
        // bottom or the very top of the address space.
        let addr_space = size * 4;
        let base = if top { 0u32.wrapping_sub(addr_space) } else { 0 };
        let mut new = TagArray::new(geom, policy);
        let mut old = RefArray::new(geom, policy);
        for &word in &ops {
            step(&mut new, &mut old, word, base, addr_space);
        }
        assert_equivalent(&new, &old, base, addr_space);
    }

    /// Every width at every in-line offset (aligned or not) of a
    /// random line reads and writes exactly the bytes the reference's
    /// byte loops do.
    #[test]
    fn fixed_width_access_matches_the_byte_loops(
        geom_ix in 0usize..GEOMS.len(),
        pattern in proptest::arbitrary::any::<u64>(),
        value in proptest::arbitrary::any::<u64>(),
        line_ix in 0u32..4,
    ) {
        let (size, ways, line) = GEOMS[geom_ix];
        let geom = CacheGeometry::new(size, ways, line);
        let base = line_ix * size + 3 * line;
        let fill: Vec<u8> = (0..line)
            .map(|i| (pattern.rotate_left(i * 7 % 64) ^ u64::from(i)) as u8)
            .collect();
        let mut new = TagArray::new(geom, ReplacementPolicy::Lru);
        let mut old = RefArray::new(geom, ReplacementPolicy::Lru);
        let sw = new.victim(base);
        new.fill(sw, base, &fill);
        old.fill(sw, base, &fill);
        for size in [AccessSize::B1, AccessSize::B2, AccessSize::B4, AccessSize::B8] {
            for off in 0..=line - size.bytes() {
                let addr = base + off;
                prop_assert_eq!(new.read(sw, addr, size), old.read(sw, addr, size));
                let (mut n, mut o) = (new.clone(), RefArray::new(geom, ReplacementPolicy::Lru));
                o.fill(sw, base, &fill);
                n.write(sw, addr, size, value);
                o.write(sw, addr, size, value);
                prop_assert_eq!(n.line_data(sw), &o.lines[o.ix(sw)].data[..]);
            }
        }
    }
}
