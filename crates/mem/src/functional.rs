//! Byte-accurate flat memory.

use crate::{AccessSize, Bus};

/// A flat, byte-accurate memory array.
///
/// `FunctionalMem` serves three roles in the reproduction:
///
/// 1. the persistent NVM backing store of the simulated machine,
/// 2. the reference oracle in crash-consistency tests, and
/// 3. a trivial [`Bus`] so workloads can be executed "functionally" to
///    obtain golden checksums without any timing or energy model.
///
/// All multi-byte accesses are little-endian. Memory is zero-initialised.
///
/// An optional line-granular write tracker (see
/// [`FunctionalMem::enable_write_tracking`]) records which lines have
/// been written since the tracker was last drained; the simulator's
/// incremental crash-consistency checker uses it to compare only the
/// lines that could have diverged since the previous outage instead of
/// cloning and scanning the whole memory.
#[derive(Debug, Clone)]
pub struct FunctionalMem {
    bytes: Vec<u8>,
    tracker: Option<WriteTracker>,
}

/// Line-granular dirty bitset over a [`FunctionalMem`].
#[derive(Debug, Clone)]
struct WriteTracker {
    /// log2 of the tracking granularity in bytes.
    line_shift: u32,
    /// One bit per line, set when any byte of the line is written.
    words: Vec<u64>,
}

impl WriteTracker {
    #[inline]
    fn mark_span(&mut self, addr: u32, len: usize) {
        debug_assert!(len > 0);
        let first = (addr >> self.line_shift) as usize;
        let last = (addr as usize + len - 1) >> self.line_shift;
        for line in first..=last {
            self.words[line >> 6] |= 1u64 << (line & 63);
        }
    }
}

/// Equality is over memory contents only; write-tracking state is
/// bookkeeping (the crash-consistency oracle compares bytes).
impl PartialEq for FunctionalMem {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for FunctionalMem {}

impl FunctionalMem {
    /// Creates a zero-filled memory of `size` bytes.
    pub fn new(size: u32) -> Self {
        Self {
            bytes: vec![0; size as usize],
            tracker: None,
        }
    }

    /// Starts recording which `line_bytes`-sized lines are written.
    /// Replaces any previous tracker (previously recorded lines are
    /// dropped).
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two.
    pub fn enable_write_tracking(&mut self, line_bytes: u32) {
        assert!(
            line_bytes.is_power_of_two(),
            "tracking granularity must be a power of two"
        );
        let lines = self.len().div_ceil(line_bytes) as usize;
        self.tracker = Some(WriteTracker {
            line_shift: line_bytes.trailing_zeros(),
            words: vec![0; lines.div_ceil(64)],
        });
    }

    /// Drains the write tracker: appends the base address of every line
    /// written since the last drain to `out` (in ascending order) and
    /// clears the recorded set. No-op if tracking is not enabled.
    pub fn take_written_lines(&mut self, out: &mut Vec<u32>) {
        let Some(t) = &mut self.tracker else { return };
        for (wix, word) in t.words.iter_mut().enumerate() {
            let mut w = *word;
            while w != 0 {
                let line = (wix << 6) | w.trailing_zeros() as usize;
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "a line index of a memory sized by a u32 fits in u32"
                )]
                out.push((line as u32) << t.line_shift);
                w &= w - 1;
            }
            *word = 0;
        }
    }

    /// Size of the memory in bytes.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the memory is built from a u32 size in `new`"
    )]
    pub fn len(&self) -> u32 {
        self.bytes.len() as u32
    }

    /// Returns `true` if the memory has zero length.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Reads `size.bytes()` bytes at `addr`, little-endian, zero-extended.
    ///
    /// # Panics
    ///
    /// Panics if the access runs past the end of memory.
    #[inline]
    pub fn read(&self, addr: u32, size: AccessSize) -> u64 {
        let a = addr as usize;
        let n = size.bytes() as usize;
        let mut v: u64 = 0;
        for (i, b) in self.bytes[a..a + n].iter().enumerate() {
            v |= u64::from(*b) << (8 * i);
        }
        v
    }

    /// Writes the low `size.bytes()` bytes of `value` at `addr`,
    /// little-endian.
    ///
    /// # Panics
    ///
    /// Panics if the access runs past the end of memory.
    #[inline]
    pub fn write(&mut self, addr: u32, size: AccessSize, value: u64) {
        let a = addr as usize;
        let n = size.bytes() as usize;
        for i in 0..n {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "keeps byte i of the little-endian value, by design"
            )]
            let byte = (value >> (8 * i)) as u8;
            self.bytes[a + i] = byte;
        }
        if let Some(t) = &mut self.tracker {
            t.mark_span(addr, n);
        }
    }

    /// Copies a whole line of `line.len()` bytes out of memory at `base`.
    ///
    /// # Panics
    ///
    /// Panics if the line runs past the end of memory.
    #[inline]
    pub fn read_line(&self, base: u32, line: &mut [u8]) {
        let a = base as usize;
        line.copy_from_slice(&self.bytes[a..a + line.len()]);
    }

    /// Writes a whole line into memory at `base`.
    ///
    /// # Panics
    ///
    /// Panics if the line runs past the end of memory.
    #[inline]
    pub fn write_line(&mut self, base: u32, line: &[u8]) {
        let a = base as usize;
        self.bytes[a..a + line.len()].copy_from_slice(line);
        if let Some(t) = &mut self.tracker {
            t.mark_span(base, line.len());
        }
    }

    /// Borrows the raw bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

impl Bus for FunctionalMem {
    fn load(&mut self, addr: u32, size: AccessSize) -> u64 {
        self.read(addr, size)
    }

    fn store(&mut self, addr: u32, size: AccessSize, value: u64) {
        self.write(addr, size, value);
    }

    fn compute(&mut self, _cycles: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_initialised() {
        let mem = FunctionalMem::new(16);
        assert_eq!(mem.read(0, AccessSize::B8), 0);
        assert_eq!(mem.len(), 16);
        assert!(!mem.is_empty());
        assert!(FunctionalMem::new(0).is_empty());
    }

    #[test]
    fn little_endian_layout() {
        let mut mem = FunctionalMem::new(8);
        mem.write(0, AccessSize::B4, 0x0403_0201);
        assert_eq!(mem.as_bytes()[..4], [1, 2, 3, 4]);
        assert_eq!(mem.read(1, AccessSize::B2), 0x0302);
    }

    #[test]
    fn partial_writes_do_not_clobber_neighbours() {
        let mut mem = FunctionalMem::new(8);
        mem.write(0, AccessSize::B8, u64::MAX);
        mem.write(2, AccessSize::B2, 0);
        assert_eq!(mem.read(0, AccessSize::B8), 0xffff_ffff_0000_ffff);
    }

    #[test]
    fn line_round_trip() {
        let mut mem = FunctionalMem::new(128);
        let line: Vec<u8> = (0..64).collect();
        mem.write_line(64, &line);
        let mut out = vec![0u8; 64];
        mem.read_line(64, &mut out);
        assert_eq!(out, line);
        // First line untouched.
        mem.read_line(0, &mut out);
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_panics() {
        let mem = FunctionalMem::new(4);
        let _ = mem.read(2, AccessSize::B4);
    }

    #[test]
    fn write_tracking_reports_touched_lines_once() {
        let mut mem = FunctionalMem::new(512);
        mem.enable_write_tracking(64);
        mem.write(4, AccessSize::B4, 1); // line 0
        mem.write(62, AccessSize::B8, 2); // straddles lines 0 and 1
        mem.write_line(256, &[7u8; 64]); // line 4
        let mut lines = Vec::new();
        mem.take_written_lines(&mut lines);
        assert_eq!(lines, vec![0, 64, 256]);
        // Drained: nothing new until the next write.
        lines.clear();
        mem.take_written_lines(&mut lines);
        assert!(lines.is_empty());
        mem.write(130, AccessSize::B1, 3);
        mem.take_written_lines(&mut lines);
        assert_eq!(lines, vec![128]);
    }

    #[test]
    fn write_tracking_covers_every_changed_byte() {
        let mut a = FunctionalMem::new(1024);
        let mut b = FunctionalMem::new(1024);
        b.enable_write_tracking(64);
        let mut x: u32 = 0x1234_5678;
        for _ in 0..200 {
            let addr = x % (1024 - 8);
            b.write(addr, AccessSize::B8, u64::from(x) << 7);
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        }
        let mut lines = Vec::new();
        b.take_written_lines(&mut lines);
        // Every byte that differs from the pristine copy lies in a
        // reported line — the soundness the incremental checker needs.
        for (i, (x, y)) in a.as_bytes().iter().zip(b.as_bytes()).enumerate() {
            if x != y {
                let base = u32::try_from(i / 64 * 64).unwrap();
                assert!(lines.contains(&base), "changed byte {i} untracked");
            }
        }
        // Tracking does not affect equality semantics.
        a.write(0, AccessSize::B1, 1);
        let mut c = FunctionalMem::new(1024);
        c.enable_write_tracking(64);
        c.write(0, AccessSize::B1, 1);
        assert_eq!(a, c);
    }

    proptest! {
        #[test]
        fn write_then_read_round_trips(
            addr in 0u32..1000,
            value: u64,
            size_ix in 0usize..4,
        ) {
            let sizes = [AccessSize::B1, AccessSize::B2, AccessSize::B4, AccessSize::B8];
            let size = sizes[size_ix];
            let mut mem = FunctionalMem::new(1024);
            mem.write(addr, size, value);
            let mask = if size.bytes() == 8 {
                u64::MAX
            } else {
                (1u64 << (8 * size.bytes())) - 1
            };
            prop_assert_eq!(mem.read(addr, size), value & mask);
        }

        #[test]
        fn disjoint_writes_commute(
            a in 0u32..100,
            b in 200u32..300,
            va: u32,
            vb: u32,
        ) {
            let mut m1 = FunctionalMem::new(512);
            m1.write(a, AccessSize::B4, va.into());
            m1.write(b, AccessSize::B4, vb.into());
            let mut m2 = FunctionalMem::new(512);
            m2.write(b, AccessSize::B4, vb.into());
            m2.write(a, AccessSize::B4, va.into());
            prop_assert_eq!(m1, m2);
        }
    }
}
