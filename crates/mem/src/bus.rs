//! The [`Bus`] trait workloads execute against, and the [`Workload`]
//! abstraction for named benchmark kernels.

/// Width of a single memory access issued by a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AccessSize {
    /// One byte.
    B1,
    /// Two bytes.
    B2,
    /// Four bytes.
    B4,
    /// Eight bytes.
    B8,
}

impl AccessSize {
    /// Number of bytes covered by this access size.
    #[inline]
    pub const fn bytes(self) -> u32 {
        match self {
            AccessSize::B1 => 1,
            AccessSize::B2 => 2,
            AccessSize::B4 => 4,
            AccessSize::B8 => 8,
        }
    }
}

/// The memory interface benchmark kernels run against.
///
/// Implementations route accesses through a simulated memory hierarchy
/// (`ehsim`'s machine) or directly against a flat
/// [`FunctionalMem`](crate::FunctionalMem) when only the functional result
/// is needed. Addresses are byte addresses in a private, per-workload
/// address space starting at zero.
///
/// Accesses must be **naturally aligned** (an N-byte access at an
/// N-byte-aligned address), as on a real in-order core; an access that
/// would straddle a cache-line boundary panics in the simulated
/// hierarchy.
///
/// The `load`/`store` methods are the object-safe core; the `load_u8`,
/// `store_u32`, … conveniences are provided so kernels read naturally.
pub trait Bus {
    /// Loads `size.bytes()` bytes at `addr` (little-endian, zero-extended).
    fn load(&mut self, addr: u32, size: AccessSize) -> u64;

    /// Stores the low `size.bytes()` bytes of `value` at `addr`
    /// (little-endian).
    fn store(&mut self, addr: u32, size: AccessSize, value: u64);

    /// Accounts for `cycles` cycles of pure computation (no memory
    /// traffic). A functional implementation may ignore this.
    fn compute(&mut self, cycles: u64);

    /// Loads one byte at `addr`.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a B1 load is zero-extended, so the narrowing is exact"
    )]
    fn load_u8(&mut self, addr: u32) -> u8 {
        self.load(addr, AccessSize::B1) as u8
    }

    /// Loads a little-endian `u16` at `addr`.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a B2 load is zero-extended, so the narrowing is exact"
    )]
    fn load_u16(&mut self, addr: u32) -> u16 {
        self.load(addr, AccessSize::B2) as u16
    }

    /// Loads a little-endian `u32` at `addr`.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a B4 load is zero-extended, so the narrowing is exact"
    )]
    fn load_u32(&mut self, addr: u32) -> u32 {
        self.load(addr, AccessSize::B4) as u32
    }

    /// Loads a little-endian `u64` at `addr`.
    #[inline]
    fn load_u64(&mut self, addr: u32) -> u64 {
        self.load(addr, AccessSize::B8)
    }

    /// Loads a little-endian `i32` at `addr`.
    #[inline]
    fn load_i32(&mut self, addr: u32) -> i32 {
        self.load_u32(addr) as i32
    }

    /// Stores one byte at `addr`.
    #[inline]
    fn store_u8(&mut self, addr: u32, value: u8) {
        self.store(addr, AccessSize::B1, u64::from(value));
    }

    /// Stores a little-endian `u16` at `addr`.
    #[inline]
    fn store_u16(&mut self, addr: u32, value: u16) {
        self.store(addr, AccessSize::B2, u64::from(value));
    }

    /// Stores a little-endian `u32` at `addr`.
    #[inline]
    fn store_u32(&mut self, addr: u32, value: u32) {
        self.store(addr, AccessSize::B4, u64::from(value));
    }

    /// Stores a little-endian `u64` at `addr`.
    #[inline]
    fn store_u64(&mut self, addr: u32, value: u64) {
        self.store(addr, AccessSize::B8, value);
    }

    /// Stores a little-endian `i32` at `addr`.
    #[inline]
    fn store_i32(&mut self, addr: u32, value: i32) {
        self.store_u32(addr, value.cast_unsigned());
    }
}

/// A named benchmark kernel that performs real computation over a [`Bus`].
///
/// Implementations must be deterministic: two runs over equivalent buses
/// produce the same access stream and the same checksum. The checksum is
/// the kernel's functional result folded to a `u64`; the `ehsim` test
/// suite compares checksums from full crash-consistency simulations
/// against a run over plain [`FunctionalMem`](crate::FunctionalMem) to
/// validate that the cache designs never corrupt data across power
/// failures.
pub trait Workload {
    /// Short stable identifier, e.g. `"adpcmdecode"`. Matches the labels
    /// used in the paper's figures.
    fn name(&self) -> &str;

    /// Bytes of address space the kernel touches. The bus must be able to
    /// serve addresses in `0..mem_bytes()`.
    fn mem_bytes(&self) -> u32;

    /// Runs the kernel to completion, returning its checksum.
    fn run(&self, bus: &mut dyn Bus) -> u64;
}

impl<W: Workload + ?Sized> Workload for &W {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn mem_bytes(&self) -> u32 {
        (**self).mem_bytes()
    }
    fn run(&self, bus: &mut dyn Bus) -> u64 {
        (**self).run(bus)
    }
}

impl<W: Workload + ?Sized> Workload for Box<W> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn mem_bytes(&self) -> u32 {
        (**self).mem_bytes()
    }
    fn run(&self, bus: &mut dyn Bus) -> u64 {
        (**self).run(bus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FunctionalMem;

    #[test]
    fn access_size_bytes() {
        assert_eq!(AccessSize::B1.bytes(), 1);
        assert_eq!(AccessSize::B2.bytes(), 2);
        assert_eq!(AccessSize::B4.bytes(), 4);
        assert_eq!(AccessSize::B8.bytes(), 8);
    }

    #[test]
    fn convenience_round_trips() {
        let mut mem = FunctionalMem::new(64);
        mem.store_u8(0, 0xab);
        mem.store_u16(2, 0xbeef);
        mem.store_u32(4, 0xdead_beef);
        mem.store_u64(8, 0x0123_4567_89ab_cdef);
        mem.store_i32(16, -42);
        assert_eq!(mem.load_u8(0), 0xab);
        assert_eq!(mem.load_u16(2), 0xbeef);
        assert_eq!(mem.load_u32(4), 0xdead_beef);
        assert_eq!(mem.load_u64(8), 0x0123_4567_89ab_cdef);
        assert_eq!(mem.load_i32(16), -42);
    }

    struct Nop;
    impl Workload for Nop {
        fn name(&self) -> &str {
            "nop"
        }
        fn mem_bytes(&self) -> u32 {
            0
        }
        fn run(&self, bus: &mut dyn Bus) -> u64 {
            bus.compute(1);
            7
        }
    }

    #[test]
    fn workload_blanket_impls() {
        let w = Nop;
        let mut mem = FunctionalMem::new(0);
        assert_eq!(w.run(&mut mem), 7);
        let boxed: Box<dyn Workload> = Box::new(Nop);
        assert_eq!(boxed.name(), "nop");
        assert_eq!(boxed.run(&mut mem), 7);
    }
}
