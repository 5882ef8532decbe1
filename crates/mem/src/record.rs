//! Record/replay of the [`Bus`] access stream.
//!
//! A deterministic workload issues the **same** sequence of
//! load/store/compute operations no matter which memory hierarchy it
//! runs against (the hierarchy is functionally transparent — loads
//! return the bytes stored, and kernels branch only on loaded data).
//! That makes the Bus access stream a *design-independent* artifact: it
//! can be captured once, cheaply, against a flat [`FunctionalMem`], and
//! then replayed against any number of simulated machines without
//! re-executing the kernel's own computation. This is the classic
//! trace-driven cache-simulation decoupling.
//!
//! What must be preserved for replay to be **exact** (bit-identical
//! reports): the op kinds, the addresses and sizes, the per-call
//! `compute` cycle arguments, and the program order — the machine
//! settles harvested/consumed energy after every operation, so even
//! merging two adjacent `compute` calls would reorder floating-point
//! accumulation and change outage timing. What need *not* be preserved:
//! data values. Cache hit/miss behaviour, dirtiness, timing and energy
//! all depend on addresses and state only, never on the bytes moved, so
//! replayed stores carry a zero value and the recorded kernel checksum
//! is reported instead (`crates/cache` designs route values into data
//! arrays but never branch on them; the replay-equivalence suite pins
//! this).
//!
//! The stream is delta-encoded and run-length-compressed, in memory and
//! on disk: each memory op stores a zigzag-varint address delta against
//! the previous memory op, and consecutive ops with the same shape
//! (kind, size and delta — i.e. strided loops — or identical `compute`
//! bursts) collapse into one unit plus a repeat token. Typical kernels
//! encode in ~1–3 bytes per operation.
//!
//! [`BusTrace::save`]/[`BusTrace::load`] give the artifact a versioned
//! on-disk form (`TraceFile`), and [`import_column_trace`] ingests
//! external column-format access traces (DACE / Valgrind-lachesis style
//! `op addr [size]` or `addr,op` lines) so foreign workloads can be
//! scored on the simulator without a native kernel.

use crate::bus::{AccessSize, Bus, Workload};
use crate::FunctionalMem;
use std::io::{self, Read, Write};
use std::path::Path;

/// One recorded bus operation, as replayed in program order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusOp {
    /// A load of `size.bytes()` bytes at `addr`.
    Load {
        /// Byte address.
        addr: u32,
        /// Access width.
        size: AccessSize,
    },
    /// A store of `size.bytes()` bytes at `addr` (values are not
    /// recorded; see the module docs for why replay stays exact).
    Store {
        /// Byte address.
        addr: u32,
        /// Access width.
        size: AccessSize,
    },
    /// A burst of pure computation, in cycles, exactly as the kernel
    /// passed it to [`Bus::compute`].
    Compute {
        /// Cycle count of this single `compute` call.
        cycles: u64,
    },
}

/// Operation totals of a trace, as counted by one decode walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCounts {
    /// Number of load operations.
    pub loads: u64,
    /// Number of store operations.
    pub stores: u64,
    /// Number of `compute` calls.
    pub computes: u64,
    /// Total cycles across all `compute` calls.
    pub compute_cycles: u64,
}

impl OpCounts {
    /// Retired-instruction count this stream produces on the simulated
    /// machine: one per memory op plus one per compute cycle.
    pub fn instructions(&self) -> u64 {
        self.loads + self.stores + self.compute_cycles
    }

    /// Total operations (memory ops + compute calls).
    pub fn ops(&self) -> u64 {
        self.loads + self.stores + self.computes
    }
}

// --- token encoding ---------------------------------------------------
//
// token byte: bits 0..2 = tag, bits 2..4 = size code (memory ops only).
//   tag 0 load  : token, zigzag-varint(addr delta)
//   tag 1 store : token, zigzag-varint(addr delta)
//   tag 2 compute: token, varint(cycles)
//   tag 3 repeat : token, varint(n) — repeat the previous unit n more
//                  times; each repetition advances the address by the
//                  unit's delta (memory ops) or re-issues the same
//                  cycle burst (compute).

const TAG_LOAD: u8 = 0;
const TAG_STORE: u8 = 1;
const TAG_COMPUTE: u8 = 2;
const TAG_REPEAT: u8 = 3;

fn size_code(size: AccessSize) -> u8 {
    match size {
        AccessSize::B1 => 0,
        AccessSize::B2 => 1,
        AccessSize::B4 => 2,
        AccessSize::B8 => 3,
    }
}

fn code_size(code: u8) -> AccessSize {
    match code & 0b11 {
        0 => AccessSize::B1,
        1 => AccessSize::B2,
        2 => AccessSize::B4,
        _ => AccessSize::B8,
    }
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn get_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &b = bytes.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None; // overlong encoding
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)).cast_unsigned()
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// The repeatable unit of the run-length encoder: what a token other
/// than `repeat` describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Unit {
    Mem {
        store: bool,
        size: AccessSize,
        delta: i64,
    },
    Compute {
        cycles: u64,
    },
}

/// Incremental encoder building the compressed op stream.
#[derive(Debug, Clone, Default)]
pub struct BusTraceBuilder {
    bytes: Vec<u8>,
    /// Address of the most recent memory op *pushed* (including pending
    /// repetitions), the delta basis for the next one.
    last_addr: u32,
    pending: Option<(Unit, u64)>,
    counts: OpCounts,
}

impl BusTraceBuilder {
    /// A fresh, empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one operation to the stream.
    pub fn push(&mut self, op: BusOp) {
        let unit = match op {
            BusOp::Load { addr, size } | BusOp::Store { addr, size } => {
                let store = matches!(op, BusOp::Store { .. });
                let delta = i64::from(addr) - i64::from(self.last_addr);
                self.last_addr = addr;
                if store {
                    self.counts.stores += 1;
                } else {
                    self.counts.loads += 1;
                }
                Unit::Mem { store, size, delta }
            }
            BusOp::Compute { cycles } => {
                self.counts.computes += 1;
                self.counts.compute_cycles += cycles;
                Unit::Compute { cycles }
            }
        };
        match &mut self.pending {
            Some((p, n)) if *p == unit => *n += 1,
            _ => {
                self.flush_pending();
                self.pending = Some((unit, 1));
            }
        }
    }

    fn flush_pending(&mut self) {
        let Some((unit, n)) = self.pending.take() else {
            return;
        };
        match unit {
            Unit::Mem { store, size, delta } => {
                let tag = if store { TAG_STORE } else { TAG_LOAD };
                self.bytes.push(tag | (size_code(size) << 2));
                put_varint(&mut self.bytes, zigzag(delta));
            }
            Unit::Compute { cycles } => {
                self.bytes.push(TAG_COMPUTE);
                put_varint(&mut self.bytes, cycles);
            }
        }
        if n > 1 {
            self.bytes.push(TAG_REPEAT);
            put_varint(&mut self.bytes, n - 1);
        }
    }

    /// Operation totals so far.
    pub fn counts(&self) -> OpCounts {
        self.counts
    }

    /// Seals the stream into a [`BusTrace`].
    ///
    /// `name` labels reports produced from replays; `mem_bytes` is the
    /// address-space size a replaying machine must provide; `checksum`
    /// is the kernel's functional result, reported by replayed runs in
    /// place of re-computing it.
    pub fn finish(mut self, name: &str, mem_bytes: u32, checksum: u64) -> BusTrace {
        self.flush_pending();
        self.bytes.shrink_to_fit();
        BusTrace {
            name: name.to_string(),
            mem_bytes,
            checksum,
            counts: self.counts,
            bytes: self.bytes,
        }
    }
}

/// A recorded, compressed Bus access stream: the design-independent
/// half of a simulation, captured once per workload and replayed
/// against any machine configuration.
///
/// `BusTrace` implements [`Workload`], so a recorded (or imported)
/// trace can be handed to anything that runs workloads; its `run`
/// replays the stream and returns the recorded checksum.
#[derive(Debug, Clone, PartialEq)]
pub struct BusTrace {
    name: String,
    mem_bytes: u32,
    checksum: u64,
    counts: OpCounts,
    bytes: Vec<u8>,
}

impl BusTrace {
    /// Records `workload`'s access stream by running it once against a
    /// [`TraceRecorder`] over a flat [`FunctionalMem`] — the cheapest
    /// functionally-correct bus, so recording costs roughly one
    /// kernel execution.
    pub fn record(workload: &dyn Workload) -> BusTrace {
        let mut rec = TraceRecorder::new(FunctionalMem::new(workload.mem_bytes()));
        let checksum = workload.run(&mut rec);
        rec.finish(workload.name(), workload.mem_bytes(), checksum)
    }

    /// The recorded workload's name (reports from replays carry it).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Bytes of address space the stream touches (what
    /// [`Workload::mem_bytes`] returned at record time).
    pub fn mem_bytes(&self) -> u32 {
        self.mem_bytes
    }

    /// The recorded kernel's functional checksum (0 for imported
    /// traces, which have no native kernel to compute one).
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Operation totals.
    pub fn counts(&self) -> OpCounts {
        self.counts
    }

    /// Total operations in the stream.
    pub fn ops(&self) -> u64 {
        self.counts.ops()
    }

    /// Size of the compressed in-memory encoding.
    pub fn encoded_len(&self) -> usize {
        self.bytes.len()
    }

    /// A decoding cursor over the stream, yielding [`BusOp`]s in
    /// program order.
    pub fn cursor(&self) -> ReplayCursor<'_> {
        ReplayCursor {
            bytes: &self.bytes,
            pos: 0,
            last_addr: 0,
            prev: None,
            repeat_left: 0,
        }
    }

    /// Compares two streams op-for-op and reports the first divergence:
    /// the 0-based ordinal of the first differing operation together
    /// with each side's op at that ordinal (`None` where a stream
    /// ended). Returns `None` when the streams are identical.
    pub fn first_divergence(&self, other: &BusTrace) -> Option<Divergence> {
        let mut a = self.cursor();
        let mut b = other.cursor();
        let mut ordinal = 0u64;
        loop {
            match (a.next(), b.next()) {
                (None, None) => return None,
                (x, y) if x == y => ordinal += 1,
                (x, y) => {
                    return Some(Divergence {
                        ordinal,
                        a: x,
                        b: y,
                    })
                }
            }
        }
    }

    // --- on-disk format (`TraceFile`) ---------------------------------
    //
    //   magic    8 B   "EHBUSTR" + format version byte (currently 2)
    //   name_len 4 B   LE u32, followed by that many UTF-8 bytes
    //   mem      4 B   LE u32 address-space size
    //   checksum 8 B   LE u64 kernel checksum
    //   loads    8 B   LE u64 \
    //   stores   8 B   LE u64  | op totals (validated against a decode
    //   computes 8 B   LE u64  | walk at load time)
    //   cycles   8 B   LE u64 /
    //   len      8 B   LE u64 payload length
    //   payload        the compressed op stream
    //   fnv      8 B   LE u64 FNV-1a of every byte before it (header
    //                  and payload), so no field can change unnoticed

    /// Serializes the trace in the versioned `TraceFile` format.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let mut header = MAGIC.to_vec();
        let name = self.name.as_bytes();
        let name_len = u32::try_from(name.len()).unwrap_or(u32::MAX);
        header.extend_from_slice(&name_len.to_le_bytes());
        header.extend_from_slice(&name[..name_len as usize]);
        header.extend_from_slice(&self.mem_bytes.to_le_bytes());
        header.extend_from_slice(&self.checksum.to_le_bytes());
        for n in [
            self.counts.loads,
            self.counts.stores,
            self.counts.computes,
            self.counts.compute_cycles,
            self.bytes.len() as u64,
        ] {
            header.extend_from_slice(&n.to_le_bytes());
        }
        w.write_all(&header)?;
        w.write_all(&self.bytes)?;
        let fnv = fnv1a_extend(fnv1a_extend(FNV_OFFSET, &header), &self.bytes);
        w.write_all(&fnv.to_le_bytes())?;
        Ok(())
    }

    /// Deserializes and **validates** a `TraceFile`: magic/version,
    /// the file checksum, declared op totals against a full decode
    /// walk, and every access against the declared address-space bound.
    /// Nothing is allocated on the word of the header alone: a declared
    /// payload length beyond the bytes actually present is an error.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceFileError`] naming what failed; a trace that
    /// loads successfully replays without panicking.
    pub fn read_from(r: &mut impl Read) -> Result<BusTrace, TraceFileError> {
        let r = &mut FnvReader {
            inner: r,
            hash: FNV_OFFSET,
        };
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if magic[..7] != MAGIC[..7] {
            return Err(TraceFileError::Format("not a Bus trace file".into()));
        }
        if magic[7] != VERSION {
            return Err(TraceFileError::Format(format!(
                "unsupported trace format version {} (this build reads {VERSION})",
                magic[7]
            )));
        }
        let name_len = read_u32(r)? as usize;
        if name_len > 4096 {
            return Err(TraceFileError::Format(format!(
                "unreasonable name length {name_len}"
            )));
        }
        let mut name = vec![0u8; name_len];
        r.read_exact(&mut name)?;
        let name = String::from_utf8(name)
            .map_err(|_| TraceFileError::Format("trace name is not UTF-8".into()))?;
        let mem_bytes = read_u32(r)?;
        let checksum = read_u64(r)?;
        let counts = OpCounts {
            loads: read_u64(r)?,
            stores: read_u64(r)?,
            computes: read_u64(r)?,
            compute_cycles: read_u64(r)?,
        };
        let len = read_u64(r)?;
        let mut bytes = Vec::new();
        r.by_ref().take(len).read_to_end(&mut bytes)?;
        if bytes.len() as u64 != len {
            return Err(TraceFileError::Format(format!(
                "payload truncated: header declares {len} bytes, file holds {}",
                bytes.len()
            )));
        }
        let expected = r.hash;
        if read_u64(&mut r.inner)? != expected {
            return Err(TraceFileError::Format(
                "file checksum mismatch (truncated or corrupted file)".into(),
            ));
        }
        let trace = BusTrace {
            name,
            mem_bytes,
            checksum,
            counts,
            bytes,
        };
        trace.validate()?;
        Ok(trace)
    }

    /// Full decode walk: every op must decode, stay in `0..mem_bytes`,
    /// be naturally aligned, and the totals must match the header.
    fn validate(&self) -> Result<(), TraceFileError> {
        let mut walked = OpCounts::default();
        let mut cursor = self.cursor();
        for op in &mut cursor {
            match op {
                BusOp::Load { addr, size } | BusOp::Store { addr, size } => {
                    let bytes = size.bytes();
                    if addr % bytes != 0 {
                        return Err(TraceFileError::Format(format!(
                            "misaligned {}-byte access at {addr:#x}",
                            bytes
                        )));
                    }
                    if u64::from(addr) + u64::from(bytes) > u64::from(self.mem_bytes) {
                        return Err(TraceFileError::Format(format!(
                            "access at {addr:#x} exceeds the declared {} -byte address space",
                            self.mem_bytes
                        )));
                    }
                    if matches!(op, BusOp::Store { .. }) {
                        walked.stores += 1;
                    } else {
                        walked.loads += 1;
                    }
                }
                BusOp::Compute { cycles } => {
                    walked.computes += 1;
                    walked.compute_cycles += cycles;
                }
            }
        }
        if cursor.pos != self.bytes.len() || cursor.repeat_left != 0 {
            return Err(TraceFileError::Format(
                "trailing garbage or truncated op stream".into(),
            ));
        }
        if walked != self.counts {
            return Err(TraceFileError::Format(format!(
                "op totals disagree with the stream: header {:?}, walked {walked:?}",
                self.counts
            )));
        }
        Ok(())
    }

    /// Writes the trace to `path` in the `TraceFile` format.
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write errors.
    pub fn save(&self, path: &Path) -> Result<(), TraceFileError> {
        let file = std::fs::File::create(path)?;
        let mut w = io::BufWriter::new(file);
        self.write_to(&mut w)?;
        w.flush()?;
        Ok(())
    }

    /// Reads and validates a `TraceFile` from `path`.
    ///
    /// # Errors
    ///
    /// See [`BusTrace::read_from`].
    pub fn load(path: &Path) -> Result<BusTrace, TraceFileError> {
        let file = std::fs::File::open(path)?;
        let mut r = io::BufReader::new(file);
        Self::read_from(&mut r)
    }

    /// Whether `bytes` starts with the `TraceFile` magic (any version)
    /// — for sniffing file kinds without parsing.
    pub fn sniff(bytes: &[u8]) -> bool {
        bytes.len() >= 7 && bytes[..7] == MAGIC[..7]
    }
}

const MAGIC: &[u8; 8] = b"EHBUSTR\x02";
const VERSION: u8 = 2;

fn read_u32(r: &mut impl Read) -> Result<u32, TraceFileError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> Result<u64, TraceFileError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a 64-bit hash (the integrity check of the on-disk
/// format) from state `h` over `bytes`.
fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A reader that folds every byte it yields into an FNV-1a hash, so
/// the trailer can check the whole file as it was read.
struct FnvReader<R> {
    inner: R,
    hash: u64,
}

impl<R: Read> Read for FnvReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.hash = fnv1a_extend(self.hash, &buf[..n]);
        Ok(n)
    }
}

/// Error loading or validating a `TraceFile`.
#[derive(Debug)]
pub enum TraceFileError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// The bytes are not a valid trace of a version this build reads.
    Format(String),
}

impl std::fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceFileError::Io(e) => write!(f, "i/o error: {e}"),
            TraceFileError::Format(m) => write!(f, "invalid trace file: {m}"),
        }
    }
}

impl std::error::Error for TraceFileError {}

impl From<io::Error> for TraceFileError {
    fn from(e: io::Error) -> Self {
        TraceFileError::Io(e)
    }
}

/// First point where two [`BusTrace`]s disagree
/// (see [`BusTrace::first_divergence`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divergence {
    /// 0-based ordinal of the first differing operation.
    pub ordinal: u64,
    /// The left stream's op at that ordinal (`None`: stream ended).
    pub a: Option<BusOp>,
    /// The right stream's op at that ordinal (`None`: stream ended).
    pub b: Option<BusOp>,
}

/// Decoding iterator over a [`BusTrace`]'s op stream.
///
/// Malformed bytes terminate iteration early; traces produced by
/// [`BusTraceBuilder`] are well-formed by construction and traces read
/// from disk are validated on load, so in practice the cursor yields
/// exactly [`BusTrace::ops`] operations.
#[derive(Debug, Clone)]
pub struct ReplayCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    last_addr: u32,
    prev: Option<Unit>,
    repeat_left: u64,
}

impl ReplayCursor<'_> {
    fn apply(&mut self, unit: Unit) -> BusOp {
        match unit {
            Unit::Mem { store, size, delta } => {
                #[expect(
                    clippy::cast_possible_truncation,
                    clippy::cast_sign_loss,
                    reason = "deltas are address differences, so the sum wraps back into u32 \
                              (a malformed delta wraps like any other address bits)"
                )]
                let addr = (i64::from(self.last_addr) + delta) as u32;
                self.last_addr = addr;
                if store {
                    BusOp::Store { addr, size }
                } else {
                    BusOp::Load { addr, size }
                }
            }
            Unit::Compute { cycles } => BusOp::Compute { cycles },
        }
    }
}

impl Iterator for ReplayCursor<'_> {
    type Item = BusOp;

    fn next(&mut self) -> Option<BusOp> {
        if self.repeat_left > 0 {
            self.repeat_left -= 1;
            let unit = self.prev?;
            return Some(self.apply(unit));
        }
        let &token = self.bytes.get(self.pos)?;
        self.pos += 1;
        let unit = match token & 0b11 {
            TAG_COMPUTE => Unit::Compute {
                cycles: get_varint(self.bytes, &mut self.pos)?,
            },
            TAG_REPEAT => {
                self.repeat_left = get_varint(self.bytes, &mut self.pos)?;
                if self.repeat_left == 0 {
                    return None; // malformed: empty repeat
                }
                self.repeat_left -= 1;
                let unit = self.prev?;
                return Some(self.apply(unit));
            }
            tag => Unit::Mem {
                store: tag == TAG_STORE,
                size: code_size(token >> 2),
                delta: unzigzag(get_varint(self.bytes, &mut self.pos)?),
            },
        };
        self.prev = Some(unit);
        Some(self.apply(unit))
    }
}

/// A recorded trace *is* a workload: replaying it through any [`Bus`]
/// issues the captured stream (stores carry a zero value) and returns
/// the recorded checksum.
impl Workload for BusTrace {
    fn name(&self) -> &str {
        &self.name
    }

    fn mem_bytes(&self) -> u32 {
        self.mem_bytes
    }

    fn run(&self, bus: &mut dyn Bus) -> u64 {
        for op in self.cursor() {
            match op {
                BusOp::Load { addr, size } => {
                    bus.load(addr, size);
                }
                BusOp::Store { addr, size } => bus.store(addr, size, 0),
                BusOp::Compute { cycles } => bus.compute(cycles),
            }
        }
        self.checksum
    }
}

/// A [`Bus`] wrapper that forwards every operation to `inner` while
/// appending it to a [`BusTraceBuilder`].
///
/// Wrap a [`FunctionalMem`] to capture a workload's stream at kernel
/// speed ([`BusTrace::record`] does exactly that), or wrap a full
/// machine to record while simulating.
#[derive(Debug)]
pub struct TraceRecorder<B> {
    inner: B,
    builder: BusTraceBuilder,
}

impl<B: Bus> TraceRecorder<B> {
    /// Wraps `inner`, recording every op that flows through.
    pub fn new(inner: B) -> Self {
        Self {
            inner,
            builder: BusTraceBuilder::new(),
        }
    }

    /// The wrapped bus.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Operation totals recorded so far.
    pub fn counts(&self) -> OpCounts {
        self.builder.counts()
    }

    /// Seals the recording (see [`BusTraceBuilder::finish`]).
    pub fn finish(self, name: &str, mem_bytes: u32, checksum: u64) -> BusTrace {
        self.builder.finish(name, mem_bytes, checksum)
    }
}

impl<B: Bus> Bus for TraceRecorder<B> {
    fn load(&mut self, addr: u32, size: AccessSize) -> u64 {
        self.builder.push(BusOp::Load { addr, size });
        self.inner.load(addr, size)
    }

    fn store(&mut self, addr: u32, size: AccessSize, value: u64) {
        self.builder.push(BusOp::Store { addr, size });
        self.inner.store(addr, size, value);
    }

    fn compute(&mut self, cycles: u64) {
        self.builder.push(BusOp::Compute { cycles });
        self.inner.compute(cycles);
    }
}

/// Imports an external column-format access trace (DACE /
/// Valgrind-lachesis style) as a [`BusTrace`] named `name`.
///
/// Accepted line shapes (fields split on whitespace and/or commas;
/// blank lines and lines starting with `#`, `;` or `//` are skipped):
///
/// * `<op> <addr> [size]` — e.g. `l 0x1f00 4`, `W 4096`, `store 0x80 8`
/// * `<addr> <op> [size]` — e.g. `0x1f00,R` (lachesis column order)
/// * `c <cycles>` / `compute <cycles>` — a computation burst
///
/// Ops: `l`/`r`/`R`/`L`/`load`/`read`/`0` are loads; `s`/`w`/`W`/`S`/
/// `store`/`write`/`1` are stores. Addresses parse as hex with a `0x`
/// prefix or as decimal. The size defaults to 4 bytes and must be 1, 2,
/// 4 or 8; addresses are aligned **down** to the access size (the
/// simulated hierarchy requires natural alignment). The trace's
/// `mem_bytes` is the smallest line-rounded span covering every access,
/// and its checksum is 0 (imported streams have no native kernel).
///
/// # Errors
///
/// Returns `line <n>: <what>` for the first unparseable line.
pub fn import_column_trace(text: &str, name: &str) -> Result<BusTrace, String> {
    let mut builder = BusTraceBuilder::new();
    let mut top = 0u64;
    for (ix, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty()
            || line.starts_with('#')
            || line.starts_with(';')
            || line.starts_with("//")
        {
            continue;
        }
        let fields: Vec<&str> = line
            .split(|c: char| c.is_whitespace() || c == ',')
            .filter(|f| !f.is_empty())
            .collect();
        let err = |what: String| format!("line {}: {what}", ix + 1);
        let op = parse_op(&fields).map_err(&err)?;
        match op {
            BusOp::Load { addr, size } | BusOp::Store { addr, size } => {
                top = top.max(u64::from(addr) + u64::from(size.bytes()));
                if top > u64::from(u32::MAX) {
                    return Err(err(format!("address {addr:#x} overflows the 32-bit space")));
                }
            }
            BusOp::Compute { .. } => {}
        }
        builder.push(op);
    }
    if builder.counts().ops() == 0 {
        return Err("no operations found (empty or all-comment input)".into());
    }
    // Round the span up to a whole number of 64-byte lines so the
    // replaying machine's NVM covers every access.
    let mem_bytes =
        u32::try_from(top.div_ceil(u64::from(crate::LINE_BYTES)) * u64::from(crate::LINE_BYTES))
            .map_err(|_| "address space overflows 32 bits".to_string())?;
    Ok(builder.finish(name, mem_bytes, 0))
}

/// Parses one line's fields into an op (see [`import_column_trace`]).
fn parse_op(fields: &[&str]) -> Result<BusOp, String> {
    let Some(&first) = fields.first() else {
        return Err("empty line".into());
    };
    // compute burst?
    if matches!(first, "c" | "C" | "compute") {
        let cycles = fields
            .get(1)
            .ok_or_else(|| "compute needs a cycle count".to_string())?;
        let cycles = parse_num(cycles)?;
        return Ok(BusOp::Compute { cycles });
    }
    // `<op> <addr> [size]` or `<addr> <op> [size]`
    let (kind, addr, rest) = if let Some(kind) = op_kind(first) {
        let addr = fields
            .get(1)
            .ok_or_else(|| format!("'{first}' needs an address"))?;
        (kind, parse_num(addr)?, &fields[2..])
    } else {
        let addr = parse_num(first)?;
        let op = fields
            .get(1)
            .ok_or_else(|| "address without an op field".to_string())?;
        let kind =
            op_kind(op).ok_or_else(|| format!("unknown op '{op}' (load/store/l/s/r/w/0/1)"))?;
        (kind, addr, &fields[2..])
    };
    let size = match rest.first() {
        None => AccessSize::B4,
        Some(&s) => match parse_num(s)? {
            1 => AccessSize::B1,
            2 => AccessSize::B2,
            4 => AccessSize::B4,
            8 => AccessSize::B8,
            other => return Err(format!("unsupported access size {other} (1|2|4|8)")),
        },
    };
    let addr = u32::try_from(addr).map_err(|_| format!("address {addr:#x} overflows 32 bits"))?;
    let addr = addr & !(size.bytes() - 1); // natural alignment
    Ok(if kind {
        BusOp::Store { addr, size }
    } else {
        BusOp::Load { addr, size }
    })
}

/// `Some(true)` for store tokens, `Some(false)` for loads.
fn op_kind(tok: &str) -> Option<bool> {
    match tok {
        "l" | "L" | "r" | "R" | "load" | "read" | "0" => Some(false),
        "s" | "S" | "w" | "W" | "store" | "write" | "1" => Some(true),
        _ => None,
    }
}

fn parse_num(tok: &str) -> Result<u64, String> {
    let parsed = if let Some(hex) = tok.strip_prefix("0x").or_else(|| tok.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        tok.parse()
    };
    parsed.map_err(|_| format!("'{tok}' is not a number"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic op soup with every kind/size and both small and
    /// large address jumps.
    fn soup(n: u32) -> Vec<BusOp> {
        let mut x = 0x1234_5678u32;
        let mut ops = Vec::new();
        for i in 0..n {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let size = match x % 4 {
                0 => AccessSize::B1,
                1 => AccessSize::B2,
                2 => AccessSize::B4,
                _ => AccessSize::B8,
            };
            let addr = (x >> 3) & !(size.bytes() - 1);
            ops.push(match (x >> 30) % 3 {
                0 => BusOp::Load { addr, size },
                1 => BusOp::Store { addr, size },
                _ => BusOp::Compute {
                    cycles: u64::from(x % 5000) + 1,
                },
            });
            if i % 7 == 0 {
                // runs of identical ops to exercise the RLE path
                for _ in 0..(x % 5) {
                    ops.push(BusOp::Compute { cycles: 64 });
                }
            }
        }
        ops
    }

    fn build(ops: &[BusOp]) -> BusTrace {
        let mut b = BusTraceBuilder::new();
        for &op in ops {
            b.push(op);
        }
        b.finish("soup", u32::MAX, 42)
    }

    #[test]
    fn encode_decode_round_trips() {
        let ops = soup(5000);
        let trace = build(&ops);
        let decoded: Vec<BusOp> = trace.cursor().collect();
        assert_eq!(decoded, ops);
        assert_eq!(trace.ops(), ops.len() as u64);
    }

    #[test]
    fn counts_tally_every_kind() {
        let ops = vec![
            BusOp::Load {
                addr: 0,
                size: AccessSize::B4,
            },
            BusOp::Store {
                addr: 4,
                size: AccessSize::B4,
            },
            BusOp::Compute { cycles: 10 },
            BusOp::Compute { cycles: 10 },
        ];
        let t = build(&ops);
        let c = t.counts();
        assert_eq!(c.loads, 1);
        assert_eq!(c.stores, 1);
        assert_eq!(c.computes, 2);
        assert_eq!(c.compute_cycles, 20);
        assert_eq!(c.instructions(), 22);
        assert_eq!(c.ops(), 4);
    }

    #[test]
    fn strided_loops_compress_hard() {
        // 100k stores at stride 4 plus 100k identical compute bursts:
        // constant deltas collapse into unit+repeat tokens.
        let mut b = BusTraceBuilder::new();
        for i in 0..100_000u32 {
            b.push(BusOp::Store {
                addr: i * 4,
                size: AccessSize::B4,
            });
        }
        for _ in 0..100_000 {
            b.push(BusOp::Compute { cycles: 37 });
        }
        let t = b.finish("stride", u32::MAX, 0);
        assert_eq!(t.ops(), 200_000);
        assert!(
            t.encoded_len() < 32,
            "two RLE units must encode in a handful of bytes, got {}",
            t.encoded_len()
        );
        let decoded: Vec<BusOp> = t.cursor().collect();
        assert_eq!(decoded.len(), 200_000);
        assert_eq!(
            decoded[99_999],
            BusOp::Store {
                addr: 399_996,
                size: AccessSize::B4
            }
        );
        assert_eq!(decoded[100_000], BusOp::Compute { cycles: 37 });
    }

    #[test]
    fn recorder_captures_what_flows_through() {
        let mut rec = TraceRecorder::new(FunctionalMem::new(256));
        rec.store_u32(0, 7);
        rec.store_u32(4, 8);
        assert_eq!(rec.load_u32(0), 7, "recording is functionally transparent");
        rec.compute(100);
        assert_eq!(rec.counts().ops(), 4);
        let t = rec.finish("mini", 256, 15);
        let ops: Vec<BusOp> = t.cursor().collect();
        assert_eq!(
            ops,
            vec![
                BusOp::Store {
                    addr: 0,
                    size: AccessSize::B4
                },
                BusOp::Store {
                    addr: 4,
                    size: AccessSize::B4
                },
                BusOp::Load {
                    addr: 0,
                    size: AccessSize::B4
                },
                BusOp::Compute { cycles: 100 },
            ]
        );
    }

    struct Mini;
    impl Workload for Mini {
        fn name(&self) -> &str {
            "mini"
        }
        fn mem_bytes(&self) -> u32 {
            256
        }
        fn run(&self, bus: &mut dyn Bus) -> u64 {
            let mut acc = 0u64;
            for i in 0..32u32 {
                bus.store_u32(i * 4, i * 3);
            }
            for i in 0..32u32 {
                acc = acc.wrapping_add(u64::from(bus.load_u32(i * 4)));
                bus.compute(5);
            }
            acc
        }
    }

    #[test]
    fn recorded_trace_is_a_workload() {
        let t = BusTrace::record(&Mini);
        assert_eq!(t.name(), "mini");
        assert_eq!(t.mem_bytes(), 256);
        let expect: u64 = (0..32).map(|i| u64::from(i * 3u32)).sum();
        assert_eq!(t.checksum(), expect);
        // Replaying through a fresh FunctionalMem yields the recorded
        // checksum (not a recomputed one) and the same access stream.
        let mut mem = FunctionalMem::new(t.mem_bytes());
        assert_eq!(t.run(&mut mem), expect);
        let t2 = BusTrace::record(&t);
        assert_eq!(t.first_divergence(&t2), None);
        // Replayed stores carry zeros, not the original data.
        assert_eq!(mem.load_u32(4), 0);
    }

    #[test]
    fn divergence_reports_ordinal_and_ops() {
        let a = build(&[
            BusOp::Load {
                addr: 0,
                size: AccessSize::B4,
            },
            BusOp::Compute { cycles: 9 },
        ]);
        let b = build(&[
            BusOp::Load {
                addr: 0,
                size: AccessSize::B4,
            },
            BusOp::Compute { cycles: 10 },
        ]);
        let d = a.first_divergence(&b).expect("streams differ");
        assert_eq!(d.ordinal, 1);
        assert_eq!(d.a, Some(BusOp::Compute { cycles: 9 }));
        assert_eq!(d.b, Some(BusOp::Compute { cycles: 10 }));
        // Length mismatch: the shorter side reports None.
        let c = build(&[BusOp::Load {
            addr: 0,
            size: AccessSize::B4,
        }]);
        let d = a.first_divergence(&c).expect("lengths differ");
        assert_eq!(d.ordinal, 1);
        assert_eq!(d.b, None);
        assert_eq!(a.first_divergence(&a), None);
    }

    #[test]
    fn trace_file_round_trips() {
        let t = BusTrace::record(&Mini);
        let mut buf = Vec::new();
        t.write_to(&mut buf).expect("write");
        assert!(BusTrace::sniff(&buf));
        let back = BusTrace::read_from(&mut buf.as_slice()).expect("read");
        assert_eq!(back, t);
    }

    #[test]
    fn trace_file_rejects_corruption() {
        let t = BusTrace::record(&Mini);
        let mut buf = Vec::new();
        t.write_to(&mut buf).expect("write");

        // Bad magic.
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(BusTrace::read_from(&mut bad.as_slice()).is_err());
        assert!(!BusTrace::sniff(&bad));

        // Unsupported version.
        let mut bad = buf.clone();
        bad[7] = 99;
        assert!(matches!(
            BusTrace::read_from(&mut bad.as_slice()),
            Err(TraceFileError::Format(m)) if m.contains("version")
        ));

        // Flipped payload byte: FNV catches it.
        let mut bad = buf.clone();
        let payload_at = buf.len() - 9; // last payload byte (before fnv)
        bad[payload_at] ^= 0xff;
        assert!(BusTrace::read_from(&mut bad.as_slice()).is_err());

        // Truncation.
        let bad = &buf[..buf.len() - 4];
        assert!(BusTrace::read_from(&mut &bad[..]).is_err());
    }

    /// A header declaring far more payload than the file holds must be
    /// an error, not an allocation of the declared size.
    #[test]
    fn overstated_payload_length_is_an_error_not_an_abort() {
        // 64-byte header (empty name, zero totals) declaring a 1 TiB
        // payload, followed by a single payload byte.
        let mut file = MAGIC.to_vec();
        file.extend_from_slice(&0u32.to_le_bytes()); // name_len
        file.extend_from_slice(&0u32.to_le_bytes()); // mem
        file.extend_from_slice(&[0u8; 8 * 5]); // checksum + op totals
        file.extend_from_slice(&(1u64 << 40).to_le_bytes()); // len
        file.push(TAG_COMPUTE);
        assert_eq!(file.len(), 65);
        assert!(matches!(
            BusTrace::read_from(&mut file.as_slice()),
            Err(TraceFileError::Format(m)) if m.contains("truncated")
        ));

        // The same lie in a real recorded trace.
        let t = BusTrace::record(&Mini);
        let mut buf = Vec::new();
        t.write_to(&mut buf).expect("write");
        let len_at = 8 + 4 + t.name().len() + 4 + 8 + 4 * 8;
        buf[len_at..len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(BusTrace::read_from(&mut buf.as_slice()).is_err());
    }

    /// Every single-byte mutation and every truncation of a small
    /// recorded trace either fails to load or loads the identical
    /// trace — never a panic, never a silently different trace.
    #[test]
    fn byte_mutations_and_truncations_never_load_a_different_trace() {
        let t = BusTrace::record(&Mini);
        let mut buf = Vec::new();
        t.write_to(&mut buf).expect("write");
        for i in 0..buf.len() {
            for mask in [0x01u8, 0x80, 0xff] {
                let mut bad = buf.clone();
                bad[i] ^= mask;
                if let Ok(back) = BusTrace::read_from(&mut bad.as_slice()) {
                    assert_eq!(back, t, "byte {i} ^ {mask:#04x} loaded a different trace");
                }
            }
        }
        for cut in 0..buf.len() {
            assert!(
                BusTrace::read_from(&mut &buf[..cut]).is_err(),
                "a trace truncated to {cut} bytes loaded"
            );
        }
    }

    #[test]
    fn trace_file_validation_rejects_out_of_bounds_streams() {
        // Hand-build a trace whose stream exceeds its declared span.
        let mut b = BusTraceBuilder::new();
        b.push(BusOp::Store {
            addr: 1024,
            size: AccessSize::B4,
        });
        let t = b.finish("oob", 64, 0);
        let mut buf = Vec::new();
        t.write_to(&mut buf).expect("write");
        assert!(matches!(
            BusTrace::read_from(&mut buf.as_slice()),
            Err(TraceFileError::Format(m)) if m.contains("exceeds")
        ));
    }

    #[test]
    fn import_accepts_both_column_orders_and_compute() {
        let text = "\
# a comment
l 0x40 4
0x80,W
s 0x100 8
c 250
// another comment
128 r 2
w 0x47 1
";
        let t = import_column_trace(text, "foreign").expect("imports");
        assert_eq!(t.name(), "foreign");
        assert_eq!(t.checksum(), 0);
        let ops: Vec<BusOp> = t.cursor().collect();
        assert_eq!(
            ops,
            vec![
                BusOp::Load {
                    addr: 0x40,
                    size: AccessSize::B4
                },
                BusOp::Store {
                    addr: 0x80,
                    size: AccessSize::B4
                },
                BusOp::Store {
                    addr: 0x100,
                    size: AccessSize::B8
                },
                BusOp::Compute { cycles: 250 },
                BusOp::Load {
                    addr: 128,
                    size: AccessSize::B2
                },
                BusOp::Store {
                    addr: 0x47,
                    size: AccessSize::B1
                },
            ]
        );
        // Span covers the highest access, rounded to whole lines.
        assert_eq!(t.mem_bytes(), 0x140);
    }

    #[test]
    fn import_aligns_addresses_down() {
        let t = import_column_trace("l 0x46 4", "x").expect("imports");
        assert_eq!(
            t.cursor().next(),
            Some(BusOp::Load {
                addr: 0x44,
                size: AccessSize::B4
            })
        );
    }

    #[test]
    fn import_rejects_garbage_with_line_numbers() {
        let e = import_column_trace("l 0x40\nfrob 1\n", "x").expect_err("rejects");
        assert!(e.contains("line 2"), "{e}");
        assert!(import_column_trace("", "x").is_err());
        assert!(import_column_trace("l 0x40 3", "x").is_err(), "bad size");
        assert!(import_column_trace("c", "x").is_err(), "cycle-less compute");
        assert!(import_column_trace("0x40", "x").is_err(), "op-less address");
    }

    /// Every single-byte mutation (three xor masks) and every truncation
    /// of a column trace imports without panicking. The text carries no
    /// checksum, so a damaged digit can spell another valid trace; what
    /// must hold is that an accepted import is well-formed and differs
    /// from the original only at the damaged line (two lines when a
    /// newline is hit or made): the ops of every line before it and
    /// every line after it come through unchanged.
    #[test]
    fn import_survives_every_byte_mutation_and_truncation() {
        let text = "\
# header, L 0x40 4
l 0x40 4
0x80,W

s 0x100 8
; c 99
C 250
128 r 2
// w 0x47 1
store, 4096, 1
0X1F0 read 8
";
        let orig: Vec<BusOp> = import_column_trace(text, "x")
            .expect("imports")
            .cursor()
            .collect();
        // Ops contributed by the lines before line `l` of the original.
        let lines: Vec<&str> = text.split('\n').collect();
        let is_op = |l: &str| {
            let l = l.trim();
            !(l.is_empty() || l.starts_with('#') || l.starts_with(';') || l.starts_with("//"))
        };
        let ops_before = |l: usize| lines[..l].iter().filter(|x| is_op(x)).count();
        let n = orig.len();
        // Checks an import whose damage spans original lines
        // `first..=last` (ops of lines past the cut are gone when
        // `truncated`).
        let check = |bad: &[u8], first: usize, last: usize, truncated: bool, what: &str| {
            let Ok(bad) = std::str::from_utf8(bad) else {
                return None; // `read_to_string` refuses it first
            };
            let t = import_column_trace(bad, "x").ok()?;
            assert_eq!((t.name(), t.checksum()), ("x", 0), "{what}");
            assert_eq!(t.mem_bytes() % crate::LINE_BYTES, 0, "{what}");
            let got: Vec<BusOp> = t.cursor().collect();
            for op in &got {
                if let BusOp::Load { addr, size } | BusOp::Store { addr, size } = *op {
                    assert_eq!(addr % size.bytes(), 0, "{what}: misaligned {op:?}");
                    assert!(
                        addr + size.bytes() <= t.mem_bytes(),
                        "{what}: {op:?} past the span"
                    );
                }
            }
            let pre = ops_before(first);
            let post = if truncated {
                0
            } else {
                n - ops_before(last + 1)
            };
            assert!(
                got.len() >= pre + post && got.len() <= pre + post + 2,
                "{what}: {got:?}"
            );
            assert_eq!(
                got[..pre],
                orig[..pre],
                "{what}: lines before the damage changed"
            );
            assert_eq!(
                got[got.len() - post..],
                orig[n - post..],
                "{what}: lines after changed"
            );
            Some(got == orig)
        };
        let bytes = text.as_bytes();
        let (mut rejected, mut same, mut different) = (0, 0, 0);
        for i in 0..bytes.len() {
            let line = bytes[..i].iter().filter(|&&b| b == b'\n').count();
            for mask in [0x01u8, 0x80, 0xff] {
                let mut bad = bytes.to_vec();
                bad[i] ^= mask;
                let joins = bytes[i] == b'\n';
                let what = format!("byte {i} ^ {mask:#04x}");
                match check(&bad, line, line + usize::from(joins), false, &what) {
                    None => rejected += 1,
                    Some(true) => same += 1,
                    Some(false) => different += 1,
                }
            }
        }
        assert!(
            rejected > 0 && same > 0 && different > 0,
            "{rejected}/{same}/{different}"
        );
        for cut in 0..bytes.len() {
            let line = bytes[..cut].iter().filter(|&&b| b == b'\n').count();
            let _ = check(&bytes[..cut], line, line, true, &format!("cut at {cut}"));
        }
    }

    #[test]
    fn varint_and_zigzag_round_trip() {
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            let mut pos = 0;
            assert_eq!(get_varint(&out, &mut pos), Some(v));
            assert_eq!(pos, out.len());
        }
        for d in [0i64, 1, -1, 63, -64, i64::from(i32::MAX), -(1 << 40)] {
            assert_eq!(unzigzag(zigzag(d)), d);
        }
        // Truncated varint decodes to None, not a panic.
        assert_eq!(get_varint(&[0x80], &mut 0), None);
    }
}
