//! The contract between a cache design and the simulated machine.

use crate::CacheStats;
use ehsim_energy::{EnergyMeter, VoltageThresholds};
use ehsim_mem::{AccessSize, FunctionalMem, NvmEnergy, NvmPort, NvmTiming, Pj, Ps};
use ehsim_obs::ObserverBox;

/// Everything a cache design needs from the machine to serve one
/// operation: the clock, the NVM (timing, energy, port, and persistent
/// bytes), the energy meter and the statistics sink.
///
/// The machine constructs a fresh `MemCtx` per operation with `now` set
/// to the operation's start time; designs return absolute completion
/// times. Energy is *recorded* into [`MemCtx::meter`]; the machine drains
/// the capacitor by the meter's delta after the call, so designs never
/// manipulate the capacitor directly. `cap_voltage` is a read-only
/// observation used by WL-Cache's opportunistic dynamic adaptation (§4).
#[derive(Debug)]
pub struct MemCtx<'a> {
    /// Current simulation time (start of the operation).
    pub now: Ps,
    /// The single NVM port (busy-time arbitration).
    pub port: &'a mut NvmPort,
    /// NVM timing parameters.
    pub timing: &'a NvmTiming,
    /// NVM energy parameters.
    pub energy: &'a NvmEnergy,
    /// Persistent main-memory bytes.
    pub nvm: &'a mut FunctionalMem,
    /// Energy accounting sink.
    pub meter: &'a mut EnergyMeter,
    /// Statistics sink.
    pub stats: &'a mut CacheStats,
    /// Capacitor voltage at `now` (read-only observation).
    pub cap_voltage: f64,
    /// Event sink (observation only — never influences behaviour).
    /// Instrumented designs guard emission with
    /// [`ObserverBox::enabled`] so the default no-op costs nothing.
    pub obs: &'a mut ObserverBox,
}

impl MemCtx<'_> {
    /// Synchronously writes one full line (`data`) at `base` to NVM:
    /// schedules the port, updates the persistent bytes, meters energy
    /// and counts traffic. Returns the absolute completion (ACK) time.
    #[inline]
    pub fn sync_line_write(&mut self, base: u32, data: &[u8]) -> Ps {
        self.nvm.write_line(base, data);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a line buffer is `line_bytes: u32` long"
        )]
        let bytes = data.len() as u32;
        self.charge_line_write(bytes)
    }

    /// The timing, energy and traffic of a synchronous line write of
    /// `bytes` bytes, without the bytes: what [`MemCtx::sync_line_write`]
    /// costs besides updating NVM. A residency-class follower's dirty
    /// victim is already in NVM when it is evicted, so its write-back is
    /// only this. Returns the absolute completion (ACK) time.
    #[inline]
    pub fn charge_line_write(&mut self, bytes: u32) -> Ps {
        let (_, done) = self.port.schedule(
            self.now,
            self.timing.line_write_ps(),
            self.timing.line_write_recovery_ps(),
        );
        self.meter.add(
            ehsim_energy::EnergyCategory::MemWrite,
            self.energy.write_pj(bytes),
        );
        self.stats.nvm_write_bytes += u64::from(bytes);
        done
    }

    /// Synchronously reads one full line at `base` from NVM into `buf`.
    /// Returns the absolute completion time.
    #[inline]
    pub fn sync_line_read(&mut self, base: u32, buf: &mut [u8]) -> Ps {
        self.nvm.read_line(base, buf);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a line buffer is `line_bytes: u32` long"
        )]
        let bytes = buf.len() as u32;
        self.charge_line_read(bytes)
    }

    /// The timing, energy and traffic of a synchronous line read of
    /// `bytes` bytes, without the bytes: what [`MemCtx::sync_line_read`]
    /// costs besides the copy. Returns the absolute completion time.
    #[inline]
    pub fn charge_line_read(&mut self, bytes: u32) -> Ps {
        let (_, done) = self.port.schedule(self.now, self.timing.line_read_ps(), 0);
        self.meter.add(
            ehsim_energy::EnergyCategory::MemRead,
            self.energy.read_pj(bytes),
        );
        self.stats.nvm_read_bytes += u64::from(bytes);
        done
    }

    /// Synchronously writes `size` bytes of `value` at `addr` to NVM
    /// (write-through store path). Returns the completion time.
    #[inline]
    pub fn sync_word_write(&mut self, addr: u32, size: AccessSize, value: u64) -> Ps {
        let (_, done) = self.port.schedule(
            self.now,
            self.timing.word_write_ps(),
            self.timing.word_write_recovery_ps(),
        );
        self.nvm.write(addr, size, value);
        self.meter.add(
            ehsim_energy::EnergyCategory::MemWrite,
            self.energy.write_pj(size.bytes()),
        );
        self.stats.word_writes += 1;
        self.stats.nvm_write_bytes += u64::from(size.bytes());
        done
    }

    /// Issues an *asynchronous* line write at `base` with snapshot
    /// `data`: the port is occupied but the caller does not wait.
    /// Returns the absolute ACK time. The persistent bytes are updated
    /// immediately (the snapshot is what lands in NVM).
    #[inline]
    pub fn async_line_write(&mut self, base: u32, data: &[u8]) -> Ps {
        let done = self.sync_line_write(base, data);
        self.stats.async_writebacks += 1;
        done
    }

    /// [`MemCtx::async_line_write`] without the bytes: its port
    /// occupancy, energy and traffic. Returns the absolute ACK time.
    #[inline]
    pub fn charge_async_line_write(&mut self, bytes: u32) -> Ps {
        let done = self.charge_line_write(bytes);
        self.stats.async_writebacks += 1;
        done
    }
}

/// A cache design pluggable into the `ehsim` machine.
///
/// Implementations: `VCacheWt`, `NvCacheWb`, `NvSramCache`,
/// `ReplayCache` (this crate) and `WlCache` (the `wl-cache` crate).
///
/// All methods take the machine context and return **absolute**
/// completion times (≥ `ctx.now`); the machine advances its clock to the
/// returned value.
pub trait CacheDesign {
    /// Display name matching the paper's figures (e.g. `"WL-Cache"`).
    fn name(&self) -> &'static str;

    /// Voltage operating points this design requires (may change at
    /// reboot for WL-Cache's adaptive management).
    fn thresholds(&self) -> VoltageThresholds;

    /// First power-up: the initial charge ended at `now` and execution
    /// starts. Not called after an outage ([`CacheDesign::reboot`] is).
    fn boot(&mut self, now: Ps) {
        let _ = now;
    }

    /// Serves a load; returns `(completion_time, value)`.
    fn load(&mut self, ctx: &mut MemCtx<'_>, addr: u32, size: AccessSize) -> (Ps, u64);

    /// Serves a store; returns the completion time.
    fn store(&mut self, ctx: &mut MemCtx<'_>, addr: u32, size: AccessSize, value: u64) -> Ps;

    /// JIT checkpoint on impending power failure: persist whatever the
    /// design needs beyond the registers (which the machine checkpoints
    /// separately). Returns the completion time.
    fn checkpoint(&mut self, ctx: &mut MemCtx<'_>) -> Ps;

    /// Power is lost: volatile state disappears. Called after
    /// [`CacheDesign::checkpoint`] completed.
    fn power_off(&mut self);

    /// Power is back: restore state (e.g. NVSRAM's warm-cache refill)
    /// and, for adaptive designs, reconfigure thresholds using the
    /// just-finished power-on time `on_time_ps`. Returns the completion
    /// time.
    fn reboot(&mut self, ctx: &mut MemCtx<'_>, on_time_ps: Ps) -> Ps;

    /// Instruction-boundary notification (ReplayCache region tracking).
    /// `total_instrs` counts all retired instructions. Returns the (possibly
    /// advanced) completion time if the design had to stall the core.
    fn on_instructions(&mut self, ctx: &mut MemCtx<'_>, total_instrs: u64) -> Ps {
        let _ = total_instrs;
        ctx.now
    }

    /// Number of dirty lines currently held (for the §6.6 statistics).
    fn dirty_lines(&self) -> usize {
        0
    }

    /// Worst-case energy (pJ) a JIT checkpoint of this design may need,
    /// excluding registers. The machine asserts that the design's
    /// voltage reserve covers it.
    fn worst_checkpoint_pj(&self, energy: &NvmEnergy) -> Pj;

    /// Returns a copy of `nvm` overlaid with any data the design keeps
    /// *persistently* outside main memory (a non-volatile array, an NV
    /// checkpoint copy). Crash-consistency verification compares this
    /// view — taken right after a checkpoint — against the oracle
    /// memory. Volatile designs use the default (NVM alone must be
    /// consistent).
    fn persistent_overlay(&self, nvm: &FunctionalMem) -> FunctionalMem {
        nvm.clone()
    }

    /// Borrows the persistent bytes this design holds for the line at
    /// `base`, if it shadows main memory there — the per-line view of
    /// [`CacheDesign::persistent_overlay`]. `None` means main memory
    /// itself is the persistent content at `base`. The incremental
    /// crash-consistency checker uses this to compare only the lines
    /// written since the previous outage, without cloning memory.
    fn persistent_line(&self, base: u32) -> Option<&[u8]> {
        let _ = base;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehsim_energy::EnergyMeter;
    use ehsim_mem::FunctionalMem;

    fn with_ctx(f: impl FnOnce(&mut MemCtx<'_>)) -> (FunctionalMem, EnergyMeter, CacheStats) {
        let mut port = NvmPort::new();
        let timing = NvmTiming::default();
        let energy = NvmEnergy::default();
        let mut nvm = FunctionalMem::new(4096);
        let mut meter = EnergyMeter::new();
        let mut stats = CacheStats::new();
        let mut obs = ObserverBox::Noop;
        {
            let mut ctx = MemCtx {
                now: 0,
                port: &mut port,
                timing: &timing,
                energy: &energy,
                nvm: &mut nvm,
                meter: &mut meter,
                stats: &mut stats,
                cap_voltage: 3.3,
                obs: &mut obs,
            };
            f(&mut ctx);
        }
        (nvm, meter, stats)
    }

    #[test]
    fn sync_line_write_updates_bytes_energy_stats() {
        let (nvm, meter, stats) = with_ctx(|ctx| {
            let data = vec![0xaa; 64];
            let done = ctx.sync_line_write(0x100, &data);
            assert_eq!(done, ctx.timing.line_write_ps());
        });
        assert_eq!(nvm.as_bytes()[0x100], 0xaa);
        assert_eq!(nvm.as_bytes()[0x13f], 0xaa);
        assert_eq!(nvm.as_bytes()[0x140], 0x00);
        assert!(meter.mem_write > 0.0);
        assert_eq!(stats.nvm_write_bytes, 64);
    }

    #[test]
    fn sync_line_read_copies_and_meters() {
        let (_, meter, stats) = with_ctx(|ctx| {
            ctx.nvm.write_line(0x40, &[7u8; 64]);
            let mut buf = vec![0u8; 64];
            let done = ctx.sync_line_read(0x40, &mut buf);
            assert!(buf.iter().all(|&b| b == 7));
            assert_eq!(done, ctx.timing.line_read_ps());
        });
        assert!(meter.mem_read > 0.0);
        assert_eq!(stats.nvm_read_bytes, 64);
    }

    #[test]
    fn word_write_traffic_counts_bytes() {
        let (nvm, _, stats) = with_ctx(|ctx| {
            ctx.sync_word_write(8, AccessSize::B4, 0xdead_beef);
        });
        assert_eq!(nvm.read(8, AccessSize::B4), 0xdead_beef);
        assert_eq!(stats.nvm_write_bytes, 4);
        assert_eq!(stats.word_writes, 1);
    }

    #[test]
    fn port_contention_serialises_operations() {
        with_ctx(|ctx| {
            let d1 = ctx.async_line_write(0x000, &[1u8; 64]);
            let d2 = ctx.sync_line_write(0x040, &[2u8; 64]);
            // Second write cannot start before the first's recovery ends.
            assert!(d2 >= d1 + ctx.timing.line_write_recovery_ps());
        });
    }
}
