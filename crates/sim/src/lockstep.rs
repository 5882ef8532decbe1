//! Lockstep groups: one kernel run driving several machines.
//!
//! [`Lockstep`] is a fan-out [`Bus`]: every op (and every compute
//! chunk) runs each machine's access half first and each machine's
//! settle half after, so the machines' capacitor chains — a serial run
//! of divides and square roots per window — sit next to each other in
//! program order and the core overlaps them. Each machine still sees
//! exactly the calls a solo run makes, in the same order, so its
//! `Report` is bit-identical to [`Simulator::run`](crate::Simulator).

use crate::machine::Machine;
use crate::params::COMPUTE_CHUNK_CYCLES;
use crate::SimConfig;
use ehsim_mem::{AccessSize, Bus, Ps};

/// Panic payload raised when a machine loads a value that differs from
/// machine 0's: the kernel only sees machine 0's values, so the group
/// is abandoned and its members rerun solo.
pub(crate) struct Diverged;

/// The fan-out bus over a group of machines.
pub(crate) struct Lockstep {
    pub(crate) machines: Vec<Machine>,
    /// Each machine's open window, between its access and settle
    /// halves.
    dts: Vec<Ps>,
}

impl Lockstep {
    pub(crate) fn new(cfgs: &[SimConfig], mem_bytes: u32) -> Self {
        Self {
            machines: cfgs.iter().map(|c| Machine::new(c, mem_bytes)).collect(),
            dts: vec![0; cfgs.len()],
        }
    }

    /// Every machine's settle half, in group order.
    #[inline(always)]
    fn settle_all(&mut self) {
        for (m, &dt) in self.machines.iter_mut().zip(&self.dts) {
            m.settle_window(dt);
        }
    }
}

impl Bus for Lockstep {
    fn load(&mut self, addr: u32, size: AccessSize) -> u64 {
        let mut first = None;
        for (m, dt) in self.machines.iter_mut().zip(&mut self.dts) {
            let (value, window) = m.load_access(addr, size);
            *dt = window;
            if *first.get_or_insert(value) != value {
                std::panic::panic_any(Diverged);
            }
        }
        self.settle_all();
        first.unwrap_or(0)
    }

    fn store(&mut self, addr: u32, size: AccessSize, value: u64) {
        for (m, dt) in self.machines.iter_mut().zip(&mut self.dts) {
            *dt = m.store_access(addr, size, value);
        }
        self.settle_all();
    }

    fn compute(&mut self, cycles: u64) {
        for m in &mut self.machines {
            m.enter();
        }
        let mut remaining = cycles;
        while remaining > 0 {
            let chunk = remaining.min(COMPUTE_CHUNK_CYCLES);
            remaining -= chunk;
            for (m, dt) in self.machines.iter_mut().zip(&mut self.dts) {
                *dt = m.compute_access(chunk);
            }
            self.settle_all();
        }
    }
}
