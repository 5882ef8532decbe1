//! Lockstep groups: one kernel run driving several machines.
//!
//! [`Lockstep`] is a fan-out [`Bus`]: every op (and every compute
//! chunk) runs each machine's access half first and each machine's
//! settle half after, so the machines' capacitor chains — a serial run
//! of divides and square roots per window — sit next to each other in
//! program order and the core overlaps them. Each machine still sees
//! exactly the calls a solo run makes, in the same order, so its
//! `Report` is bit-identical to [`Simulator::run`](crate::Simulator).
//!
//! **One NVM per group.** Every member but a verifying one runs on the
//! group's NVM instead of its own. That is exact because every design
//! is crash-consistent: whenever a design reads NVM bytes, its own NVM
//! holds their architectural values, because every store to them has
//! reached its NVM since — and every write to NVM, by any member,
//! writes values that are architectural when it lands. So the shared
//! bytes a member reads are the bytes its own NVM would hold. A
//! verifying member keeps its own NVM, because the crash-consistency
//! checker drains that NVM's write tracker.

use crate::machine::{nvm_bytes, Machine};
use crate::params::COMPUTE_CHUNK_CYCLES;
use crate::SimConfig;
use ehsim_mem::{AccessSize, Bus, FunctionalMem, Ps};

/// Unwind payload raised when a machine loads a value that differs
/// from machine 0's: the kernel only sees machine 0's values, so the
/// group is abandoned and its members rerun solo. Raised with
/// [`std::panic::resume_unwind`], so it never reaches the panic hook.
pub(crate) struct Diverged;

/// The fan-out bus over a group of machines.
pub(crate) struct Lockstep {
    pub(crate) machines: Vec<Machine>,
    /// Each machine's open window, between its access and settle
    /// halves.
    dts: Vec<Ps>,
    /// The group's NVM, sized for the member with the largest NVM.
    nvm: FunctionalMem,
}

impl Lockstep {
    pub(crate) fn new(cfgs: &[SimConfig], mem_bytes: u32) -> Self {
        let size = cfgs
            .iter()
            .map(|c| nvm_bytes(c, mem_bytes))
            .max()
            .unwrap_or(0);
        Self {
            machines: cfgs.iter().map(|c| Machine::member(c, mem_bytes)).collect(),
            dts: vec![0; cfgs.len()],
            nvm: FunctionalMem::new(size),
        }
    }

    /// Every machine's settle half, in group order.
    #[inline(always)]
    fn settle_all(&mut self) {
        for (m, &dt) in self.machines.iter_mut().zip(&self.dts) {
            let nvm = m.shares_nvm().then_some(&mut self.nvm);
            m.settle_window(nvm, dt);
        }
    }
}

impl Bus for Lockstep {
    fn load(&mut self, addr: u32, size: AccessSize) -> u64 {
        let mut first = None;
        for (m, dt) in self.machines.iter_mut().zip(&mut self.dts) {
            let nvm = m.shares_nvm().then_some(&mut self.nvm);
            let (value, window) = m.load_access(nvm, addr, size);
            *dt = window;
            if *first.get_or_insert(value) != value {
                std::panic::resume_unwind(Box::new(Diverged));
            }
        }
        self.settle_all();
        first.unwrap_or(0)
    }

    fn store(&mut self, addr: u32, size: AccessSize, value: u64) {
        for (m, dt) in self.machines.iter_mut().zip(&mut self.dts) {
            let nvm = m.shares_nvm().then_some(&mut self.nvm);
            *dt = m.store_access(nvm, addr, size, value);
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
                let nvm = m.shares_nvm().then_some(&mut self.nvm);
                *dt = m.compute_access(nvm, chunk);
            }
            self.settle_all();
        }
    }
}
