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
//!
//! **One access half per power class.** Members whose configurations
//! share an [`AccessClass`](crate::AccessClass) — they differ only in
//! their power input — do identical access work until their first
//! outage: the access half never reads the capacitor. So the first
//! member of a class *leads* and runs the access half; every other
//! member *follows*: it boots on its own trace and settles its own
//! capacitor over the leader's windows, draining the leader's meter
//! total. A follower *forks* — takes over a copy of the leader's
//! access state ([`Machine::fork`]) and runs its own access half from
//! then on — at its own first `Vbackup` crossing. A leader about to
//! fail first hands its access state to one follower, which leads the
//! rest. Followers settle before leaders within each op, so every copy
//! is of pre-outage state. At the end, the followers left take their
//! leader's access state for their reports.

use crate::machine::{nvm_bytes, Machine};
use crate::params::COMPUTE_CHUNK_CYCLES;
use crate::SimConfig;
use ehsim_mem::{AccessSize, Bus, FunctionalMem, Ps};

/// Unwind payload raised when a machine loads a value that differs
/// from machine 0's: the kernel only sees machine 0's values, so the
/// group is abandoned and its members rerun solo. Raised with
/// [`std::panic::resume_unwind`], so it never reaches the panic hook.
pub(crate) struct Diverged;

/// A member that runs no access half of its own.
struct Follower {
    machine: Machine,
    /// Index into [`Lockstep::machines`] of the member it follows.
    lead: usize,
    /// Its index in the group's configurations.
    slot: usize,
}

/// The fan-out bus over a group of machines.
pub(crate) struct Lockstep {
    /// The members that run their own access half.
    machines: Vec<Machine>,
    /// Each machine's index in the group's configurations.
    slots: Vec<usize>,
    /// Each machine's open window, between its access and settle
    /// halves.
    dts: Vec<Ps>,
    followers: Vec<Follower>,
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
        let mut group = Self {
            machines: Vec::with_capacity(cfgs.len()),
            slots: Vec::with_capacity(cfgs.len()),
            dts: Vec::with_capacity(cfgs.len()),
            followers: Vec::new(),
            nvm: FunctionalMem::new(size),
        };
        for (slot, cfg) in cfgs.iter().enumerate() {
            let machine = Machine::member(cfg, mem_bytes);
            let class = cfg.access_class();
            // The class's first member leads it: the leading machine
            // whose configuration (`slots`) is of the same class.
            let lead = class
                .is_some()
                .then(|| {
                    group
                        .slots
                        .iter()
                        .position(|&s| cfgs[s].access_class() == class)
                })
                .flatten();
            match lead {
                Some(lead) => group.followers.push(Follower {
                    machine,
                    lead,
                    slot,
                }),
                None => {
                    group.machines.push(machine);
                    group.slots.push(slot);
                    group.dts.push(0);
                }
            }
        }
        group
    }

    /// Members that follow another's access half at the start.
    pub(crate) fn followers(&self) -> usize {
        self.followers.len()
    }

    /// The members' machines in configuration order, after every
    /// follower left has taken its leader's access state.
    pub(crate) fn into_machines(self) -> Vec<Machine> {
        let Self {
            mut machines,
            mut slots,
            followers,
            ..
        } = self;
        for mut f in followers {
            f.machine.fork(&machines[f.lead]);
            machines.push(f.machine);
            slots.push(f.slot);
        }
        if slots.is_sorted() {
            return machines;
        }
        let mut ordered: Vec<Option<Machine>> = machines.iter().map(|_| None).collect();
        for (machine, slot) in machines.into_iter().zip(slots) {
            ordered[slot] = Some(machine);
        }
        ordered.into_iter().flatten().collect()
    }

    /// Every member's settle half, in group order. A group without
    /// followers runs the plain loop over its machines.
    #[inline(always)]
    fn settle_all(&mut self) {
        if !self.followers.is_empty() {
            self.settle_with_followers();
            return;
        }
        for (m, &dt) in self.machines.iter_mut().zip(&self.dts) {
            if m.settle_window(dt) {
                let nvm = m.shares_nvm().then_some(&mut self.nvm);
                m.power_failures(nvm);
            }
        }
    }

    /// [`Lockstep::settle_all`] with followers: theirs first, then every
    /// machine's that was leading when the op began.
    #[inline(never)]
    fn settle_with_followers(&mut self) {
        let leading = self.machines.len();
        self.settle_followers();
        for j in 0..leading {
            if self.machines[j].settle_window(self.dts[j]) {
                self.fail(j);
            }
        }
    }

    /// The followers' settle halves. A follower whose voltage sank
    /// below `Vbackup` forks from its leader, runs its outage and
    /// leads itself from then on.
    fn settle_followers(&mut self) {
        let mut i = 0;
        while i < self.followers.len() {
            let f = &mut self.followers[i];
            let lead = f.lead;
            f.machine.enter();
            let meter_total = self.machines[lead].meter().total();
            if f.machine.follow_window(self.dts[lead], meter_total) {
                let mut f = self.followers.remove(i);
                f.machine.fork(&self.machines[lead]);
                f.machine.power_failures(Some(&mut self.nvm));
                self.lead_from_now(f.machine, f.slot);
            } else {
                i += 1;
            }
        }
    }

    /// Machine `j`'s outage. If it leads followers, the first of them
    /// takes over its access state first and leads the others.
    #[cold]
    #[inline(never)]
    fn fail(&mut self, j: usize) {
        if let Some(i) = self.followers.iter().position(|f| f.lead == j) {
            let mut heir = self.followers.remove(i);
            heir.machine.fork(&self.machines[j]);
            let k = self.machines.len();
            for f in &mut self.followers {
                if f.lead == j {
                    f.lead = k;
                }
            }
            self.lead_from_now(heir.machine, heir.slot);
        }
        let m = &mut self.machines[j];
        let nvm = m.shares_nvm().then_some(&mut self.nvm);
        m.power_failures(nvm);
    }

    /// Adds a forked machine to the leading ones. It has settled in
    /// this op already; `settle_with_followers` stops at the machines
    /// that were leading when it began.
    fn lead_from_now(&mut self, machine: Machine, slot: usize) {
        self.machines.push(machine);
        self.slots.push(slot);
        self.dts.push(0);
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
        for f in &mut self.followers {
            f.machine.enter();
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
