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
//!
//! **One tag array per residency class.** Members that run their own
//! access half and share a [`ResidencyClass`](crate::ResidencyClass) —
//! write-back designs of one geometry and replacement policy on the
//! group's NVM — hold the same lines in the same slots until their
//! first outage, whatever their design (DESIGN §2.16). So the first of
//! them in op order *leads* and runs the residency step — lookup and
//! touch, or victim, dirty-victim write-back and fill — on its own
//! array; every later one *follows*: it runs its own design code over
//! the lead's tags, stamps and line bytes and the lead's outcome for
//! the op, keeping only its own dirty bits, timing, energy, stats, NVM
//! port and DirtyQueue or region state, and it moves no bytes. Each op
//! runs the followers after every machine that runs its own residency
//! step. A follower's load returns the lead's value, so the divergence
//! check backs the leads and the members outside every class. A
//! follower *leaves* its class — adopts the lead's residency, keeping
//! its dirty bits, after writing to the group's NVM the lines its
//! skipped cleanings would have left there — before its first outage
//! and at the end of the run, and a copy of it made by
//! [`Machine::fork`] adopts it too. A lead about to fail first hands
//! the class to its first follower, which adopts and leads the rest.
//! An access-class heir joins its class as it takes over.

use crate::design_box::Via;
use crate::machine::{nvm_bytes, Machine};
use crate::params::COMPUTE_CHUNK_CYCLES;
use crate::SimConfig;
use ehsim_cache::designs::Own;
use ehsim_mem::{AccessSize, Bus, FunctionalMem, Ps};

/// Unwind payload raised when a machine loads a value that differs
/// from the first machine's: the kernel only sees that value, so the
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

/// A machine's place in its residency class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// In no class: its configuration has none, or it had an outage.
    Alone,
    /// Runs the class's residency step on its own array.
    Lead,
    /// Follows the residency of the machine at this index in
    /// [`Lockstep::machines`], which leads its class and comes earlier.
    Follow(usize),
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
    /// Each machine's place in its residency class.
    roles: Vec<Role>,
    /// Each configuration's residency class, named by the index of its
    /// first configuration.
    classes: Vec<Option<usize>>,
    /// Each residency-class follower and its lead, in op order: every
    /// op runs them after the other machines.
    following: Vec<(usize, usize)>,
    followers: Vec<Follower>,
    /// Members that followed a residency-class lead so far.
    residency_followers: usize,
    /// Whether any member simulates power failures: a group without
    /// has no settle half.
    powered: bool,
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
        let classes = cfgs
            .iter()
            .map(|cfg| {
                let class = cfg.residency_class();
                class.is_some().then(|| {
                    cfgs.iter()
                        .position(|c| c.residency_class() == class)
                        .unwrap_or_default()
                })
            })
            .collect();
        let mut group = Self {
            machines: Vec::with_capacity(cfgs.len()),
            slots: Vec::with_capacity(cfgs.len()),
            dts: Vec::with_capacity(cfgs.len()),
            roles: Vec::with_capacity(cfgs.len()),
            classes,
            following: Vec::new(),
            followers: Vec::new(),
            residency_followers: 0,
            powered: false,
            nvm: FunctionalMem::new(size),
        };
        for (slot, cfg) in cfgs.iter().enumerate() {
            let machine = Machine::member(cfg, mem_bytes);
            group.powered |= machine.failures_enabled();
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
                    let role = group.join(slot);
                    group.lead_from_now(machine, slot, role);
                }
            }
        }
        group
    }

    /// Members that follow another's access half at the start.
    pub(crate) fn followers(&self) -> usize {
        self.followers.len()
    }

    /// Members that followed a residency-class lead, for the whole run
    /// or until they left their class.
    pub(crate) fn residency_followers(&self) -> usize {
        self.residency_followers
    }

    /// The members' machines in configuration order, after every
    /// residency-class follower left has adopted its lead's residency
    /// and every follower left has taken its leader's access state.
    pub(crate) fn into_machines(self) -> Vec<Machine> {
        let Self {
            mut machines,
            mut slots,
            roles,
            followers,
            mut nvm,
            ..
        } = self;
        for (j, role) in roles.into_iter().enumerate() {
            if let Role::Follow(i) = role {
                let (head, tail) = machines.split_at_mut(j);
                tail[0].adopt(&head[i], &mut nvm);
            }
        }
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

    /// The role of a new machine for configuration `slot`: a follower
    /// of its residency class's lead, or the lead of a class that has
    /// none.
    fn join(&mut self, slot: usize) -> Role {
        let Some(class) = self.classes[slot] else {
            return Role::Alone;
        };
        let lead = (0..self.machines.len())
            .find(|&i| self.roles[i] == Role::Lead && self.classes[self.slots[i]] == Some(class));
        match lead {
            Some(i) => {
                self.residency_followers += 1;
                Role::Follow(i)
            }
            None => Role::Lead,
        }
    }

    /// Takes machine `j` out of its residency class, before its first
    /// outage. A follower adopts its lead's residency; a lead hands the
    /// class to its first follower, which adopts its residency and leads
    /// the others.
    fn leave(&mut self, j: usize) {
        match self.roles[j] {
            Role::Alone => {}
            Role::Follow(i) => {
                let (head, tail) = self.machines.split_at_mut(j);
                tail[0].adopt(&head[i], &mut self.nvm);
            }
            Role::Lead => {
                if let Some(k) = self.roles.iter().position(|&r| r == Role::Follow(j)) {
                    let (head, tail) = self.machines.split_at_mut(k);
                    tail[0].adopt(&head[j], &mut self.nvm);
                    self.roles[k] = Role::Lead;
                    for role in &mut self.roles[k + 1..] {
                        if *role == Role::Follow(j) {
                            *role = Role::Follow(k);
                        }
                    }
                }
            }
        }
        self.roles[j] = Role::Alone;
        self.regroup();
    }

    /// Rebuilds `following` from the roles.
    fn regroup(&mut self) {
        self.following.clear();
        for (j, &role) in self.roles.iter().enumerate() {
            if let Role::Follow(i) = role {
                self.following.push((j, i));
            }
        }
    }

    /// Makes `machine` a copy of machine `j`'s access state
    /// ([`Machine::fork`]), with the residency of `j`'s class lead if
    /// `j` follows one.
    fn fork_from(&mut self, machine: &mut Machine, j: usize) {
        machine.fork(&self.machines[j]);
        if let Role::Follow(i) = self.roles[j] {
            machine.adopt(&self.machines[i], &mut self.nvm);
        }
    }

    /// Every machine's access half of one op, `step`: first those that
    /// run their own residency step, then the residency-class followers
    /// over their leads' residency. `done` takes each machine's open
    /// window and the step's outcome.
    #[inline(always)]
    fn access_all<S: Step>(&mut self, step: S, mut done: impl FnMut(&mut Ps, S::Out)) {
        let machines = self.machines.iter_mut().zip(&mut self.dts);
        for ((m, dt), role) in machines.zip(&self.roles) {
            if let Role::Follow(_) = role {
                continue;
            }
            let nvm = m.shares_nvm().then_some(&mut self.nvm);
            done(dt, step.run(m, nvm, Own));
        }
        for &(j, i) in &self.following {
            let (head, tail) = self.machines.split_at_mut(j);
            let m = &mut tail[0];
            let nvm = m.shares_nvm().then_some(&mut self.nvm);
            done(&mut self.dts[j], step.run(m, nvm, head[i].residency()));
        }
    }

    /// Every member's settle half: the followers', then those of the
    /// machines that were leading when the op began, two at a time
    /// ([`Machine::settle_pair`]). A group without power failures has
    /// none.
    ///
    /// A pair's outages, forks and hand-offs run after both members
    /// settled, in member order. That is exact because no member's
    /// settle inputs are touched by another's outage: its window, meter
    /// total, trace cursor and capacitor are its own or, for a
    /// follower, its leader's pre-outage ones, and an outage, fork or
    /// residency hand-off changes no `Vbackup` but the failing member's.
    #[inline(always)]
    fn settle_all(&mut self) {
        if self.powered {
            self.settle_powered();
        }
    }

    /// [`Lockstep::settle_all`] for a group with power failures, out of
    /// line, so that the ops of a failure-free group stay small.
    #[inline(never)]
    fn settle_powered(&mut self) {
        let leading = self.machines.len();
        if !self.followers.is_empty() {
            self.settle_followers();
        }
        for j in (0..leading).step_by(2) {
            let failed = if j + 1 < leading {
                let [a, b] = pair(&mut self.machines, j);
                let total = [a.meter().total(), b.meter().total()];
                Machine::settle_pair([a, b], [self.dts[j], self.dts[j + 1]], total)
            } else {
                let m = &mut self.machines[j];
                let total = m.meter().total();
                [m.settle_window(self.dts[j], total), false]
            };
            for (k, failed) in failed.into_iter().enumerate() {
                if failed {
                    self.fail(j + k);
                }
            }
        }
    }

    /// The followers' settle halves, two at a time, over their leaders'
    /// windows and meter totals. A follower whose voltage sank below
    /// `Vbackup` forks from its leader, runs its outage and leads itself
    /// from then on.
    #[inline(never)]
    fn settle_followers(&mut self) {
        let mut i = 0;
        while i < self.followers.len() {
            let (n, failed) = if i + 1 < self.followers.len() {
                let [a, b] = pair(&mut self.followers, i);
                a.machine.enter();
                b.machine.enter();
                let (la, lb) = (&self.machines[a.lead], &self.machines[b.lead]);
                let total = [la.meter().total(), lb.meter().total()];
                let dt = [self.dts[a.lead], self.dts[b.lead]];
                (
                    2,
                    Machine::settle_pair([&mut a.machine, &mut b.machine], dt, total),
                )
            } else {
                let f = &mut self.followers[i];
                f.machine.enter();
                let total = self.machines[f.lead].meter().total();
                (1, [f.machine.settle_window(self.dts[f.lead], total), false])
            };
            for &failed in &failed[..n] {
                if failed {
                    self.fork_follower(i);
                } else {
                    i += 1;
                }
            }
        }
    }

    /// Follower `i`, which sank below `Vbackup`: it forks from its
    /// leader, runs its outage and leads itself from then on.
    #[cold]
    #[inline(never)]
    fn fork_follower(&mut self, i: usize) {
        let mut f = self.followers.remove(i);
        self.fork_from(&mut f.machine, f.lead);
        f.machine.power_failures(Some(&mut self.nvm));
        self.lead_from_now(f.machine, f.slot, Role::Alone);
    }

    /// Machine `j`'s outage. It leaves its residency class first. If it
    /// leads followers, the first of them then takes over its access
    /// state, joins its residency class and leads the others.
    #[cold]
    #[inline(never)]
    fn fail(&mut self, j: usize) {
        self.leave(j);
        if let Some(i) = self.followers.iter().position(|f| f.lead == j) {
            let mut heir = self.followers.remove(i);
            heir.machine.fork(&self.machines[j]);
            let k = self.machines.len();
            for f in &mut self.followers {
                if f.lead == j {
                    f.lead = k;
                }
            }
            let role = self.join(heir.slot);
            self.lead_from_now(heir.machine, heir.slot, role);
        }
        let m = &mut self.machines[j];
        let nvm = m.shares_nvm().then_some(&mut self.nvm);
        m.power_failures(nvm);
    }

    /// Adds a machine to the ones that run their own access half. A
    /// forked one has settled in this op already; `settle_all` stops at
    /// the machines that were leading when it began.
    fn lead_from_now(&mut self, machine: Machine, slot: usize, role: Role) {
        self.machines.push(machine);
        self.slots.push(slot);
        self.dts.push(0);
        self.roles.push(role);
        self.regroup();
    }
}

/// Items `i` and `i + 1` of `items`.
#[inline(always)]
fn pair<T>(items: &mut [T], i: usize) -> [&mut T; 2] {
    let (head, tail) = items.split_at_mut(i + 1);
    [&mut head[i], &mut tail[0]]
}

/// One op's access half on one machine, over either residency.
trait Step: Copy {
    type Out;
    fn run(self, m: &mut Machine, nvm: Option<&mut FunctionalMem>, via: impl Via) -> Self::Out;
}

#[derive(Clone, Copy)]
struct Load(u32, AccessSize);

impl Step for Load {
    type Out = (u64, Ps);
    #[inline(always)]
    fn run(self, m: &mut Machine, nvm: Option<&mut FunctionalMem>, via: impl Via) -> (u64, Ps) {
        m.load_access(nvm, via, self.0, self.1)
    }
}

#[derive(Clone, Copy)]
struct Store(u32, AccessSize, u64);

impl Step for Store {
    type Out = Ps;
    #[inline(always)]
    fn run(self, m: &mut Machine, nvm: Option<&mut FunctionalMem>, via: impl Via) -> Ps {
        m.store_access(nvm, via, self.0, self.1, self.2)
    }
}

#[derive(Clone, Copy)]
struct Compute(u64);

impl Step for Compute {
    type Out = Ps;
    #[inline(always)]
    fn run(self, m: &mut Machine, nvm: Option<&mut FunctionalMem>, via: impl Via) -> Ps {
        m.compute_access(nvm, via, self.0)
    }
}

impl Bus for Lockstep {
    fn load(&mut self, addr: u32, size: AccessSize) -> u64 {
        let mut first = None;
        self.access_all(Load(addr, size), |dt, (value, window)| {
            *dt = window;
            if *first.get_or_insert(value) != value {
                std::panic::resume_unwind(Box::new(Diverged));
            }
        });
        self.settle_all();
        first.unwrap_or(0)
    }

    fn store(&mut self, addr: u32, size: AccessSize, value: u64) {
        self.access_all(Store(addr, size, value), |dt, window| *dt = window);
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
            self.access_all(Compute(chunk), |dt, window| *dt = window);
            self.settle_all();
        }
    }
}
