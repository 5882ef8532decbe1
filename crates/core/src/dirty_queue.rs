//! The DirtyQueue: a small hardware queue of dirty-line addresses.

use ehsim_mem::Ps;
use std::collections::VecDeque;

/// DirtyQueue replacement policy (§5.2): which dirty line to clean when
/// the waterline is exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DqPolicy {
    /// Clean the oldest entry (paper default; no search hardware).
    #[default]
    Fifo,
    /// Clean the least-recently-used dirty line (requires searching the
    /// queue against the cache's LRU stamps — costs extra energy).
    Lru,
}

impl DqPolicy {
    /// Label used in figures ("DQ-FIFO" / "DQ-LRU").
    pub fn label(self) -> &'static str {
        match self {
            DqPolicy::Fifo => "DQ-FIFO",
            DqPolicy::Lru => "DQ-LRU",
        }
    }
}

/// Lifecycle state of a DirtyQueue entry (§5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DqState {
    /// The tracked line is dirty in the cache.
    Dirty,
    /// An asynchronous write-back is in flight; the entry is removed
    /// when the ACK arrives (step 4 of the replacement protocol).
    Cleaning {
        /// Absolute time at which the ACK arrives.
        ack_at: Ps,
    },
}

/// One DirtyQueue slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DqEntry {
    /// Line base address of the tracked dirty line.
    pub base: u32,
    /// Protocol state.
    pub state: DqState,
}

/// The DirtyQueue: a circular queue of dirty-line addresses, decoupled
/// from the cache's data path (§3.3).
///
/// The queue is deliberately *not* searchable: redundant entries for the
/// same line (possible when a store lands while that line is being
/// cleaned, §5.3) and stale entries for lines that were evicted (§5.4)
/// are allowed to sit in the queue and are lazily discarded when
/// selected. Entries are removed only by the ACK of their write-back
/// (see [`DirtyQueue::pop_acked`]) or by a JIT checkpoint.
#[derive(Debug, Clone)]
pub struct DirtyQueue {
    entries: VecDeque<DqEntry>,
    capacity: usize,
    /// Earliest ACK time among `Cleaning` entries (`None` when no
    /// write-back is in flight). Lets [`DirtyQueue::pop_acked`] — which
    /// the cache calls on every access — return without scanning the
    /// queue when no ACK can have arrived yet.
    min_ack: Option<Ps>,
}

impl DirtyQueue {
    /// Creates an empty queue with `capacity` physical slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "DirtyQueue capacity must be positive");
        Self {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            min_ack: None,
        }
    }

    /// Physical capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy (both `Dirty` and `Cleaning` entries): the
    /// quantity compared against `maxline` for stall decisions, and the
    /// number of lines a JIT checkpoint may need to flush.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of entries still in the `Dirty` state: the quantity
    /// compared against `waterline` for cleaning decisions.
    pub fn dirty_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.state == DqState::Dirty)
            .count()
    }

    /// Appends a new dirty-line entry at the tail (§5.1 insertion
    /// protocol). The caller enforces the `maxline` bound.
    ///
    /// # Panics
    ///
    /// Panics if the queue is physically full — the insertion protocol
    /// must never let that happen.
    pub fn push(&mut self, base: u32) {
        assert!(
            self.entries.len() < self.capacity,
            "DirtyQueue overflow: maxline enforcement failed"
        );
        self.entries.push_back(DqEntry {
            base,
            state: DqState::Dirty,
        });
    }

    /// Whether some in-flight write-back has ACKed by `now`, i.e.
    /// whether [`DirtyQueue::pop_acked`] would remove anything. The
    /// cache asks on every access, so this is the cheap, inlined half of
    /// the poll.
    #[inline(always)]
    pub fn ack_due(&self, now: Ps) -> bool {
        self.min_ack.is_some_and(|m| m <= now)
    }

    /// Removes every `Cleaning` entry whose ACK time has passed,
    /// returning how many slots were freed (step 4 of §5.3).
    pub fn pop_acked(&mut self, now: Ps) -> usize {
        self.drain_acked(now, |_, _| {})
    }

    /// [`DirtyQueue::pop_acked`] with a visitor: `f(base, ack_at)` is
    /// called for each removed entry, letting the observability layer
    /// report ACKs at their actual completion time without a second
    /// scan. Removal behaviour is identical to `pop_acked`.
    pub fn drain_acked(&mut self, now: Ps, mut f: impl FnMut(u32, Ps)) -> usize {
        // No outstanding ACK can have arrived yet: the scan below would
        // remove nothing, so skip it (this is the common case — the
        // cache polls on every access).
        if !self.ack_due(now) {
            return 0;
        }
        let before = self.entries.len();
        self.entries.retain(|e| {
            if let DqState::Cleaning { ack_at } = e.state {
                if ack_at <= now {
                    f(e.base, ack_at);
                    return false;
                }
            }
            true
        });
        self.min_ack = self.scan_next_ack();
        before - self.entries.len()
    }

    /// Earliest outstanding ACK time among `Cleaning` entries, if any —
    /// what a stalled store waits for.
    pub fn next_ack(&self) -> Option<Ps> {
        debug_assert_eq!(self.min_ack, self.scan_next_ack());
        self.min_ack
    }

    /// Recomputes the earliest outstanding ACK by scanning the queue.
    fn scan_next_ack(&self) -> Option<Ps> {
        self.entries
            .iter()
            .filter_map(|e| match e.state {
                DqState::Cleaning { ack_at } => Some(ack_at),
                DqState::Dirty => None,
            })
            .min()
    }

    /// Selects a `Dirty` entry to clean according to `policy`.
    ///
    /// `stamp_of` maps a line base address to the cache's recency stamp
    /// for that line, or `None` if the line is no longer dirty in the
    /// cache (stale entry: evicted, already cleaned via a redundant
    /// entry, or re-tagged). **Stale entries encountered during
    /// selection are dropped** — the lazy cleanup of §5.4 — and the
    /// number dropped is returned alongside the selection.
    ///
    /// FIFO picks the oldest dirty entry; LRU searches for the entry
    /// whose line has the smallest stamp.
    pub fn select_for_cleaning(
        &mut self,
        policy: DqPolicy,
        mut stamp_of: impl FnMut(u32) -> Option<u64>,
    ) -> (Option<u32>, usize) {
        let mut dropped = 0;
        loop {
            let candidate = match policy {
                DqPolicy::Fifo => self.entries.iter().position(|e| e.state == DqState::Dirty),
                DqPolicy::Lru => {
                    let mut best: Option<(u64, usize)> = None;
                    let mut pending_drop: Option<usize> = None;
                    for (i, e) in self.entries.iter().enumerate() {
                        if e.state != DqState::Dirty {
                            continue;
                        }
                        match stamp_of(e.base) {
                            Some(stamp) => {
                                if best.is_none_or(|(s, _)| stamp < s) {
                                    best = Some((stamp, i));
                                }
                            }
                            None => {
                                pending_drop = Some(i);
                                break;
                            }
                        }
                    }
                    if let Some(i) = pending_drop {
                        self.entries.remove(i);
                        dropped += 1;
                        continue;
                    }
                    best.map(|(_, i)| i)
                }
            };
            let Some(ix) = candidate else {
                return (None, dropped);
            };
            let base = self.entries[ix].base;
            if stamp_of(base).is_none() {
                // Stale: line no longer dirty in the cache. Drop lazily.
                self.entries.remove(ix);
                dropped += 1;
                continue;
            }
            return (Some(base), dropped);
        }
    }

    /// Transitions the oldest `Dirty` entry for `base` into the
    /// `Cleaning` state with the given ACK time (steps 1–2 of §5.3).
    ///
    /// # Panics
    ///
    /// Panics if no `Dirty` entry for `base` exists.
    #[expect(
        clippy::expect_used,
        reason = "only called with a base that select_for_cleaning returned on the same \
                  queue in the same borrow, so the entry cannot have vanished"
    )]
    pub fn mark_cleaning(&mut self, base: u32, ack_at: Ps) {
        let e = self
            .entries
            .iter_mut()
            .find(|e| e.base == base && e.state == DqState::Dirty)
            .expect("mark_cleaning: no dirty entry for base");
        e.state = DqState::Cleaning { ack_at };
        if self.min_ack.is_none_or(|m| ack_at < m) {
            self.min_ack = Some(ack_at);
        }
    }

    /// Iterates over all entries (used by the JIT checkpoint, which
    /// flushes every tracked line that is still dirty in the cache).
    pub fn iter(&self) -> impl Iterator<Item = &DqEntry> {
        self.entries.iter()
    }

    /// Empties the queue (power-off: the DirtyQueue is volatile — crash
    /// consistency is guaranteed because the checkpoint flushed the
    /// tracked lines first, §3.3).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.min_ack = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_counts() {
        let mut q = DirtyQueue::new(8);
        assert!(q.is_empty());
        q.push(0x100);
        q.push(0x200);
        assert_eq!(q.len(), 2);
        assert_eq!(q.dirty_count(), 2);
        assert_eq!(q.capacity(), 8);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn physical_overflow_panics() {
        let mut q = DirtyQueue::new(1);
        q.push(0x100);
        q.push(0x200);
    }

    #[test]
    fn fifo_selects_oldest_dirty() {
        let mut q = DirtyQueue::new(8);
        q.push(0x100);
        q.push(0x200);
        q.push(0x300);
        let (sel, dropped) = q.select_for_cleaning(DqPolicy::Fifo, |_| Some(0));
        assert_eq!(sel, Some(0x100));
        assert_eq!(dropped, 0);
    }

    #[test]
    fn cleaning_entries_not_reselected_but_occupy_slots() {
        let mut q = DirtyQueue::new(8);
        q.push(0x100);
        q.push(0x200);
        q.mark_cleaning(0x100, 5_000);
        assert_eq!(q.len(), 2, "cleaning entry still occupies its slot");
        assert_eq!(q.dirty_count(), 1);
        let (sel, _) = q.select_for_cleaning(DqPolicy::Fifo, |_| Some(0));
        assert_eq!(sel, Some(0x200));
    }

    #[test]
    fn pop_acked_respects_time() {
        let mut q = DirtyQueue::new(8);
        q.push(0x100);
        q.push(0x200);
        q.mark_cleaning(0x100, 5_000);
        assert_eq!(q.pop_acked(4_999), 0);
        assert_eq!(q.pop_acked(5_000), 1);
        assert_eq!(q.len(), 1);
        assert_eq!(q.next_ack(), None);
    }

    #[test]
    fn drain_acked_visits_removed_entries() {
        let mut q = DirtyQueue::new(8);
        q.push(0x100);
        q.push(0x200);
        q.push(0x300);
        q.mark_cleaning(0x100, 5_000);
        q.mark_cleaning(0x300, 2_000);
        let mut seen = Vec::new();
        let freed = q.drain_acked(6_000, |base, ack_at| seen.push((base, ack_at)));
        assert_eq!(freed, 2);
        assert_eq!(seen, vec![(0x100, 5_000), (0x300, 2_000)]);
        assert_eq!(q.len(), 1);
        // The early-out path must not call the visitor.
        let mut called = false;
        assert_eq!(q.drain_acked(10_000, |_, _| called = true), 0);
        assert!(!called);
    }

    #[test]
    fn next_ack_is_minimum() {
        let mut q = DirtyQueue::new(8);
        q.push(0x100);
        q.push(0x200);
        q.mark_cleaning(0x200, 9_000);
        q.mark_cleaning(0x100, 5_000);
        assert_eq!(q.next_ack(), Some(5_000));
    }

    #[test]
    fn stale_entries_dropped_lazily_on_selection() {
        let mut q = DirtyQueue::new(8);
        q.push(0x100); // will become stale (e.g. evicted)
        q.push(0x200);
        let (sel, dropped) = q.select_for_cleaning(DqPolicy::Fifo, |b| (b == 0x200).then_some(1));
        assert_eq!(sel, Some(0x200));
        assert_eq!(dropped, 1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn lru_selects_smallest_stamp() {
        let mut q = DirtyQueue::new(8);
        q.push(0x100);
        q.push(0x200);
        q.push(0x300);
        let (sel, _) = q.select_for_cleaning(DqPolicy::Lru, |b| match b {
            0x100 => Some(30),
            0x200 => Some(10),
            0x300 => Some(20),
            _ => None,
        });
        assert_eq!(sel, Some(0x200));
    }

    #[test]
    fn redundant_entries_for_same_line_coexist() {
        // §5.3: a store during cleaning re-inserts the same address.
        let mut q = DirtyQueue::new(8);
        q.push(0x100);
        q.mark_cleaning(0x100, 1_000);
        q.push(0x100); // redundant but legal
        assert_eq!(q.len(), 2);
        assert_eq!(q.dirty_count(), 1);
        // ACK removes only the cleaning entry.
        assert_eq!(q.pop_acked(1_000), 1);
        assert_eq!(q.len(), 1);
        assert_eq!(q.dirty_count(), 1);
    }

    #[test]
    fn selection_with_all_stale_returns_none() {
        let mut q = DirtyQueue::new(4);
        q.push(0x100);
        q.push(0x200);
        let (sel, dropped) = q.select_for_cleaning(DqPolicy::Fifo, |_| None);
        assert_eq!(sel, None);
        assert_eq!(dropped, 2);
        assert!(q.is_empty());
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = DirtyQueue::new(4);
        q.push(1);
        q.push(2);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn policy_labels() {
        assert_eq!(DqPolicy::Fifo.label(), "DQ-FIFO");
        assert_eq!(DqPolicy::Lru.label(), "DQ-LRU");
    }
}
