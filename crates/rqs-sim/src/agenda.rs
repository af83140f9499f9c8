//! The agenda: everything that happens later than the step that caused
//! it, in one `(at, seq)` order.
//!
//! Both substrates drive the same [`Agenda`]. The simulator's clock is
//! simulated [`Time`](crate::Time) and it pops entries in order; the
//! threaded runtime's clock is `Instant`, and its clock thread moves each
//! entry into the owning node's inbox when it comes due. Entries due at
//! the same instant come out in insertion order, so an execution's order
//! is a function of what was pushed, not of a heap's layout.
//!
//! A cancelled timer is one mark, keyed by its token (tokens are unique
//! on both substrates). Whichever side takes the firing consults it: the
//! simulator when it pops the entry, the runtime's clock when the entry
//! comes due, and the runtime's node when the clock had already sent the
//! firing.

use crate::node::{NodeId, TimerToken};
use crate::scenario::CrashMode;
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashSet};

/// What comes due for a node.
#[derive(Debug)]
pub enum Due<M> {
    /// A message from `from` arrives.
    Deliver {
        /// The sender.
        from: NodeId,
        /// The payload.
        msg: M,
    },
    /// A timer the node armed fires.
    Timer(TimerToken),
    /// The node crashes.
    Crash(CrashMode),
    /// The node restarts.
    Restart,
}

/// One agenda entry: `due` happens to `node` at `at`.
#[derive(Debug)]
pub struct Entry<T, M> {
    /// When it is due.
    pub at: T,
    /// Insertion sequence, the tiebreak between entries due at one
    /// instant.
    pub seq: u64,
    /// The node it happens to.
    pub node: NodeId,
    /// What happens.
    pub due: Due<M>,
}

impl<T: Ord, M> PartialEq for Entry<T, M> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<T: Ord, M> Eq for Entry<T, M> {}
impl<T: Ord, M> PartialOrd for Entry<T, M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T: Ord, M> Ord for Entry<T, M> {
    fn cmp(&self, other: &Self) -> Ordering {
        (&self.at, self.seq).cmp(&(&other.at, other.seq))
    }
}

/// Pending entries in `(at, seq)` order, plus the cancelled-timer marks.
#[derive(Debug)]
pub struct Agenda<T, M> {
    heap: BinaryHeap<Reverse<Entry<T, M>>>,
    next_seq: u64,
    cancelled: HashSet<TimerToken>,
}

impl<T: Ord, M> Default for Agenda<T, M> {
    fn default() -> Self {
        Agenda {
            heap: BinaryHeap::new(),
            next_seq: 0,
            cancelled: HashSet::new(),
        }
    }
}

impl<T: Ord + Copy, M> Agenda<T, M> {
    /// Adds an entry; returns whether it is now the earliest.
    pub fn push(&mut self, at: T, node: NodeId, due: Due<M>) -> bool {
        let earliest = self.next_at().is_none_or(|next| at < next);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry { at, seq, node, due }));
        earliest
    }

    /// When the earliest entry is due.
    pub fn next_at(&self) -> Option<T> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// Removes and returns the earliest entry if `pred` holds for it.
    pub fn pop_if(&mut self, pred: impl FnOnce(&Entry<T, M>) -> bool) -> Option<Entry<T, M>> {
        let Reverse(next) = self.heap.peek()?;
        if pred(next) {
            self.heap.pop().map(|Reverse(e)| e)
        } else {
            None
        }
    }

    /// Marks a timer cancelled.
    pub fn cancel(&mut self, token: TimerToken) {
        self.cancelled.insert(token);
    }

    /// Removes the timer's cancellation mark; returns whether it had one.
    pub fn take_cancelled(&mut self, token: TimerToken) -> bool {
        self.cancelled.remove(&token)
    }

    /// Whether the timer is marked cancelled.
    pub fn is_cancelled(&self, token: TimerToken) -> bool {
        self.cancelled.contains(&token)
    }

    /// Drops every timer entry of `node`, and their marks; its
    /// deliveries, crashes and restarts stay.
    pub fn purge_timers(&mut self, node: NodeId) {
        let cancelled = &mut self.cancelled;
        self.heap.retain(|Reverse(e)| match e.due {
            Due::Timer(token) if e.node == node => {
                cancelled.remove(&token);
                false
            }
            _ => true,
        });
    }

    /// The pending entries, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = &Entry<T, M>> {
        self.heap.iter().map(|Reverse(e)| e)
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Takes every pending entry out, in `(at, seq)` order.
    pub fn drain_ordered(&mut self) -> Vec<Entry<T, M>> {
        let mut entries: Vec<_> = std::mem::take(&mut self.heap)
            .into_iter()
            .map(|Reverse(e)| e)
            .collect();
        entries.sort_unstable();
        entries
    }

    /// Puts drained entries back, keeping their sequence numbers.
    pub fn restore(&mut self, entries: impl IntoIterator<Item = Entry<T, M>>) {
        self.heap.extend(entries.into_iter().map(Reverse));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deliver(msg: u32) -> Due<u32> {
        Due::Deliver {
            from: NodeId(0),
            msg,
        }
    }

    /// Pops everything, as `(at, node)` pairs.
    fn pop_all(agenda: &mut Agenda<u64, u32>) -> Vec<(u64, usize)> {
        std::iter::from_fn(|| agenda.pop_if(|_| true))
            .map(|e| (e.at, e.node.0))
            .collect()
    }

    #[test]
    fn same_instant_entries_pop_in_insertion_order() {
        let mut agenda = Agenda::default();
        let ats = [5, 3, 5, 9, 3, 5, 1, 3, 5, 5, 3, 5, 5, 3, 5, 5, 5, 3];
        for (i, &at) in ats.iter().enumerate() {
            agenda.push(at, NodeId(i), deliver(i as u32));
        }
        let mut expected: Vec<(u64, usize)> = ats.iter().copied().zip(0..).collect();
        expected.sort();
        assert_eq!(pop_all(&mut agenda), expected);

        assert!(agenda.push(5, NodeId(0), deliver(0)), "alone: earliest");
        assert!(!agenda.push(7, NodeId(0), deliver(0)));
        assert!(
            !agenda.push(5, NodeId(0), deliver(0)),
            "a tie is not earlier"
        );
        assert!(agenda.push(4, NodeId(0), deliver(0)));
        assert_eq!(agenda.next_at(), Some(4));
        assert!(agenda.pop_if(|e| e.at < 4).is_none());
        assert_eq!(agenda.len(), 4);
    }

    #[test]
    fn purge_timers_takes_that_nodes_timers_and_nothing_else() {
        let (n, other) = (NodeId(1), NodeId(2));
        let mut agenda = Agenda::default();
        agenda.push(1, n, Due::Timer(TimerToken(10)));
        agenda.push(2, n, deliver(7));
        agenda.push(3, n, Due::Crash(CrashMode::Amnesia));
        agenda.push(4, n, Due::Timer(TimerToken(11)));
        agenda.push(5, n, Due::Restart);
        agenda.push(6, other, Due::Timer(TimerToken(20)));
        agenda.cancel(TimerToken(11));
        agenda.cancel(TimerToken(20));
        agenda.purge_timers(n);
        assert!(!agenda.is_cancelled(TimerToken(11)), "the mark goes too");
        assert!(agenda.is_cancelled(TimerToken(20)));
        let left: Vec<String> = std::iter::from_fn(|| agenda.pop_if(|_| true))
            .map(|e| format!("{} {:?}", e.node, e.due))
            .collect();
        assert_eq!(
            left,
            [
                "n1 Deliver { from: NodeId(0), msg: 7 }",
                "n1 Crash(Amnesia)",
                "n1 Restart",
                "n2 Timer(TimerToken(20))",
            ]
        );
    }

    #[test]
    fn drain_ordered_and_restore_keep_the_pop_order() {
        let build = || {
            let mut agenda = Agenda::default();
            for (i, at) in [1, 2, 2, 2, 2, 2].into_iter().enumerate() {
                agenda.push(at, NodeId(i), deliver(i as u32));
            }
            agenda
        };
        let mut agenda = build();
        let drained = agenda.drain_ordered();
        assert!(agenda.is_empty());
        let order: Vec<(u64, usize)> = drained.iter().map(|e| (e.at, e.node.0)).collect();
        assert_eq!(order, pop_all(&mut build()));

        // Put back all but one, the last moved into the gap, as a
        // scheduled step does.
        let mut pending = drained;
        let picked = pending.swap_remove(1);
        assert_eq!((picked.at, picked.node), (2, NodeId(1)));
        agenda.restore(pending);
        agenda.push(2, NodeId(9), deliver(9));
        assert_eq!(
            pop_all(&mut agenda),
            [(1, 0), (2, 2), (2, 3), (2, 4), (2, 5), (2, 9)]
        );
    }
}
