//! The multi-object wire format: batched, object-tagged storage messages.
//!
//! Every envelope on the network is a [`KvBatch`] — all the per-object
//! [`StorageMsg`]s one node produced for one destination in one step. With
//! `B` operations in flight at a client, one tick's worth of protocol
//! traffic to a server coalesces into a single batch instead of `B`
//! separate envelopes, which is where the messages-per-operation savings
//! of the KV layer come from.

use crate::object::ObjectId;
use core::fmt;
use rqs_sim::{Context, NodeId};
use rqs_storage::StorageMsg;

/// Which client-side automaton a message belongs to.
///
/// A single KV client multiplexes a [`Writer`](rqs_storage::Writer) (for
/// objects it owns) and a [`Reader`](rqs_storage::Reader) per object over
/// one node id. In the single-object system those are distinct processes
/// with distinct addresses; the lane tag preserves that addressing so a
/// server's `wr_ack` reaches the automaton whose `wr` it answers (a read's
/// write-back and the owner's write may otherwise be indistinguishable).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Lane {
    /// The owning client's writer automaton.
    Writer,
    /// A reader automaton.
    Reader,
}

impl fmt::Display for Lane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lane::Writer => write!(f, "w"),
            Lane::Reader => write!(f, "r"),
        }
    }
}

/// One object-tagged protocol message inside a batch.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct KvItem {
    /// The object (register) this message is about.
    pub object: ObjectId,
    /// The client-side lane the exchange belongs to (echoed by servers).
    pub lane: Lane,
    /// The underlying single-object protocol message.
    pub msg: StorageMsg,
}

/// A batch of object-tagged messages: the network message type of the KV
/// service. One batch per destination per sender step.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct KvBatch(pub Vec<KvItem>);

impl KvBatch {
    /// Number of protocol messages inside the batch.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` iff the batch carries nothing.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Display for KvBatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "batch[{}]{{", self.0.len())?;
        for (i, item) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}/{}:{}", item.object, item.lane, item.msg)?;
        }
        write!(f, "}}")
    }
}

/// Per-destination envelope re-batching, shared by [`KvClient`] and
/// [`KvServer`]: inner protocol messages are tagged and buffered per
/// destination, then everything bound for one node leaves as a single
/// [`KvBatch`] — the coalescing that makes `B` concurrent operations cost
/// far fewer than `B×` envelopes.
///
/// The accumulator is built to live across steps: a flush empties the
/// per-destination buffers but keeps their slots, sorted by destination,
/// so a long-lived accumulator cycling over a fixed destination set (a
/// client talking to its universe, a server answering its clients) finds
/// a destination by a search of a few slots and flushes in `NodeId`
/// order.
///
/// [`KvClient`]: crate::KvClient
/// [`KvServer`]: crate::KvServer
#[derive(Clone, Debug, Default)]
pub struct BatchAccumulator {
    pending: Vec<(NodeId, Vec<KvItem>)>,
}

impl BatchAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        BatchAccumulator::default()
    }

    /// Buffers one object-tagged message bound for `to`.
    pub fn push(&mut self, to: NodeId, object: ObjectId, lane: Lane, msg: StorageMsg) {
        let at = match self.pending.binary_search_by_key(&to, |(dest, _)| *dest) {
            Ok(at) => at,
            Err(at) => {
                self.pending.insert(at, (to, Vec::new()));
                at
            }
        };
        self.pending[at].1.push(KvItem { object, lane, msg });
    }

    /// Buffers every message of an inner automaton's outbox under one
    /// `(object, lane)` tag.
    pub fn absorb(
        &mut self,
        object: ObjectId,
        lane: Lane,
        outbox: impl IntoIterator<Item = (NodeId, StorageMsg)>,
    ) {
        for (to, msg) in outbox {
            self.push(to, object, lane, msg);
        }
    }

    /// `true` iff nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.pending.iter().all(|(_, items)| items.is_empty())
    }

    /// Sends every buffered item as one batch per destination, in
    /// `NodeId` order, emptying the buffers but keeping their slots.
    pub fn flush(&mut self, ctx: &mut Context<KvBatch>) {
        for (to, items) in &mut self.pending {
            if !items.is_empty() {
                ctx.send(*to, KvBatch(std::mem::take(items)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqs_sim::Time;

    fn test_ctx() -> Context<KvBatch> {
        Context::new(NodeId(0), Time::ZERO, 0)
    }

    #[test]
    fn accumulator_coalesces_per_destination() {
        let mut acc = BatchAccumulator::new();
        assert!(acc.is_empty());
        acc.push(
            NodeId(1),
            ObjectId(0),
            Lane::Writer,
            StorageMsg::WrAck { ts: 1, rnd: 1 },
        );
        acc.push(
            NodeId(2),
            ObjectId(0),
            Lane::Writer,
            StorageMsg::WrAck { ts: 1, rnd: 1 },
        );
        acc.absorb(
            ObjectId(3),
            Lane::Reader,
            vec![(NodeId(1), StorageMsg::WrAck { ts: 2, rnd: 1 })],
        );
        assert!(!acc.is_empty());
        let mut ctx = test_ctx();
        acc.flush(&mut ctx);
        assert!(acc.is_empty());
        // Two destinations → two envelopes; node 1 carries both its items.
        assert_eq!(ctx.sent().len(), 2);
        let (to, batch) = &ctx.sent()[0];
        assert_eq!(*to, NodeId(1));
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.0[1].object, ObjectId(3));
        assert_eq!(batch.0[1].lane, Lane::Reader);
    }

    #[test]
    fn drain_retains_destination_nodes_for_reuse() {
        let mut acc = BatchAccumulator::new();
        acc.push(
            NodeId(4),
            ObjectId(1),
            Lane::Writer,
            StorageMsg::WrAck { ts: 1, rnd: 1 },
        );
        let mut first = test_ctx();
        acc.flush(&mut first);
        assert_eq!(first.sent().len(), 1);
        assert!(acc.is_empty(), "flushed accumulator reads as empty");
        // Refill the same destination: the retained node is reused and a
        // second flush sends only the new item.
        acc.push(
            NodeId(4),
            ObjectId(2),
            Lane::Reader,
            StorageMsg::WrAck { ts: 2, rnd: 1 },
        );
        let mut second = test_ctx();
        acc.flush(&mut second);
        assert_eq!(second.sent().len(), 1);
        let (to, batch) = &second.sent()[0];
        assert_eq!(*to, NodeId(4));
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.0[0].object, ObjectId(2));
        let mut third = test_ctx();
        acc.flush(&mut third);
        assert!(third.sent().is_empty(), "empty nodes are skipped");
    }

    #[test]
    fn flush_order_is_destination_order_whatever_the_push_order() {
        let mut acc = BatchAccumulator::new();
        for to in [5, 1, 3, 1, 0] {
            acc.push(
                NodeId(to),
                ObjectId(to as u64),
                Lane::Reader,
                StorageMsg::Rd { read_no: 1, rnd: 1 },
            );
        }
        let mut ctx = test_ctx();
        acc.flush(&mut ctx);
        let sent: Vec<(usize, usize)> = ctx.sent().iter().map(|(to, b)| (to.0, b.len())).collect();
        assert_eq!(sent, [(0, 1), (1, 2), (3, 1), (5, 1)]);
    }

    #[test]
    fn flush_of_empty_accumulator_sends_nothing() {
        let mut acc = BatchAccumulator::new();
        let mut ctx = test_ctx();
        acc.flush(&mut ctx);
        assert!(ctx.sent().is_empty());
    }

    #[test]
    fn batch_display_is_compact() {
        let b = KvBatch(vec![KvItem {
            object: ObjectId(2),
            lane: Lane::Writer,
            msg: StorageMsg::WrAck { ts: 1, rnd: 1 },
        }]);
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
        assert_eq!(b.to_string(), "batch[1]{o2/w:wr_ack⟨1,1⟩}");
    }

    #[test]
    fn empty_batch() {
        let b = KvBatch::default();
        assert!(b.is_empty());
        assert_eq!(b.to_string(), "batch[0]{}");
    }
}
