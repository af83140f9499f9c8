//! The multi-object server automaton and its Byzantine variants.
//!
//! A [`KvServer`] is a bank of per-object benign [`Server`] automata
//! behind one node id. A step takes every [`KvBatch`] envelope queued
//! for the node when it began: each is unpacked, every item is routed to
//! the state of its object (created on first touch), and all replies
//! produced by the step are re-batched per destination — so a batch of
//! `B` writes costs one request envelope and one reply envelope instead
//! of `2B`, and two envelopes from one client are answered by one. A
//! durable server journals the same way: the step's effective writes,
//! whichever envelopes and clients they came from, go into one
//! [`DeltaGroup`], appended to the store as a single record (one sync
//! point) before any of the step's replies leave.

use crate::messages::{BatchAccumulator, KvBatch, KvItem};
use crate::object::ObjectId;
use rqs_sim::{Automaton, Context, NodeId};
use rqs_storage::history::History;
use rqs_storage::{wal, DeltaGroup, Server, StorageMsg};
use rqs_store::StoreHandle;
use std::any::Any;
use std::collections::BTreeMap;

/// The per-object server for `obj`, created on first touch and tagged by
/// object id.
fn object_server(objects: &mut BTreeMap<ObjectId, Server>, obj: ObjectId) -> &mut Server {
    objects
        .entry(obj)
        .or_insert_with(|| Server::with_tag(obj.0))
}

/// A benign multi-object storage server.
///
/// With a [`StoreHandle`] attached, every step logs its objects'
/// write-ahead deltas (tagged by object id) to the *shared* store as one
/// record, and `save_state`/`restore_state` snapshot and rebuild the
/// whole bank at once — a single durable store per node, like a single
/// disk.
#[derive(Clone, Debug, Default)]
pub struct KvServer {
    objects: BTreeMap<ObjectId, Server>,
    store: Option<StoreHandle>,
    /// Reply accumulator reused across steps (empty between steps; its
    /// retained map nodes are a cache, not state).
    replies: BatchAccumulator,
    /// Write-ahead group, reused across steps (likewise empty between
    /// steps).
    group: DeltaGroup,
}

impl KvServer {
    /// A fresh volatile server with no object state.
    pub fn new() -> Self {
        KvServer::default()
    }

    /// A durable server journaling every object to one shared `store`.
    pub fn with_store(store: StoreHandle) -> Self {
        KvServer {
            store: Some(store),
            ..KvServer::default()
        }
    }

    /// Number of objects this server has state for.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// The history stored for `obj` (empty if never touched).
    pub fn history(&self, obj: ObjectId) -> History {
        self.objects
            .get(&obj)
            .map(|s| s.history().clone())
            .unwrap_or_default()
    }

    /// One step over the queued `envelopes`: every item of every envelope
    /// goes to its object's server, the step's effective writes are
    /// appended to the store as one record, and only then (write-ahead)
    /// do the replies leave — one batch per destination. A record torn by
    /// a crash takes the whole step's writes with it, and none of them
    /// was acknowledged.
    fn step(
        &mut self,
        envelopes: impl Iterator<Item = (NodeId, KvBatch)>,
        ctx: &mut Context<KvBatch>,
    ) {
        let durable = self.store.is_some();
        for (from, batch) in envelopes {
            for item in batch.0 {
                let server = object_server(&mut self.objects, item.object);
                if let Some(reply) = server.handle(item.msg, durable.then_some(&mut self.group)) {
                    self.replies.push(from, item.object, item.lane, reply);
                }
            }
        }
        if let Some(store) = &self.store {
            self.group.commit(store);
        }
        self.replies.flush(ctx);
    }
}

impl Automaton<KvBatch> for KvServer {
    fn state_digest(&self) -> u64 {
        let mut acc = rqs_sim::fnv1a(b"kv-server");
        for (obj, server) in &self.objects {
            acc = rqs_sim::fnv1a_fold(acc, obj.0);
            acc = rqs_sim::fnv1a_fold(acc, server.state_digest());
        }
        acc
    }

    /// The step over one envelope.
    fn on_message(&mut self, from: NodeId, batch: KvBatch, ctx: &mut Context<KvBatch>) {
        self.step(std::iter::once((from, batch)), ctx);
    }

    fn on_messages(
        &mut self,
        batch: std::vec::Drain<'_, (NodeId, KvBatch)>,
        ctx: &mut Context<KvBatch>,
    ) {
        self.step(batch, ctx);
    }

    fn save_state(&mut self) {
        // One snapshot covering every object: the inner servers'
        // `save_state` is never used, because each would install a
        // single-object snapshot into the shared store, clobbering the
        // others.
        let Some(store) = &self.store else { return };
        let blob = wal::encode_histories(self.objects.iter().map(|(obj, s)| (obj.0, s.history())));
        store.install_snapshot(&blob);
    }

    fn restore_state(&mut self) -> usize {
        self.objects.clear();
        let Some(store) = &self.store else { return 0 };
        // Crash the store once, load it once, and demultiplex the shared
        // log in a single pass — rescanning it per object would make
        // recovery O(objects × log), long enough under thousands of
        // objects to stall the node past its clients' op timeouts.
        store.crash();
        let rec = store.load();
        let (histories, replayed) = wal::restore_histories(&rec);
        for (obj, h) in histories {
            object_server(&mut self.objects, ObjectId(obj)).install_history(h);
        }
        replayed
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Byzantine behaviour of a [`KvByzantineServer`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ByzantineMode {
    /// Never replies (crash-faulty from the clients' viewpoint).
    Mute,
    /// Acknowledges every write without storing it and reports the empty
    /// history to every read — the multi-object analogue of
    /// [`ForgedServer::initial_state`](rqs_storage::byzantine::ForgedServer).
    Forge,
}

/// A Byzantine multi-object server (for fault injection on both
/// substrates; unlike the scripted single-object forgers it is `Send`).
#[derive(Clone, Debug)]
pub struct KvByzantineServer {
    mode: ByzantineMode,
}

impl KvByzantineServer {
    /// A server behaving per `mode` on every object.
    pub fn new(mode: ByzantineMode) -> Self {
        KvByzantineServer { mode }
    }
}

impl Automaton<KvBatch> for KvByzantineServer {
    fn on_message(&mut self, from: NodeId, batch: KvBatch, ctx: &mut Context<KvBatch>) {
        if self.mode == ByzantineMode::Mute {
            return;
        }
        let mut items = Vec::new();
        for item in batch.0 {
            match item.msg {
                StorageMsg::Wr { ts, rnd, .. } => {
                    // Ack without storing: the write is forgotten.
                    items.push(KvItem {
                        object: item.object,
                        lane: item.lane,
                        msg: StorageMsg::WrAck { ts, rnd },
                    });
                }
                StorageMsg::Rd { read_no, rnd } => {
                    // Forge the initial (empty) history for every object.
                    items.push(KvItem {
                        object: item.object,
                        lane: item.lane,
                        msg: StorageMsg::RdAck {
                            read_no,
                            rnd,
                            history: History::new(),
                        },
                    });
                }
                StorageMsg::WrAck { .. } | StorageMsg::RdAck { .. } => {}
            }
        }
        if !items.is_empty() {
            ctx.send(from, KvBatch(items));
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::Lane;
    use rqs_sim::Time;
    use rqs_storage::{TsVal, Value};
    use rqs_store::{Durable, MemDurable, Recovered, StoreConfig, StoreStats};
    use std::collections::BTreeSet;
    use std::sync::{Arc, Mutex};

    fn test_ctx() -> Context<KvBatch> {
        Context::new(NodeId(0), Time::ZERO, 0)
    }

    fn wr(object: u64, lane: Lane, ts: u64, v: u64) -> KvItem {
        KvItem {
            object: ObjectId(object),
            lane,
            msg: StorageMsg::Wr {
                ts,
                val: Value::from(v),
                sets: BTreeSet::new(),
                rnd: 1,
            },
        }
    }

    #[test]
    fn batch_of_writes_acked_in_one_envelope() {
        let mut s = KvServer::new();
        let mut c = test_ctx();
        let batch = KvBatch(vec![
            wr(0, Lane::Writer, 1, 10),
            wr(1, Lane::Writer, 1, 11),
            wr(2, Lane::Writer, 1, 12),
        ]);
        s.on_message(NodeId(9), batch, &mut c);
        assert_eq!(s.object_count(), 3);
        assert_eq!(c.sent().len(), 1, "replies coalesce per destination");
        let (to, reply) = &c.sent()[0];
        assert_eq!(*to, NodeId(9));
        assert_eq!(reply.len(), 3);
        assert!(s
            .history(ObjectId(1))
            .stores(&TsVal::new(1, Value::from(11u64)), 1));
        assert!(s.history(ObjectId(7)).is_empty());
    }

    #[test]
    fn per_object_state_is_isolated() {
        let mut s = KvServer::new();
        let mut c = test_ctx();
        s.on_message(NodeId(3), KvBatch(vec![wr(4, Lane::Writer, 5, 50)]), &mut c);
        assert!(s
            .history(ObjectId(4))
            .stores(&TsVal::new(5, Value::from(50u64)), 1));
        assert!(s.history(ObjectId(5)).is_empty());
    }

    #[test]
    fn lane_is_echoed_in_replies() {
        let mut s = KvServer::new();
        let mut c = test_ctx();
        s.on_message(NodeId(2), KvBatch(vec![wr(0, Lane::Reader, 1, 1)]), &mut c);
        assert_eq!(c.sent()[0].1 .0[0].lane, Lane::Reader);
    }

    #[test]
    fn amnesia_restore_rebuilds_every_object_from_one_store() {
        let store = StoreHandle::mem();
        let mut s = KvServer::with_store(store.clone());
        let mut c = test_ctx();
        s.on_message(
            NodeId(9),
            KvBatch(vec![wr(0, Lane::Writer, 1, 10), wr(7, Lane::Writer, 2, 70)]),
            &mut c,
        );
        s.save_state(); // snapshot both objects
        let mut c2 = test_ctx();
        s.on_message(
            NodeId(9),
            KvBatch(vec![wr(3, Lane::Writer, 1, 30)]),
            &mut c2,
        );
        let before: Vec<_> = [0u64, 3, 7]
            .iter()
            .map(|&o| s.history(ObjectId(o)))
            .collect();

        // Amnesia: fresh automaton over the same store.
        let mut recovered = KvServer::with_store(store.clone());
        let replayed = recovered.restore_state();
        assert_eq!(replayed, 1, "only object 3's delta postdates the snapshot");
        assert_eq!(recovered.object_count(), 3);
        for (i, &o) in [0u64, 3, 7].iter().enumerate() {
            assert_eq!(recovered.history(ObjectId(o)), before[i], "object {o}");
        }
        assert_eq!(store.stats().crashes, 1, "shared store crashed once");
    }

    /// A store over a medium the test keeps hold of, whose process dies
    /// inside its `appends_left + 1`-th append: the record is left torn
    /// on the medium and the call never returns.
    struct DiesInAppend {
        medium: Arc<Mutex<MemDurable>>,
        appends_left: usize,
    }

    impl Durable for DiesInAppend {
        fn append(&mut self, record: &[u8]) {
            let mut medium = self.medium.lock().unwrap();
            medium.append(record);
            if self.appends_left == 0 {
                medium.crash();
                drop(medium);
                panic!("process died inside append");
            }
            self.appends_left -= 1;
        }
        fn sync(&mut self) {
            self.medium.lock().unwrap().sync();
        }
        fn install_snapshot(&mut self, snapshot: &[u8]) {
            self.medium.lock().unwrap().install_snapshot(snapshot);
        }
        fn crash(&mut self) {
            self.medium.lock().unwrap().crash();
        }
        fn load(&mut self) -> Recovered {
            self.medium.lock().unwrap().load()
        }
        fn stats(&self) -> StoreStats {
            self.medium.lock().unwrap().stats()
        }
    }

    /// A medium that keeps torn tails, as the way to open one process's
    /// store over it: a store that dies in its `appends_left + 1`-th
    /// append.
    fn torn_medium() -> impl Fn(usize) -> StoreHandle {
        let medium = Arc::new(Mutex::new(MemDurable::with_config(StoreConfig::lazy(0))));
        move |appends_left| {
            StoreHandle::new(Box::new(DiesInAppend {
                medium: medium.clone(),
                appends_left,
            }))
        }
    }

    #[test]
    fn torn_group_is_discarded_whole_and_none_of_it_was_acked() {
        let open = torn_medium();
        let store = open(1);
        let mut s = KvServer::with_store(store.clone());
        let mut c = test_ctx();
        s.on_message(
            NodeId(9),
            KvBatch(vec![wr(0, Lane::Writer, 1, 10), wr(1, Lane::Writer, 1, 11)]),
            &mut c,
        );
        store.sync(); // the lazy store's one sync point
        assert_eq!(c.sent()[0].1.len(), 2);

        // The process dies while appending the second envelope's group.
        let mut c2 = test_ctx();
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.on_message(
                NodeId(9),
                KvBatch(vec![
                    wr(0, Lane::Writer, 2, 20),
                    wr(1, Lane::Writer, 2, 21),
                    wr(2, Lane::Writer, 1, 22),
                ]),
                &mut c2,
            )
        }));
        assert!(died.is_err());
        assert!(
            c2.sent().is_empty(),
            "no ack may precede the group's append"
        );

        // A new process over the same medium: the torn record is rejected
        // as a unit — no prefix of its deltas is replayed.
        let store = open(usize::MAX);
        let mut recovered = KvServer::with_store(store.clone());
        assert_eq!(recovered.restore_state(), 2, "the synced group's deltas");
        assert_eq!(store.stats().torn_discarded, 1);
        assert_eq!(store.stats().lost_unsynced, 1, "one record, three deltas");
        for (o, v) in [(0u64, 10u64), (1, 11)] {
            let h = recovered.history(ObjectId(o));
            assert!(h.stores(&TsVal::new(1, Value::from(v)), 1));
            assert_eq!(h.len(), 1, "object {o} must not see the torn group");
        }
        assert!(recovered.history(ObjectId(2)).is_empty());
    }

    #[test]
    fn torn_cross_envelope_group_acks_neither_client_and_recovers_neither_write() {
        let open = torn_medium();
        let mut s = KvServer::with_store(open(0));
        // One step over two envelopes from two clients: their writes
        // share the group, and the process dies appending it.
        let mut queued = vec![
            (NodeId(8), KvBatch(vec![wr(0, Lane::Writer, 1, 10)])),
            (NodeId(9), KvBatch(vec![wr(1, Lane::Writer, 1, 11)])),
        ];
        let mut c = test_ctx();
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.on_messages(queued.drain(..), &mut c)
        }));
        assert!(died.is_err());
        assert!(
            c.sent().is_empty(),
            "no ack to either client may precede the step's one append"
        );

        let store = open(usize::MAX);
        let mut recovered = KvServer::with_store(store.clone());
        assert_eq!(recovered.restore_state(), 0);
        assert_eq!(store.stats().torn_discarded, 1, "one record for both");
        for o in [0, 1] {
            assert!(recovered.history(ObjectId(o)).is_empty(), "object {o}");
        }
    }

    #[test]
    fn step_without_an_effective_write_appends_nothing_and_still_replies() {
        let store = StoreHandle::mem();
        let mut s = KvServer::with_store(store.clone());
        s.on_message(
            NodeId(8),
            KvBatch(vec![wr(0, Lane::Writer, 1, 10)]),
            &mut test_ctx(),
        );
        assert_eq!(store.stats().appends, 1);
        // A read from one client and the same write again from another.
        let rd = KvItem {
            object: ObjectId(0),
            lane: Lane::Reader,
            msg: StorageMsg::Rd { read_no: 1, rnd: 1 },
        };
        let mut queued = vec![
            (NodeId(9), KvBatch(vec![rd])),
            (NodeId(8), KvBatch(vec![wr(0, Lane::Writer, 1, 10)])),
        ];
        let mut c = test_ctx();
        s.on_messages(queued.drain(..), &mut c);
        assert_eq!(store.stats().appends, 1, "nothing new to log");
        let replied: Vec<NodeId> = c.sent().iter().map(|(to, _)| *to).collect();
        assert_eq!(replied, [NodeId(8), NodeId(9)]);
    }

    #[test]
    fn mute_byzantine_says_nothing() {
        let mut s = KvByzantineServer::new(ByzantineMode::Mute);
        let mut c = test_ctx();
        s.on_message(NodeId(1), KvBatch(vec![wr(0, Lane::Writer, 1, 1)]), &mut c);
        assert!(c.sent().is_empty());
    }

    #[test]
    fn forging_byzantine_acks_without_storing() {
        let mut s = KvByzantineServer::new(ByzantineMode::Forge);
        let mut c = test_ctx();
        let batch = KvBatch(vec![
            wr(0, Lane::Writer, 1, 1),
            KvItem {
                object: ObjectId(0),
                lane: Lane::Reader,
                msg: StorageMsg::Rd { read_no: 1, rnd: 1 },
            },
        ]);
        s.on_message(NodeId(1), batch, &mut c);
        let reply = &c.sent()[0].1;
        assert_eq!(reply.len(), 2);
        match &reply.0[1].msg {
            StorageMsg::RdAck { history, .. } => assert!(history.is_empty()),
            other => panic!("expected RdAck, got {other:?}"),
        }
    }
}
