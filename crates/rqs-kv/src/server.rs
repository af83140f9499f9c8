//! The multi-object server automaton and its Byzantine variants.
//!
//! A [`KvServer`] is a bank of per-object benign [`Server`] automata
//! behind one node id: each incoming [`KvBatch`] is unpacked, every item
//! is routed to the state of its object (created on first touch), and all
//! replies produced by the step are re-batched per destination — so a
//! batch of `B` writes costs one request envelope and one reply envelope
//! instead of `2B`. A durable server journals the same way: the step's
//! effective writes go into one [`DeltaGroup`], appended to the store as
//! a single record (one sync point) before the step's replies leave.
//!
//! On the threaded runtime a server may additionally enable a
//! [worker pool](KvServer::enable_worker_pool): object state is sharded
//! across a fixed set of worker threads (`object.0 % workers`), each
//! worker owning its shard's automata outright — no locks on the hot
//! path — and replying through the runtime's
//! [`NetHandle`](rqs_runtime::NetHandle). Because an object lives on
//! exactly one worker, per-object message order (and per-object WAL
//! append order into the shared store) is preserved; only cross-object
//! reply interleaving changes, which atomicity is indifferent to. Each
//! worker owns its own group and commits it once per batch it is handed,
//! so no worker's delta rides in — or is acked ahead of — another's
//! record.

use crate::messages::{BatchAccumulator, KvBatch, KvItem};
use crate::object::ObjectId;
use crossbeam_channel::{bounded, unbounded, Receiver, Sender};
use rqs_runtime::NetHandle;
use rqs_sim::{Automaton, Context, NodeId};
use rqs_storage::history::History;
use rqs_storage::{wal, DeltaGroup, Server, StorageMsg};
use rqs_store::StoreHandle;
use std::any::Any;
use std::collections::BTreeMap;
use std::thread::JoinHandle;

/// Work shipped to one shard worker of a pooled [`KvServer`].
enum WorkerMsg {
    /// One sender's items for this worker's objects (one step's worth).
    Batch { from: NodeId, items: Vec<KvItem> },
    /// Report every `(object, history)` this worker holds.
    Gather(Sender<Vec<(u64, History)>>),
    /// Replace this worker's object bank with the given histories.
    Install(Vec<(u64, History)>, Sender<()>),
    /// Barrier: ack once everything queued before this is processed.
    Drain(Sender<()>),
}

/// The per-object server for `obj` in a bank (the node's own, or one
/// worker's shard), created on first touch and tagged by object id.
fn object_server(objects: &mut BTreeMap<ObjectId, Server>, obj: ObjectId) -> &mut Server {
    objects
        .entry(obj)
        .or_insert_with(|| Server::with_tag(obj.0))
}

/// One step over a bank: every item goes to its object's server, replies
/// are buffered per destination, and the step's effective writes are
/// appended to `store` as one record. Write-ahead: the caller releases
/// `replies` only after this returns.
fn handle_items(
    objects: &mut BTreeMap<ObjectId, Server>,
    store: Option<&StoreHandle>,
    group: &mut DeltaGroup,
    replies: &mut BatchAccumulator,
    from: NodeId,
    items: Vec<KvItem>,
) {
    for item in items {
        let server = object_server(objects, item.object);
        if let Some(reply) = server.handle(item.msg, store.map(|_| &mut *group)) {
            replies.push(from, item.object, item.lane, reply);
        }
    }
    if let Some(store) = store {
        group.commit(store);
    }
}

fn worker_loop(
    rx: Receiver<WorkerMsg>,
    me: NodeId,
    net: NetHandle<KvBatch>,
    store: Option<StoreHandle>,
) {
    let mut objects: BTreeMap<ObjectId, Server> = BTreeMap::new();
    // One reply accumulator for the worker's lifetime: the destination
    // map nodes survive each drain, so steady state allocates nothing
    // per batch beyond the items themselves.
    let mut replies = BatchAccumulator::new();
    // Likewise one write-ahead group, committed once per batch.
    let mut group = DeltaGroup::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            WorkerMsg::Batch { from, items } => {
                handle_items(
                    &mut objects,
                    store.as_ref(),
                    &mut group,
                    &mut replies,
                    from,
                    items,
                );
                for (to, batch) in replies.drain() {
                    net.send(me, to, batch);
                }
            }
            WorkerMsg::Gather(reply) => {
                let all = objects
                    .iter()
                    .map(|(o, s)| (o.0, s.history().clone()))
                    .collect();
                let _ = reply.send(all);
            }
            WorkerMsg::Install(histories, ack) => {
                objects.clear();
                for (obj, h) in histories {
                    object_server(&mut objects, ObjectId(obj)).install_history(h);
                }
                let _ = ack.send(());
            }
            WorkerMsg::Drain(ack) => {
                let _ = ack.send(());
            }
        }
    }
}

/// The shard workers of a pooled [`KvServer`]: each owns a disjoint
/// slice of the object space (`object.0 % workers`) and replies through
/// the runtime's [`NetHandle`]. Dropping the pool closes every inbox and
/// joins the threads, which releases the pool's network references so
/// the runtime can shut its interposer down.
pub(crate) struct WorkerPool {
    inboxes: Vec<Sender<WorkerMsg>>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    fn spawn(
        workers: usize,
        me: NodeId,
        net: NetHandle<KvBatch>,
        store: Option<StoreHandle>,
    ) -> Self {
        assert!(workers >= 1, "a worker pool needs at least one worker");
        let mut inboxes = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx) = unbounded();
            let net = net.clone();
            let store = store.clone();
            let handle = std::thread::Builder::new()
                .name(format!("kv-worker-{}-{w}", me.0))
                .spawn(move || worker_loop(rx, me, net, store))
                .expect("spawn kv shard worker");
            inboxes.push(tx);
            handles.push(handle);
        }
        WorkerPool { inboxes, handles }
    }

    fn len(&self) -> usize {
        self.inboxes.len()
    }

    fn shard_of(&self, obj: ObjectId) -> usize {
        (obj.0 % self.inboxes.len() as u64) as usize
    }

    /// Routes one step's items to their shard workers (per-worker FIFO
    /// inboxes keep per-object order).
    fn dispatch(&self, from: NodeId, items: Vec<KvItem>) {
        let mut shards: Vec<Vec<KvItem>> = vec![Vec::new(); self.inboxes.len()];
        for item in items {
            shards[self.shard_of(item.object)].push(item);
        }
        for (w, items) in shards.into_iter().enumerate() {
            if !items.is_empty() {
                self.inboxes[w]
                    .send(WorkerMsg::Batch { from, items })
                    .unwrap_or_else(|_| panic!("shard worker alive"));
            }
        }
    }

    /// Collects every worker's `(object, history)` pairs, sorted by
    /// object id (the order the unpooled bank iterates in).
    fn gather(&self) -> Vec<(u64, History)> {
        let replies: Vec<Receiver<Vec<(u64, History)>>> = self
            .inboxes
            .iter()
            .map(|tx| {
                let (rtx, rrx) = bounded(1);
                tx.send(WorkerMsg::Gather(rtx))
                    .unwrap_or_else(|_| panic!("shard worker alive"));
                rrx
            })
            .collect();
        let mut all: Vec<(u64, History)> = replies
            .into_iter()
            .flat_map(|rx| rx.recv().expect("shard worker alive"))
            .collect();
        all.sort_by_key(|(o, _)| *o);
        all
    }

    /// Replaces every worker's shard with its slice of `histories`,
    /// waiting until all workers acknowledge the swap.
    fn install(&self, histories: Vec<(u64, History)>) {
        let mut shards: Vec<Vec<(u64, History)>> = vec![Vec::new(); self.inboxes.len()];
        for (obj, h) in histories {
            shards[(obj % self.inboxes.len() as u64) as usize].push((obj, h));
        }
        let acks: Vec<Receiver<()>> = shards
            .into_iter()
            .enumerate()
            .map(|(w, shard)| {
                let (atx, arx) = bounded(1);
                self.inboxes[w]
                    .send(WorkerMsg::Install(shard, atx))
                    .unwrap_or_else(|_| panic!("shard worker alive"));
                arx
            })
            .collect();
        for a in acks {
            a.recv().expect("shard worker alive");
        }
    }

    /// Blocks until every worker has processed everything queued so far
    /// (per-worker FIFO makes the drain a true barrier).
    fn barrier(&self) {
        let acks: Vec<Receiver<()>> = self
            .inboxes
            .iter()
            .map(|tx| {
                let (atx, arx) = bounded(1);
                tx.send(WorkerMsg::Drain(atx))
                    .unwrap_or_else(|_| panic!("shard worker alive"));
                arx
            })
            .collect();
        for a in acks {
            a.recv().expect("shard worker alive");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the inboxes ends each worker loop; join so the workers'
        // NetHandle clones are gone before the runtime tears its network
        // down.
        self.inboxes.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl core::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "WorkerPool({} workers)", self.inboxes.len())
    }
}

/// A benign multi-object storage server.
///
/// With a [`StoreHandle`] attached, every step logs its objects'
/// write-ahead deltas (tagged by object id) to the *shared* store as one
/// record, and `save_state`/`restore_state` snapshot and rebuild the
/// whole bank at once — a single durable store per node, like a single
/// disk.
///
/// With a [worker pool](Self::enable_worker_pool) enabled (threaded
/// runtime only), the object bank lives on the pool's shard threads
/// instead of `objects`, and `on_message` becomes a cheap routing step.
#[derive(Debug, Default)]
pub struct KvServer {
    objects: BTreeMap<ObjectId, Server>,
    store: Option<StoreHandle>,
    pool: Option<WorkerPool>,
    /// Reply accumulator reused across steps (empty between steps; its
    /// retained map nodes are a cache, not state).
    replies: BatchAccumulator,
    /// Write-ahead group of the unpooled path, reused across steps
    /// (likewise empty between steps).
    group: DeltaGroup,
}

impl Clone for KvServer {
    fn clone(&self) -> Self {
        // A worker pool is a per-instance thread resource; clones start
        // unpooled. (Nothing in the tree clones a live pooled server —
        // the bound exists for constructor-style call sites only.)
        KvServer {
            objects: self.objects.clone(),
            store: self.store.clone(),
            pool: None,
            replies: BatchAccumulator::new(),
            group: DeltaGroup::new(),
        }
    }
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

    /// Shards this server's object state across `workers` dedicated
    /// threads replying through `net` as node `me`. Existing object state
    /// migrates to the shards; incoming batches are thereafter routed by
    /// `object.0 % workers`. Threaded-runtime only (the deterministic
    /// simulator has no [`NetHandle`]s).
    ///
    /// # Panics
    ///
    /// Panics if a pool is already enabled or `workers` is zero.
    pub fn enable_worker_pool(&mut self, workers: usize, me: NodeId, net: NetHandle<KvBatch>) {
        assert!(self.pool.is_none(), "worker pool already enabled");
        let pool = WorkerPool::spawn(workers, me, net, self.store.clone());
        if !self.objects.is_empty() {
            let existing = self
                .objects
                .iter()
                .map(|(o, s)| (o.0, s.history().clone()))
                .collect();
            pool.install(existing);
            self.objects.clear();
        }
        self.pool = Some(pool);
    }

    /// Number of shard workers (0 when unpooled).
    pub fn workers(&self) -> usize {
        self.pool.as_ref().map_or(0, WorkerPool::len)
    }

    /// Number of objects this server has state for.
    pub fn object_count(&self) -> usize {
        match &self.pool {
            Some(pool) => pool.gather().len(),
            None => self.objects.len(),
        }
    }

    /// The history stored for `obj` (empty if never touched).
    pub fn history(&self, obj: ObjectId) -> History {
        if let Some(pool) = &self.pool {
            return pool
                .gather()
                .into_iter()
                .find(|(o, _)| *o == obj.0)
                .map(|(_, h)| h)
                .unwrap_or_default();
        }
        self.objects
            .get(&obj)
            .map(|s| s.history().clone())
            .unwrap_or_default()
    }
}

impl Automaton<KvBatch> for KvServer {
    fn state_digest(&self) -> u64 {
        if self.pool.is_some() {
            // The shards own the object state; fold a marker only. Pools
            // exist only on the threaded substrate, which never compares
            // digests across runs (that is the simulator's determinism
            // check).
            return rqs_sim::fnv1a(b"kv-server-pooled");
        }
        let mut acc = rqs_sim::fnv1a(b"kv-server");
        for (obj, server) in &self.objects {
            acc = rqs_sim::fnv1a_fold(acc, obj.0);
            acc = rqs_sim::fnv1a_fold(acc, server.state_digest());
        }
        acc
    }

    fn on_message(&mut self, from: NodeId, batch: KvBatch, ctx: &mut Context<KvBatch>) {
        // Pooled: route each item to its object's shard worker and
        // return — replies leave through the pool's NetHandle instead of
        // this step's context, so the node thread is back to its inbox
        // in O(batch) routing time.
        if let Some(pool) = &self.pool {
            pool.dispatch(from, batch.0);
            return;
        }
        // Per-destination reply buffer: everything this step produces for
        // one destination leaves as a single batch, after the step's one
        // log record. The buffers are fields so their allocations persist
        // across steps.
        handle_items(
            &mut self.objects,
            self.store.as_ref(),
            &mut self.group,
            &mut self.replies,
            from,
            batch.0,
        );
        self.replies.flush(ctx);
    }

    fn save_state(&mut self) {
        // One snapshot covering every object: the inner servers'
        // `save_state` is never used, because each would install a
        // single-object snapshot into the shared store, clobbering the
        // others.
        let Some(store) = &self.store else { return };
        if let Some(pool) = &self.pool {
            // Barrier first so every WAL append of already-routed batches
            // precedes the snapshot, then gather the shards' banks.
            pool.barrier();
            let gathered = pool.gather();
            let blob = wal::encode_histories(gathered.iter().map(|(obj, h)| (*obj, h)));
            store.install_snapshot(&blob);
            return;
        }
        let blob = wal::encode_histories(self.objects.iter().map(|(obj, s)| (obj.0, s.history())));
        store.install_snapshot(&blob);
    }

    fn restore_state(&mut self) -> usize {
        self.objects.clear();
        let Some(store) = self.store.clone() else {
            if let Some(pool) = &self.pool {
                pool.install(Vec::new());
            }
            return 0;
        };
        // Crash the store once, load it once, and demultiplex the shared
        // log in a single pass — rescanning it per object would make
        // recovery O(objects × log), long enough under thousands of
        // objects to stall the node past its clients' op timeouts.
        if let Some(pool) = &self.pool {
            // Quiesce the shards before crashing the store: a worker
            // appending after the crash point would corrupt the reload.
            // Batches routed after this restore queue behind the Install
            // in each worker's FIFO inbox, so they see recovered state.
            pool.barrier();
            store.crash();
            let rec = store.load();
            let (histories, replayed) = wal::restore_histories(&rec);
            pool.install(histories);
            return replayed;
        }
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

    #[test]
    fn torn_group_is_discarded_whole_and_none_of_it_was_acked() {
        let medium = Arc::new(Mutex::new(MemDurable::with_config(StoreConfig::lazy(0))));
        let open = |appends_left| {
            StoreHandle::new(Box::new(DiesInAppend {
                medium: medium.clone(),
                appends_left,
            }))
        };
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
