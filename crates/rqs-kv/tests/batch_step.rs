//! Differential property tests for the batch step: an automaton that
//! takes its queued envelopes as one step ([`Automaton::on_messages`])
//! must end where one envelope per step ([`Automaton::on_message`]) ends,
//! having said the same things to the same nodes — only in fewer
//! envelopes and, for a durable server, behind fewer sync points.

use proptest::prelude::*;
use rqs_core::threshold::ThresholdConfig;
use rqs_kv::{KvBatch, KvClient, KvItem, KvOp, KvServer, Lane, ObjectId};
use rqs_runtime::Runtime;
use rqs_sim::{Automaton, Context, NodeId, ScenarioNet, Substrate, SubstrateConfig, Time, World};
use rqs_storage::{wal, OpKind, StorageMsg, Value};
use rqs_store::StoreHandle;
use std::any::Any;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

const OBJECTS: u64 = 3;

/// How the envelope sequence is cut into steps: sizes taken in turn.
fn split<T>(mut seq: Vec<T>, sizes: &[usize]) -> Vec<Vec<T>> {
    let mut groups = Vec::new();
    let mut sizes = sizes.iter().cycle();
    while !seq.is_empty() {
        let n = (*sizes.next().expect("sizes is not empty")).min(seq.len());
        let rest = seq.split_off(n);
        groups.push(std::mem::replace(&mut seq, rest));
    }
    groups
}

/// Runs one step of `node` over `group` at tick `now`: through
/// `on_message` when `single`, else through `on_messages`. Returns what
/// the step sent: at most one envelope to any node.
fn step<A: Automaton<KvBatch>>(
    node: &mut A,
    me: NodeId,
    now: u64,
    counter: &mut u64,
    mut group: Vec<(NodeId, KvBatch)>,
    single: bool,
) -> Vec<(NodeId, KvBatch)> {
    let mut ctx = Context::new(me, Time(now), *counter);
    if single {
        assert_eq!(group.len(), 1);
        let (from, envelope) = group.pop().expect("one envelope");
        node.on_message(from, envelope, &mut ctx);
    } else {
        node.on_messages(group.drain(..), &mut ctx);
    }
    *counter = ctx.timer_counter_snapshot();
    let sent: Vec<_> = ctx.drain_sent().collect();
    let destinations: BTreeSet<NodeId> = sent.iter().map(|(to, _)| *to).collect();
    assert_eq!(
        destinations.len(),
        sent.len(),
        "a step sends one envelope per destination"
    );
    sent
}

/// Every `(destination, item)` in `sent`, sorted: the multiset of things
/// said, whatever envelopes carried them.
fn items_said(sent: &[(NodeId, KvBatch)]) -> Vec<(NodeId, String)> {
    let mut items: Vec<_> = sent
        .iter()
        .flat_map(|(to, batch)| batch.0.iter().map(move |item| (*to, format!("{item:?}"))))
        .collect();
    items.sort();
    items
}

/// One envelope decoded from a random word: a sender out of three, one
/// to four items over [`OBJECTS`] objects, three writes to each read,
/// timestamps and rounds from domains small enough that stale and
/// repeated writes are common. SWMR: a timestamp fixes its value.
fn envelope(mut word: u64) -> (NodeId, KvBatch) {
    let mut take = |n: u64| {
        let v = word % n;
        word /= n;
        v
    };
    let from = NodeId(10 + take(3) as usize);
    let items = (0..1 + take(4))
        .map(|_| {
            let object = take(OBJECTS);
            let (write, ts, rnd) = (take(4) > 0, 1 + take(4), 1 + take(3) as usize);
            let (lane, msg) = if write {
                let val = Value::from(object * 100 + ts);
                let sets = BTreeSet::new();
                (Lane::Writer, StorageMsg::Wr { ts, val, sets, rnd })
            } else {
                (Lane::Reader, StorageMsg::Rd { read_no: ts, rnd })
            };
            KvItem {
                object: ObjectId(object),
                lane,
                msg,
            }
        })
        .collect();
    (from, KvBatch(items))
}

/// What a server run leaves behind.
struct ServerRun {
    server: KvServer,
    store: StoreHandle,
    sent: Vec<(NodeId, KvBatch)>,
    /// Records appended, per step.
    appended: Vec<usize>,
}

fn run_server(groups: Vec<Vec<(NodeId, KvBatch)>>, single: bool) -> ServerRun {
    let store = StoreHandle::mem();
    let mut server = KvServer::with_store(store.clone());
    let (mut sent, mut appended, mut counter) = (Vec::new(), Vec::new(), 0);
    for (now, group) in groups.into_iter().enumerate() {
        let before = store.stats().appends;
        let out = step(
            &mut server,
            NodeId(0),
            now as u64,
            &mut counter,
            group,
            single,
        );
        sent.extend(out);
        appended.push(store.stats().appends - before);
    }
    ServerRun {
        server,
        store,
        sent,
        appended,
    }
}

/// A closed loop with one envelope per step: a client's `ops` against
/// five correct servers. Returns the client, the ack envelopes in the
/// order it took them, and everything it sent.
#[allow(clippy::type_complexity)]
fn single_step_run(
    ops: &[KvOp],
    depth: usize,
) -> (KvClient, Vec<(NodeId, KvBatch)>, Vec<(NodeId, KvBatch)>) {
    let mut client = new_client(depth);
    let mut servers: Vec<KvServer> = (0..5).map(|_| KvServer::new()).collect();
    let mut ctx = Context::new(CLIENT, Time::ZERO, 0);
    client.start_ops(ops.to_vec(), &mut ctx);
    let (mut counter, mut unused) = (ctx.timer_counter_snapshot(), 0);
    let mut to_servers: Vec<_> = ctx.drain_sent().collect();
    let (mut acks, mut sent) = (Vec::new(), Vec::new());
    while !to_servers.is_empty() {
        sent.extend(to_servers.iter().cloned());
        let mut round = Vec::new();
        for (to, request) in to_servers.drain(..) {
            let envelope = vec![(CLIENT, request)];
            let out = step(&mut servers[to.0], to, 0, &mut unused, envelope, true);
            round.extend(out.into_iter().map(|(_, ack)| (to, ack)));
        }
        for ack in round {
            acks.push(ack.clone());
            let now = acks.len() as u64;
            to_servers.extend(step(
                &mut client,
                CLIENT,
                now,
                &mut counter,
                vec![ack],
                true,
            ));
        }
    }
    (client, acks, sent)
}

const CLIENT: NodeId = NodeId(5);

fn new_client(depth: usize) -> KvClient {
    let rqs = Arc::new(ThresholdConfig::crash_fast(5, 1).build().unwrap());
    let mut client = KvClient::new(
        rqs,
        (0..5).map(NodeId).collect(),
        (0..OBJECTS).map(ObjectId),
    );
    client.set_pipeline(depth);
    client
}

/// Up to `depth` ops per `(object, lane)`, decoded from random words.
fn client_ops(words: &[u64], depth: usize) -> Vec<KvOp> {
    let mut per_lane = std::collections::BTreeMap::new();
    let mut ops = Vec::new();
    for (i, word) in words.iter().enumerate() {
        let object = ObjectId(word % OBJECTS);
        let op = if (word / OBJECTS) % 3 < 2 {
            let value = Value::from(1000 + i as u64);
            KvOp::Write { object, value }
        } else {
            KvOp::Read { object }
        };
        let queued = per_lane.entry((object, op.kind())).or_insert(0);
        if *queued < depth {
            *queued += 1;
            ops.push(op);
        }
    }
    ops
}

fn outcomes(client: &KvClient) -> Vec<(u64, ObjectId, OpKind, String, usize)> {
    let mut outs: Vec<_> = client
        .outcomes()
        .iter()
        .map(|o| (o.seq, o.object, o.kind, format!("{:?}", o.pair), o.rounds))
        .collect();
    outs.sort();
    outs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random envelopes from three senders (writes, stale and repeated
    /// writes, reads, verbatim duplicates) through two durable servers:
    /// one envelope per step against random groupings into batch steps.
    #[test]
    fn server_batch_steps_match_single_steps(
        words in prop::collection::vec(0u64..u64::MAX, 1..24),
        repeats in prop::collection::vec(0usize..4, 24),
        sizes in prop::collection::vec(1usize..=4, 8),
    ) {
        let mut envelopes: Vec<(NodeId, KvBatch)> = Vec::new();
        for (word, repeat) in words.iter().zip(&repeats) {
            match envelopes.last() {
                Some(last) if *repeat == 0 => envelopes.push(last.clone()),
                _ => envelopes.push(envelope(*word)),
            }
        }
        let singles = split(envelopes.clone(), &[1]);
        let groups = split(envelopes, &sizes);
        let shape: Vec<usize> = groups.iter().map(Vec::len).collect();
        let single = run_server(singles, true);
        let batched = run_server(groups, false);

        for o in 0..OBJECTS {
            prop_assert_eq!(
                single.server.history(ObjectId(o)),
                batched.server.history(ObjectId(o))
            );
        }
        prop_assert_eq!(items_said(&single.sent), items_said(&batched.sent));
        prop_assert!(batched.sent.len() <= single.sent.len());
        prop_assert_eq!(
            wal::deltas(&single.store.load()).collect::<Vec<_>>(),
            wal::deltas(&batched.store.load()).collect::<Vec<_>>()
        );
        // A batch step appends one record iff one of its envelopes would
        // have appended alone: never more syncs than single steps, and as
        // many only when no group holds two writing envelopes.
        let mut alone = single.appended.iter();
        for (n, appended) in shape.iter().zip(&batched.appended) {
            let writing: usize = alone.by_ref().take(*n).sum();
            prop_assert_eq!(*appended, writing.min(1));
        }
        let (s, b) = (single.store.stats(), batched.store.stats());
        prop_assert_eq!((s.syncs, b.syncs), (s.appends, b.appends));
        prop_assert!(b.syncs <= s.syncs);
    }

    /// The acks a pipelined client's ops draw from five correct servers,
    /// fed to a second client in random groupings: same ops completed
    /// with the same pairs in the same number of rounds, same items sent
    /// to the same servers, in no more envelopes.
    #[test]
    fn client_batch_steps_match_single_steps(
        words in prop::collection::vec(0u64..u64::MAX, 1..16),
        depth in 1usize..=4,
        sizes in prop::collection::vec(1usize..=5, 8),
    ) {
        let ops = client_ops(&words, depth);
        let (single, acks, single_sent) = single_step_run(&ops, depth);
        prop_assert_eq!(single.in_flight(), 0);
        prop_assert_eq!(single.outcomes().len(), ops.len());

        let mut batched = new_client(depth);
        let mut ctx = Context::new(CLIENT, Time::ZERO, 0);
        batched.start_ops(ops, &mut ctx);
        let mut counter = ctx.timer_counter_snapshot();
        let mut batched_sent: Vec<_> = ctx.drain_sent().collect();
        let mut now = 1;
        for group in split(acks, &sizes) {
            let taken = group.len() as u64;
            batched_sent.extend(step(&mut batched, CLIENT, now, &mut counter, group, false));
            now += taken;
        }
        prop_assert_eq!(batched.in_flight(), 0);
        prop_assert_eq!(outcomes(&batched), outcomes(&single));
        prop_assert_eq!(items_said(&batched_sent), items_said(&single_sent));
        prop_assert!(batched_sent.len() <= single_sent.len());
    }
}

/// A client stand-in: keeps `(tick, items)` of every envelope it gets.
#[derive(Default)]
struct Sink(Vec<(u64, usize)>);

impl Automaton<KvBatch> for Sink {
    fn on_message(&mut self, _from: NodeId, batch: KvBatch, ctx: &mut Context<KvBatch>) {
        self.0.push((ctx.now().ticks(), batch.len()));
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// An envelope writing timestamp `ts` to `object`.
fn write(object: u64, ts: u64) -> KvBatch {
    KvBatch(vec![KvItem {
        object: ObjectId(object),
        lane: Lane::Writer,
        msg: StorageMsg::Wr {
            ts,
            val: Value::from(ts),
            sets: BTreeSet::new(),
            rnd: 1,
        },
    }])
}

#[test]
fn sim_same_tick_envelopes_share_one_append_unless_something_comes_between() {
    let store = StoreHandle::mem();
    let mut w: World<KvBatch> = World::new(ScenarioNet::benign());
    let s = w.add_node(Box::new(KvServer::with_store(store.clone())));
    let c1 = w.add_node(Box::new(Sink::default()));
    let c2 = w.add_node(Box::new(Sink::default()));

    // Three envelopes from two clients arrive in a row at tick 1: one
    // step, one record, and the acks leave at that tick — one envelope
    // per client, there at tick 2.
    w.post(c1, s, write(0, 1));
    w.post(c2, s, write(1, 1));
    w.post(c1, s, write(2, 1));
    w.run_to_quiescence();
    assert_eq!(store.stats().appends, 1);
    assert_eq!(w.node_as::<Sink>(c1).0, [(2, 2)]);
    assert_eq!(w.node_as::<Sink>(c2).0, [(2, 1)]);

    // A delivery to another node between two of them splits the run…
    w.post(c1, s, write(0, 2));
    w.post(c1, c2, KvBatch::default());
    w.post(c2, s, write(1, 2));
    w.run_to_quiescence();
    assert_eq!(store.stats().appends, 3);

    // …and so does a timer.
    w.post(c1, s, write(0, 3));
    w.invoke::<Sink>(c1, |_sink, ctx| {
        ctx.set_timer(1);
    });
    w.post(c2, s, write(1, 3));
    w.run_to_quiescence();
    assert_eq!(store.stats().appends, 5);
}

#[test]
fn threaded_envelopes_queued_behind_a_busy_server_share_one_sync() {
    let store = StoreHandle::mem();
    let nodes: Vec<Box<dyn Automaton<KvBatch> + Send>> = vec![
        Box::new(KvServer::with_store(store.clone())),
        Box::new(Sink::default()),
        Box::new(Sink::default()),
    ];
    let mut rt: Runtime<KvBatch> =
        Substrate::build(SubstrateConfig::new(nodes).tick(Duration::from_millis(1)));
    // Keep the server busy (as a slow sync would) until eight envelopes
    // from two senders are queued behind it.
    let (release, busy) = std::sync::mpsc::channel::<()>();
    rt.invoke_on::<KvServer>(NodeId(0), move |_server, _ctx| {
        let _ = busy.recv();
    });
    for ts in 1..=4 {
        rt.post(NodeId(1), NodeId(0), write(1, ts));
        rt.post(NodeId(2), NodeId(0), write(2, ts));
    }
    drop(release);
    for sender in [NodeId(1), NodeId(2)] {
        let acked = rt.wait_for::<Sink>(
            sender,
            |sink| sink.0.iter().map(|(_, items)| items).sum::<usize>() == 4,
            Duration::from_secs(5),
        );
        assert!(acked, "{sender} must see all four of its writes acked");
        let envelopes = rt.inspect_on::<Sink, usize>(sender, |sink| sink.0.len());
        assert_eq!(envelopes, 1, "one step, one ack envelope per sender");
    }
    let stats = store.stats();
    assert_eq!((stats.appends, stats.syncs), (1, 1));
    assert_eq!(wal::deltas(&store.load()).count(), 8);
    rt.shutdown();
}
