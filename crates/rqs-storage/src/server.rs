//! The benign storage server automaton (Fig. 6).

use crate::history::History;
use crate::messages::StorageMsg;
use crate::value::TsVal;
use crate::wal::{self, DeltaGroup};
use rqs_sim::{Automaton, Context, NodeId};
use rqs_store::{Recovered, StoreHandle};
use std::any::Any;

/// A benign storage server.
///
/// Servers are passive: they store writes into their [`History`] and
/// answer reads with the entire history, replying to each client message
/// before processing any other (the round-based restriction of §3.1 —
/// guaranteed here because a step handles exactly one message). The
/// history is a persistent value, so the `rd_ack` takes an O(1) snapshot
/// of it and later writes copy only the chunk they touch.
///
/// With a [`StoreHandle`] attached, every effective write is logged (a
/// [`DeltaGroup`] of one delta per step) *before* the `wr_ack` leaves —
/// so an acknowledged write survives a
/// [`CrashMode::Amnesia`](rqs_sim::CrashMode) restart, which rebuilds the
/// history through [`Automaton::restore_state`]. Without a store (the
/// default) the server is purely volatile.
///
/// The step body is [`Server::handle`], which writes its delta into a
/// group the caller supplies and commits: a multi-object server runs many
/// `Server`s per step against one group and pays one log record for
/// the lot.
#[derive(Clone, Debug, Default)]
pub struct Server {
    history: History,
    store: Option<StoreHandle>,
    /// Object tag on logged deltas (0 for single-register deployments).
    obj: u64,
    /// The write-ahead group of this server's own steps (empty between
    /// steps; kept for its buffer).
    group: DeltaGroup,
    /// Planted bug (checker self-tests): acknowledge writes without
    /// logging them, so amnesia loses acknowledged data. Always `false`
    /// outside the `mutants` feature.
    #[cfg(feature = "mutants")]
    wal_disabled: bool,
}

impl Server {
    /// A fresh volatile server with the empty history.
    pub fn new() -> Self {
        Server::default()
    }

    /// A durable server logging deltas to `store` under object tag 0.
    pub fn with_store(store: StoreHandle) -> Self {
        Server {
            store: Some(store),
            ..Server::default()
        }
    }

    /// One object of a multi-object server: its deltas carry tag `obj`,
    /// and the owner — which drives it through [`Server::handle`] — holds
    /// the store shared by all its objects.
    pub fn with_tag(obj: u64) -> Self {
        Server {
            obj,
            ..Server::default()
        }
    }

    /// Mutant: a server that acks writes without write-ahead logging
    /// them. Amnesia crashes then lose acknowledged writes — the exact
    /// bug the rqs-check amnesia branching must find. For checker
    /// self-tests only.
    #[cfg(feature = "mutants")]
    pub fn new_mutant_no_wal(store: StoreHandle) -> Self {
        Server {
            wal_disabled: true,
            ..Server::with_store(store)
        }
    }

    /// Read access to the stored history (for harness assertions).
    pub fn history(&self) -> &History {
        &self.history
    }

    /// The attached store, if any.
    pub fn store(&self) -> Option<&StoreHandle> {
        self.store.as_ref()
    }

    /// Rebuilds this server's history from recovered store contents
    /// (snapshot + deltas under this server's object tag). Returns the
    /// number of deltas replayed. Public so a multi-object server can
    /// load its shared store once and rebuild every object from it.
    pub fn restore_from(&mut self, rec: &Recovered) -> usize {
        let (history, replayed) = wal::restore_history(rec, self.obj);
        self.history = history;
        replayed
    }

    /// Replaces the in-memory history with one rebuilt elsewhere: a
    /// multi-object server demultiplexes its shared store in a single
    /// pass ([`wal::restore_histories`]) and hands each object its
    /// history, instead of paying a full log rescan per object through
    /// [`Server::restore_from`].
    pub fn install_history(&mut self, history: History) {
        self.history = history;
    }

    /// The step body: applies `msg` and returns the reply it calls for.
    ///
    /// An effective write adds its delta to `group` (`None` for a
    /// volatile owner). Write-ahead is the caller's half of the contract:
    /// the group must be [committed](DeltaGroup::commit) before the
    /// returned reply leaves, or an amnesia crash forgets an acked write.
    pub fn handle(
        &mut self,
        msg: StorageMsg,
        group: Option<&mut DeltaGroup>,
    ) -> Option<StorageMsg> {
        match msg {
            StorageMsg::Wr { ts, val, sets, rnd } => {
                let pair = TsVal::new(ts, val);
                if self.history.apply_write(&pair, &sets, rnd) {
                    #[cfg(feature = "mutants")]
                    let group = group.filter(|_| !self.wal_disabled);
                    if let Some(group) = group {
                        group.push(self.obj, &pair, &sets, rnd);
                    }
                }
                Some(StorageMsg::WrAck { ts, rnd })
            }
            StorageMsg::Rd { read_no, rnd } => Some(StorageMsg::RdAck {
                read_no,
                rnd,
                history: self.history.clone(),
            }),
            // Servers never receive acks; ignore (Byzantine clients could
            // send them).
            StorageMsg::WrAck { .. } | StorageMsg::RdAck { .. } => None,
        }
    }
}

impl Automaton<StorageMsg> for Server {
    fn state_digest(&self) -> u64 {
        rqs_sim::fnv1a(format!("{:?}", self.history).as_bytes())
    }

    fn on_message(&mut self, from: NodeId, msg: StorageMsg, ctx: &mut Context<StorageMsg>) {
        let mut group = std::mem::take(&mut self.group);
        let reply = self.handle(msg, self.store.is_some().then_some(&mut group));
        // Write-ahead: the step's group is appended before its reply is
        // handed to the context.
        if let Some(store) = &self.store {
            group.commit(store);
        }
        self.group = group;
        if let Some(reply) = reply {
            ctx.send(from, reply);
        }
    }

    fn save_state(&mut self) {
        if let Some(store) = &self.store {
            store.install_snapshot(&wal::encode_histories([(self.obj, &self.history)]));
        }
    }

    fn restore_state(&mut self) -> usize {
        self.history = History::new();
        let Some(store) = self.store.clone() else {
            return 0;
        };
        // The store models the crash itself (dropping any unsynced
        // tail) before the recovering server reads it back.
        store.crash();
        let rec = store.load();
        self.restore_from(&rec)
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
    use crate::value::Value;
    use rqs_sim::Time;
    use std::collections::BTreeSet;

    fn ctx() -> Context<StorageMsg> {
        Context::new(NodeId(0), Time::ZERO, 0)
    }

    #[test]
    fn write_then_ack() {
        let mut s = Server::new();
        let mut c = ctx();
        s.on_message(
            NodeId(9),
            StorageMsg::Wr {
                ts: 1,
                val: Value::from(5u64),
                sets: BTreeSet::new(),
                rnd: 1,
            },
            &mut c,
        );
        assert!(s.history().stores(&TsVal::new(1, Value::from(5u64)), 1));
        assert_eq!(c.sent().len(), 1);
        assert_eq!(c.sent()[0].0, NodeId(9));
        assert_eq!(c.sent()[0].1, StorageMsg::WrAck { ts: 1, rnd: 1 });
    }

    #[test]
    fn read_returns_full_history() {
        let mut s = Server::new();
        let mut c = ctx();
        s.on_message(
            NodeId(9),
            StorageMsg::Wr {
                ts: 2,
                val: Value::from(7u64),
                sets: BTreeSet::new(),
                rnd: 2,
            },
            &mut c,
        );
        let mut c2 = ctx();
        s.on_message(NodeId(8), StorageMsg::Rd { read_no: 4, rnd: 1 }, &mut c2);
        match &c2.sent()[0].1 {
            StorageMsg::RdAck {
                read_no,
                rnd,
                history,
            } => {
                assert_eq!((*read_no, *rnd), (4, 1));
                assert!(history.stores(&TsVal::new(2, Value::from(7u64)), 2));
            }
            other => panic!("expected RdAck, got {other:?}"),
        }
    }

    #[test]
    fn acks_ignored() {
        let mut s = Server::new();
        let mut c = ctx();
        s.on_message(NodeId(9), StorageMsg::WrAck { ts: 1, rnd: 1 }, &mut c);
        assert!(c.sent().is_empty());
        assert!(s.history().is_empty());
    }

    fn write(s: &mut Server, ts: u64, v: u64, rnd: usize) {
        let mut c = ctx();
        s.on_message(
            NodeId(9),
            StorageMsg::Wr {
                ts,
                val: Value::from(v),
                sets: BTreeSet::from([rqs_core::QuorumId(1)]),
                rnd,
            },
            &mut c,
        );
        assert!(matches!(c.sent()[0].1, StorageMsg::WrAck { .. }));
    }

    fn read_snapshot(s: &mut Server, read_no: u64) -> History {
        let mut c = ctx();
        s.on_message(NodeId(8), StorageMsg::Rd { read_no, rnd: 1 }, &mut c);
        match &c.sent()[0].1 {
            StorageMsg::RdAck { history, .. } => history.clone(),
            other => panic!("expected RdAck, got {other:?}"),
        }
    }

    #[test]
    fn rd_ack_is_a_snapshot_of_its_moment() {
        let mut s = Server::new();
        write(&mut s, 1, 10, 1);
        let before = read_snapshot(&mut s, 1);
        write(&mut s, 2, 20, 1);
        let after = read_snapshot(&mut s, 2);
        let second = TsVal::new(2, Value::from(20u64));
        assert!(
            !before.stores(&second, 1),
            "an earlier rd_ack saw a later wr"
        );
        assert_eq!(before.len(), 1);
        assert!(after.stores(&second, 1));
        assert!(after.stores(&TsVal::new(1, Value::from(10u64)), 1));
    }

    #[test]
    fn no_op_write_and_restore_as_seen_by_rd_acks() {
        let mut s = Server::new();
        write(&mut s, 1, 10, 1);
        write(&mut s, 2, 20, 1);
        let after = read_snapshot(&mut s, 1);
        // A write that changes nothing changes no reply…
        write(&mut s, 2, 20, 1);
        assert_eq!(read_snapshot(&mut s, 2), after);
        // …and a restore replies empty without reaching back into the
        // replies already sent.
        s.restore_state();
        assert!(read_snapshot(&mut s, 3).is_empty());
        assert_eq!(after.len(), 2);
        assert!(after.stores(&TsVal::new(2, Value::from(20u64)), 1));
    }

    #[test]
    fn amnesia_restore_replays_acked_writes() {
        let store = StoreHandle::mem();
        let mut s = Server::with_store(store.clone());
        write(&mut s, 1, 10, 1);
        write(&mut s, 2, 20, 2);
        write(&mut s, 2, 20, 2); // no-op: must not log a second delta
        let before = s.history().clone();

        // Amnesia crash: fresh automaton, same store.
        let mut recovered = Server::with_store(store.clone());
        let replayed = recovered.restore_state();
        assert_eq!(replayed, 2, "one delta per effective write");
        assert_eq!(recovered.history(), &before);
        assert_eq!(store.stats().crashes, 1);
    }

    #[test]
    fn snapshot_compacts_and_restores() {
        let store = StoreHandle::mem();
        let mut s = Server::with_store(store.clone());
        write(&mut s, 1, 10, 1);
        s.save_state();
        write(&mut s, 2, 20, 1);
        let before = s.history().clone();

        let replayed = s.restore_state();
        assert_eq!(replayed, 1, "only the post-snapshot delta replays");
        assert_eq!(s.history(), &before);
        assert_eq!(store.stats().snapshots, 1);
    }

    #[test]
    fn volatile_server_restores_to_empty() {
        let mut s = Server::new();
        write(&mut s, 1, 10, 1);
        assert_eq!(s.restore_state(), 0);
        assert!(s.history().is_empty());
    }

    #[cfg(feature = "mutants")]
    #[test]
    fn no_wal_mutant_forgets_acked_writes() {
        let store = StoreHandle::mem();
        let mut s = Server::new_mutant_no_wal(store.clone());
        write(&mut s, 1, 10, 1);
        assert!(!s.history().is_empty(), "ack implies the write applied");
        assert_eq!(s.restore_state(), 0, "nothing was logged");
        assert!(s.history().is_empty(), "the acked write is gone");
    }
}
