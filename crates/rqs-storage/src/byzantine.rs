//! Byzantine server behaviours for fault injection.
//!
//! The paper's counterexample executions (Figs. 4, 8) need servers that
//! forge state: report a rolled-back history, advertise fabricated pairs,
//! or go silent. These automatons plug into the simulation through
//! [`World::replace_node`](rqs_sim::World::replace_node).

use crate::history::History;
use crate::messages::StorageMsg;
use crate::value::TsVal;
use rqs_sim::{Automaton, Context, NodeId};
use std::any::Any;
use std::collections::BTreeSet;

/// A server that never replies (crash-faulty from the clients' viewpoint,
/// but still "registered" so schedules can reference it).
#[derive(Clone, Debug, Default)]
pub struct MuteServer;

impl Automaton<StorageMsg> for MuteServer {
    fn on_message(&mut self, _f: NodeId, _m: StorageMsg, _c: &mut Context<StorageMsg>) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A server that presents a *fixed, forged* history to readers while
/// acking writes without storing them — the "forget about round 2 of rd" /
/// "forge their state to σ0/σ1" behaviours of Figs. 4 and 8.
#[derive(Clone, Debug)]
pub struct ForgedServer {
    /// The history presented to every read.
    pub forged: History,
    /// Whether to keep acknowledging writes (a forger that stonewalls
    /// writes is distinguishable; the paper's forgers ack).
    pub ack_writes: bool,
}

impl ForgedServer {
    /// A forger presenting the empty (initial, `σ0`) history.
    pub fn initial_state() -> Self {
        ForgedServer {
            forged: History::new(),
            ack_writes: true,
        }
    }

    /// A forger presenting a history containing exactly `pair` stored in
    /// slot 1 (the `σ1` state of the Theorem 3 proof).
    pub fn with_slot1(pair: &TsVal) -> Self {
        let mut forged = History::new();
        forged.apply_write(pair, &BTreeSet::new(), 1);
        ForgedServer {
            forged,
            ack_writes: true,
        }
    }
}

impl Automaton<StorageMsg> for ForgedServer {
    fn on_message(&mut self, from: NodeId, msg: StorageMsg, ctx: &mut Context<StorageMsg>) {
        match msg {
            StorageMsg::Wr { ts, rnd, .. } if self.ack_writes => {
                ctx.send(from, StorageMsg::WrAck { ts, rnd });
            }
            StorageMsg::Rd { read_no, rnd } => {
                ctx.send(
                    from,
                    StorageMsg::RdAck {
                        read_no,
                        rnd,
                        history: self.forged.clone(),
                    },
                );
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A fully scriptable Byzantine server: the closure sees every incoming
/// message and decides the replies.
pub struct ScriptedServer {
    #[allow(clippy::type_complexity)]
    script: Box<dyn FnMut(NodeId, StorageMsg, &mut Context<StorageMsg>) + 'static>,
}

impl ScriptedServer {
    /// Wraps a behaviour closure.
    pub fn new(script: impl FnMut(NodeId, StorageMsg, &mut Context<StorageMsg>) + 'static) -> Self {
        ScriptedServer {
            script: Box::new(script),
        }
    }
}

impl std::fmt::Debug for ScriptedServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScriptedServer").finish_non_exhaustive()
    }
}

impl Automaton<StorageMsg> for ScriptedServer {
    fn on_message(&mut self, from: NodeId, msg: StorageMsg, ctx: &mut Context<StorageMsg>) {
        (self.script)(from, msg, ctx);
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

    fn ctx() -> Context<StorageMsg> {
        Context::new(NodeId(0), Time::ZERO, 0)
    }

    #[test]
    fn mute_server_stays_silent() {
        let mut s = MuteServer;
        let mut c = ctx();
        s.on_message(NodeId(1), StorageMsg::Rd { read_no: 1, rnd: 1 }, &mut c);
        assert!(c.sent().is_empty());
    }

    #[test]
    fn forged_server_presents_fixed_history() {
        let pair = TsVal::new(3, Value::from(9u64));
        let mut s = ForgedServer::with_slot1(&pair);
        let mut c = ctx();
        // Writes are acked but ignored.
        s.on_message(
            NodeId(1),
            StorageMsg::Wr {
                ts: 5,
                val: Value::from(5u64),
                sets: BTreeSet::new(),
                rnd: 1,
            },
            &mut c,
        );
        assert_eq!(c.sent().len(), 1);
        let mut c2 = ctx();
        s.on_message(NodeId(1), StorageMsg::Rd { read_no: 1, rnd: 1 }, &mut c2);
        match &c2.sent()[0].1 {
            StorageMsg::RdAck { history, .. } => {
                assert!(history.stores(&pair, 1));
                assert!(!history.stores(&TsVal::new(5, Value::from(5u64)), 1));
                assert!(
                    history.shares_spine_with(&s.forged),
                    "the forged history is built once and handed out, not copied"
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn forged_initial_state_is_empty() {
        let mut s = ForgedServer::initial_state();
        let mut c = ctx();
        s.on_message(NodeId(1), StorageMsg::Rd { read_no: 1, rnd: 1 }, &mut c);
        match &c.sent()[0].1 {
            StorageMsg::RdAck { history, .. } => assert!(history.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn scripted_server_runs_closure() {
        // Equivocate: claim a fabricated pair.
        let mut forged = History::new();
        forged.apply_write(&TsVal::new(99, Value::from(1u64)), &BTreeSet::new(), 1);
        let mut s = ScriptedServer::new(move |from, msg, ctx| {
            if let StorageMsg::Rd { read_no, rnd } = msg {
                ctx.send(
                    from,
                    StorageMsg::RdAck {
                        read_no,
                        rnd,
                        history: forged.clone(),
                    },
                );
            }
        });
        let mut c = ctx();
        s.on_message(NodeId(1), StorageMsg::Rd { read_no: 7, rnd: 1 }, &mut c);
        assert_eq!(c.sent().len(), 1);
        assert!(format!("{s:?}").contains("ScriptedServer"));
    }
}
