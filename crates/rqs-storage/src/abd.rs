//! Baseline: the classic crash-tolerant SWMR atomic storage of
//! Attiya–Bar-Noy–Dolev (ABD, the paper's reference \[4\]).
//!
//! Writes take one round (write to a majority); reads take two rounds
//! (collect from a majority, then write the highest pair back to a
//! majority). This is the optimally-resilient baseline whose read latency
//! the RQS algorithm improves on in best-case conditions: the paper's
//! lower bound \[11\] shows optimally-resilient ABD-style reads *cannot*
//! always be one round, which is exactly the gap refined quorums close.

use crate::value::{Timestamp, TsVal, Value};
use rqs_core::ProcessSet;
use rqs_sim::{Automaton, Context, NodeId, Time};
use std::any::Any;

/// Messages of the ABD protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AbdMsg {
    /// Write `⟨ts, v⟩` (by the writer, or a reader's write-back).
    Write {
        /// The pair being stored.
        pair: TsVal,
    },
    /// Ack of a write.
    WriteAck {
        /// Echoed timestamp.
        ts: Timestamp,
    },
    /// Read query.
    Read {
        /// Reader-local operation id.
        read_no: u64,
    },
    /// Read reply with the server's current pair.
    ReadAck {
        /// Echoed operation id.
        read_no: u64,
        /// The server's stored pair.
        pair: TsVal,
    },
}

/// An ABD server: stores the highest-timestamped pair.
#[derive(Clone, Debug, Default)]
pub struct AbdServer {
    pair: TsVal,
}

impl AbdServer {
    /// Fresh server holding `⟨0,⊥⟩`.
    pub fn new() -> Self {
        AbdServer::default()
    }

    /// The stored pair.
    pub fn pair(&self) -> &TsVal {
        &self.pair
    }
}

impl Automaton<AbdMsg> for AbdServer {
    fn on_message(&mut self, from: NodeId, msg: AbdMsg, ctx: &mut Context<AbdMsg>) {
        match msg {
            AbdMsg::Write { pair } => {
                if pair.ts > self.pair.ts {
                    self.pair = pair.clone();
                }
                ctx.send(from, AbdMsg::WriteAck { ts: pair.ts });
            }
            AbdMsg::Read { read_no } => {
                ctx.send(
                    from,
                    AbdMsg::ReadAck {
                        read_no,
                        pair: self.pair.clone(),
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

/// Outcome of an ABD operation (write or read).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AbdOutcome {
    /// The pair written or returned.
    pub pair: TsVal,
    /// Rounds used (1 for writes, 2 for reads).
    pub rounds: usize,
    /// Invocation time.
    pub invoked_at: Time,
    /// Response time.
    pub completed_at: Time,
}

#[derive(Debug)]
enum ClientState {
    Idle,
    Writing {
        pair: TsVal,
        acks: ProcessSet,
        invoked_at: Time,
    },
    ReadCollect {
        read_no: u64,
        acks: ProcessSet,
        best: TsVal,
        invoked_at: Time,
    },
    ReadWriteback {
        best: TsVal,
        acks: ProcessSet,
        invoked_at: Time,
    },
}

/// An ABD client; acts as the writer (via [`AbdClient::start_write`]) or a
/// reader (via [`AbdClient::start_read`]).
#[derive(Debug)]
pub struct AbdClient {
    servers: Vec<NodeId>,
    majority: usize,
    ts: Timestamp,
    read_no: u64,
    state: ClientState,
    outcomes: Vec<AbdOutcome>,
}

impl AbdClient {
    /// Creates a client over the given servers (majority quorums).
    pub fn new(servers: Vec<NodeId>) -> Self {
        let majority = servers.len() / 2 + 1;
        AbdClient {
            servers,
            majority,
            ts: 0,
            read_no: 0,
            state: ClientState::Idle,
            outcomes: Vec::new(),
        }
    }

    /// Completed operations.
    pub fn outcomes(&self) -> &[AbdOutcome] {
        &self.outcomes
    }

    /// `true` iff no operation is in progress.
    pub fn is_idle(&self) -> bool {
        matches!(self.state, ClientState::Idle)
    }

    /// Invokes `write(v)` (one round to a majority).
    ///
    /// # Panics
    ///
    /// Panics if an operation is already in progress.
    pub fn start_write(&mut self, v: Value, ctx: &mut Context<AbdMsg>) {
        assert!(self.is_idle(), "operation already in progress");
        self.ts += 1;
        let pair = TsVal::new(self.ts, v);
        self.state = ClientState::Writing {
            pair: pair.clone(),
            acks: ProcessSet::empty(),
            invoked_at: ctx.now(),
        };
        ctx.broadcast(self.servers.iter().copied(), AbdMsg::Write { pair });
    }

    /// Invokes `read()` (collect round + write-back round).
    ///
    /// # Panics
    ///
    /// Panics if an operation is already in progress.
    pub fn start_read(&mut self, ctx: &mut Context<AbdMsg>) {
        assert!(self.is_idle(), "operation already in progress");
        self.read_no += 1;
        self.state = ClientState::ReadCollect {
            read_no: self.read_no,
            acks: ProcessSet::empty(),
            best: TsVal::initial(),
            invoked_at: ctx.now(),
        };
        ctx.broadcast(
            self.servers.iter().copied(),
            AbdMsg::Read {
                read_no: self.read_no,
            },
        );
    }

    fn server_index(&self, node: NodeId) -> Option<usize> {
        self.servers.iter().position(|&s| s == node)
    }
}

impl Automaton<AbdMsg> for AbdClient {
    fn on_message(&mut self, from: NodeId, msg: AbdMsg, ctx: &mut Context<AbdMsg>) {
        let Some(idx) = self.server_index(from) else {
            return;
        };
        match (&mut self.state, msg) {
            (
                ClientState::Writing {
                    pair,
                    acks,
                    invoked_at,
                },
                AbdMsg::WriteAck { ts },
            ) if ts == pair.ts => {
                acks.insert(rqs_core::ProcessId(idx));
                if acks.len() >= self.majority {
                    let outcome = AbdOutcome {
                        pair: pair.clone(),
                        rounds: 1,
                        invoked_at: *invoked_at,
                        completed_at: ctx.now(),
                    };
                    self.outcomes.push(outcome);
                    self.state = ClientState::Idle;
                }
            }
            (
                ClientState::ReadCollect {
                    read_no,
                    acks,
                    best,
                    invoked_at,
                },
                AbdMsg::ReadAck {
                    read_no: echo,
                    pair,
                },
            ) if echo == *read_no => {
                acks.insert(rqs_core::ProcessId(idx));
                if pair.ts > best.ts {
                    *best = pair;
                }
                if acks.len() >= self.majority {
                    let best = best.clone();
                    let invoked_at = *invoked_at;
                    self.state = ClientState::ReadWriteback {
                        best: best.clone(),
                        acks: ProcessSet::empty(),
                        invoked_at,
                    };
                    ctx.broadcast(self.servers.iter().copied(), AbdMsg::Write { pair: best });
                }
            }
            (
                ClientState::ReadWriteback {
                    best,
                    acks,
                    invoked_at,
                },
                AbdMsg::WriteAck { ts },
            ) if ts == best.ts => {
                acks.insert(rqs_core::ProcessId(idx));
                if acks.len() >= self.majority {
                    let outcome = AbdOutcome {
                        pair: best.clone(),
                        rounds: 2,
                        invoked_at: *invoked_at,
                        completed_at: ctx.now(),
                    };
                    self.outcomes.push(outcome);
                    self.state = ClientState::Idle;
                }
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

#[cfg(test)]
mod tests {
    use super::*;
    use rqs_sim::{ScenarioNet, Time, World};

    fn build(n: usize) -> (World<AbdMsg>, Vec<NodeId>, NodeId, NodeId) {
        let mut world = World::new(ScenarioNet::benign());
        let servers: Vec<NodeId> = (0..n)
            .map(|_| world.add_node(Box::new(AbdServer::new())))
            .collect();
        let writer = world.add_node(Box::new(AbdClient::new(servers.clone())));
        let reader = world.add_node(Box::new(AbdClient::new(servers.clone())));
        (world, servers, writer, reader)
    }

    #[test]
    fn write_one_round_read_two_rounds() {
        let (mut world, _s, writer, reader) = build(5);
        world.invoke::<AbdClient>(writer, |c, ctx| c.start_write(Value::from(4u64), ctx));
        world.run_to_quiescence();
        let w = &world.node_as::<AbdClient>(writer).outcomes()[0];
        assert_eq!(w.rounds, 1);
        world.invoke::<AbdClient>(reader, |c, ctx| c.start_read(ctx));
        world.run_to_quiescence();
        let r = &world.node_as::<AbdClient>(reader).outcomes()[0];
        assert_eq!(r.rounds, 2, "ABD reads always write back");
        assert_eq!(r.pair.val, Value::from(4u64));
    }

    #[test]
    fn tolerates_minority_crashes() {
        let (mut world, servers, writer, reader) = build(5);
        world.crash_at(servers[0], Time::ZERO);
        world.crash_at(servers[1], Time::ZERO);
        world.invoke::<AbdClient>(writer, |c, ctx| c.start_write(Value::from(9u64), ctx));
        world.run_to_quiescence();
        assert!(world.node_as::<AbdClient>(writer).is_idle());
        world.invoke::<AbdClient>(reader, |c, ctx| c.start_read(ctx));
        world.run_to_quiescence();
        let r = &world.node_as::<AbdClient>(reader).outcomes()[0];
        assert_eq!(r.pair.val, Value::from(9u64));
    }

    #[test]
    fn read_before_write_returns_bottom() {
        let (mut world, _s, _w, reader) = build(3);
        world.invoke::<AbdClient>(reader, |c, ctx| c.start_read(ctx));
        world.run_to_quiescence();
        let r = &world.node_as::<AbdClient>(reader).outcomes()[0];
        assert!(r.pair.is_initial());
    }

    #[test]
    fn server_keeps_highest_timestamp() {
        let mut s = AbdServer::new();
        let mut ctx = Context::new(NodeId(0), Time::ZERO, 0);
        s.on_message(
            NodeId(9),
            AbdMsg::Write {
                pair: TsVal::new(2, Value::from(2u64)),
            },
            &mut ctx,
        );
        s.on_message(
            NodeId(9),
            AbdMsg::Write {
                pair: TsVal::new(1, Value::from(1u64)),
            },
            &mut ctx,
        );
        assert_eq!(s.pair().ts, 2, "older write must not regress the pair");
    }
}
