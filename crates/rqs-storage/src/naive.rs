//! Counterexample baseline: the "greedy" fast storage of §1.2 / Figure 1.
//!
//! This algorithm expedites every synchronous, uncontended operation in a
//! single round as soon as `n - t` servers respond — i.e. it treats every
//! plain quorum as a class-1 quorum, which violates Property 2 when
//! `n ≤ t + 2k + 2q` (for the §1.2 instance: 5 ≤ 2 + 0 + 4 = 6). The
//! paper's Figure 1 executions show the resulting atomicity violation;
//! experiment **E1** drives this implementation through exactly those
//! schedules and watches a read return a value that a later read cannot
//! see.
//!
//! The writer writes `⟨ts, v⟩` to all and completes on `n - t` acks; a
//! reader collects `n - t` replies, returns the highest pair immediately
//! (no write-back, no timeout discipline) — fast but wrong.

use crate::value::{Timestamp, TsVal, Value};
use rqs_core::ProcessSet;
use rqs_sim::{Automaton, Context, NodeId, Time};
use std::any::Any;

/// Messages of the naive protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NaiveMsg {
    /// Store `⟨ts, v⟩`.
    Write {
        /// The pair.
        pair: TsVal,
    },
    /// Write ack.
    WriteAck {
        /// Echoed timestamp.
        ts: Timestamp,
    },
    /// Read query.
    Read {
        /// Reader-local operation id.
        read_no: u64,
    },
    /// Read reply.
    ReadAck {
        /// Echoed id.
        read_no: u64,
        /// Server's stored pair.
        pair: TsVal,
    },
}

/// A naive server (same storage rule as ABD).
#[derive(Clone, Debug, Default)]
pub struct NaiveServer {
    pair: TsVal,
}

impl NaiveServer {
    /// Fresh server.
    pub fn new() -> Self {
        NaiveServer::default()
    }

    /// The stored pair.
    pub fn pair(&self) -> &TsVal {
        &self.pair
    }
}

impl Automaton<NaiveMsg> for NaiveServer {
    fn on_message(&mut self, from: NodeId, msg: NaiveMsg, ctx: &mut Context<NaiveMsg>) {
        match msg {
            NaiveMsg::Write { pair } => {
                if pair.ts > self.pair.ts {
                    self.pair = pair.clone();
                }
                ctx.send(from, NaiveMsg::WriteAck { ts: pair.ts });
            }
            NaiveMsg::Read { read_no } => {
                ctx.send(
                    from,
                    NaiveMsg::ReadAck {
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

/// Outcome of a naive operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NaiveOutcome {
    /// The pair written or returned.
    pub pair: TsVal,
    /// Rounds used (always 1 — that is the bug).
    pub rounds: usize,
    /// Invocation time.
    pub invoked_at: Time,
    /// Response time.
    pub completed_at: Time,
}

#[derive(Debug)]
enum State {
    Idle,
    Writing {
        pair: TsVal,
        acks: ProcessSet,
        invoked_at: Time,
    },
    Reading {
        read_no: u64,
        acks: ProcessSet,
        best: TsVal,
        invoked_at: Time,
    },
}

/// A naive client completing every operation at `n - t` responses.
#[derive(Debug)]
pub struct NaiveClient {
    servers: Vec<NodeId>,
    threshold: usize,
    ts: Timestamp,
    read_no: u64,
    state: State,
    outcomes: Vec<NaiveOutcome>,
}

impl NaiveClient {
    /// Creates a client completing operations at `servers.len() - t`
    /// responses.
    ///
    /// # Panics
    ///
    /// Panics if `t >= servers.len()`.
    pub fn new(servers: Vec<NodeId>, t: usize) -> Self {
        assert!(t < servers.len());
        let threshold = servers.len() - t;
        NaiveClient {
            servers,
            threshold,
            ts: 0,
            read_no: 0,
            state: State::Idle,
            outcomes: Vec::new(),
        }
    }

    /// Completed operations.
    pub fn outcomes(&self) -> &[NaiveOutcome] {
        &self.outcomes
    }

    /// `true` iff idle.
    pub fn is_idle(&self) -> bool {
        matches!(self.state, State::Idle)
    }

    /// Invokes `write(v)` — completes on `n - t` acks, one round, always.
    ///
    /// # Panics
    ///
    /// Panics if an operation is in progress.
    pub fn start_write(&mut self, v: Value, ctx: &mut Context<NaiveMsg>) {
        assert!(self.is_idle());
        self.ts += 1;
        let pair = TsVal::new(self.ts, v);
        self.state = State::Writing {
            pair: pair.clone(),
            acks: ProcessSet::empty(),
            invoked_at: ctx.now(),
        };
        ctx.broadcast(self.servers.iter().copied(), NaiveMsg::Write { pair });
    }

    /// Invokes `read()` — returns the highest pair among the first
    /// `n - t` replies, no write-back.
    ///
    /// # Panics
    ///
    /// Panics if an operation is in progress.
    pub fn start_read(&mut self, ctx: &mut Context<NaiveMsg>) {
        assert!(self.is_idle());
        self.read_no += 1;
        self.state = State::Reading {
            read_no: self.read_no,
            acks: ProcessSet::empty(),
            best: TsVal::initial(),
            invoked_at: ctx.now(),
        };
        ctx.broadcast(
            self.servers.iter().copied(),
            NaiveMsg::Read {
                read_no: self.read_no,
            },
        );
    }

    fn server_index(&self, node: NodeId) -> Option<usize> {
        self.servers.iter().position(|&s| s == node)
    }
}

impl Automaton<NaiveMsg> for NaiveClient {
    fn on_message(&mut self, from: NodeId, msg: NaiveMsg, ctx: &mut Context<NaiveMsg>) {
        let Some(idx) = self.server_index(from) else {
            return;
        };
        match (&mut self.state, msg) {
            (
                State::Writing {
                    pair,
                    acks,
                    invoked_at,
                },
                NaiveMsg::WriteAck { ts },
            ) if ts == pair.ts => {
                acks.insert(rqs_core::ProcessId(idx));
                if acks.len() >= self.threshold {
                    let outcome = NaiveOutcome {
                        pair: pair.clone(),
                        rounds: 1,
                        invoked_at: *invoked_at,
                        completed_at: ctx.now(),
                    };
                    self.outcomes.push(outcome);
                    self.state = State::Idle;
                }
            }
            (
                State::Reading {
                    read_no,
                    acks,
                    best,
                    invoked_at,
                },
                NaiveMsg::ReadAck {
                    read_no: echo,
                    pair,
                },
            ) if echo == *read_no => {
                acks.insert(rqs_core::ProcessId(idx));
                if pair.ts > best.ts {
                    *best = pair;
                }
                if acks.len() >= self.threshold {
                    let outcome = NaiveOutcome {
                        pair: best.clone(),
                        rounds: 1,
                        invoked_at: *invoked_at,
                        completed_at: ctx.now(),
                    };
                    self.outcomes.push(outcome);
                    self.state = State::Idle;
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
    use rqs_sim::{LinkEffect, LinkRule, Scenario, ScenarioNet, Selector, World};

    fn build() -> (World<NaiveMsg>, Vec<NodeId>, NodeId, NodeId, NodeId) {
        let mut world = World::new(ScenarioNet::benign());
        let servers: Vec<NodeId> = (0..5)
            .map(|_| world.add_node(Box::new(NaiveServer::new())))
            .collect();
        let writer = world.add_node(Box::new(NaiveClient::new(servers.clone(), 2)));
        let r1 = world.add_node(Box::new(NaiveClient::new(servers.clone(), 2)));
        let r2 = world.add_node(Box::new(NaiveClient::new(servers.clone(), 2)));
        (world, servers, writer, r1, r2)
    }

    #[test]
    fn happy_path_one_round_each() {
        let (mut world, _s, writer, r1, _r2) = build();
        world.invoke::<NaiveClient>(writer, |c, ctx| c.start_write(Value::from(1u64), ctx));
        world.run_to_quiescence();
        assert_eq!(world.node_as::<NaiveClient>(writer).outcomes()[0].rounds, 1);
        world.invoke::<NaiveClient>(r1, |c, ctx| c.start_read(ctx));
        world.run_to_quiescence();
        let out = &world.node_as::<NaiveClient>(r1).outcomes()[0];
        assert_eq!(out.rounds, 1);
        assert_eq!(out.pair.val, Value::from(1u64));
    }

    /// The Figure 1 schedule: ex3/ex4 — an incomplete write reaches only
    /// server 3; reader r1 reads {3,4,5}… wait, reads {s3,s4,s5} and sees
    /// v at s3, returns it in one round; then s3 and s5 crash and r2 reads
    /// {s1,s2,s4}, which have no trace of v. Atomicity is violated: r2
    /// returns ⊥ although r1 (which completed earlier) returned v.
    #[test]
    fn figure1_schedule_violates_atomicity() {
        let (mut world, servers, writer, r1, r2) = build();
        // Incomplete write: round-1 messages reach only server index 2
        // (s3); all others are lost (the writer then crashes, Fig. 1 ex3).
        world.set_policy(
            Scenario::default()
                .link(
                    LinkRule::every(LinkEffect::Delay(0))
                        .from(Selector::Is(writer))
                        .to(Selector::Is(servers[2])),
                )
                .link(LinkRule::every(LinkEffect::Drop).from(Selector::Is(writer)))
                .network(),
        );
        world.invoke::<NaiveClient>(writer, |c, ctx| c.start_write(Value::from(7u64), ctx));
        world.run_to_quiescence();
        assert!(
            !world.node_as::<NaiveClient>(writer).is_idle(),
            "write is incomplete"
        );

        // r1 reads; replies from {s3,s4,s5} arrive, {s1,s2} delayed.
        world.set_policy(
            Scenario::default()
                .link(
                    LinkRule::every(LinkEffect::Drop)
                        .from(Selector::In(vec![servers[0], servers[1]]))
                        .to(Selector::Is(r1)),
                )
                .network(),
        );
        world.invoke::<NaiveClient>(r1, |c, ctx| c.start_read(ctx));
        world.run_to_quiescence();
        let rd1 = world.node_as::<NaiveClient>(r1).outcomes()[0].clone();
        assert_eq!(rd1.pair.val, Value::from(7u64), "r1 returns v in 1 round");

        // ex4: s3 and s5 crash; r2 reads from {s1,s2,s4}, strictly after
        // rd1 completed.
        let now = world.now();
        world.crash_at(servers[2], now);
        world.crash_at(servers[4], now);
        world.run_before(now + 1);
        world.set_policy(ScenarioNet::benign());
        world.invoke::<NaiveClient>(r2, |c, ctx| c.start_read(ctx));
        world.run_to_quiescence();
        let rd2 = &world.node_as::<NaiveClient>(r2).outcomes()[0];
        // Atomicity violated: rd2 follows rd1 (which returned v) but
        // returns the initial value.
        assert!(
            rd2.pair.is_initial(),
            "r2 cannot see v — atomicity violated"
        );
        assert!(rd2.invoked_at > rd1.completed_at);
    }
}
