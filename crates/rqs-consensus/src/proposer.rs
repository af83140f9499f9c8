//! The proposer automaton (Fig. 15 proposer side + Fig. 14 election).

use crate::acceptor::ConsensusConfig;
use crate::choose::{validate_ack, ChooseInput};
use crate::types::{
    encode_view_change, ConsensusMsg, NewViewAckBody, ProposalValue, SignedNewViewAck,
    SignedViewChange, View, INIT_VIEW,
};
use rqs_core::{ProcessId, ProcessSet, QuorumId};
use rqs_crypto::SignerId;
use rqs_obs::{Obs, TraceKind, LANE_SYS};
use rqs_sim::{Automaton, Context, NodeId, TimerToken};
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};

/// Delay before a proposer sends `sync`/`decision_pull` after proposing
/// (the paper's "wait some preset time", Fig. 15 lines 101–103).
pub const SYNC_DELAY: u64 = 12;

/// The proposer automaton.
///
/// Drive with [`Proposer::propose`] via
/// [`World::invoke`](rqs_sim::World::invoke). In the initial view the
/// proposer skips the consult phase; when later elected by a quorum of
/// `view_change`s it runs consult (`new_view` → acks → `choose()`) and
/// then the update phase.
#[derive(Debug)]
pub struct Proposer {
    cfg: ConsensusConfig,
    me: NodeId,
    value: Option<ProposalValue>,
    view: View,
    view_proof: Vec<SignedViewChange>,
    /// Quorums whose acks made `choose()` abort (provably tainted).
    faulty: BTreeSet<QuorumId>,
    /// Validated acks for the current view.
    acks: BTreeMap<ProcessId, SignedNewViewAck>,
    consult_active: bool,
    /// `view_change` signatures collected per next-view.
    view_changes: BTreeMap<View, BTreeMap<ProcessId, SignedViewChange>>,
    decision_senders: BTreeMap<ProposalValue, ProcessSet>,
    sync_timer: Option<TimerToken>,
    sync_sent: bool,
    halted: bool,
    obs: Obs,
}

impl Proposer {
    /// Creates a proposer. `me` is this proposer's own node id (needed to
    /// recognize when it is the elected leader).
    pub fn new(cfg: ConsensusConfig, me: NodeId) -> Self {
        Proposer {
            cfg,
            me,
            value: None,
            view: INIT_VIEW,
            view_proof: Vec::new(),
            faulty: BTreeSet::new(),
            acks: BTreeMap::new(),
            consult_active: false,
            view_changes: BTreeMap::new(),
            decision_senders: BTreeMap::new(),
            sync_timer: None,
            sync_sent: false,
            halted: false,
            obs: Obs::nop(),
        }
    }

    /// Installs a structured-trace observer.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The proposer's current view.
    pub fn view(&self) -> View {
        self.view
    }

    /// `true` once a decision quorum has been observed (Fig. 15 line 104).
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Invokes `propose(v)` (Fig. 9 / Fig. 15 lines 1–9).
    ///
    /// # Panics
    ///
    /// Panics if this proposer already proposed a value.
    pub fn propose(&mut self, v: ProposalValue, ctx: &mut Context<ConsensusMsg>) {
        assert!(self.value.is_none(), "proposer already proposed");
        self.value = Some(v);
        self.obs.emit(
            TraceKind::OpInvoked,
            ctx.now().ticks(),
            ctx.me().0 as u64,
            LANE_SYS,
            v,
            self.view,
        );
        if self.view == INIT_VIEW {
            // Initial view: skip the consult phase.
            self.obs.emit(
                TraceKind::RoundStarted,
                ctx.now().ticks(),
                ctx.me().0 as u64,
                LANE_SYS,
                INIT_VIEW,
                0,
            );
            ctx.broadcast(
                self.cfg.acceptors.clone(),
                ConsensusMsg::Prepare {
                    value: v,
                    view: INIT_VIEW,
                    v_proof: None,
                    quorum: None,
                },
            );
        } else {
            self.start_consult(ctx);
        }
        // Lines 101–103: after a preset delay, nudge acceptor timers and
        // pull any decision.
        if self.sync_timer.is_none() && !self.sync_sent {
            self.sync_timer = Some(ctx.set_timer(SYNC_DELAY));
        }
    }

    fn start_consult(&mut self, ctx: &mut Context<ConsensusMsg>) {
        self.acks.clear();
        self.consult_active = true;
        self.obs.emit(
            TraceKind::RoundStarted,
            ctx.now().ticks(),
            ctx.me().0 as u64,
            LANE_SYS,
            self.view,
            1,
        );
        ctx.broadcast(
            self.cfg.acceptors.clone(),
            ConsensusMsg::NewView {
                view: self.view,
                view_proof: self.view_proof.clone(),
            },
        );
    }

    /// Fig. 15 lines 3–9: whenever a fresh non-faulty quorum of valid acks
    /// is available, run `choose()`; abort marks the quorum faulty and
    /// waits for another.
    fn try_choose_and_prepare(&mut self, ctx: &mut Context<ConsensusMsg>) {
        if !self.consult_active {
            return;
        }
        let acked: ProcessSet = self.acks.keys().copied().collect();
        let quorums: Vec<QuorumId> = self.cfg.rqs.quorums_within(acked).collect();
        for q in quorums {
            if self.faulty.contains(&q) {
                continue;
            }
            let bodies: BTreeMap<ProcessId, NewViewAckBody> = self
                .cfg
                .rqs
                .quorum(q)
                .iter()
                .map(|p| (p, self.acks[&p].body.clone()))
                .collect();
            let input = ChooseInput {
                rqs: &self.cfg.rqs,
                q,
                acks: &bodies,
            };
            let out = input.choose(self.value.expect("proposed"));
            if out.abort {
                self.faulty.insert(q);
                continue;
            }
            // Line 9: prepare with the chosen value and the ack proof.
            let proof: Vec<SignedNewViewAck> = self
                .cfg
                .rqs
                .quorum(q)
                .iter()
                .map(|p| self.acks[&p].clone())
                .collect();
            self.consult_active = false;
            self.obs.emit(
                TraceKind::QuorumAssembled,
                ctx.now().ticks(),
                ctx.me().0 as u64,
                LANE_SYS,
                self.view,
                proof.len() as u64,
            );
            ctx.broadcast(
                self.cfg.acceptors.clone(),
                ConsensusMsg::Prepare {
                    value: out.value,
                    view: self.view,
                    v_proof: Some(proof),
                    quorum: Some(q),
                },
            );
            return;
        }
    }

    fn on_view_change(&mut self, svc: SignedViewChange, ctx: &mut Context<ConsensusMsg>) {
        if self.halted {
            return;
        }
        // Verify the signature before counting.
        if !self.cfg.registry.verify(
            SignerId(svc.acceptor.0),
            &encode_view_change(svc.next_view),
            &svc.sig,
        ) {
            return;
        }
        // Only views this proposer would lead matter.
        if self.cfg.leader_of(svc.next_view) != self.me {
            return;
        }
        let entry = self.view_changes.entry(svc.next_view).or_default();
        entry.insert(svc.acceptor, svc);
        let signers: ProcessSet = entry.keys().copied().collect();
        if svc.next_view > self.view && self.cfg.rqs.any_quorum_within(signers) {
            // Fig. 14 lines 10–13: elected.
            self.view_proof = entry.values().cloned().collect();
            self.view = svc.next_view;
            self.faulty.clear();
            if self.value.is_some() {
                self.start_consult(ctx);
            }
            // A proposer that never had a value proposes nothing; the
            // harness assigns values to all proposers up front.
        }
    }

    fn on_decision(&mut self, sender: ProcessId, value: ProposalValue) {
        let senders = self.decision_senders.entry(value).or_default();
        senders.insert(sender);
        if self.cfg.rqs.any_quorum_within(*senders) {
            self.halted = true; // Fig. 15 line 104
        }
    }
}

impl Automaton<ConsensusMsg> for Proposer {
    fn state_digest(&self) -> u64 {
        rqs_sim::fnv1a(
            format!(
                "{:?},{:?},{:?},{:?},{:?},{:?},{:?}",
                self.value,
                self.view,
                self.faulty,
                self.consult_active,
                self.decision_senders,
                self.sync_sent,
                self.halted,
            )
            .as_bytes(),
        )
    }

    fn on_message(&mut self, from: NodeId, msg: ConsensusMsg, ctx: &mut Context<ConsensusMsg>) {
        match msg {
            ConsensusMsg::ViewChange(svc)
                if self.cfg.acceptor_index(from) == Some(svc.acceptor) =>
            {
                self.on_view_change(svc, ctx);
            }
            ConsensusMsg::NewViewAck(ack) => {
                if self.halted || !self.consult_active {
                    return;
                }
                if self.cfg.acceptor_index(from) != Some(ack.acceptor) {
                    return;
                }
                if ack.body.view != self.view {
                    return;
                }
                if !validate_ack(&self.cfg.rqs, &self.cfg.registry, &ack) {
                    return;
                }
                self.acks.insert(ack.acceptor, ack);
                self.try_choose_and_prepare(ctx);
            }
            ConsensusMsg::Decision { value } => {
                if let Some(sender) = self.cfg.acceptor_index(from) {
                    self.on_decision(sender, value);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, timer: TimerToken, ctx: &mut Context<ConsensusMsg>) {
        if self.sync_timer == Some(timer) {
            self.sync_timer = None;
            if !self.halted && !self.sync_sent {
                self.sync_sent = true;
                ctx.broadcast(self.cfg.acceptors.clone(), ConsensusMsg::Sync);
                ctx.broadcast(self.cfg.acceptors.clone(), ConsensusMsg::DecisionPull);
            }
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
    use rqs_core::threshold::ThresholdConfig;
    use rqs_core::Rqs;
    use rqs_crypto::KeyRegistry;
    use rqs_sim::Time;
    use std::sync::Arc;

    fn config() -> ConsensusConfig {
        let rqs: Arc<Rqs> = Arc::new(ThresholdConfig::byzantine_fast(1).build().unwrap());
        ConsensusConfig {
            rqs,
            registry: KeyRegistry::new(4, 11),
            acceptors: (0..4).map(NodeId).collect(),
            proposers: vec![NodeId(4), NodeId(5)],
            learners: vec![NodeId(6)],
        }
    }

    fn ctx(at: u64) -> Context<ConsensusMsg> {
        Context::new(NodeId(4), Time(at), 0)
    }

    #[test]
    fn initial_view_proposal_sends_prepare() {
        let cfg = config();
        let mut p = Proposer::new(cfg, NodeId(4));
        let mut c = ctx(0);
        p.propose(7, &mut c);
        let prepares: Vec<_> = c
            .sent()
            .iter()
            .filter(|(_, m)| {
                matches!(
                    m,
                    ConsensusMsg::Prepare {
                        view: 0,
                        value: 7,
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(prepares.len(), 4);
        assert_eq!(c.armed_timers().len(), 1, "sync timer armed");
    }

    #[test]
    #[should_panic(expected = "already proposed")]
    fn double_propose_rejected() {
        let cfg = config();
        let mut p = Proposer::new(cfg, NodeId(4));
        let mut c = ctx(0);
        p.propose(7, &mut c);
        p.propose(8, &mut c);
    }

    #[test]
    fn election_by_view_change_quorum() {
        let cfg = config();
        // proposers[1] = NodeId(5) leads view 1.
        let mut p = Proposer::new(cfg.clone(), NodeId(5));
        let mut c = ctx(0);
        p.propose(9, &mut c); // proposes in view 0 first
        for i in 0..3 {
            let svc = SignedViewChange {
                acceptor: ProcessId(i),
                next_view: 1,
                sig: cfg
                    .registry
                    .signer(SignerId(i))
                    .sign(&encode_view_change(1)),
            };
            let mut ci = ctx(10);
            p.on_message(NodeId(i), ConsensusMsg::ViewChange(svc), &mut ci);
            if i == 2 {
                // Quorum of 3 view-changes elects: new_view broadcast.
                let nv: Vec<_> = ci
                    .sent()
                    .iter()
                    .filter(|(_, m)| matches!(m, ConsensusMsg::NewView { view: 1, .. }))
                    .collect();
                assert_eq!(nv.len(), 4);
            }
        }
        assert_eq!(p.view(), 1);
    }

    #[test]
    fn forged_view_change_ignored() {
        let cfg = config();
        let mut p = Proposer::new(cfg.clone(), NodeId(5));
        let mut c = ctx(0);
        p.propose(9, &mut c);
        for i in 0..3 {
            let svc = SignedViewChange {
                acceptor: ProcessId(i),
                next_view: 1,
                // signed over the wrong view
                sig: cfg
                    .registry
                    .signer(SignerId(i))
                    .sign(&encode_view_change(9)),
            };
            let mut ci = ctx(10);
            p.on_message(NodeId(i), ConsensusMsg::ViewChange(svc), &mut ci);
        }
        assert_eq!(p.view(), 0, "forged signatures must not elect");
    }

    #[test]
    fn decision_quorum_halts() {
        let cfg = config();
        let mut p = Proposer::new(cfg, NodeId(4));
        for i in 0..3 {
            let mut c = ctx(5);
            p.on_message(NodeId(i), ConsensusMsg::Decision { value: 7 }, &mut c);
        }
        assert!(p.halted());
    }

    #[test]
    fn sync_timer_broadcasts_once() {
        let cfg = config();
        let mut p = Proposer::new(cfg, NodeId(4));
        let mut c = ctx(0);
        p.propose(7, &mut c);
        let (_, token) = c.armed_timers()[0];
        let mut c2 = ctx(SYNC_DELAY);
        p.on_timer(token, &mut c2);
        let syncs = c2
            .sent()
            .iter()
            .filter(|(_, m)| matches!(m, ConsensusMsg::Sync))
            .count();
        let pulls = c2
            .sent()
            .iter()
            .filter(|(_, m)| matches!(m, ConsensusMsg::DecisionPull))
            .count();
        assert_eq!((syncs, pulls), (4, 4));
    }
}
