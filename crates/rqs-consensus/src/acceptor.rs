//! The acceptor automaton (Fig. 15: Locking module + Fig. 14: Election
//! module).

use crate::choose::{validate_ack, ChooseInput};
use crate::decide::DecisionTracker;
use crate::persist::AcceptorCore;
use crate::types::{
    encode_new_view_ack, encode_update, encode_view_change, ConsensusMsg, NewViewAckBody,
    ProposalValue, SignedNewViewAck, SignedUpdate, SignedViewChange, View, INIT_VIEW,
};
use rqs_core::{ProcessId, ProcessSet, QuorumId, Rqs};
use rqs_crypto::{KeyRegistry, Keypair, SignerId};
use rqs_sim::{Automaton, Context, NodeId, TimerToken, DELTA};
use rqs_store::StoreHandle;
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Initial suspicion timeout (`5Δ` in the paper, plus the discretization
/// tick).
pub const SUSPECT_TIMEOUT: u64 = 5 * DELTA + 1;

/// Static wiring of a consensus deployment, shared by all automatons.
#[derive(Clone, Debug)]
pub struct ConsensusConfig {
    /// The refined quorum system over the acceptors.
    pub rqs: Arc<Rqs>,
    /// Signature verification directory.
    pub registry: KeyRegistry,
    /// Node ids of the acceptors, universe order.
    pub acceptors: Vec<NodeId>,
    /// Node ids of the proposers; the leader of view `w` is
    /// `proposers[w % len]`.
    pub proposers: Vec<NodeId>,
    /// Node ids of the learners.
    pub learners: Vec<NodeId>,
}

impl ConsensusConfig {
    /// Index of `node` among the acceptors, if it is one.
    pub fn acceptor_index(&self, node: NodeId) -> Option<ProcessId> {
        self.acceptors
            .iter()
            .position(|&a| a == node)
            .map(ProcessId)
    }

    /// The leader of a view.
    pub fn leader_of(&self, view: View) -> NodeId {
        self.proposers[(view as usize) % self.proposers.len()]
    }

    /// All acceptor and learner nodes (the update fan-out set).
    pub fn acceptors_and_learners(&self) -> Vec<NodeId> {
        let mut v = self.acceptors.clone();
        v.extend(&self.learners);
        v
    }

    /// Verifies a `viewProof`: signed `view_change⟨view⟩` messages whose
    /// signers cover some quorum.
    pub fn view_proof_matches(&self, view: View, proof: &[SignedViewChange]) -> bool {
        let bytes = encode_view_change(view);
        let mut signers = ProcessSet::empty();
        for svc in proof {
            if svc.next_view == view
                && self
                    .registry
                    .verify(SignerId(svc.acceptor.0), &bytes, &svc.sig)
            {
                signers.insert(svc.acceptor);
            }
        }
        self.rqs.any_quorum_within(signers)
    }
}

/// Proof-gathering state while answering a `new_view` (Fig. 12 lines
/// 23–27).
#[derive(Debug)]
struct PendingAck {
    proposer: NodeId,
    needed: BTreeSet<(usize, View)>,
    collected: BTreeMap<(usize, View), Vec<SignedUpdate>>,
}

/// The acceptor automaton.
#[derive(Debug)]
pub struct Acceptor {
    cfg: ConsensusConfig,
    me: ProcessId,
    keypair: Keypair,

    // ---- Locking state (Fig. 15 initialization) ----
    view: View,
    prep: Option<ProposalValue>,
    prep_view: BTreeSet<View>,
    update: [Option<ProposalValue>; 2],
    update_view: [BTreeSet<View>; 2],
    update_q: [BTreeMap<View, BTreeSet<QuorumId>>; 2],
    update_proof: [BTreeMap<View, Vec<SignedUpdate>>; 2],
    /// Update messages this acceptor has sent (`old`).
    old: BTreeSet<(usize, ProposalValue, View)>,

    /// Senders of `update1⟨v, w⟩` / `update2⟨v, w, ∗⟩` seen so far.
    upd_senders: [BTreeMap<(ProposalValue, View), ProcessSet>; 2],

    decider: DecisionTracker,
    decision_senders: BTreeMap<ProposalValue, ProcessSet>,
    pending_ack: Option<PendingAck>,

    // ---- Election state (Fig. 14) ----
    suspect_timer: Option<TimerToken>,
    suspect_timeout: u64,
    next_view: View,
    timer_stopped: bool,

    /// Write-ahead store for the locking core (see [`AcceptorCore`]);
    /// `None` keeps the acceptor purely volatile.
    store: Option<StoreHandle>,
}

impl Acceptor {
    /// Creates acceptor `me` (a universe index) with its signing key.
    pub fn new(cfg: ConsensusConfig, me: ProcessId, keypair: Keypair) -> Self {
        let decider = DecisionTracker::new(cfg.rqs.clone());
        Acceptor {
            cfg,
            me,
            keypair,
            view: INIT_VIEW,
            prep: None,
            prep_view: BTreeSet::new(),
            update: [None, None],
            update_view: [BTreeSet::new(), BTreeSet::new()],
            update_q: [BTreeMap::new(), BTreeMap::new()],
            update_proof: [BTreeMap::new(), BTreeMap::new()],
            old: BTreeSet::new(),
            upd_senders: [BTreeMap::new(), BTreeMap::new()],
            decider,
            decision_senders: BTreeMap::new(),
            pending_ack: None,
            suspect_timer: None,
            suspect_timeout: SUSPECT_TIMEOUT,
            next_view: INIT_VIEW,
            timer_stopped: false,
            store: None,
        }
    }

    /// An acceptor journaling its locking core to `store`: every step
    /// that changes the core appends a record before any produced
    /// message leaves, so an amnesia restart cannot equivocate on
    /// promises it already signed.
    pub fn with_store(
        cfg: ConsensusConfig,
        me: ProcessId,
        keypair: Keypair,
        store: StoreHandle,
    ) -> Self {
        let mut a = Acceptor::new(cfg, me, keypair);
        a.store = Some(store);
        a
    }

    /// The decided value, if any.
    pub fn decided(&self) -> Option<ProposalValue> {
        self.decider.decided()
    }

    /// The durable locking core (everything an amnesia crash must keep).
    fn core(&self) -> AcceptorCore {
        AcceptorCore {
            view: self.view,
            prep: self.prep,
            prep_view: self.prep_view.clone(),
            update: self.update,
            update_view: self.update_view.clone(),
            old: self.old.clone(),
            decided: self.decider.decided(),
        }
    }

    /// Appends a core record iff the step changed the core. Runs before
    /// the handler returns, i.e. before any buffered send is released.
    fn persist_if_changed(&mut self, before: Option<AcceptorCore>) {
        let (Some(before), Some(store)) = (before, &self.store) else {
            return;
        };
        let now = self.core();
        if now != before {
            store.append(&now.encode(), 1);
        }
    }

    /// The acceptor's current view.
    pub fn view(&self) -> View {
        self.view
    }

    /// The last prepared value (test/inspection).
    pub fn prepared(&self) -> Option<ProposalValue> {
        self.prep
    }

    // ---- update phase ---------------------------------------------------

    /// Fig. 15 lines 31–33.
    fn on_prepare(
        &mut self,
        from: NodeId,
        value: ProposalValue,
        view: View,
        v_proof: Option<Vec<SignedNewViewAck>>,
        quorum: Option<QuorumId>,
        ctx: &mut Context<ConsensusMsg>,
    ) {
        // Election line 0: the first initial-view prepare starts the
        // suspicion timer.
        if view == INIT_VIEW {
            self.ensure_suspect_timer(ctx);
        }
        if view != self.view {
            return;
        }
        // "(w ∈ Prepview ⇒ w < viewaj)": not yet prepared in this view.
        if self.prep_view.contains(&self.view) {
            return;
        }
        if self.view != INIT_VIEW {
            // Leader + proof check.
            if self.cfg.leader_of(view) != from {
                return;
            }
            let (Some(proof), Some(q)) = (v_proof, quorum) else {
                return;
            };
            if !self.validate_v_proof(value, view, &proof, q) {
                return;
            }
        }
        // Prepare v in this view (line 32).
        if self.prep == Some(value) {
            self.prep_view.insert(self.view);
        } else {
            self.prep = Some(value);
            self.prep_view = BTreeSet::from([self.view]);
        }
        // Echo update1 (line 33).
        let m = ConsensusMsg::Update {
            step: 1,
            value,
            view: self.view,
            quorum: None,
        };
        self.old.insert((1, value, self.view));
        ctx.broadcast(self.cfg.acceptors_and_learners(), m);
        // A delayed quorum of update messages may already be waiting.
        self.check_updates(ctx);
    }

    /// Validates a `prepare`'s `vProof` against quorum `q` and re-runs
    /// `choose()` (the `choose()` call in Fig. 15 line 31).
    fn validate_v_proof(
        &self,
        value: ProposalValue,
        view: View,
        proof: &[SignedNewViewAck],
        q: QuorumId,
    ) -> bool {
        if q.0 >= self.cfg.rqs.len() {
            return false;
        }
        let q_set = self.cfg.rqs.quorum(q);
        let mut acks: BTreeMap<ProcessId, NewViewAckBody> = BTreeMap::new();
        for ack in proof {
            if ack.body.view != view || !validate_ack(&self.cfg.rqs, &self.cfg.registry, ack) {
                return false;
            }
            acks.insert(ack.acceptor, ack.body.clone());
        }
        if !q_set.iter().all(|p| acks.contains_key(&p)) {
            return false;
        }
        let input = ChooseInput {
            rqs: &self.cfg.rqs,
            q,
            acks: &acks,
        };
        let out = input.choose(value);
        !out.abort && out.value == value
    }

    /// Fig. 15 lines 34–38, re-evaluated whenever senders or preparation
    /// state change.
    fn check_updates(&mut self, ctx: &mut Context<ConsensusMsg>) {
        // Step 1 → update2 echoes: one per newly covered quorum id.
        if let Some(v) = self.prep {
            if self.prep_view.contains(&self.view) {
                let key = (v, self.view);
                let senders1 = self.upd_senders[0].get(&key).copied().unwrap_or_default();
                let covered: Vec<QuorumId> = self.cfg.rqs.quorums_within(senders1).collect();
                for q in covered {
                    let seen = self.update_q[0]
                        .get(&self.view)
                        .is_some_and(|qs| qs.contains(&q));
                    if !seen {
                        self.apply_update(1, v);
                        self.update_q[0].entry(self.view).or_default().insert(q);
                        let m = ConsensusMsg::Update {
                            step: 2,
                            value: v,
                            view: self.view,
                            quorum: Some(q),
                        };
                        self.old.insert((2, v, self.view));
                        ctx.broadcast(self.cfg.acceptors_and_learners(), m);
                    }
                }
                // Step 2 → one update3 echo per view.
                let senders2 = self.upd_senders[1].get(&key).copied().unwrap_or_default();
                let empty = self.update_q[1]
                    .get(&self.view)
                    .is_none_or(|qs| qs.is_empty());
                if empty {
                    let first = self.cfg.rqs.quorums_within(senders2).next();
                    if let Some(q) = first {
                        self.apply_update(2, v);
                        self.update_q[1].entry(self.view).or_default().insert(q);
                        let m = ConsensusMsg::Update {
                            step: 3,
                            value: v,
                            view: self.view,
                            quorum: Some(q),
                        };
                        self.old.insert((3, v, self.view));
                        ctx.broadcast(self.cfg.acceptors_and_learners(), m);
                    }
                }
            }
        }
    }

    /// Lines 34–35: adopt `v` as the step-`s` update for the current view.
    fn apply_update(&mut self, step: usize, v: ProposalValue) {
        let s = step - 1;
        if self.update[s] == Some(v) {
            self.update_view[s].insert(self.view);
        } else {
            self.update[s] = Some(v);
            self.update_view[s] = BTreeSet::from([self.view]);
            self.update_q[s].clear();
            self.update_proof[s].clear();
        }
    }

    fn on_update(
        &mut self,
        sender: ProcessId,
        step: usize,
        value: ProposalValue,
        view: View,
        quorum: Option<QuorumId>,
        ctx: &mut Context<ConsensusMsg>,
    ) {
        // Decision rules (lines 51–53) run at acceptors too.
        if let Some(v) = self.decider.record(step, value, view, quorum, sender) {
            self.on_decide(v, ctx);
        }
        if step == 1 || step == 2 {
            self.upd_senders[step - 1]
                .entry((value, view))
                .or_default()
                .insert(sender);
            if view == self.view {
                self.check_updates(ctx);
            }
        }
    }

    fn on_decide(&mut self, v: ProposalValue, ctx: &mut Context<ConsensusMsg>) {
        // Election line 7: broadcast the decision to acceptors.
        ctx.broadcast(
            self.cfg.acceptors.clone(),
            ConsensusMsg::Decision { value: v },
        );
    }

    // ---- consult phase --------------------------------------------------

    /// Fig. 15 lines 21–28.
    fn on_new_view(
        &mut self,
        from: NodeId,
        view: View,
        view_proof: Vec<SignedViewChange>,
        ctx: &mut Context<ConsensusMsg>,
    ) {
        if view <= self.view && !(view == INIT_VIEW && self.view == INIT_VIEW) {
            return;
        }
        if self.cfg.leader_of(view) != from {
            return;
        }
        if !self.cfg.view_proof_matches(view, &view_proof) {
            return;
        }
        self.view = view;
        // Gather missing update proofs (lines 23–27).
        let mut needed: BTreeSet<(usize, View)> = BTreeSet::new();
        for s in 0..2 {
            for &w in &self.update_view[s] {
                let have = self.update_proof[s].get(&w).is_some_and(|p| !p.is_empty());
                if !have {
                    needed.insert((s, w));
                }
            }
        }
        if needed.is_empty() {
            self.send_new_view_ack(from, ctx);
            return;
        }
        for &(s, w) in &needed {
            let value = self.update[s].expect("update value exists for its views");
            // Line 24: ask some quorum in UpdateQ[step, w].
            let target_quorum = self.update_q[s]
                .get(&w)
                .and_then(|qs| qs.iter().next().copied());
            let targets: Vec<NodeId> = match target_quorum {
                Some(q) => self
                    .cfg
                    .rqs
                    .quorum(q)
                    .iter()
                    .map(|p| self.cfg.acceptors[p.index()])
                    .collect(),
                // No recorded quorum (shouldn't happen for benign state):
                // ask everyone.
                None => self.cfg.acceptors.clone(),
            };
            ctx.broadcast(
                targets,
                ConsensusMsg::SignReq {
                    value,
                    view: w,
                    step: s + 1,
                },
            );
        }
        self.pending_ack = Some(PendingAck {
            proposer: from,
            needed,
            collected: BTreeMap::new(),
        });
    }

    fn send_new_view_ack(&mut self, to: NodeId, ctx: &mut Context<ConsensusMsg>) {
        let body = NewViewAckBody {
            view: self.view,
            prep: self.prep,
            prep_view: self.prep_view.clone(),
            update: self.update,
            update_view: self.update_view.clone(),
            update_proof: self.update_proof.clone(),
            update_q: self.update_q.clone(),
        };
        let sig = self.keypair.sign(&encode_new_view_ack(&body));
        ctx.send(
            to,
            ConsensusMsg::NewViewAck(SignedNewViewAck {
                acceptor: self.me,
                body,
                sig,
            }),
        );
    }

    /// Fig. 15 line 29.
    fn on_sign_req(
        &mut self,
        from: NodeId,
        value: ProposalValue,
        view: View,
        step: usize,
        ctx: &mut Context<ConsensusMsg>,
    ) {
        if self.old.contains(&(step, value, view)) {
            let sig = self.keypair.sign(&encode_update(step, value, view));
            ctx.send(
                from,
                ConsensusMsg::SignAck(SignedUpdate {
                    acceptor: self.me,
                    step,
                    value,
                    view,
                    sig,
                }),
            );
        }
    }

    fn on_sign_ack(&mut self, su: SignedUpdate, ctx: &mut Context<ConsensusMsg>) {
        let Some(pending) = &mut self.pending_ack else {
            return;
        };
        let s = su.step.wrapping_sub(1);
        if s >= 2 {
            return;
        }
        let key = (s, su.view);
        if !pending.needed.contains(&key) {
            return;
        }
        if self.update[s] != Some(su.value) || !self.update_view[s].contains(&su.view) {
            return;
        }
        if !self.cfg.registry.verify(
            SignerId(su.acceptor.0),
            &encode_update(su.step, su.value, su.view),
            &su.sig,
        ) {
            return;
        }
        let entry = pending.collected.entry(key).or_default();
        if entry.iter().any(|e| e.acceptor == su.acceptor) {
            return;
        }
        entry.push(su);
        // A basic subset of signatures completes this proof (line 26).
        let signers: ProcessSet = entry.iter().map(|e| e.acceptor).collect();
        if self.cfg.rqs.adversary().is_basic(signers) {
            let proofs = entry.clone();
            self.update_proof[s].insert(su.view, proofs);
            pending.needed.remove(&key);
            if pending.needed.is_empty() {
                let to = pending.proposer;
                self.pending_ack = None;
                self.send_new_view_ack(to, ctx);
            }
        }
    }

    // ---- election (Fig. 14) ---------------------------------------------

    fn ensure_suspect_timer(&mut self, ctx: &mut Context<ConsensusMsg>) {
        if self.suspect_timer.is_none() && !self.timer_stopped {
            self.suspect_timer = Some(ctx.set_timer(self.suspect_timeout));
        }
    }

    fn on_decision(&mut self, sender: ProcessId, value: ProposalValue) {
        let senders = self.decision_senders.entry(value).or_default();
        senders.insert(sender);
        // Line 8: a quorum of decisions stops the suspicion timer.
        if self.cfg.rqs.any_quorum_within(*senders) {
            self.timer_stopped = true;
            // Also adopt the decision for decision_pull serving.
            self.decider.force_decide(value);
        }
    }
}

impl Automaton<ConsensusMsg> for Acceptor {
    fn state_digest(&self) -> u64 {
        rqs_sim::fnv1a_fold(
            rqs_sim::fnv1a(
                format!(
                    "{:?},{:?},{:?},{:?},{:?},{:?},{:?},{:?},{:?},{:?},{:?}",
                    self.view,
                    self.prep,
                    self.prep_view,
                    self.update,
                    self.update_view,
                    self.update_q,
                    self.old,
                    self.upd_senders,
                    self.decision_senders,
                    self.next_view,
                    self.timer_stopped,
                )
                .as_bytes(),
            ),
            self.decider.state_digest(),
        )
    }

    fn on_message(&mut self, from: NodeId, msg: ConsensusMsg, ctx: &mut Context<ConsensusMsg>) {
        let before = self.store.as_ref().map(|_| self.core());
        match msg {
            ConsensusMsg::Prepare {
                value,
                view,
                v_proof,
                quorum,
            } => {
                self.on_prepare(from, value, view, v_proof, quorum, ctx);
            }
            ConsensusMsg::Update {
                step,
                value,
                view,
                quorum,
            } => {
                if let Some(sender) = self.cfg.acceptor_index(from) {
                    self.on_update(sender, step, value, view, quorum, ctx);
                }
            }
            ConsensusMsg::NewView { view, view_proof } => {
                self.on_new_view(from, view, view_proof, ctx);
            }
            ConsensusMsg::SignReq { value, view, step } => {
                if self.cfg.acceptor_index(from).is_some() {
                    self.on_sign_req(from, value, view, step, ctx);
                }
            }
            ConsensusMsg::SignAck(su) => {
                if self.cfg.acceptor_index(from) == Some(su.acceptor) {
                    self.on_sign_ack(su, ctx);
                }
            }
            ConsensusMsg::Decision { value } => {
                if let Some(sender) = self.cfg.acceptor_index(from) {
                    self.on_decision(sender, value);
                }
            }
            ConsensusMsg::DecisionPull => {
                // Fig. 15 line 40.
                if let Some(v) = self.decider.decided() {
                    let mut targets = self.cfg.acceptors.clone();
                    targets.push(from);
                    ctx.broadcast(targets, ConsensusMsg::Decision { value: v });
                }
            }
            ConsensusMsg::Sync => {
                self.ensure_suspect_timer(ctx);
            }
            // Acceptors never receive these:
            ConsensusMsg::NewViewAck(_) | ConsensusMsg::ViewChange(_) => {}
        }
        self.persist_if_changed(before);
    }

    fn on_timer(&mut self, timer: TimerToken, ctx: &mut Context<ConsensusMsg>) {
        if self.suspect_timer != Some(timer) {
            return;
        }
        self.suspect_timer = None;
        if self.timer_stopped {
            return;
        }
        // Fig. 14 lines 1–5: exponential backoff, promote the next view.
        self.suspect_timeout *= 2;
        self.next_view = self.next_view.max(self.view) + 1;
        let leader = self.cfg.leader_of(self.next_view);
        let sig = self.keypair.sign(&encode_view_change(self.next_view));
        ctx.send(
            leader,
            ConsensusMsg::ViewChange(SignedViewChange {
                acceptor: self.me,
                next_view: self.next_view,
                sig,
            }),
        );
        self.suspect_timer = Some(ctx.set_timer(self.suspect_timeout));
    }

    fn save_state(&mut self) {
        if let Some(store) = &self.store {
            store.install_snapshot(&self.core().encode());
        }
    }

    fn restore_state(&mut self) -> usize {
        let Some(store) = self.store.clone() else {
            return 0;
        };
        store.crash();
        let rec = store.load();
        let (core, replayed) = AcceptorCore::restore(&rec);
        // Everything outside the core is volatile: proof caches and
        // sender maps are message-derived, election state restarts from
        // its initial timeout (liveness only, like a fresh boot).
        self.update_q = [BTreeMap::new(), BTreeMap::new()];
        self.update_proof = [BTreeMap::new(), BTreeMap::new()];
        self.upd_senders = [BTreeMap::new(), BTreeMap::new()];
        self.decision_senders = BTreeMap::new();
        self.decider = DecisionTracker::new(self.cfg.rqs.clone());
        self.pending_ack = None;
        self.suspect_timer = None;
        self.suspect_timeout = SUSPECT_TIMEOUT;
        self.next_view = INIT_VIEW;
        self.timer_stopped = false;
        let core = core.unwrap_or_default();
        self.view = core.view;
        self.prep = core.prep;
        self.prep_view = core.prep_view;
        self.update = core.update;
        self.update_view = core.update_view;
        self.old = core.old;
        if let Some(v) = core.decided {
            self.decider.force_decide(v);
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

#[cfg(test)]
mod tests {
    use super::*;
    use rqs_core::threshold::ThresholdConfig;
    use rqs_sim::Time;

    fn config() -> ConsensusConfig {
        let rqs = Arc::new(ThresholdConfig::byzantine_fast(1).build().unwrap());
        ConsensusConfig {
            rqs,
            registry: KeyRegistry::new(4, 11),
            acceptors: (0..4).map(NodeId).collect(),
            proposers: vec![NodeId(4), NodeId(5)],
            learners: vec![NodeId(6)],
        }
    }

    fn acceptor(cfg: &ConsensusConfig, i: usize) -> Acceptor {
        let kp = cfg.registry.signer(SignerId(i));
        Acceptor::new(cfg.clone(), ProcessId(i), kp)
    }

    fn ctx(at: u64) -> Context<ConsensusMsg> {
        Context::new(NodeId(0), Time(at), 0)
    }

    #[test]
    fn initial_view_prepare_echoes_update1() {
        let cfg = config();
        let mut a = acceptor(&cfg, 0);
        let mut c = ctx(0);
        a.on_message(
            NodeId(4),
            ConsensusMsg::Prepare {
                value: 7,
                view: 0,
                v_proof: None,
                quorum: None,
            },
            &mut c,
        );
        assert_eq!(a.prepared(), Some(7));
        // update1 to 4 acceptors + 1 learner.
        let updates: Vec<_> = c
            .sent()
            .iter()
            .filter(|(_, m)| matches!(m, ConsensusMsg::Update { step: 1, .. }))
            .collect();
        assert_eq!(updates.len(), 5);
        // Suspicion timer armed.
        assert_eq!(c.armed_timers().len(), 1);
    }

    #[test]
    fn second_prepare_same_view_ignored() {
        let cfg = config();
        let mut a = acceptor(&cfg, 0);
        let mut c = ctx(0);
        let prep = |v| ConsensusMsg::Prepare {
            value: v,
            view: 0,
            v_proof: None,
            quorum: None,
        };
        a.on_message(NodeId(4), prep(7), &mut c);
        let mut c2 = ctx(1);
        a.on_message(NodeId(5), prep(9), &mut c2);
        assert_eq!(a.prepared(), Some(7), "only the first prepare in a view");
        assert!(c2.sent().is_empty());
    }

    #[test]
    fn quorum_of_update1_triggers_update2_per_quorum() {
        let cfg = config();
        let mut a = acceptor(&cfg, 0);
        let mut c = ctx(0);
        a.on_message(
            NodeId(4),
            ConsensusMsg::Prepare {
                value: 7,
                view: 0,
                v_proof: None,
                quorum: None,
            },
            &mut c,
        );
        // update1 from acceptors 0,1,2 (a 3-member class-2 quorum).
        for i in 0..3 {
            let mut ci = ctx(2);
            a.on_message(
                NodeId(i),
                ConsensusMsg::Update {
                    step: 1,
                    value: 7,
                    view: 0,
                    quorum: None,
                },
                &mut ci,
            );
            if i == 2 {
                let u2: Vec<_> = ci
                    .sent()
                    .iter()
                    .filter(|(_, m)| matches!(m, ConsensusMsg::Update { step: 2, .. }))
                    .collect();
                assert!(!u2.is_empty(), "covered quorum must trigger update2");
            }
        }
        // A fourth sender covers more quorums → more update2s.
        let mut c4 = ctx(3);
        a.on_message(
            NodeId(3),
            ConsensusMsg::Update {
                step: 1,
                value: 7,
                view: 0,
                quorum: None,
            },
            &mut c4,
        );
        let u2: Vec<_> = c4
            .sent()
            .iter()
            .filter(|(_, m)| matches!(m, ConsensusMsg::Update { step: 2, .. }))
            .collect();
        assert!(
            !u2.is_empty(),
            "newly covered quorums trigger more update2s"
        );
    }

    #[test]
    fn update2_quorum_triggers_single_update3() {
        let cfg = config();
        let mut a = acceptor(&cfg, 0);
        let mut c = ctx(0);
        a.on_message(
            NodeId(4),
            ConsensusMsg::Prepare {
                value: 7,
                view: 0,
                v_proof: None,
                quorum: None,
            },
            &mut c,
        );
        let q = cfg.rqs.id_of(ProcessSet::from_indices([0, 1, 2])).unwrap();
        let mut total_u3 = 0;
        for i in 0..4 {
            let mut ci = ctx(3);
            a.on_message(
                NodeId(i),
                ConsensusMsg::Update {
                    step: 2,
                    value: 7,
                    view: 0,
                    quorum: Some(q),
                },
                &mut ci,
            );
            total_u3 += ci
                .sent()
                .iter()
                .filter(|(_, m)| matches!(m, ConsensusMsg::Update { step: 3, .. }))
                .count();
        }
        // One update3 per view, broadcast to 5 nodes.
        assert_eq!(total_u3, 5);
    }

    #[test]
    fn decision_quorum_stops_timer_logically() {
        let cfg = config();
        let mut a = acceptor(&cfg, 0);
        for i in 0..3 {
            let mut c = ctx(1);
            a.on_message(NodeId(i), ConsensusMsg::Decision { value: 5 }, &mut c);
        }
        assert!(a.timer_stopped);
        assert_eq!(a.decided(), Some(5));
    }

    #[test]
    fn decision_pull_answered_when_decided() {
        let cfg = config();
        let mut a = acceptor(&cfg, 0);
        // Not decided: pull ignored.
        let mut c = ctx(1);
        a.on_message(NodeId(6), ConsensusMsg::DecisionPull, &mut c);
        assert!(c.sent().is_empty());
        a.decider.force_decide(3);
        let mut c2 = ctx(2);
        a.on_message(NodeId(6), ConsensusMsg::DecisionPull, &mut c2);
        // decision to 4 acceptors + the puller.
        assert_eq!(c2.sent().len(), 5);
    }

    #[test]
    fn suspect_timer_fires_view_change_with_backoff() {
        let cfg = config();
        let mut a = acceptor(&cfg, 2);
        let mut c = ctx(0);
        a.on_message(NodeId(4), ConsensusMsg::Sync, &mut c);
        let (delay1, token) = c.armed_timers()[0];
        assert_eq!(delay1, SUSPECT_TIMEOUT);
        let mut c2 = ctx(delay1);
        a.on_timer(token, &mut c2);
        // view_change sent to the leader of view 1 = proposers[1].
        assert_eq!(c2.sent().len(), 1);
        assert_eq!(c2.sent()[0].0, NodeId(5));
        match &c2.sent()[0].1 {
            ConsensusMsg::ViewChange(svc) => {
                assert_eq!(svc.next_view, 1);
                assert_eq!(svc.acceptor, ProcessId(2));
                assert!(cfg
                    .registry
                    .verify(SignerId(2), &encode_view_change(1), &svc.sig));
            }
            other => panic!("{other:?}"),
        }
        // Backoff doubled.
        assert_eq!(c2.armed_timers()[0].0, SUSPECT_TIMEOUT * 2);
    }

    #[test]
    fn new_view_without_pending_proofs_acks_immediately() {
        let cfg = config();
        let mut a = acceptor(&cfg, 0);
        // Build a valid view proof for view 1 signed by a quorum.
        let proof: Vec<SignedViewChange> = (0..3)
            .map(|i| SignedViewChange {
                acceptor: ProcessId(i),
                next_view: 1,
                sig: cfg
                    .registry
                    .signer(SignerId(i))
                    .sign(&encode_view_change(1)),
            })
            .collect();
        let mut c = ctx(5);
        a.on_message(
            NodeId(5), // leader of view 1
            ConsensusMsg::NewView {
                view: 1,
                view_proof: proof,
            },
            &mut c,
        );
        assert_eq!(a.view(), 1);
        assert_eq!(c.sent().len(), 1);
        match &c.sent()[0].1 {
            ConsensusMsg::NewViewAck(ack) => {
                assert_eq!(ack.body.view, 1);
                assert!(validate_ack(&cfg.rqs, &cfg.registry, ack));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn new_view_with_bogus_proof_rejected() {
        let cfg = config();
        let mut a = acceptor(&cfg, 0);
        let forged: Vec<SignedViewChange> = (0..3)
            .map(|i| SignedViewChange {
                acceptor: ProcessId(i),
                next_view: 1,
                // signature over the WRONG view
                sig: cfg
                    .registry
                    .signer(SignerId(i))
                    .sign(&encode_view_change(2)),
            })
            .collect();
        let mut c = ctx(5);
        a.on_message(
            NodeId(5),
            ConsensusMsg::NewView {
                view: 1,
                view_proof: forged,
            },
            &mut c,
        );
        assert_eq!(a.view(), 0);
        assert!(c.sent().is_empty());
    }

    #[test]
    fn amnesia_restore_keeps_promises() {
        let cfg = config();
        let kp = cfg.registry.signer(SignerId(0));
        let store = StoreHandle::mem();
        let mut a = Acceptor::with_store(cfg.clone(), ProcessId(0), kp, store.clone());
        let mut c = ctx(0);
        a.on_message(
            NodeId(4),
            ConsensusMsg::Prepare {
                value: 7,
                view: 0,
                v_proof: None,
                quorum: None,
            },
            &mut c,
        );
        let old_before = a.old.clone();
        assert!(!old_before.is_empty());
        assert!(store.stats().appends > 0, "prepare journaled before send");

        // Amnesia crash: wipe, then restore from the store alone.
        let replayed = a.restore_state();
        assert!(replayed > 0);
        assert_eq!(a.prepared(), Some(7));
        assert_eq!(a.old, old_before, "signed updates are not forgotten");

        // A conflicting prepare in the same view is still refused.
        let mut c2 = ctx(1);
        a.on_message(
            NodeId(4),
            ConsensusMsg::Prepare {
                value: 9,
                view: 0,
                v_proof: None,
                quorum: None,
            },
            &mut c2,
        );
        assert_eq!(a.prepared(), Some(7));

        // Snapshot compaction: restore now replays zero log records.
        a.save_state();
        assert_eq!(a.restore_state(), 0);
        assert_eq!(a.prepared(), Some(7));
    }

    #[test]
    fn decided_value_survives_amnesia() {
        let cfg = config();
        let kp = cfg.registry.signer(SignerId(0));
        let store = StoreHandle::mem();
        let mut a = Acceptor::with_store(cfg, ProcessId(0), kp, store);
        for i in 0..3 {
            let mut c = ctx(1);
            a.on_message(NodeId(i), ConsensusMsg::Decision { value: 5 }, &mut c);
        }
        assert_eq!(a.decided(), Some(5));
        a.restore_state();
        assert_eq!(a.decided(), Some(5), "a decision is never retracted");
    }

    #[test]
    fn sign_req_answered_only_for_sent_updates() {
        let cfg = config();
        let mut a = acceptor(&cfg, 0);
        let mut c = ctx(0);
        a.on_message(
            NodeId(4),
            ConsensusMsg::Prepare {
                value: 7,
                view: 0,
                v_proof: None,
                quorum: None,
            },
            &mut c,
        );
        // update1⟨7,0⟩ is in `old` now.
        let mut c2 = ctx(2);
        a.on_message(
            NodeId(1),
            ConsensusMsg::SignReq {
                value: 7,
                view: 0,
                step: 1,
            },
            &mut c2,
        );
        assert_eq!(c2.sent().len(), 1);
        match &c2.sent()[0].1 {
            ConsensusMsg::SignAck(su) => {
                assert!(cfg
                    .registry
                    .verify(SignerId(0), &encode_update(1, 7, 0), &su.sig));
            }
            other => panic!("{other:?}"),
        }
        // A never-sent update is not vouched for.
        let mut c3 = ctx(3);
        a.on_message(
            NodeId(1),
            ConsensusMsg::SignReq {
                value: 9,
                view: 0,
                step: 1,
            },
            &mut c3,
        );
        assert!(c3.sent().is_empty());
    }
}
