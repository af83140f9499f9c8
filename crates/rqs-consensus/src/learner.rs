//! The learner automaton (Fig. 15 learner side).
//!
//! A learner learns a value as soon as it decides one through the three
//! update rules (lines 51–53, 60), or upon receiving `decision⟨v⟩` from a
//! basic subset of acceptors (line 101). A learner that has not learned
//! keeps pulling decisions from acceptors (lines 102–103).

use crate::acceptor::ConsensusConfig;
use crate::decide::DecisionTracker;
use crate::persist::LearnerCore;
use crate::types::{ConsensusMsg, ProposalValue};
use rqs_core::ProcessSet;
use rqs_obs::{Obs, TraceKind, LANE_SYS};
use rqs_sim::{Automaton, Context, NodeId, Time, TimerToken};
use rqs_store::StoreHandle;
use std::any::Any;
use std::collections::BTreeMap;

/// Interval between decision pulls while unlearned (the paper's "preset
/// time").
pub const PULL_INTERVAL: u64 = 10;

/// The learner automaton.
#[derive(Debug)]
pub struct Learner {
    cfg: ConsensusConfig,
    decider: DecisionTracker,
    decision_senders: BTreeMap<ProposalValue, ProcessSet>,
    learned: Option<(ProposalValue, Time)>,
    pull_timer: Option<TimerToken>,
    /// Planted bug (checker self-tests): trust `decision⟨v⟩` one sender
    /// short of a basic subset — i.e. from a set that may be entirely
    /// Byzantine. Always `false` outside the `mutants` feature.
    one_short_decisions: bool,
    /// Write-ahead store for the learned value; `None` stays volatile.
    store: Option<StoreHandle>,
    obs: Obs,
}

impl Learner {
    /// Creates a learner.
    pub fn new(cfg: ConsensusConfig) -> Self {
        let decider = DecisionTracker::new(cfg.rqs.clone());
        Learner {
            cfg,
            decider,
            decision_senders: BTreeMap::new(),
            learned: None,
            pull_timer: None,
            one_short_decisions: false,
            store: None,
            obs: Obs::nop(),
        }
    }

    /// Installs a structured-trace observer; by convention its tag is
    /// this learner's node id (the learn event is emitted outside a
    /// context, so the tag doubles as the node attribution).
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// A learner journaling its learned value to `store`, so an amnesia
    /// restart cannot un-learn a value it may already have reported.
    pub fn with_store(cfg: ConsensusConfig, store: StoreHandle) -> Self {
        let mut l = Learner::new(cfg);
        l.store = Some(store);
        l
    }

    /// Mutant: a learner whose decision rule is one sender short of the
    /// required basic subset (quorum-size off-by-one). For checker
    /// self-tests only.
    #[cfg(feature = "mutants")]
    pub fn new_mutant_one_short(cfg: ConsensusConfig) -> Self {
        let mut l = Learner::new(cfg);
        l.one_short_decisions = true;
        l
    }

    /// `true` iff adding any single extra acceptor to `senders` would
    /// make it a basic subset — the off-by-one acceptance the mutant uses.
    fn one_short_of_basic(&self, senders: ProcessSet) -> bool {
        let n = self.cfg.rqs.universe_size();
        (0..n).map(rqs_core::ProcessId).any(|p| {
            if senders.contains(p) {
                return false;
            }
            let mut extended = senders;
            extended.insert(p);
            self.cfg.rqs.adversary().is_basic(extended)
        })
    }

    /// The learned value and the time it was learned, if any.
    pub fn learned(&self) -> Option<(ProposalValue, Time)> {
        self.learned
    }

    fn learn(&mut self, v: ProposalValue, now: Time) {
        if self.learned.is_none() {
            self.learned = Some((v, now));
            self.obs.emit(
                TraceKind::OpCompleted,
                now.ticks(),
                self.obs.tag(),
                LANE_SYS,
                v,
                0,
            );
            // Write-ahead: durable before the learn is observable.
            if let Some(store) = &self.store {
                store.append(
                    &LearnerCore {
                        learned: Some((v, now.0)),
                    }
                    .encode(),
                    1,
                );
            }
        }
    }

    fn ensure_pull_timer(&mut self, ctx: &mut Context<ConsensusMsg>) {
        if self.learned.is_none() && self.pull_timer.is_none() {
            self.pull_timer = Some(ctx.set_timer(PULL_INTERVAL));
        }
    }
}

impl Automaton<ConsensusMsg> for Learner {
    fn state_digest(&self) -> u64 {
        rqs_sim::fnv1a_fold(
            rqs_sim::fnv1a(format!("{:?},{:?}", self.decision_senders, self.learned).as_bytes()),
            self.decider.state_digest(),
        )
    }

    fn on_start(&mut self, ctx: &mut Context<ConsensusMsg>) {
        // Lines 102–103: learners pull on a timer from the start, so even
        // a learner cut off from all protocol traffic eventually catches
        // up once the network heals.
        self.ensure_pull_timer(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: ConsensusMsg, ctx: &mut Context<ConsensusMsg>) {
        let Some(sender) = self.cfg.acceptor_index(from) else {
            return; // learners only listen to acceptors
        };
        // Any protocol traffic starts the pull loop (lines 102–103).
        self.ensure_pull_timer(ctx);
        match msg {
            ConsensusMsg::Update {
                step,
                value,
                view,
                quorum,
            } => {
                if let Some(v) = self.decider.record(step, value, view, quorum, sender) {
                    self.learn(v, ctx.now()); // line 60
                }
            }
            ConsensusMsg::Decision { value } => {
                let senders = self.decision_senders.entry(value).or_default();
                senders.insert(sender);
                let senders = *senders;
                // Line 101: a basic subset of decisions is trustworthy.
                // The one-short mutant accepts a possibly-all-Byzantine
                // sender set (quorum-size off-by-one).
                let trusted = self.cfg.rqs.adversary().is_basic(senders)
                    || (self.one_short_decisions && self.one_short_of_basic(senders));
                if trusted {
                    self.decider.force_decide(value);
                    self.learn(value, ctx.now());
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, timer: TimerToken, ctx: &mut Context<ConsensusMsg>) {
        if self.pull_timer != Some(timer) {
            return;
        }
        self.pull_timer = None;
        if self.learned.is_none() {
            ctx.broadcast(self.cfg.acceptors.clone(), ConsensusMsg::DecisionPull);
            self.pull_timer = Some(ctx.set_timer(PULL_INTERVAL));
        }
    }

    fn save_state(&mut self) {
        if let Some(store) = &self.store {
            let core = LearnerCore {
                learned: self.learned.map(|(v, t)| (v, t.0)),
            };
            store.install_snapshot(&core.encode());
        }
    }

    fn restore_state(&mut self) -> usize {
        let Some(store) = self.store.clone() else {
            return 0;
        };
        store.crash();
        let rec = store.load();
        let (core, replayed) = LearnerCore::restore(&rec);
        // Sender maps and the pull timer are volatile: the pull loop
        // re-arms on the next protocol traffic (or finds the value
        // already learned).
        self.decider = DecisionTracker::new(self.cfg.rqs.clone());
        self.decision_senders = BTreeMap::new();
        self.pull_timer = None;
        self.learned = core.unwrap_or_default().learned.map(|(v, t)| (v, Time(t)));
        if let Some((v, _)) = self.learned {
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
    use rqs_crypto::KeyRegistry;
    use std::sync::Arc;

    fn config() -> ConsensusConfig {
        ConsensusConfig {
            rqs: Arc::new(ThresholdConfig::byzantine_fast(1).build().unwrap()),
            registry: KeyRegistry::new(4, 11),
            acceptors: (0..4).map(NodeId).collect(),
            proposers: vec![NodeId(4), NodeId(5)],
            learners: vec![NodeId(6)],
        }
    }

    fn ctx(at: u64) -> Context<ConsensusMsg> {
        Context::new(NodeId(6), Time(at), 0)
    }

    #[test]
    fn learns_from_class1_update1_quorum() {
        let cfg = config();
        let mut l = Learner::new(cfg);
        for i in 0..4 {
            let mut c = ctx(2);
            l.on_message(
                NodeId(i),
                ConsensusMsg::Update {
                    step: 1,
                    value: 7,
                    view: 0,
                    quorum: None,
                },
                &mut c,
            );
        }
        assert_eq!(l.learned().map(|(v, _)| v), Some(7));
        assert_eq!(l.learned().map(|(_, t)| t), Some(Time(2)));
    }

    #[test]
    fn learns_from_basic_subset_of_decisions() {
        let cfg = config();
        let mut l = Learner::new(cfg);
        let mut c = ctx(3);
        l.on_message(NodeId(0), ConsensusMsg::Decision { value: 4 }, &mut c);
        assert_eq!(l.learned(), None, "one decision (∈ B_1) is not enough");
        let mut c2 = ctx(4);
        l.on_message(NodeId(1), ConsensusMsg::Decision { value: 4 }, &mut c2);
        assert_eq!(l.learned().map(|(v, _)| v), Some(4));
    }

    #[test]
    fn conflicting_single_decisions_do_not_learn() {
        let cfg = config();
        let mut l = Learner::new(cfg);
        let mut c = ctx(3);
        l.on_message(NodeId(0), ConsensusMsg::Decision { value: 4 }, &mut c);
        l.on_message(NodeId(1), ConsensusMsg::Decision { value: 5 }, &mut c);
        assert_eq!(l.learned(), None);
    }

    #[test]
    fn ignores_non_acceptor_senders() {
        let cfg = config();
        let mut l = Learner::new(cfg);
        let mut c = ctx(3);
        // Node 9 is not an acceptor.
        l.on_message(NodeId(9), ConsensusMsg::Decision { value: 4 }, &mut c);
        l.on_message(NodeId(9), ConsensusMsg::Decision { value: 4 }, &mut c);
        assert_eq!(l.learned(), None);
    }

    #[test]
    fn learned_value_survives_amnesia() {
        use rqs_store::StoreHandle;
        let store = StoreHandle::mem();
        let mut l = Learner::with_store(config(), store.clone());
        let mut c = ctx(4);
        l.on_message(NodeId(0), ConsensusMsg::Decision { value: 4 }, &mut c);
        l.on_message(NodeId(1), ConsensusMsg::Decision { value: 4 }, &mut c);
        assert_eq!(l.learned().map(|(v, _)| v), Some(4));
        assert_eq!(store.stats().appends, 1, "journaled exactly once");

        let replayed = l.restore_state();
        assert_eq!(replayed, 1);
        assert_eq!(l.learned(), Some((4, Time(4))), "value and time survive");
        // The pull timer does not re-arm for a learner that remembers.
        let mut c2 = ctx(5);
        l.on_message(NodeId(0), ConsensusMsg::Decision { value: 4 }, &mut c2);
        l.save_state();
        assert_eq!(l.restore_state(), 0, "snapshot compacts the log");
        assert_eq!(l.learned().map(|(v, _)| v), Some(4));
    }

    #[test]
    fn pull_loop_runs_until_learned() {
        let cfg = config();
        let mut l = Learner::new(cfg);
        let mut c = ctx(0);
        // First traffic arms the pull timer.
        l.on_message(
            NodeId(0),
            ConsensusMsg::Update {
                step: 1,
                value: 7,
                view: 0,
                quorum: None,
            },
            &mut c,
        );
        let (_, token) = c.armed_timers()[0];
        let mut c2 = ctx(PULL_INTERVAL);
        l.on_timer(token, &mut c2);
        let pulls = c2
            .sent()
            .iter()
            .filter(|(_, m)| matches!(m, ConsensusMsg::DecisionPull))
            .count();
        assert_eq!(pulls, 4);
        assert_eq!(c2.armed_timers().len(), 1, "re-armed while unlearned");
        // After learning, the timer is not re-armed.
        l.learn(7, Time(20));
        let (_, token2) = c2.armed_timers()[0];
        let mut c3 = ctx(2 * PULL_INTERVAL);
        l.on_timer(token2, &mut c3);
        assert!(c3.sent().is_empty());
        assert!(c3.armed_timers().is_empty());
    }
}
