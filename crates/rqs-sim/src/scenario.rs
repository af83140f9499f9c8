//! Declarative fault scenarios, portable across substrates.
//!
//! A [`Scenario`] describes *what goes wrong* in an execution — link
//! partitions with heal times, per-link delay/jitter/drop/duplication
//! schedules, crash-and-restart plans, Byzantine swap-ins — without
//! committing to an execution substrate. The same description drives both
//! deployments:
//!
//! - its link rules decide each message's [`Fate`] in one place,
//!   [`ScenarioNet::decide`]: the simulator routes through it as a
//!   [`FatePolicy`], and the threaded runtime calls it in the send path,
//!   on the sender's thread;
//! - on both, a delayed message is a delivery entry and a crash plan is
//!   a crash and a restart entry on the [`Agenda`](crate::Agenda) the
//!   substrate drives.
//!
//! All times are protocol ticks: one tick is one synchronous message
//! delay on the simulator, one configured tick length on the runtime.

use crate::network::{Envelope, Fate, FatePolicy, Selector};
use crate::node::NodeId;
use crate::time::Time;

/// One scripted link effect: what happens to messages matching the
/// selectors inside the tick window.
#[derive(Clone, Debug)]
pub struct LinkRule {
    /// Sender filter.
    pub from: Selector,
    /// Receiver filter.
    pub to: Selector,
    /// First tick (inclusive) the rule applies to.
    pub from_tick: u64,
    /// First tick the rule no longer applies to (`None` = forever).
    pub until_tick: Option<u64>,
    /// The effect applied to matching messages.
    pub effect: LinkEffect,
}

impl LinkRule {
    /// A rule applying `effect` to every message, forever.
    pub fn every(effect: LinkEffect) -> Self {
        LinkRule {
            from: Selector::Any,
            to: Selector::Any,
            from_tick: 0,
            until_tick: None,
            effect,
        }
    }

    /// Restricts the sender.
    pub fn from(mut self, sel: Selector) -> Self {
        self.from = sel;
        self
    }

    /// Restricts the receiver.
    pub fn to(mut self, sel: Selector) -> Self {
        self.to = sel;
        self
    }

    /// Restricts the send-tick window to `[start, end)`.
    pub fn during(mut self, start: u64, end: u64) -> Self {
        self.from_tick = start;
        self.until_tick = Some(end);
        self
    }

    fn matches(&self, from: NodeId, to: NodeId, sent_tick: u64) -> bool {
        sent_tick >= self.from_tick
            && self.until_tick.is_none_or(|e| sent_tick < e)
            && self.from.matches(from)
            && self.to.matches(to)
    }
}

/// What a matching [`LinkRule`] does to a message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkEffect {
    /// Drop every matching message (a hard partition).
    Drop,
    /// Drop every `n`-th matching message; the rest *fall through* to
    /// later rules, so lossiness composes with delay/duplication.
    DropEvery(u64),
    /// Add a fixed extra delivery delay, in ticks.
    Delay(u64),
    /// Deterministic jitter: extra delay cycles through
    /// `base ..= base + spread` per matching message.
    Jitter {
        /// Minimum extra delay.
        base: u64,
        /// Peak-to-peak jitter width.
        spread: u64,
    },
    /// Deliver the message twice; the second copy lags by `lag` ticks.
    Duplicate {
        /// Extra delay of the duplicate copy.
        lag: u64,
    },
    /// Park matching messages until the rule's window closes, then
    /// deliver them (a partition whose in-flight traffic survives the
    /// heal). With no window end this is equivalent to [`Drop`].
    ///
    /// [`Drop`]: LinkEffect::Drop
    HoldUntilHeal,
}

/// What a crash does to the node's volatile state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CrashMode {
    /// Pause/resume: the node restarts with its in-memory state intact
    /// (the only crash the substrates modelled before durable recovery
    /// existed — kept as the back-compat default).
    #[default]
    Retain,
    /// A real crash: all volatile state is lost, and the restart rebuilds
    /// the node from its `rqs_store::Durable` store only (via
    /// [`Automaton::restore_state`](crate::Automaton::restore_state)).
    Amnesia,
}

impl CrashMode {
    /// Short label for experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            CrashMode::Retain => "retain",
            CrashMode::Amnesia => "amnesia",
        }
    }
}

/// A scheduled crash (and optional restart), in ticks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashPlan {
    /// Node index (deployments place servers first, at `0..n`).
    pub node: usize,
    /// Tick at which the node stops processing.
    pub at: u64,
    /// Tick at which it resumes (`None` = never).
    pub restart_at: Option<u64>,
    /// Whether the restart retains in-memory state or rebuilds from the
    /// durable store.
    pub crash_mode: CrashMode,
}

/// A declarative, substrate-independent fault scenario.
///
/// # Examples
///
/// ```
/// use rqs_sim::{LinkEffect, LinkRule, Scenario, Selector, NodeId};
///
/// // Partition server 3 for the first 30 ticks, duplicate all traffic,
/// // and crash-restart server 0.
/// let scenario = Scenario::named("demo")
///     .partition(vec![3], 0, 30)
///     .link(LinkRule::every(LinkEffect::Duplicate { lag: 2 }))
///     .crash_restart(0, 10, 60);
/// assert_eq!(scenario.crashes.len(), 1);
/// assert!(!scenario.is_benign());
/// ```
#[derive(Clone, Debug, Default)]
pub struct Scenario {
    /// Human-readable name (experiment tables, traces).
    pub name: String,
    /// Link effects, in priority order (first terminal match wins;
    /// [`LinkEffect::DropEvery`] falls through when it does not drop).
    pub links: Vec<LinkRule>,
    /// Crash / crash-restart plans.
    pub crashes: Vec<CrashPlan>,
    /// Node indices to replace with the deployment's canonical forging
    /// Byzantine automaton before the run starts.
    pub byzantine: Vec<usize>,
}

impl Scenario {
    /// An empty (fault-free) scenario with a name.
    pub fn named(name: impl Into<String>) -> Self {
        Scenario {
            name: name.into(),
            ..Default::default()
        }
    }

    /// `true` iff the scenario injects no faults at all.
    pub fn is_benign(&self) -> bool {
        self.links.is_empty() && self.crashes.is_empty() && self.byzantine.is_empty()
    }

    /// Appends a link rule (earlier rules win).
    pub fn link(mut self, rule: LinkRule) -> Self {
        self.links.push(rule);
        self
    }

    /// Schedules a permanent crash of `node` at tick `at`.
    pub fn crash(mut self, node: usize, at: u64) -> Self {
        self.crashes.push(CrashPlan {
            node,
            at,
            restart_at: None,
            crash_mode: CrashMode::Retain,
        });
        self
    }

    /// Schedules a crash of `node` at `at` and a restart at `restart`
    /// (retain mode: in-memory state survives).
    pub fn crash_restart(mut self, node: usize, at: u64, restart: u64) -> Self {
        assert!(restart > at, "restart must follow the crash");
        self.crashes.push(CrashPlan {
            node,
            at,
            restart_at: Some(restart),
            crash_mode: CrashMode::Retain,
        });
        self
    }

    /// Schedules an **amnesia** crash of `node` at `at` and a restart at
    /// `restart`: the node comes back with volatile state lost, rebuilt
    /// from its durable store only.
    pub fn crash_restart_amnesia(mut self, node: usize, at: u64, restart: u64) -> Self {
        assert!(restart > at, "restart must follow the crash");
        self.crashes.push(CrashPlan {
            node,
            at,
            restart_at: Some(restart),
            crash_mode: CrashMode::Amnesia,
        });
        self
    }

    /// Rewrites every crash plan to use `mode` (sweeping one scenario
    /// across both crash modes).
    pub fn with_crash_mode(mut self, mode: CrashMode) -> Self {
        for plan in &mut self.crashes {
            plan.crash_mode = mode;
        }
        self
    }

    /// Marks `node` for Byzantine substitution at deployment time.
    pub fn with_byzantine(mut self, node: usize) -> Self {
        self.byzantine.push(node);
        self
    }

    /// Cuts `group` off from the rest of the system (messages dropped in
    /// both directions) during `[start, heal)`.
    pub fn partition(self, group: Vec<usize>, start: u64, heal: u64) -> Self {
        let ids: Vec<NodeId> = group.into_iter().map(NodeId).collect();
        self.link(
            LinkRule::every(LinkEffect::Drop)
                .from(Selector::In(ids.clone()))
                .to(Selector::NotIn(ids.clone()))
                .during(start, heal),
        )
        .link(
            LinkRule::every(LinkEffect::Drop)
                .from(Selector::NotIn(ids.clone()))
                .to(Selector::In(ids))
                .during(start, heal),
        )
    }

    /// Makes every link touching `targets` lossy (every `drop_every`-th
    /// message lost); messages that survive fall through to later rules.
    pub fn lossy_towards(self, targets: Vec<usize>, drop_every: u64) -> Self {
        assert!(drop_every >= 2, "DropEvery(1) would drop everything");
        let ids: Vec<NodeId> = targets.into_iter().map(NodeId).collect();
        self.link(
            LinkRule::every(LinkEffect::DropEvery(drop_every)).from(Selector::In(ids.clone())),
        )
        .link(LinkRule::every(LinkEffect::DropEvery(drop_every)).to(Selector::In(ids)))
    }

    /// Compiles the link rules into their shared decision engine.
    pub fn network(&self) -> ScenarioNet {
        ScenarioNet::new(self)
    }
}

/// The compiled link schedule: [`Scenario::links`] plus per-rule counters
/// (for `DropEvery` / `Jitter` determinism). Implements [`FatePolicy`] so
/// a [`World`](crate::World) can route through it directly; the threaded
/// runtime calls [`ScenarioNet::decide`] from its send path.
///
/// # Examples
///
/// Drop everything from node 0 to nodes 3 and 4, deliver the rest
/// synchronously:
///
/// ```
/// use rqs_sim::{Fate, LinkEffect, LinkRule, NodeId, Scenario, Selector};
/// let mut net = Scenario::default()
///     .link(
///         LinkRule::every(LinkEffect::Drop)
///             .from(Selector::Is(NodeId(0)))
///             .to(Selector::In(vec![NodeId(3), NodeId(4)])),
///     )
///     .network();
/// assert_eq!(net.decide(NodeId(0), NodeId(3), 10), Fate::Drop);
/// assert_eq!(net.decide(NodeId(1), NodeId(3), 10), Fate::Deliver { delay: 1 });
/// ```
#[derive(Clone, Debug)]
pub struct ScenarioNet {
    rules: Vec<(LinkRule, u64)>,
}

impl ScenarioNet {
    /// Compiles `scenario`'s link rules.
    pub fn new(scenario: &Scenario) -> Self {
        ScenarioNet {
            rules: scenario.links.iter().map(|r| (r.clone(), 0)).collect(),
        }
    }

    /// An empty schedule (every message delivered promptly).
    pub fn benign() -> Self {
        ScenarioNet { rules: Vec::new() }
    }

    /// Decides the fate of one message sent from `from` to `to` at
    /// `sent_tick`: the first terminal match wins, and an unmatched
    /// message is delivered after one tick. Deterministic given the
    /// sequence of calls.
    pub fn decide(&mut self, from: NodeId, to: NodeId, sent_tick: u64) -> Fate {
        for (rule, counter) in &mut self.rules {
            if !rule.matches(from, to, sent_tick) {
                continue;
            }
            match rule.effect {
                LinkEffect::Drop => return Fate::Drop,
                LinkEffect::DropEvery(n) => {
                    *counter += 1;
                    if *counter % n.max(1) == 0 {
                        return Fate::Drop;
                    }
                    // else: fall through to later rules
                }
                LinkEffect::Delay(extra) => return Fate::Deliver { delay: 1 + extra },
                LinkEffect::Jitter { base, spread } => {
                    *counter += 1;
                    return Fate::Deliver {
                        delay: 1 + base + *counter % (spread + 1),
                    };
                }
                LinkEffect::Duplicate { lag } => {
                    return Fate::Duplicate {
                        first: 1,
                        second: 1 + lag,
                    }
                }
                LinkEffect::HoldUntilHeal => {
                    return rule
                        .until_tick
                        .map_or(Fate::Drop, |heal| Fate::DeliverAt(Time(heal)));
                }
            }
        }
        Fate::Deliver { delay: 1 }
    }
}

impl<M> FatePolicy<M> for ScenarioNet {
    fn fate(&mut self, env: &Envelope<M>) -> Fate {
        self.decide(env.from, env.to, env.sent_at.ticks())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROMPT: Fate = Fate::Deliver { delay: 1 };

    #[test]
    fn benign_scenario_delivers_everything() {
        let mut net = Scenario::named("clean").network();
        assert_eq!(net.decide(NodeId(0), NodeId(1), 5), PROMPT);
    }

    #[test]
    fn partition_drops_both_directions_until_heal() {
        let mut net = Scenario::named("p").partition(vec![2], 10, 20).network();
        assert_eq!(net.decide(NodeId(2), NodeId(0), 15), Fate::Drop);
        assert_eq!(net.decide(NodeId(0), NodeId(2), 15), Fate::Drop);
        // inside the group, outside the window, unrelated links: delivered
        assert_eq!(net.decide(NodeId(0), NodeId(1), 15), PROMPT);
        assert_eq!(net.decide(NodeId(2), NodeId(0), 20), PROMPT);
        assert_eq!(net.decide(NodeId(2), NodeId(0), 9), PROMPT);
    }

    #[test]
    fn drop_every_is_periodic_and_falls_through() {
        let scenario = Scenario::named("lossy+dup")
            .lossy_towards(vec![1], 3)
            .link(LinkRule::every(LinkEffect::Duplicate { lag: 2 }));
        let mut net = scenario.network();
        let mut fates = Vec::new();
        for _ in 0..6 {
            fates.push(net.decide(NodeId(0), NodeId(1), 0));
        }
        let dup = Fate::Duplicate {
            first: 1,
            second: 3,
        };
        let drops = fates.iter().filter(|f| **f == Fate::Drop).count();
        assert_eq!(drops, 2, "every 3rd of 6 messages dropped");
        // Survivors fell through to the duplication rule.
        assert!(fates.iter().all(|f| *f == Fate::Drop || *f == dup));
        // Messages not touching node 1 are duplicated only.
        assert_eq!(net.decide(NodeId(0), NodeId(2), 0), dup);
    }

    #[test]
    fn jitter_cycles_deterministically() {
        let mut net = Scenario::named("j")
            .link(LinkRule::every(LinkEffect::Jitter { base: 1, spread: 2 }))
            .network();
        let extras: Vec<u64> = (0..6)
            .map(|_| match net.decide(NodeId(0), NodeId(1), 0) {
                Fate::Deliver { delay } => delay - 1,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(extras, vec![2, 3, 1, 2, 3, 1]);
    }

    #[test]
    fn hold_until_heal_parks_until_window_close() {
        let mut net = Scenario::named("h")
            .link(
                LinkRule::every(LinkEffect::HoldUntilHeal)
                    .to(Selector::Is(NodeId(1)))
                    .during(0, 25),
            )
            .network();
        assert_eq!(
            net.decide(NodeId(0), NodeId(1), 3),
            Fate::DeliverAt(Time(25))
        );
        assert_eq!(net.decide(NodeId(0), NodeId(1), 30), PROMPT);
    }

    #[test]
    fn fate_policy_compilation() {
        let mut net = Scenario::named("d")
            .link(LinkRule::every(LinkEffect::Delay(4)))
            .network();
        let env = Envelope {
            from: NodeId(0),
            to: NodeId(1),
            msg: 0u8,
            sent_at: Time(2),
        };
        assert_eq!(net.fate(&env), Fate::Deliver { delay: 5 });
    }

    #[test]
    fn crash_restart_builder_validates() {
        let s = Scenario::named("cr").crash_restart(0, 10, 60).crash(1, 5);
        assert_eq!(s.crashes[0].restart_at, Some(60));
        assert_eq!(s.crashes[0].crash_mode, CrashMode::Retain);
        assert_eq!(s.crashes[1].restart_at, None);
    }

    #[test]
    fn crash_mode_builders() {
        let s = Scenario::named("am").crash_restart_amnesia(2, 10, 60);
        assert_eq!(s.crashes[0].crash_mode, CrashMode::Amnesia);
        let swept = Scenario::named("cr")
            .crash_restart(0, 10, 60)
            .crash(1, 5)
            .with_crash_mode(CrashMode::Amnesia);
        assert!(swept
            .crashes
            .iter()
            .all(|p| p.crash_mode == CrashMode::Amnesia));
        assert_eq!(CrashMode::Amnesia.label(), "amnesia");
        assert_eq!(CrashMode::default(), CrashMode::Retain);
    }

    #[test]
    #[should_panic(expected = "restart must follow")]
    fn restart_before_crash_rejected() {
        let _ = Scenario::named("bad").crash_restart(0, 10, 10);
    }
}
