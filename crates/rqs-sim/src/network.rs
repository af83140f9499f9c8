//! Network modelling: the fate of every message.
//!
//! The paper's executions are defined by *when* (and whether) each message
//! is delivered. Every sent message is routed through a [`FatePolicy`],
//! which decides its [`Fate`]:
//!
//! - `Deliver { delay }` — arrives after `delay` ticks (synchrony means
//!   `delay ≤ Δ`);
//! - `DeliverAt(t)` — arrives at an absolute time (used for "remains in
//!   transit until after round K" constructions);
//! - `Duplicate { first, second }` — arrives twice (duplicating channels);
//! - `Drop` — never delivered (lossy channels of the consensus model, or
//!   messages a crashing process never sent).
//!
//! Declarative schedules — the link rules of a
//! [`Scenario`](crate::Scenario), compiled to a
//! [`ScenarioNet`](crate::ScenarioNet) — decide the same `Fate` on the
//! simulator and on the threaded runtime. Schedules that depend on a
//! message's content (the constructions of Figures 1, 4, 8 and 16) are
//! closures.

use crate::node::NodeId;
use crate::time::Time;

/// A message in flight, as seen by fate policies.
#[derive(Clone, Debug)]
pub struct Envelope<M> {
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// Payload.
    pub msg: M,
    /// Time the send substep executed.
    pub sent_at: Time,
}

/// The routing decision for one message.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fate {
    /// Deliver after a relative delay (in ticks).
    Deliver {
        /// Ticks from the send time to the receive time; `0` is normalized
        /// to `1` (a message cannot arrive in the sending step).
        delay: u64,
    },
    /// Deliver at an absolute time (clamped to be after the send).
    DeliverAt(Time),
    /// Never deliver.
    Drop,
    /// Deliver two copies, after `first` and `second` ticks respectively
    /// (each normalized to at least 1). Models duplicating channels; the
    /// quorum automata are idempotent, so duplicates must be harmless.
    Duplicate {
        /// Delay of the first copy, in ticks.
        first: u64,
        /// Delay of the second copy, in ticks.
        second: u64,
    },
}

/// Decides the fate of every message. Implemented by
/// [`ScenarioNet`](crate::ScenarioNet) and by arbitrary closures.
pub trait FatePolicy<M> {
    /// Routing decision for `env` sent at time `env.sent_at`.
    fn fate(&mut self, env: &Envelope<M>) -> Fate;
}

impl<M, F> FatePolicy<M> for F
where
    F: FnMut(&Envelope<M>) -> Fate,
{
    fn fate(&mut self, env: &Envelope<M>) -> Fate {
        self(env)
    }
}

/// Matches a set of nodes in a [`LinkRule`](crate::LinkRule).
#[derive(Clone, Debug, Default)]
pub enum Selector {
    /// Matches every node.
    #[default]
    Any,
    /// Matches exactly one node.
    Is(NodeId),
    /// Matches any node in the list.
    In(Vec<NodeId>),
    /// Matches any node *not* in the list.
    NotIn(Vec<NodeId>),
}

impl Selector {
    /// Does this selector match `node`?
    pub fn matches(&self, node: NodeId) -> bool {
        match self {
            Selector::Any => true,
            Selector::Is(n) => *n == node,
            Selector::In(v) => v.contains(&node),
            Selector::NotIn(v) => !v.contains(&node),
        }
    }
}

#[cfg(test)]
mod tests {
    //! How a message's fate is decided: selectors, the rule language's
    //! first-match and window semantics, and closure policies.

    use super::*;
    use crate::{LinkEffect, LinkRule, Scenario, ScenarioNet};

    const PROMPT: Fate = Fate::Deliver { delay: 1 };

    fn env(from: usize, to: usize, at: u64) -> Envelope<u8> {
        Envelope {
            from: NodeId(from),
            to: NodeId(to),
            msg: 0,
            sent_at: Time(at),
        }
    }

    fn fate(net: &mut ScenarioNet, from: usize, to: usize, at: u64) -> Fate {
        net.fate(&env(from, to, at))
    }

    #[test]
    fn selector_matching() {
        assert!(Selector::Any.matches(NodeId(3)));
        assert!(Selector::Is(NodeId(3)).matches(NodeId(3)));
        assert!(!Selector::Is(NodeId(3)).matches(NodeId(4)));
        assert!(Selector::In(vec![NodeId(1), NodeId(2)]).matches(NodeId(2)));
        assert!(!Selector::In(vec![NodeId(1)]).matches(NodeId(2)));
        assert!(Selector::NotIn(vec![NodeId(1)]).matches(NodeId(2)));
        assert!(!Selector::NotIn(vec![NodeId(2)]).matches(NodeId(2)));
        // A rule matches only when both its sender and receiver match.
        let mut net = Scenario::default()
            .link(
                LinkRule::every(LinkEffect::Drop)
                    .from(Selector::Is(NodeId(0)))
                    .to(Selector::In(vec![NodeId(3), NodeId(4)])),
            )
            .network();
        assert_eq!(fate(&mut net, 0, 4, 0), Fate::Drop);
        assert_eq!(fate(&mut net, 1, 4, 0), PROMPT);
        assert_eq!(fate(&mut net, 0, 2, 0), PROMPT);
    }

    #[test]
    fn default_synchronous() {
        assert_eq!(fate(&mut ScenarioNet::benign(), 0, 1, 0), PROMPT);
    }

    #[test]
    fn first_rule_wins() {
        let mut net = Scenario::default()
            .link(LinkRule::every(LinkEffect::Drop).from(Selector::Is(NodeId(0))))
            .link(LinkRule::every(LinkEffect::Delay(8)))
            .network();
        assert_eq!(fate(&mut net, 0, 1, 0), Fate::Drop);
        assert_eq!(fate(&mut net, 2, 1, 0), Fate::Deliver { delay: 9 });
    }

    #[test]
    fn window_filtering() {
        let mut net = Scenario::default()
            .link(LinkRule::every(LinkEffect::Drop).during(5, 10))
            .network();
        assert_eq!(fate(&mut net, 0, 1, 4), PROMPT);
        assert_eq!(fate(&mut net, 0, 1, 5), Fate::Drop);
        assert_eq!(fate(&mut net, 0, 1, 9), Fate::Drop);
        assert_eq!(fate(&mut net, 0, 1, 10), PROMPT);
    }

    #[test]
    fn silence_from_helper() {
        // A window with no end: node 2 silenced from tick 3 on.
        let silenced = LinkRule {
            from_tick: 3,
            ..LinkRule::every(LinkEffect::Drop).from(Selector::Is(NodeId(2)))
        };
        let mut net = Scenario::default().link(silenced).network();
        assert_eq!(fate(&mut net, 2, 1, 2), PROMPT);
        assert_eq!(fate(&mut net, 2, 1, 3), Fate::Drop);
        assert_eq!(fate(&mut net, 2, 1, u64::MAX), Fate::Drop);
    }

    #[test]
    fn partition_helper() {
        let mut net = Scenario::default().partition(vec![0], 0, 5).network();
        assert_eq!(fate(&mut net, 0, 1, 1), Fate::Drop);
        assert_eq!(fate(&mut net, 1, 0, 1), Fate::Drop);
        assert_eq!(fate(&mut net, 0, 1, 6), PROMPT);
        assert_eq!(fate(&mut net, 1, 2, 1), PROMPT);
    }

    #[test]
    fn closure_policy() {
        // A content-dependent fate no link rule can express, falling back
        // to a scenario for everything else.
        let mut net = Scenario::default()
            .link(LinkRule::every(LinkEffect::Drop).to(Selector::Is(NodeId(2))))
            .network();
        let mut calls = 0;
        {
            let mut policy = |e: &Envelope<u8>| {
                calls += 1;
                if e.msg == 7 {
                    Fate::DeliverAt(Time(40))
                } else {
                    net.fate(e)
                }
            };
            let seven = Envelope {
                msg: 7,
                ..env(0, 2, 0)
            };
            assert_eq!(policy.fate(&seven), Fate::DeliverAt(Time(40)));
            assert_eq!(policy.fate(&env(0, 2, 0)), Fate::Drop);
            assert_eq!(policy.fate(&env(0, 1, 0)), PROMPT);
        }
        assert_eq!(calls, 3);
    }
}
