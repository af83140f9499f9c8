//! Property-based determinism tests: identical configurations must yield
//! bit-identical executions — the foundation of the paper-figure replays.

use proptest::prelude::*;
use rqs_sim::{Automaton, Context, Envelope, Fate, NodeId, ScenarioNet, Time, TimerToken, World};
use std::any::Any;

/// A small chaotic automaton: relays messages around a ring, arms timers,
/// and records everything it sees.
struct RingNode {
    n: usize,
    hops_left: u32,
    log: Vec<(u64, usize, u32)>, // (time, from, payload)
}

impl Automaton<u32> for RingNode {
    fn on_message(&mut self, from: NodeId, msg: u32, ctx: &mut Context<u32>) {
        self.log.push((ctx.now().ticks(), from.0, msg));
        if msg > 0 && self.hops_left > 0 {
            self.hops_left -= 1;
            let next = NodeId((ctx.me().0 + 1) % self.n);
            ctx.send(next, msg - 1);
            if msg.is_multiple_of(3) {
                ctx.set_timer(2);
            }
        }
    }
    fn on_timer(&mut self, t: TimerToken, ctx: &mut Context<u32>) {
        self.log.push((ctx.now().ticks(), usize::MAX, t.0 as u32));
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn run_once(
    n: usize,
    payloads: &[u32],
    drop_mod: u64,
    delay_mod: u64,
) -> Vec<Vec<(u64, usize, u32)>> {
    let mut world = World::new(move |env: &Envelope<u32>| {
        // A deterministic pseudo-random policy derived from the message.
        let h = env.sent_at.ticks()
            + env.from.0 as u64 * 7
            + env.to.0 as u64 * 13
            + env.msg as u64 * 31;
        if drop_mod > 0 && h.is_multiple_of(drop_mod) {
            Fate::Drop
        } else {
            Fate::Deliver {
                delay: 1 + (h % delay_mod.max(1)),
            }
        }
    });
    let nodes: Vec<NodeId> = (0..n)
        .map(|_| {
            world.add_node(Box::new(RingNode {
                n,
                hops_left: 64,
                log: Vec::new(),
            }))
        })
        .collect();
    for (i, &p) in payloads.iter().enumerate() {
        world.post(nodes[i % n], nodes[(i + 1) % n], p);
    }
    world.run_to_quiescence_bounded(1_000_000);
    nodes
        .iter()
        .map(|&id| world.node_as::<RingNode>(id).log.clone())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn identical_runs_identical_logs(
        n in 2usize..6,
        payloads in prop::collection::vec(0u32..20, 1..6),
        drop_mod in 0u64..7,
        delay_mod in 1u64..5,
    ) {
        let a = run_once(n, &payloads, drop_mod, delay_mod);
        let b = run_once(n, &payloads, drop_mod, delay_mod);
        prop_assert_eq!(a, b, "two identical configurations must replay identically");
    }

    #[test]
    fn crash_time_monotone_in_delivered_messages(
        n in 2usize..5,
        payloads in prop::collection::vec(1u32..20, 1..4),
        crash_at in 1u64..10,
    ) {
        // Crashing a node earlier can only reduce the set of events it
        // logs (prefix property of crashes).
        let full = run_once(n, &payloads, 0, 1);
        let mut world = World::new(ScenarioNet::benign());
        let nodes: Vec<NodeId> = (0..n)
            .map(|_| {
                world.add_node(Box::new(RingNode { n, hops_left: 64, log: Vec::new() }))
            })
            .collect();
        world.crash_at(nodes[0], Time(crash_at));
        for (i, &p) in payloads.iter().enumerate() {
            world.post(nodes[i % n], nodes[(i + 1) % n], p);
        }
        world.run_to_quiescence_bounded(1_000_000);
        let crashed_log = world.node_as::<RingNode>(nodes[0]).log.clone();
        // Every event the crashed node saw happened before the crash and
        // is a prefix of the fault-free log.
        for e in &crashed_log {
            prop_assert!(e.0 <= crash_at);
        }
        prop_assert!(crashed_log.len() <= full[0].len());
        let prefix = &full[0][..crashed_log.len()];
        prop_assert_eq!(&crashed_log[..], prefix, "crash must truncate, not reorder");
    }
}
