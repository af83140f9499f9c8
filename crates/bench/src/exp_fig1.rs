//! **E1 (Figure 1 + Figure 2, §1.2)** — the motivating example.
//!
//! Five servers, `t = 2` crash faults. An algorithm that expedites
//! operations at any `n - t = 3` servers violates atomicity under the
//! schedule of Figure 1 (executions ex1–ex4); the refined variant that is
//! fast only at 4 servers (`Q'1 ∩ Q'2 ∩ Q3 ≠ ∅`, Figure 2b) stays atomic
//! on the same schedule.

use crate::report::Report;
use rqs_core::threshold::ThresholdConfig;
use rqs_core::ProcessSet;
use rqs_sim::{LinkEffect, LinkRule, NodeId, Scenario, ScenarioNet, Selector, World};
use rqs_storage::naive::{NaiveClient, NaiveServer};
use rqs_storage::{StorageHarness, Value};

/// Outcome of running the Figure 1 schedule against one algorithm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fig1Outcome {
    /// What the first reader returned.
    pub rd1: String,
    /// Rounds used by the first read.
    pub rd1_rounds: usize,
    /// What the second reader returned.
    pub rd2: String,
    /// Rounds used by the second read.
    pub rd2_rounds: usize,
    /// Whether atomicity was violated (rd2 older than rd1).
    pub violated: bool,
}

/// Runs Figure 1's schedule against the naive 3-of-5-fast algorithm.
pub fn run_naive() -> Fig1Outcome {
    let mut world = World::new(ScenarioNet::benign());
    let servers: Vec<NodeId> = (0..5)
        .map(|_| world.add_node(Box::new(NaiveServer::new())))
        .collect();
    let writer = world.add_node(Box::new(NaiveClient::new(servers.clone(), 2)));
    let r1 = world.add_node(Box::new(NaiveClient::new(servers.clone(), 2)));
    let r2 = world.add_node(Box::new(NaiveClient::new(servers.clone(), 2)));

    // ex3: the write is incomplete — round-1 messages reach only s3.
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

    // rd1 accesses {s3, s4, s5} (replies from s1, s2 lost).
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

    // ex4: s3 and s5 crash; rd2 accesses {s1, s2, s4}.
    let now = world.now();
    world.crash_at(servers[2], now);
    world.crash_at(servers[4], now);
    world.run_before(now + 1);
    world.set_policy(ScenarioNet::benign());
    world.invoke::<NaiveClient>(r2, |c, ctx| c.start_read(ctx));
    world.run_to_quiescence();
    let rd2 = world.node_as::<NaiveClient>(r2).outcomes()[0].clone();

    Fig1Outcome {
        rd1: rd1.pair.to_string(),
        rd1_rounds: rd1.rounds,
        rd2: rd2.pair.to_string(),
        rd2_rounds: rd2.rounds,
        violated: rd2.pair.ts < rd1.pair.ts && rd2.invoked_at > rd1.completed_at,
    }
}

/// Runs the same adversarial schedule against the RQS-based algorithm
/// over the §1.2 system (fast at 4 servers).
pub fn run_rqs() -> Fig1Outcome {
    let rqs = ThresholdConfig::crash_fast(5, 1)
        .build()
        .expect("§1.2 system");
    let mut h = StorageHarness::new(rqs, 2);
    let (writer, s2) = (h.writer_id(), h.servers()[2]);

    // Incomplete write: round-1 messages reach only s3; the writer stalls.
    h.world_mut().set_policy(
        Scenario::default()
            .link(
                LinkRule::every(LinkEffect::Delay(0))
                    .from(Selector::Is(writer))
                    .to(Selector::Is(s2)),
            )
            .link(LinkRule::every(LinkEffect::Drop).from(Selector::Is(writer)))
            .network(),
    );
    h.start_write(Value::from(7u64));
    h.world_mut().run_to_quiescence();

    // rd1 sees only {s3, s4, s5}.
    let (s0, s1, r1_node) = (h.servers()[0], h.servers()[1], h.reader_id(0));
    h.world_mut().set_policy(
        Scenario::default()
            .link(
                LinkRule::every(LinkEffect::Drop)
                    .from(Selector::In(vec![s0, s1]))
                    .to(Selector::Is(r1_node)),
            )
            .network(),
    );
    let rd1 = h.read(0);

    // ex4: s3 and s5 crash; rd2 reads from the survivors.
    let now = h.now();
    h.world_mut().set_policy(ScenarioNet::benign());
    h.crash_servers(ProcessSet::from_indices([2, 4]));
    let _ = now;
    let rd2 = h.read(1);
    let violated = h.check_atomicity().is_err();

    Fig1Outcome {
        rd1: rd1.returned.to_string(),
        rd1_rounds: rd1.rounds,
        rd2: rd2.returned.to_string(),
        rd2_rounds: rd2.rounds,
        violated,
    }
}

/// Builds the E1 report.
pub fn report() -> Report {
    let naive = run_naive();
    let rqs = run_rqs();
    let mut r = Report::new("E1 (Figures 1-2, §1.2): greedy fast storage violates atomicity");
    r.note("Paper claim: expediting ops at any 3 of 5 servers (t=2) breaks atomicity");
    r.note("because Q1 ∩ Q2 ∩ Q3 = ∅; expediting only at 4 servers is safe (Fig. 2b).");
    r.note("Schedule: incomplete write reaches s3 only; rd1 reads {s3,s4,s5};");
    r.note("s3,s5 crash; rd2 reads {s1,s2,s4}.");
    r.headers([
        "algorithm",
        "rd1 returns",
        "rd1 rounds",
        "rd2 returns",
        "rd2 rounds",
        "atomicity",
    ]);
    r.row([
        "naive (fast at 3)".to_string(),
        naive.rd1,
        naive.rd1_rounds.to_string(),
        naive.rd2,
        naive.rd2_rounds.to_string(),
        if naive.violated {
            "VIOLATED".into()
        } else {
            "ok".to_string()
        },
    ]);
    r.row([
        "RQS (fast at 4)".to_string(),
        rqs.rd1,
        rqs.rd1_rounds.to_string(),
        rqs.rd2,
        rqs.rd2_rounds.to_string(),
        if rqs.violated {
            "VIOLATED".into()
        } else {
            "ok".to_string()
        },
    ]);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_violates_rqs_does_not() {
        let naive = run_naive();
        assert!(naive.violated, "Figure 1: the naive algorithm must violate");
        assert_eq!(naive.rd1_rounds, 1);
        let rqs = run_rqs();
        assert!(!rqs.violated, "the §1.2 refined variant must stay atomic");
        // The refined reader returns the incomplete write's value and
        // writes it back, so rd2 sees it too.
        assert_eq!(rqs.rd1, rqs.rd2);
    }

    #[test]
    fn report_renders() {
        let r = report();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(
            r.cell("atomicity", |row| row[0].starts_with("naive")),
            Some("VIOLATED")
        );
        assert_eq!(
            r.cell("atomicity", |row| row[0].starts_with("RQS")),
            Some("ok")
        );
    }
}
