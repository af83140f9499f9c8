//! **E3 (Figure 4, Example 7)** — the intuition behind Property 3, on the
//! 6-server general (non-threshold) adversary.
//!
//! System: `S = {s1..s6}`, adversary maximal sets `{s1,s2}, {s3,s4},
//! {s2,s4}`; quorums `Q1 = {s2,s4,s5,s6}` (class 1), `Q2 = {s1..s5}` and
//! `Q2' = {s1..s4,s6}` (class 2).
//!
//! Reproduced executions (against the real storage implementation):
//!
//! - **ex1** — synchronous write with `Q1` correct completes in 1 round;
//! - **ex2/ex3** — a slow, incomplete write concurrent with a read: the
//!   read completes in 2 rounds via the `BCD(c,2,1)` write-back that
//!   stamps class-2 quorum ids into slot 1;
//! - **ex4** — `s5` crashes, `B12 = {s1,s2}` turn Byzantine and "forget"
//!   the read's write-back: a second reader touching only `Q2'` must
//!   still return 1 — possible exactly because Property 3(b) put a
//!   class-1 member inside `Q2 ∩ Q2'` stamped in round 1;
//! - **ex6** — no write at all, `{s1,s2}` fabricate the value: the reader
//!   must *not* return it (`safe` fails on a non-basic reporter set).

use crate::report::Report;
use rqs_core::{Adversary, ProcessSet, Rqs};
use rqs_sim::{LinkEffect, LinkRule, Scenario, ScenarioNet, Selector};
use rqs_storage::byzantine::ForgedServer;
use rqs_storage::{StorageHarness, TsVal, Value};

/// Builds the Example 7 refined quorum system (0-based indices).
pub fn example7_rqs() -> Rqs {
    let b = Adversary::general(
        6,
        [
            ProcessSet::from_indices([0, 1]), // {s1,s2}
            ProcessSet::from_indices([2, 3]), // {s3,s4}
            ProcessSet::from_indices([1, 3]), // {s2,s4}
        ],
    )
    .expect("example 7 adversary");
    let q1 = ProcessSet::from_indices([1, 3, 4, 5]); // Q1  = {s2,s4,s5,s6}
    let q2 = ProcessSet::from_indices([0, 1, 2, 3, 4]); // Q2  = {s1..s5}
    let q2p = ProcessSet::from_indices([0, 1, 2, 3, 5]); // Q2' = {s1..s4,s6}
    Rqs::new(b, vec![q1, q2, q2p], vec![0], vec![0, 1, 2]).expect("example 7 verifies")
}

/// Results of the four reproduced executions.
#[derive(Clone, Debug)]
pub struct Fig4Outcome {
    /// ex1: rounds of the unobstructed write.
    pub ex1_write_rounds: usize,
    /// ex2/ex3: rounds and value of the read concurrent with the slow
    /// write.
    pub ex3_read: (usize, String),
    /// ex4: rounds and value of the read after crash + Byzantine
    /// forgetting.
    pub ex4_read: (usize, String),
    /// ex4 returned the written value (the paper's "rd′ must return 1").
    pub ex4_returns_written: bool,
    /// ex6: the fabricated-value read returns the initial value.
    pub ex6_returns_bottom: bool,
}

/// Runs ex1 standalone: best case, one-round write.
pub fn run_ex1() -> usize {
    let mut h = StorageHarness::new(example7_rqs(), 1);
    h.write(Value::from(1u64)).rounds
}

/// Runs the ex2→ex4 chain in one world.
pub fn run_chain() -> Fig4Outcome {
    let ex1_write_rounds = run_ex1();

    let mut h = StorageHarness::new(example7_rqs(), 2);
    let writer = h.writer_id();
    let s5 = h.servers()[5];
    let r1 = h.reader_id(0);

    // ex3: slow, incomplete write — round-1 wr messages reach s1..s5 but
    // not s6; all acks to the writer are lost, so the write stays open.
    h.world_mut().set_policy(
        Scenario::default()
            .link(
                LinkRule::every(LinkEffect::Drop)
                    .from(Selector::Is(writer))
                    .to(Selector::Is(s5)),
            )
            .link(LinkRule::every(LinkEffect::Drop).to(Selector::Is(writer)))
            .network(),
    );
    h.start_write(Value::from(1u64));
    h.world_mut().run_to_quiescence();

    // rd by r1: r1 and s6 cannot talk — r1 sees exactly Q2 = {s1..s5}.
    h.world_mut().set_policy(
        Scenario::default()
            .link(
                LinkRule::every(LinkEffect::Drop)
                    .from(Selector::Is(s5))
                    .to(Selector::Is(r1)),
            )
            .link(
                LinkRule::every(LinkEffect::Drop)
                    .from(Selector::Is(r1))
                    .to(Selector::Is(s5)),
            )
            .link(LinkRule::every(LinkEffect::Drop).to(Selector::Is(writer)))
            .network(),
    );
    let rd1 = h.read(0);
    let ex3_read = (rd1.rounds, rd1.returned.to_string());

    // ex4: s5 crashes; B12 = {s1,s2} forget the write-back (present the
    // pre-write-back state: the pair without quorum ids).
    h.world_mut().set_policy(ScenarioNet::benign());
    h.crash_servers(ProcessSet::from_indices([4]));
    let forged = TsVal::new(1, Value::from(1u64));
    h.make_byzantine(0, Box::new(ForgedServer::with_slot1(&forged)));
    h.make_byzantine(1, Box::new(ForgedServer::with_slot1(&forged)));
    let rd2 = h.read(1);
    let ex4_read = (rd2.rounds, rd2.returned.to_string());
    let ex4_returns_written = rd2.returned == forged;

    // ex6: fresh world, no write; {s1,s2} fabricate the pair.
    let mut h6 = StorageHarness::new(example7_rqs(), 1);
    h6.crash_servers(ProcessSet::from_indices([4]));
    h6.make_byzantine(0, Box::new(ForgedServer::with_slot1(&forged)));
    h6.make_byzantine(1, Box::new(ForgedServer::with_slot1(&forged)));
    let rd6 = h6.read(0);
    let ex6_returns_bottom = rd6.returned.is_initial();

    Fig4Outcome {
        ex1_write_rounds,
        ex3_read,
        ex4_read,
        ex4_returns_written,
        ex6_returns_bottom,
    }
}

/// Builds the E3 report.
pub fn report() -> Report {
    let out = run_chain();
    let mut r = Report::new("E3 (Figure 4, Example 7): Property 3 on a general adversary");
    r.note("S = {s1..s6}; B maximal = {s1,s2},{s3,s4},{s2,s4};");
    r.note("Q1 = {s2,s4,s5,s6} class 1; Q2 = {s1..s5}, Q2' = {s1..s4,s6} class 2.");
    r.note("ex4 is the paper's punchline: after s5 crashes and {s1,s2} 'forget'");
    r.note("the write-back, the reader on Q2' can still return 1 only because");
    r.note("P3b guarantees a stamped class-1 witness inside Q2 ∩ Q2'.");
    r.headers([
        "execution",
        "operation",
        "rounds",
        "returned",
        "paper expectation",
    ]);
    r.row([
        "ex1".to_string(),
        "write(1), Q1 correct".to_string(),
        out.ex1_write_rounds.to_string(),
        "-".to_string(),
        "1 round".to_string(),
    ]);
    r.row([
        "ex2/ex3".to_string(),
        "read ∥ slow write, sees Q2".to_string(),
        out.ex3_read.0.to_string(),
        out.ex3_read.1.clone(),
        "2 rounds, returns 1".to_string(),
    ]);
    r.row([
        "ex4".to_string(),
        "read after crash+forge, sees Q2'".to_string(),
        out.ex4_read.0.to_string(),
        out.ex4_read.1.clone(),
        "returns 1".to_string(),
    ]);
    r.row([
        "ex6".to_string(),
        "read of fabricated value".to_string(),
        "-".to_string(),
        if out.ex6_returns_bottom {
            "⊥".to_string()
        } else {
            "FABRICATED".to_string()
        },
        "must return ⊥".to_string(),
    ]);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example7_verifies() {
        let rqs = example7_rqs();
        assert!(rqs.verify().is_ok());
        assert_eq!(rqs.class1_ids().len(), 1);
        assert_eq!(rqs.class2_ids().len(), 3);
    }

    #[test]
    fn chain_matches_paper() {
        let out = run_chain();
        assert_eq!(out.ex1_write_rounds, 1, "ex1: class-1 write is 1 round");
        assert_eq!(out.ex3_read.0, 2, "ex2: read over Q2 takes 2 rounds");
        assert!(
            out.ex3_read.1.contains("1"),
            "read returns the written value"
        );
        assert!(out.ex4_returns_written, "ex4: rd' must return 1");
        assert!(out.ex6_returns_bottom, "ex6: fabricated value rejected");
    }

    #[test]
    fn report_renders() {
        let r = report();
        assert_eq!(r.rows.len(), 4);
        assert_eq!(r.cell("returned", |row| row[0] == "ex6"), Some("⊥"));
    }
}
