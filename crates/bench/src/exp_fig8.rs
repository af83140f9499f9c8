//! **E5 (Figure 8, Theorem 3)** — storage over a Property-3-violating
//! quorum configuration loses atomicity under the proof's
//! indistinguishability schedule; the valid Example-7 system survives the
//! analogous schedule.
//!
//! Invalid configuration (instantiating the negation of Property 3):
//! universe `{s1..s6}`, adversary maximal sets `{s1,s2}, {s3,s4},
//! {s2,s4}`; `Q1 = {s1,s5,s6}` (class 1), `Q2 = {s1..s5}` and
//! `Q = {s1..s4,s6}` (class 2). Properties 1 and 2 hold — the fast paths
//! are "legitimately" enabled — but for `B'1 = {s1,s2}`:
//! `Q2 ∩ Q \ B'1 = {s3,s4} ∈ B` (P3a fails) and
//! `Q1 ∩ Q2 ∩ Q \ B'1 = ∅` (P3b fails).
//!
//! Schedule (the proof's ex1–ex5 compressed into one run):
//!
//! 1. write(7): round 1 reaches `Q2` only; round 2 reaches only
//!    `Q1 ∩ Q2 = {s1,s5}`; the writer crashes (incomplete 2-round write);
//! 2. `rd1` sees exactly `Q1`: the `BCD(c,1,2)` detector fires on
//!    `Q1 ∩ Q2` and the read returns 7 in **one round** — legitimate
//!    under Property 2;
//! 3. `B'1 = {s1,s2}` turn Byzantine and forge the initial state σ0;
//! 4. `rd2` sees exactly `Q`: every trace of 7 it can observe sits in
//!    `{s3,s4} ∈ B`, so the value is unsafe *and* invalid — the reader
//!    returns ⊥. Atomicity is violated (`rd2` follows `rd1`).

use crate::report::Report;
use rqs_core::{Adversary, ProcessSet, Rqs};
use rqs_sim::{Envelope, Fate, NodeId, Time};
use rqs_storage::byzantine::ForgedServer;
use rqs_storage::{StorageHarness, StorageMsg, Value};

/// The adversary shared by both configurations.
fn adversary() -> Adversary {
    Adversary::general(
        6,
        [
            ProcessSet::from_indices([0, 1]),
            ProcessSet::from_indices([2, 3]),
            ProcessSet::from_indices([1, 3]),
        ],
    )
    .expect("adversary")
}

/// The Property-3-violating configuration (Properties 1–2 hold).
pub fn invalid_rqs() -> Rqs {
    let q1 = ProcessSet::from_indices([0, 4, 5]); // Q1 = {s1,s5,s6}
    let q2 = ProcessSet::from_indices([0, 1, 2, 3, 4]); // Q2 = {s1..s5}
    let q = ProcessSet::from_indices([0, 1, 2, 3, 5]); // Q  = {s1..s4,s6}
    let rqs = Rqs::new_unchecked(adversary(), vec![q1, q2, q], vec![0], vec![0, 1, 2])
        .expect("structurally fine");
    assert!(rqs.check_property1().is_ok(), "Property 1 must hold");
    assert!(rqs.check_property2().is_ok(), "Property 2 must hold");
    assert!(rqs.check_property3().is_err(), "Property 3 must fail");
    rqs
}

/// Outcome of the Theorem-3 schedule.
#[derive(Clone, Debug)]
pub struct Fig8Outcome {
    /// rd1's (rounds, returned).
    pub rd1: (usize, String),
    /// rd2's (rounds, returned) — `None` if it blocked (valid config).
    pub rd2: Option<(usize, String)>,
    /// Atomicity verdict over the collected history.
    pub violated: bool,
}

/// Fate policy implementing the schedule for a given `(q1, q2)` pair of
/// member sets. Round-2 write messages are recognized by send time.
#[allow(clippy::too_many_arguments)] // one parameter per proof role
fn schedule(
    writer: NodeId,
    r1: NodeId,
    r2: NodeId,
    servers: Vec<NodeId>,
    round1_targets: Vec<usize>,
    round2_targets: Vec<usize>,
    rd1_visible: Vec<usize>,
    rd2_visible: Vec<usize>,
) -> impl FnMut(&Envelope<StorageMsg>) -> Fate {
    move |env| {
        let server_idx = servers.iter().position(|&s| s == env.to);
        let from_server = servers.iter().position(|&s| s == env.from);
        if env.from == writer {
            // Writer rounds, keyed by message content.
            if let StorageMsg::Wr { rnd, .. } = &env.msg {
                let idx = server_idx.expect("writer talks to servers");
                let allowed = match rnd {
                    1 => round1_targets.contains(&idx),
                    2 => round2_targets.contains(&idx),
                    _ => false,
                };
                return if allowed {
                    Fate::Deliver { delay: 1 }
                } else {
                    Fate::Drop
                };
            }
            return Fate::Deliver { delay: 1 };
        }
        if env.to == r1 {
            if let Some(i) = from_server {
                return if rd1_visible.contains(&i) {
                    Fate::Deliver { delay: 1 }
                } else {
                    Fate::Drop
                };
            }
        }
        if env.to == r2 {
            if let Some(i) = from_server {
                return if rd2_visible.contains(&i) {
                    Fate::Deliver { delay: 1 }
                } else {
                    Fate::Drop
                };
            }
        }
        if env.from == r1 {
            if let Some(i) = server_idx {
                if !rd1_visible.contains(&i) {
                    return Fate::Drop;
                }
            }
        }
        if env.from == r2 {
            if let Some(i) = server_idx {
                if !rd2_visible.contains(&i) {
                    return Fate::Drop;
                }
            }
        }
        Fate::Deliver { delay: 1 }
    }
}

/// Runs the Theorem-3 schedule over a configuration.
///
/// `q1_members` etc. parameterize the roles so the same schedule drives
/// both the invalid and the valid (Example 7) configurations.
pub fn run(
    rqs: Rqs,
    q1_members: Vec<usize>,
    q2_members: Vec<usize>,
    q_members: Vec<usize>,
) -> Fig8Outcome {
    let mut h = StorageHarness::new(rqs, 2);
    let writer = h.writer_id();
    let (r1, r2) = (h.reader_id(0), h.reader_id(1));
    let servers = h.servers().to_vec();
    let q1_and_q2: Vec<usize> = q1_members
        .iter()
        .copied()
        .filter(|i| q2_members.contains(i))
        .collect();

    h.world_mut().set_policy(schedule(
        writer,
        r1,
        r2,
        servers,
        q2_members.clone(),
        q1_and_q2,
        q1_members.clone(),
        q_members.clone(),
    ));

    // 1. Incomplete 2-round write: round 1 to Q2, round 2 to Q1 ∩ Q2, then
    //    the writer is cut off (it keeps waiting for round-2 acks that
    //    suffice for no quorum).
    h.start_write(Value::from(7u64));
    h.world_mut().run_to_quiescence();

    // 2. rd1 over Q1 — must be fast.
    let rd1 = h.read(0);

    // 3. B'1 = {s1, s2} forge the initial state; advance the clock so rd2
    //    strictly follows rd1 in real time.
    h.make_byzantine(0, Box::new(ForgedServer::initial_state()));
    h.make_byzantine(1, Box::new(ForgedServer::initial_state()));
    let now = h.now();
    h.world_mut().run_before(Time(now.ticks() + 1));

    // 4. rd2 over Q — bounded run, since the valid configuration may
    //    (correctly) block without a correct quorum.
    h.start_read(1);
    let r2_node = r2;
    let completed = h.world_mut().run_until_bounded(
        |w| w.node_as::<rqs_storage::Reader>(r2_node).outcomes().len() == 1,
        500_000,
    );
    h.harvest();
    let rd2 = completed.then(|| {
        let out = &h
            .world_mut()
            .node_as::<rqs_storage::Reader>(r2_node)
            .outcomes()[0];
        (out.rounds, out.returned.to_string())
    });
    let violated = h.check_atomicity().is_err();

    Fig8Outcome {
        rd1: (rd1.rounds, rd1.returned.to_string()),
        rd2,
        violated,
    }
}

/// The invalid configuration under the Theorem-3 schedule.
pub fn run_invalid() -> Fig8Outcome {
    run(
        invalid_rqs(),
        vec![0, 4, 5],
        vec![0, 1, 2, 3, 4],
        vec![0, 1, 2, 3, 5],
    )
}

/// The valid Example-7 configuration under the analogous schedule.
pub fn run_valid() -> Fig8Outcome {
    run(
        crate::exp_fig4::example7_rqs(),
        vec![1, 3, 4, 5],
        vec![0, 1, 2, 3, 4],
        vec![0, 1, 2, 3, 5],
    )
}

/// Builds the E5 report.
pub fn report() -> Report {
    let bad = run_invalid();
    let good = run_valid();
    let mut r =
        Report::new("E5 (Figure 8, Theorem 3): Property 3 is necessary for graceful degradation");
    r.note("Same adversary, same schedule; only the quorum classes differ.");
    r.note("Invalid config: P1,P2 hold, P3 fails (Q2∩Q\\B'1 = {s3,s4} ∈ B and");
    r.note("Q1∩Q2∩Q\\B'1 = ∅). rd1 returns 7 fast; after {s1,s2} forge σ0,");
    r.note("rd2 returns ⊥ — a value older than rd1's: atomicity violated.");
    let fmt_rd2 = |o: &Fig8Outcome| match &o.rd2 {
        Some((rounds, v)) => format!("{v} in {rounds} round(s)"),
        None => "blocks (no correct quorum — safe)".to_string(),
    };
    r.headers(["configuration", "rd1", "rd2", "atomicity"]);
    r.row([
        "Property 3 violated".to_string(),
        format!("{} in {} round(s)", bad.rd1.1, bad.rd1.0),
        fmt_rd2(&bad),
        if bad.violated {
            "VIOLATED".to_string()
        } else {
            "ok".to_string()
        },
    ]);
    r.row([
        "valid RQS (Example 7)".to_string(),
        format!("{} in {} round(s)", good.rd1.1, good.rd1.0),
        fmt_rd2(&good),
        if good.violated {
            "VIOLATED".to_string()
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
    fn invalid_config_shape() {
        let _ = invalid_rqs(); // asserts P1 ∧ P2 ∧ ¬P3 internally
    }

    #[test]
    fn theorem3_violation_reproduced() {
        let bad = run_invalid();
        assert_eq!(bad.rd1.0, 1, "rd1 must be a one-round read");
        assert!(bad.rd1.1.contains('7'));
        let rd2 = bad.rd2.expect("rd2 terminates in the invalid config");
        assert!(
            rd2.1.contains('⊥'),
            "rd2 returns the initial value: {rd2:?}"
        );
        assert!(bad.violated, "atomicity must be violated");
    }

    #[test]
    fn valid_config_stays_safe() {
        let good = run_valid();
        assert_eq!(good.rd1.0, 1, "the valid config is equally fast for rd1");
        assert!(!good.violated, "the valid config must stay atomic");
    }
}
