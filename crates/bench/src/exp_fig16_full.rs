//! **E7b (Figure 16, Theorem 6 — full system)** — the live version of the
//! Theorem-6 counterexample: actual Byzantine acceptor automatons execute
//! the forged view-change against the running consensus protocol, and two
//! correct learners end up learning **different values** on the
//! Property-3-violating configuration, while the valid Example-7
//! configuration survives the same attack.
//!
//! The schedule (proof's ex1–ex5 compressed into one run):
//!
//! 1. view 0: `p0` proposes 0, reaching the class-1 quorum `Q1`; `p1`
//!    proposes 1, reaching `Q2`'s benign members. One Byzantine acceptor
//!    inside `Q1` plays 0 **to learner `l1` only** — `l1` decides 0 in
//!    2 message delays via the class-1 rule;
//! 2. the election module promotes view 1 (led by `p1`); the Byzantine
//!    acceptors gather *genuine* signatures over `update1⟨1,0⟩` from the
//!    benign acceptors that really prepared 1 (via `sign_req`), forge
//!    "we 1-updated 1 over `Q2`" acks, and answer the `new_view`;
//! 3. `p1`'s `choose()` over the handover quorum picks a value and
//!    prepares it; the update phase runs; learner `l2` learns it.
//!
//! On the invalid configuration step 3 yields **1** (agreement violated:
//! `l1` has 0, `l2` gets 1); on the valid configuration `choose()` is
//! forced back to **0** and both learners agree.

use crate::report::Report;
use rqs_consensus::byzantine::ScriptedAcceptor;
use rqs_consensus::types::{
    encode_new_view_ack, encode_update, encode_view_change, ConsensusMsg, NewViewAckBody,
    SignedNewViewAck, SignedUpdate, SignedViewChange,
};
use rqs_consensus::ConsensusHarness;
use rqs_core::{ProcessId, ProcessSet, QuorumId, Rqs};
use rqs_crypto::SignerId;
use rqs_sim::{Envelope, Fate, NodeId};

/// Role assignment for the live attack.
#[derive(Clone, Debug)]
pub struct AttackRoles {
    /// The quorum system under attack.
    pub rqs: Rqs,
    /// Universe indices of the Byzantine acceptors (must be in `B`).
    pub byz: Vec<usize>,
    /// The class-1 quorum whose `update1⟨0,0⟩` messages decide 0 at `l1`.
    pub q1_members: Vec<usize>,
    /// Benign acceptors that receive `p1`'s proposal and prepare 1.
    pub prep1: Vec<usize>,
    /// The class-2 quorum id the forged acks claim the 1-update ran over.
    pub q2_id: QuorumId,
    /// The handover quorum: exactly these acceptors' `new_view_ack`s
    /// reach `p1`.
    pub handover: Vec<usize>,
}

/// Outcome of the live attack.
#[derive(Clone, Debug)]
pub struct FullAttackOutcome {
    /// What learner 1 learned (decided in view 0).
    pub l1: Option<u64>,
    /// What learner 2 learned (decided after the view change).
    pub l2: Option<u64>,
    /// Agreement verdict.
    pub violated: bool,
}

/// Runs the live attack.
pub fn run(roles: AttackRoles) -> FullAttackOutcome {
    let n = roles.rqs.universe_size();
    let mut h = ConsensusHarness::new(roles.rqs.clone(), 2, 2);
    let cfg = h.config().clone();
    let (p0, p1) = (cfg.proposers[0], cfg.proposers[1]);
    let (l1, l2) = (cfg.learners[0], cfg.learners[1]);
    let acceptor_nodes = cfg.acceptors.clone();

    // --- network schedule -------------------------------------------------
    let q1_nodes: Vec<NodeId> = roles
        .q1_members
        .iter()
        .map(|&i| acceptor_nodes[i])
        .collect();
    let prep1_nodes: Vec<NodeId> = roles.prep1.iter().map(|&i| acceptor_nodes[i]).collect();
    let byz_nodes: Vec<NodeId> = roles.byz.iter().map(|&i| acceptor_nodes[i]).collect();
    let handover_nodes: Vec<NodeId> = roles.handover.iter().map(|&i| acceptor_nodes[i]).collect();
    let acceptor_nodes_for_policy = acceptor_nodes.clone();
    let policy = move |env: &Envelope<ConsensusMsg>| -> Fate {
        let acceptor_nodes = &acceptor_nodes_for_policy;
        match &env.msg {
            // p0's initial-view proposal reaches Q1 (incl. the Byzantine
            // member); p1's reaches the Byzantine set and the preparers
            // of 1.
            ConsensusMsg::Prepare { view: 0, .. } if env.from == p0 => {
                if q1_nodes.contains(&env.to) {
                    Fate::Deliver { delay: 1 }
                } else {
                    Fate::Drop
                }
            }
            ConsensusMsg::Prepare { view: 0, .. } if env.from == p1 => {
                if prep1_nodes.contains(&env.to) || byz_nodes.contains(&env.to) {
                    Fate::Deliver { delay: 1 }
                } else {
                    Fate::Drop
                }
            }
            // Only the handover quorum's acks reach p1.
            ConsensusMsg::NewViewAck(ack) => {
                if handover_nodes
                    .iter()
                    .any(|&node| node == env.from && node == acceptor_nodes[ack.acceptor.0])
                {
                    Fate::Deliver { delay: 1 }
                } else {
                    Fate::Drop
                }
            }
            _ => Fate::Deliver { delay: 1 },
        }
    };
    h.world_mut().set_policy(policy);

    // --- Byzantine automatons ---------------------------------------------
    for &b in &roles.byz {
        let me = ProcessId(b);
        let keypair = cfg.registry.signer(SignerId(b));
        let registry = cfg.registry.clone();
        let acceptors = acceptor_nodes.clone();
        let learners = [l1, l2];
        let sign_targets: Vec<NodeId> = roles.prep1.iter().map(|&i| acceptor_nodes[i]).collect();
        let q2_id = roles.q2_id;
        let play0_to_l1 = roles.q1_members.contains(&b);
        let needed_sigs = roles.prep1.clone();
        let mut collected: Vec<SignedUpdate> = Vec::new();
        let mut sent_ack = false;
        let mut sent_vc = false;
        let script =
            move |_from: NodeId, msg: ConsensusMsg, ctx: &mut rqs_sim::Context<ConsensusMsg>| {
                match msg {
                ConsensusMsg::Prepare { value: 0, view: 0, .. }
                    // Play 0 to l1 only: completes Q1's update1 set there.
                    if play0_to_l1 => {
                        ctx.send(
                            learners[0],
                            ConsensusMsg::Update { step: 1, value: 0, view: 0, quorum: None },
                        );
                    }
                ConsensusMsg::Sync
                    // Help elect p1 for view 1 (every quorum contains a
                    // Byzantine acceptor, so their view_change is needed).
                    if !sent_vc => {
                        sent_vc = true;
                        let sig = keypair.sign(&encode_view_change(1));
                        ctx.send(
                            p1,
                            ConsensusMsg::ViewChange(SignedViewChange {
                                acceptor: me,
                                next_view: 1,
                                sig,
                            }),
                        );
                    }
                ConsensusMsg::NewView { view: 1, .. } => {
                    // Gather genuine signatures over update1⟨1,0⟩ from the
                    // benign acceptors that really sent it.
                    collected.push(SignedUpdate {
                        acceptor: me,
                        step: 1,
                        value: 1,
                        view: 0,
                        sig: keypair.sign(&encode_update(1, 1, 0)),
                    });
                    ctx.broadcast(
                        sign_targets.iter().copied(),
                        ConsensusMsg::SignReq { value: 1, view: 0, step: 1 },
                    );
                }
                ConsensusMsg::SignAck(su)
                    if su.step == 1 && su.value == 1 && su.view == 0 =>
                {
                    if !collected.iter().any(|c| c.acceptor == su.acceptor)
                        && registry.verify(
                            SignerId(su.acceptor.0),
                            &encode_update(1, 1, 0),
                            &su.sig,
                        )
                    {
                        collected.push(su);
                    }
                    let have_all = needed_sigs
                        .iter()
                        .all(|&i| collected.iter().any(|c| c.acceptor == ProcessId(i)));
                    if have_all && !sent_ack {
                        sent_ack = true;
                        // The forged "I 1-updated 1 over Q2" ack.
                        let mut body = NewViewAckBody { view: 1, ..Default::default() };
                        body.prep = Some(1);
                        body.prep_view.insert(0);
                        body.update[0] = Some(1);
                        body.update_view[0].insert(0);
                        body.update_q[0].entry(0).or_default().insert(q2_id);
                        body.update_proof[0].insert(0, collected.clone());
                        let sig = keypair.sign(&encode_new_view_ack(&body));
                        ctx.send(
                            p1,
                            ConsensusMsg::NewViewAck(SignedNewViewAck {
                                acceptor: me,
                                body,
                                sig,
                            }),
                        );
                    }
                }
                ConsensusMsg::Prepare { value, view, .. } if view >= 1 => {
                    // Keep the view-1 update phase moving: echo all three
                    // update steps for whatever the leader prepared.
                    let everyone: Vec<NodeId> =
                        acceptors.iter().chain(learners.iter()).copied().collect();
                    for step in 1..=3usize {
                        let quorum = (step > 1).then_some(q2_id);
                        ctx.broadcast(
                            everyone.iter().copied(),
                            ConsensusMsg::Update { step, value, view, quorum },
                        );
                    }
                }
                _ => {}
            }
            };
        h.make_byzantine(b, Box::new(ScriptedAcceptor::new(script)));
    }

    // --- drive -------------------------------------------------------------
    h.propose(0, 0);
    h.propose(1, 1);
    let l2_node = l2;
    let l1_node = l1;
    h.world_mut().run_until_bounded(
        |w| {
            w.node_as::<rqs_consensus::Learner>(l1_node)
                .learned()
                .is_some()
                && w.node_as::<rqs_consensus::Learner>(l2_node)
                    .learned()
                    .is_some()
        },
        3_000_000,
    );
    let l1_learned = h.learned(0);
    let l2_learned = h.learned(1);
    let _ = n;
    FullAttackOutcome {
        l1: l1_learned,
        l2: l2_learned,
        violated: matches!((l1_learned, l2_learned), (Some(a), Some(b)) if a != b),
    }
}

/// The invalid (Property-3-violating) configuration's roles.
pub fn invalid_roles() -> AttackRoles {
    let rqs = crate::exp_fig8::invalid_rqs();
    let q2_id = rqs
        .id_of(ProcessSet::from_indices([0, 1, 2, 3, 4]))
        .unwrap();
    AttackRoles {
        rqs,
        byz: vec![0, 1],           // B'1 = {a1, a2} ∈ B
        q1_members: vec![0, 4, 5], // Q1 (a1 Byzantine, a5/a6 benign)
        prep1: vec![2, 3],         // benign preparers of 1
        q2_id,
        handover: vec![0, 1, 2, 3, 5], // Q
    }
}

/// The valid Example-7 configuration under the same attack shape.
pub fn valid_roles() -> AttackRoles {
    let rqs = crate::exp_fig4::example7_rqs();
    let q2_id = rqs
        .id_of(ProcessSet::from_indices([0, 1, 2, 3, 4]))
        .unwrap();
    AttackRoles {
        rqs,
        byz: vec![0], // only {a1} keeps Q1 = {a2,a4,a5,a6} benign
        q1_members: vec![1, 3, 4, 5],
        prep1: vec![2],
        q2_id,
        handover: vec![0, 1, 2, 3, 5], // Q2'
    }
}

/// Builds the E7b report.
pub fn report() -> Report {
    let bad = run(invalid_roles());
    let good = run(valid_roles());
    let mut r = Report::new("E7b (Theorem 6, full system): live agreement violation");
    r.note("Real Byzantine acceptor automatons run the forged view-change");
    r.note("against the live protocol: l1 decides in view 0 via the class-1");
    r.note("rule, the view changes, and l2 learns whatever choose() selects.");
    let fmt = |v: Option<u64>| v.map(|x| x.to_string()).unwrap_or_else(|| "-".into());
    r.headers(["configuration", "l1 learned", "l2 learned", "agreement"]);
    r.row([
        "Property 3 violated".to_string(),
        fmt(bad.l1),
        fmt(bad.l2),
        if bad.violated {
            "VIOLATED".to_string()
        } else {
            "ok".to_string()
        },
    ]);
    r.row([
        "valid RQS (Example 7)".to_string(),
        fmt(good.l1),
        fmt(good.l2),
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
    fn live_attack_violates_invalid_config() {
        let out = run(invalid_roles());
        assert_eq!(out.l1, Some(0), "l1 decides 0 via the class-1 rule");
        assert_eq!(out.l2, Some(1), "l2 learns the conflicting 1");
        assert!(out.violated);
    }

    #[test]
    fn live_attack_fails_on_valid_config() {
        let out = run(valid_roles());
        assert!(!out.violated, "{out:?}");
        if let (Some(a), Some(b)) = (out.l1, out.l2) {
            assert_eq!(a, b);
        }
    }
}
