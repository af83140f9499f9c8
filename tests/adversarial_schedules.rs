//! Adversarial-schedule integration tests: the corners of both protocols
//! that only show up under crafted Byzantine behaviour plus asynchrony.

use rqs::consensus::ConsensusHarness;
use rqs::storage::byzantine::ScriptedServer;
use rqs::storage::{History, StorageHarness, StorageMsg, TsVal, Value};
use rqs::ThresholdConfig;
use rqs_sim::{Envelope, Fate, Time};
use std::collections::BTreeSet;

/// A Byzantine server fabricates a *slot-2* entry (which `valid2` trusts
/// when the server sits in every responded quorum): the reader's first
/// round cannot form a candidate set — the ghost is unsafe but not yet
/// invalid — so phase 1 must loop into further rounds until a quorum
/// avoiding the liar responds. Exercises the repeat-until-C≠∅ loop
/// (Fig. 7 lines 22–34) that best-case executions never touch.
#[test]
fn slot2_fabrication_forces_extra_read_rounds() {
    let rqs = ThresholdConfig::byzantine_fast(1).build().unwrap();
    let mut h = StorageHarness::new(rqs, 1);
    h.write(Value::from(5u64));

    // Server 0 turns Byzantine: it presents a history whose slot 2 holds
    // a fabricated pair ⟨9, 666⟩ (and echoes acks so writes don't stall).
    let ghost = TsVal::new(9, Value::from(666u64));
    let forged_history = {
        let mut hist = History::new();
        hist.apply_write(&TsVal::new(5, Value::from(5u64)), &BTreeSet::new(), 1);
        hist.apply_write(&ghost, &BTreeSet::new(), 2);
        hist
    };
    h.make_byzantine(
        0,
        Box::new(ScriptedServer::new(move |from, msg, ctx| match msg {
            StorageMsg::Rd { read_no, rnd } => ctx.send(
                from,
                StorageMsg::RdAck {
                    read_no,
                    rnd,
                    history: forged_history.clone(),
                },
            ),
            StorageMsg::Wr { ts, rnd, .. } => ctx.send(from, StorageMsg::WrAck { ts, rnd }),
            _ => {}
        })),
    );

    // Round 1 of the read sees only {0, 1, 2}: server 3's replies are
    // delayed past the first round.
    let reader = h.reader_id(0);
    let s3 = h.servers()[3];
    let release = h.now() + 6;
    h.world_mut().set_policy(move |e: &Envelope<StorageMsg>| {
        if e.from == s3 && e.to == reader && e.sent_at < release {
            Fate::DeliverAt(release)
        } else {
            Fate::Deliver { delay: 1 }
        }
    });
    let r = h.read(0);
    assert_eq!(r.returned.val, Value::from(5u64), "the real value wins");
    assert!(
        r.rounds > 1,
        "the ghost must block round 1 (got {} rounds)",
        r.rounds
    );
    h.check_atomicity().unwrap();
}

/// Eventual synchrony: before GST messages are randomly dropped; after
/// GST the network is reliable. Consensus must still terminate and agree
/// (the paper's liveness model, §4.1).
#[test]
fn consensus_terminates_after_gst() {
    for seed in [3u64, 7, 11] {
        let rqs = ThresholdConfig::byzantine_fast(1).build().unwrap();
        let mut h = ConsensusHarness::new(rqs, 2, 2);
        let gst = Time(25);
        // Deterministic pseudo-random pre-GST drops (~40%).
        let mut state = seed;
        h.world_mut()
            .set_policy(move |e: &Envelope<rqs::consensus::ConsensusMsg>| {
                if e.sent_at >= gst {
                    return Fate::Deliver { delay: 1 };
                }
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if (state >> 33) % 10 < 4 {
                    Fate::Drop
                } else {
                    Fate::Deliver { delay: 1 }
                }
            });
        h.propose(0, 1);
        h.propose(1, 2);
        assert!(
            h.run_until_learned(3_000_000),
            "seed {seed}: must terminate after GST"
        );
        let v = h.agreed_value().expect("agreement");
        assert!(v == 1 || v == 2, "validity: {v}");
    }
}

/// A reader whose first-round timer fires before any quorum responds
/// (slow network) still completes once replies arrive — the "wait for
/// quorum AND timeout" conjunction, from the timeout side.
#[test]
fn slow_first_round_still_completes() {
    let rqs = ThresholdConfig::crash_fast(5, 1).build().unwrap();
    let mut h = StorageHarness::new(rqs, 1);
    h.write(Value::from(3u64));
    // All server→reader replies take 10 ticks (≫ the 2Δ timer).
    let reader = h.reader_id(0);
    h.world_mut().set_policy(move |e: &Envelope<StorageMsg>| {
        if e.to == reader {
            Fate::Deliver { delay: 10 }
        } else {
            Fate::Deliver { delay: 1 }
        }
    });
    let r = h.read(0);
    assert_eq!(r.returned.val, Value::from(3u64));
    h.check_atomicity().unwrap();
}

/// Asymmetric partition healing: the writer can only reach a class-3
/// quorum, writes in 3 rounds; the partition heals; the next write is
/// fast again (no sticky degradation).
#[test]
fn degradation_is_not_sticky() {
    let rqs = ThresholdConfig::new(7, 2, 1)
        .with_class1(0)
        .with_class2(1)
        .build()
        .unwrap();
    let mut h = StorageHarness::new(rqs, 1);
    let writer = h.writer_id();
    let cut: Vec<_> = h.servers()[5..].to_vec();
    let heal = h.now() + 40;
    h.world_mut().set_policy(move |e: &Envelope<StorageMsg>| {
        if e.sent_at < heal && e.from == writer && cut.contains(&e.to) {
            Fate::Drop
        } else {
            Fate::Deliver { delay: 1 }
        }
    });
    let w1 = h.write(Value::from(1u64));
    assert_eq!(w1.rounds, 3, "partitioned from 2 servers → class-3 path");
    // Heal.
    let now = h.now();
    if now.ticks() < 40 {
        h.world_mut().run_before(Time(41));
    }
    let w2 = h.write(Value::from(2u64));
    assert_eq!(w2.rounds, 1, "after healing the fast path returns");
    let r = h.read(0);
    assert_eq!(r.returned.val, Value::from(2u64));
    h.check_atomicity().unwrap();
}

/// Byzantine server alternating identities of stored pairs ("poisoned
/// writeback"): acks write-backs but swaps the value it echoes in reads.
/// Safety holds because `safe()` demands a basic reporter set.
#[test]
fn value_swapping_server_cannot_poison_reads() {
    let rqs = ThresholdConfig::byzantine_fast(1).build().unwrap();
    let mut h = StorageHarness::new(rqs, 2);
    // Swap: claim ts1 stored value 999.
    let mut swapped = History::new();
    swapped.apply_write(&TsVal::new(1, Value::from(999u64)), &BTreeSet::new(), 2);
    h.make_byzantine(
        2,
        Box::new(ScriptedServer::new(move |from, msg, ctx| match msg {
            StorageMsg::Rd { read_no, rnd } => {
                ctx.send(
                    from,
                    StorageMsg::RdAck {
                        read_no,
                        rnd,
                        history: swapped.clone(),
                    },
                );
            }
            StorageMsg::Wr { ts, rnd, .. } => ctx.send(from, StorageMsg::WrAck { ts, rnd }),
            _ => {}
        })),
    );
    h.write(Value::from(1u64));
    let r1 = h.read(0);
    let r2 = h.read(1);
    assert_eq!(r1.returned.val, Value::from(1u64));
    assert_eq!(r2.returned.val, Value::from(1u64));
    h.check_atomicity().unwrap();
}
