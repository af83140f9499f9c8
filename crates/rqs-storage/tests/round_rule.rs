//! Spec-based properties of the round-completion rule: a timed round of
//! the writer (rounds 1–2) or of the reader's fast write-back ends at its
//! timer *or as soon as its outcome is decided*, and the early exits
//! must never change that outcome.
//!
//! The spec is Fig. 5 line 12 / Fig. 7 line 45 read literally — a timed
//! round ends at the first moment its timer has fired *and* a quorum has
//! acked — followed by the paper's classification of the ack set at that
//! moment. The automata are driven ack by ack over random responding
//! sets, arrival ticks on both sides of the timer and random same-tick
//! orders, on `crash_fast(5, 1)` (class 1 = 4 of 5, so the rule fires
//! strictly before "all n") and `byzantine_fast(1)` (class 1 = all 4).

use proptest::prelude::*;
use rqs_core::threshold::ThresholdConfig;
use rqs_core::{ProcessId, ProcessSet, QuorumId, Rqs};
use rqs_sim::{Automaton, Context, NodeId, Time, TimerToken};
use rqs_storage::{History, Reader, StorageMsg, TsVal, Value, Writer, CLIENT_TIMEOUT};
use std::collections::BTreeSet;
use std::sync::Arc;

fn system(pick: usize) -> Arc<Rqs> {
    let cfg = match pick {
        0 => ThresholdConfig::crash_fast(5, 1),
        _ => ThresholdConfig::byzantine_fast(1),
    };
    Arc::new(cfg.build().unwrap())
}

/// One server's ack of one round: the tick (relative to the round's
/// broadcast) it arrives at, and which side of a same-tick timer it
/// sorts on.
#[derive(Clone, Copy, Debug)]
struct Arrival {
    server: usize,
    tick: u64,
    after_tie: bool,
}

impl Arrival {
    /// Sort key: ticks, with the timer between a tick's two halves.
    fn key(&self) -> u64 {
        3 * self.tick + 2 * self.after_tie as u64
    }
}

const TIMER_KEY: u64 = 3 * CLIENT_TIMEOUT + 1;

const CLIENT: NodeId = NodeId(99);

/// Decodes one round's schedule from raw samples: roughly three servers
/// in four respond, at a tick in `1..=2·timer` (within and beyond the
/// timer). A responding set without a quorum would never end the round,
/// so it is widened to everyone. `order` permutes same-key acks.
fn round_schedule(rqs: &Rqs, raws: &[u64], order: u64) -> Vec<Arrival> {
    let n = rqs.universe_size();
    let decode = |server: usize, respond_all: bool| {
        let raw = raws[server];
        (respond_all || !raw.is_multiple_of(4)).then(|| Arrival {
            server,
            tick: 1 + (raw >> 2) % (2 * CLIENT_TIMEOUT),
            after_tie: (raw >> 16) & 1 == 1,
        })
    };
    let mut acks: Vec<Arrival> = (0..n).filter_map(|i| decode(i, false)).collect();
    let responders: ProcessSet = acks.iter().map(|a| ProcessId(a.server)).collect();
    if !rqs.any_quorum_within(responders) {
        acks = (0..n).filter_map(|i| decode(i, true)).collect();
    }
    // Seeded Fisher–Yates, then a stable sort: ties keep the shuffle.
    let mut seed = order | 1;
    for i in (1..acks.len()).rev() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        acks.swap(i, (seed as usize) % (i + 1));
    }
    acks.sort_by_key(Arrival::key);
    acks
}

/// The spec: the ack set a round is classified on, and the key at which
/// it ends — the first moment the timer (if any) has fired and a quorum
/// has acked.
fn spec_round_end(rqs: &Rqs, acks: &[Arrival], timed: bool) -> (ProcessSet, u64) {
    let mut set = ProcessSet::empty();
    let mut fired = !timed;
    for a in acks {
        if !fired && a.key() > TIMER_KEY {
            fired = true;
            if rqs.any_quorum_within(set) {
                return (set, TIMER_KEY);
            }
        }
        set.insert(ProcessId(a.server));
        if fired && rqs.any_quorum_within(set) {
            return (set, a.key());
        }
    }
    assert!(
        !fired && rqs.any_quorum_within(set),
        "schedule ends the round"
    );
    (set, TIMER_KEY)
}

/// The servers whose ack beats the round's timer.
fn in_time(acks: &[Arrival]) -> ProcessSet {
    acks.iter()
        .filter(|a| a.key() < TIMER_KEY)
        .map(|a| ProcessId(a.server))
        .collect()
}

/// What an automaton did in one step, as far as the driver cares.
struct Step {
    /// `(rnd, sets)` of the `wr` it broadcast, if it started a round.
    broadcast: Option<(usize, BTreeSet<QuorumId>)>,
    timer: Option<TimerToken>,
}

fn step_of(ctx: &Context<StorageMsg>) -> Step {
    Step {
        broadcast: ctx.sent().first().map(|(_, m)| match m {
            StorageMsg::Wr { rnd, sets, .. } => (*rnd, sets.clone()),
            other => panic!("unexpected broadcast {other:?}"),
        }),
        timer: ctx.armed_timers().first().map(|t| t.1),
    }
}

/// Delivers one round's acks (and its timer, if armed) to `node` in
/// schedule order until the node broadcasts the next round or `done`.
/// Returns the step that ended the round (`None` when `done`) and the
/// key it ended at.
fn drive_round<A: Automaton<StorageMsg>>(
    node: &mut A,
    acks: &[Arrival],
    ack: &StorageMsg,
    timer: Option<TimerToken>,
    start: u64,
    done: impl Fn(&A) -> bool,
) -> (Option<Step>, u64) {
    let mut events: Vec<(u64, Option<usize>)> =
        acks.iter().map(|a| (a.key(), Some(a.server))).collect();
    if timer.is_some() {
        events.push((TIMER_KEY, None));
        events.sort_by_key(|e| e.0); // stable: ack order survives
    }
    for (i, (key, what)) in events.into_iter().enumerate() {
        let mut ctx = Context::new(
            CLIENT,
            Time(start + key / 3),
            1_000 * (start + 1) + i as u64,
        );
        match what {
            Some(server) => node.on_message(NodeId(server), ack.clone(), &mut ctx),
            None => node.on_timer(timer.expect("armed"), &mut ctx),
        }
        if done(node) {
            return (None, key);
        }
        let step = step_of(&ctx);
        if step.broadcast.is_some() {
            return (Some(step), key);
        }
    }
    panic!("the schedule never ended the round");
}

proptest! {
    // Each case is a few dozen automaton steps; buy coverage of the
    // (system × sets × timer side × order) space instead.
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `rounds` of a write is what the RQS says for the sets that
    /// responded: 1 iff round 1's set contains a class-1 quorum, 2 iff
    /// it contains a class-2 quorum that also acks round 2, else 3 —
    /// whatever the arrival order, and never later than the spec's tick.
    #[test]
    fn write_rounds_are_what_the_rqs_says_for_the_responding_sets(
        pick in 0usize..2,
        raws in prop::collection::vec(0u64..u64::MAX, 15),
        order in 0u64..u64::MAX,
    ) {
        let rqs = system(pick);
        let n = rqs.universe_size();
        let servers: Vec<NodeId> = (0..n).map(NodeId).collect();
        let rounds: Vec<Vec<Arrival>> = (0..3)
            .map(|r| round_schedule(&rqs, &raws[5 * r..5 * r + n], order.rotate_left(r as u32)))
            .collect();

        // The spec, from the schedule alone.
        let (e1, k1) = spec_round_end(&rqs, &rounds[0], true);
        let (e2, k2) = spec_round_end(&rqs, &rounds[1], true);
        let (_, k3) = spec_round_end(&rqs, &rounds[2], false);
        // While the servers that beat a timer contain a quorum, the set
        // classified is exactly that set: the verdict is a function of
        // who responded in time, with no order left in it.
        for (acks, e) in [(&rounds[0], e1), (&rounds[1], e2)] {
            prop_assert!(!rqs.any_quorum_within(in_time(acks)) || e == in_time(acks));
        }
        let qc2_prime: BTreeSet<QuorumId> = rqs.class2_within(e1).collect();
        let (want_rounds, want_key) = if rqs.class1_within(e1).is_some() {
            (1, k1)
        } else if qc2_prime.iter().any(|&q| rqs.quorum(q).is_subset_of(e2)) {
            (2, k1 + k2)
        } else {
            (3, k1 + k2 + k3)
        };

        // The automaton, ack by ack.
        let mut w = Writer::new(rqs.clone(), servers);
        let mut ctx = Context::new(CLIENT, Time(0), 0);
        w.start_write(Value::from(7u64), &mut ctx);
        let mut step = step_of(&ctx);
        let (mut start, mut spent) = (0, 0);
        loop {
            let (rnd, sets) = step.broadcast.expect("a round is open");
            if rnd == 2 {
                prop_assert_eq!(&sets, &qc2_prime, "QC'2 is fixed on the spec's set");
            }
            let ack = StorageMsg::WrAck { ts: 1, rnd };
            let (next, key) =
                drive_round(&mut w, &rounds[rnd - 1], &ack, step.timer, start, Writer::is_idle);
            spent += key;
            start += key / 3;
            match next {
                Some(s) => step = s,
                None => break,
            }
        }
        let out = &w.outcomes()[0];
        prop_assert_eq!(out.rounds, want_rounds, "schedule {:?}", rounds);
        prop_assert!(spent <= want_key, "deciding early must not take longer");

    }

    /// The reader's fast round-1 write-back: with `X` the class-2
    /// quorums the best-case detector found, the read takes 2 rounds iff
    /// the write-back's ack set contains a quorum of `X`, else 3.
    #[test]
    fn fast_writeback_rounds_are_what_the_rqs_says_for_the_ack_set(
        pick in 0usize..2,
        raws in prop::collection::vec(0u64..u64::MAX, 10),
        order in 0u64..u64::MAX,
    ) {
        let rqs = system(pick);
        let n = rqs.universe_size();
        let servers: Vec<NodeId> = (0..n).map(NodeId).collect();
        let mut r = Reader::new(rqs.clone(), servers);
        let mut ctx = Context::new(CLIENT, Time(0), 0);
        r.start_read(&mut ctx);
        let phase1_timer = ctx.armed_timers()[0].1;
        // A write caught mid-flight: the first `holders` servers store
        // ⟨1,v⟩ in slot 1, the other answerers nothing — few enough that
        // BCD(csel,1,·) fails, enough that csel = ⟨1,v⟩ and
        // BCD(csel,2,1) = X ≠ ∅. On the 5-server system one server stays
        // silent and the timer ends phase 1; on the 4-server one all n
        // answer, which ends it on the spot.
        let (holders, answerers) = if pick == 0 { (2, 4) } else { (3, 4) };
        let c = TsVal::new(1, Value::from(7u64));
        let mut holds = History::new();
        holds.apply_write(&c, &BTreeSet::new(), 1);
        let mut ctx = Context::new(CLIENT, Time(2), 100);
        for i in 0..answerers {
            let history = if i < holders { holds.clone() } else { History::new() };
            prop_assert!(ctx.sent().is_empty(), "fewer than n answers decide nothing");
            r.on_message(NodeId(i), StorageMsg::RdAck { read_no: 1, rnd: 1, history }, &mut ctx);
        }
        if answerers < n {
            prop_assert!(ctx.sent().is_empty(), "fewer than n answers decide nothing");
            ctx = Context::new(CLIENT, Time(3), 200);
            r.on_timer(phase1_timer, &mut ctx);
        }
        let step = step_of(&ctx);
        let (rnd, x) = step.broadcast.expect("phase 1 ended");
        prop_assert_eq!(rnd, 1);
        prop_assert!(!x.is_empty() && step.timer.is_some(), "the fast write-back branch");

        let wb1 = round_schedule(&rqs, &raws[..n], order);
        let wb2 = round_schedule(&rqs, &raws[5..5 + n], !order);
        let (e, k1) = spec_round_end(&rqs, &wb1, true);
        let confirmed = x.iter().any(|&q| rqs.quorum(q).is_subset_of(e));

        let ack1 = StorageMsg::WrAck { ts: 1, rnd: 1 };
        let (next, key) = drive_round(&mut r, &wb1, &ack1, step.timer, 3, Reader::is_idle);
        prop_assert!(key <= k1, "deciding early must not take longer");
        prop_assert_eq!(next.is_none(), confirmed, "acks {:?}, X {:?}", wb1, x);
        if let Some(fallthrough) = next {
            prop_assert_eq!(fallthrough.broadcast.map(|b| b.0), Some(2));
            let ack2 = StorageMsg::WrAck { ts: 1, rnd: 2 };
            let (end, _) = drive_round(&mut r, &wb2, &ack2, None, 3 + key / 3, Reader::is_idle);
            prop_assert!(end.is_none());
        }
        let out = &r.outcomes()[0];
        prop_assert_eq!(out.rounds, if confirmed { 2 } else { 3 });
        prop_assert_eq!(&out.returned, &c);
    }
}
