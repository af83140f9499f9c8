//! Negative tests for the checker itself: plant known bugs (behind the
//! `mutants` feature of the protocol crates) and assert the explorer
//! *finds* each violation within a fixed budget, producing a shrunk,
//! replayable counterexample.

use rqs_check::explore::{dfs, replay, Bounds};
use rqs_check::model::{ConsensusModel, StorageModel, StorageSystem};
use rqs_consensus::byzantine::ScriptedAcceptor;
use rqs_consensus::learner::Learner;
use rqs_consensus::types::ConsensusMsg;
use rqs_storage::reader::Reader;
use rqs_storage::server::Server;
use rqs_storage::writer::Writer;
use std::rc::Rc;

/// Reader 1 always returns `⟨0,⊥⟩` — a stale-read bug. The canonical
/// schedule already exposes it, so the explorer finds it on its very
/// first run and the shrunk trace is empty (the bug is
/// schedule-independent).
#[test]
fn stale_reader_mutant_is_found() {
    let mut model = StorageModel::write_read_read(StorageSystem::ByzantineFast { t: 1 });
    model.setup = Some(Rc::new(|h| {
        let rqs = h.rqs().clone();
        let servers = h.servers().to_vec();
        let id = h.reader_id(1);
        h.world_mut()
            .replace_node(id, Box::new(Reader::new_mutant_stale(rqs, servers)));
    }));
    let outcome = dfs(&model, &Bounds::delivery(4, 2), true);
    assert_eq!(outcome.violations.len(), 1);
    let v = &outcome.violations[0];
    assert!(v.message.contains("atomicity"), "{}", v.message);
    assert!(v.shrunk.len() <= 2, "shrunk trace: {:?}", v.shrunk);
    assert!(outcome.stats.runs <= 5, "found almost immediately");
    // The counterexample replays.
    let (_, out) = replay(&model, &v.shrunk, 500);
    assert!(out.violation.is_some());
}

fn skip_write_back_model() -> StorageModel {
    let mut model = StorageModel::write_read_read(StorageSystem::CrashFast { n: 4, q: 1 });
    model.setup = Some(Rc::new(|h| {
        let rqs = h.rqs().clone();
        let servers = h.servers().to_vec();
        let id = h.reader_id(0);
        h.world_mut().replace_node(
            id,
            Box::new(Reader::new_mutant_skip_write_back(rqs, servers)),
        );
    }));
    model
}

/// Reader 0 skips the write-back phase — the §1.2 greedy bug. This one is
/// genuinely schedule-dependent: it only fires when the write reaches a
/// single server, the skipping reader returns the new value from that
/// server alone, the server then crashes, and the second reader completes
/// against the remaining quorum — a new/old inversion. Bounded DFS with
/// fault branching (3 drops + 1 crash, within budget) must construct that
/// schedule.
#[test]
fn skip_write_back_mutant_is_found_and_shrunk() {
    let model = skip_write_back_model();
    let bounds = Bounds::delivery(6, 2)
        .with_drops(3)
        .with_crashes(1)
        .with_crash_candidates(vec![0]);
    let outcome = dfs(&model, &bounds, true);
    assert_eq!(
        outcome.violations.len(),
        1,
        "explorer must find the inversion within the budget ({} runs)",
        outcome.stats.runs
    );
    let v = &outcome.violations[0];
    assert!(v.message.contains("atomicity"), "{}", v.message);
    assert!(v.message.contains("stale"), "{}", v.message);
    assert!(
        v.shrunk.len() <= 8,
        "shrunk trace must be short, got {}: {:?}",
        v.shrunk.len(),
        v.shrunk
    );
    assert!(
        outcome.stats.runs <= 2_000,
        "budget: {} runs",
        outcome.stats.runs
    );
    // The shrunk counterexample replays to the same violation class.
    let (_, out) = replay(&model, &v.shrunk, 500);
    assert!(out.violation.is_some(), "shrunk script must still fail");
    // And the rendered trace shows the failing execution.
    assert!(!v.rendered.is_empty());
    // The flight-recorder dump is a one-line structured report carrying
    // the instrumented replay's trace events.
    assert!(v.flight_dump.starts_with('{'), "{}", v.flight_dump);
    assert!(!v.flight_dump.contains('\n'));
    assert!(v.flight_dump.contains("schedule-violation"));
    assert!(v.flight_dump.contains("atomicity"));
    assert!(
        v.flight_dump.contains("\"deliver\""),
        "instrumented replay must record delivery events: {}",
        v.flight_dump
    );
}

/// The same planted bug must NOT be reported when the mutant is absent:
/// identical bounds on the correct algorithm exhaust clean. (Guards
/// against the checker "finding" violations that are artifacts of fault
/// branching.)
#[test]
fn no_mutant_no_violation_under_same_budget() {
    let model = StorageModel::write_read_read(StorageSystem::CrashFast { n: 4, q: 1 });
    let bounds = Bounds::delivery(6, 2)
        .with_drops(3)
        .with_crashes(1)
        .with_crash_candidates(vec![0]);
    let outcome = dfs(&model, &bounds, true);
    assert!(outcome.stats.exhausted);
    assert!(outcome.violations.is_empty());
}

/// A durable model whose servers ack writes *without* write-ahead
/// logging them (the planted durability bug): amnesia recovery then
/// loses acknowledged state.
fn no_wal_model() -> StorageModel {
    let mut model =
        StorageModel::write_read_read(StorageSystem::CrashFast { n: 4, q: 1 }).durable();
    model.setup = Some(Rc::new(|h| {
        let stores = h.server_stores().to_vec();
        let servers = h.servers().to_vec();
        for (id, store) in servers.into_iter().zip(stores) {
            h.world_mut()
                .replace_node(id, Box::new(Server::new_mutant_no_wal(store)));
        }
    }));
    model
}

fn amnesia_bounds() -> Bounds {
    Bounds::delivery(7, 2)
        .with_drops(1)
        .with_recovers(3)
        .with_crash_candidates(vec![0, 1, 2])
}

/// Servers that ack before logging violate atomicity under amnesia
/// crash-recovery: the write collects a quorum of acks, the acking
/// servers forget the value, and a later read completes against the
/// amnesiac quorum and returns stale state. The explorer's
/// `CrashRecover` branching must construct that schedule within the
/// pinned budget.
#[test]
fn no_wal_mutant_is_found_by_amnesia_branching() {
    let model = no_wal_model();
    let outcome = dfs(&model, &amnesia_bounds(), true);
    assert_eq!(
        outcome.violations.len(),
        1,
        "explorer must find the lost-write within the budget ({} runs)",
        outcome.stats.runs
    );
    let v = &outcome.violations[0];
    assert!(v.message.contains("atomicity"), "{}", v.message);
    assert!(
        v.shrunk
            .iter()
            .any(|c| matches!(c, rqs_sim::SchedDecision::CrashRecover(_))),
        "the counterexample must hinge on an amnesia recovery: {:?}",
        v.shrunk
    );
    assert!(
        v.shrunk.len() <= 10,
        "shrunk trace must be short, got {}: {:?}",
        v.shrunk.len(),
        v.shrunk
    );
    assert!(
        outcome.stats.runs <= 5_000,
        "budget: {} runs",
        outcome.stats.runs
    );
    let (_, out) = replay(&model, &v.shrunk, 500);
    assert!(out.violation.is_some(), "shrunk script must still fail");
}

/// The same amnesia schedules must be invisible on the correct
/// write-ahead-logging servers: identical bounds on the unmutated
/// durable model exhaust clean.
#[test]
fn wal_servers_survive_amnesia_branching_under_same_budget() {
    let model = StorageModel::write_read_read(StorageSystem::CrashFast { n: 4, q: 1 }).durable();
    let outcome = dfs(&model, &amnesia_bounds(), true);
    assert!(outcome.stats.exhausted);
    assert!(
        outcome.violations.is_empty(),
        "{:?}",
        outcome.violations.first().map(|v| &v.message)
    );
}

fn settle_on_class2_model() -> StorageModel {
    let mut model = StorageModel::write_then_read_with_forger();
    let forger = model.setup.take().expect("the model plants its forger");
    model.setup = Some(Rc::new(move |h| {
        forger(h);
        let rqs = h.rqs().clone();
        let servers = h.servers().to_vec();
        let id = h.writer_id();
        h.world_mut().replace_node(
            id,
            Box::new(Writer::new_mutant_settle_on_class2(rqs, servers)),
        );
    }));
    model
}

fn settle_on_class2_bounds() -> Bounds {
    Bounds::delivery(10, 1).with_drops(2)
}

/// The writer takes round 1's early exit on a *class-2* quorum. The
/// round-completion rule is what makes this reachable — the exit is the
/// success branch of a test on the ack set, so the test had better be the
/// class-1 one. Schedule-dependent: the write must miss one honest
/// server and collect the forger's ack among its three, and the read
/// must then hear the forger, the server the write missed and only one
/// holder before its timer — the holder alone is no basic subset, so
/// the completed write reads as a forgery and `⟨0,⊥⟩` is returned.
#[test]
fn settle_on_class2_mutant_is_found_and_shrunk() {
    let model = settle_on_class2_model();
    let outcome = dfs(&model, &settle_on_class2_bounds(), true);
    assert_eq!(
        outcome.violations.len(),
        1,
        "explorer must find the lost write within the budget ({} runs)",
        outcome.stats.runs
    );
    let v = &outcome.violations[0];
    assert!(v.message.contains("atomicity"), "{}", v.message);
    assert!(v.message.contains("stale"), "{}", v.message);
    assert!(
        outcome.stats.runs <= 500,
        "budget: {} runs",
        outcome.stats.runs
    );
    let (_, out) = replay(&model, &v.shrunk, 500);
    assert!(out.violation.is_some(), "shrunk script must still fail");
    // The committed counterexample is this schedule (9 choices, two of
    // them drops: one lost wr, one lost rd): it convicts the mutant and
    // (tests/regressions.rs) passes on the real writer.
    let text = include_str!("../../../tests/regressions/settle-on-class2-lost-write.cex");
    let cex = rqs_check::Counterexample::parse(text).expect("well-formed corpus entry");
    assert_eq!(
        cex.choices, v.shrunk,
        "corpus entry drifted from the shrunk script"
    );
}

/// The real writer under the same forger and the same bounds: two
/// rounds tell the servers which class-2 quorum holds the value, and the
/// reader's `valid2`/`valid3` cases recover it. Exhausts clean — and
/// since no mode switch hides it any more, this exploration runs the
/// round-completion rule itself.
#[test]
fn real_writer_survives_the_forger_under_same_budget() {
    let model = StorageModel::write_then_read_with_forger();
    let outcome = dfs(&model, &settle_on_class2_bounds(), true);
    assert!(outcome.stats.exhausted);
    assert!(
        outcome.violations.is_empty(),
        "{:?}",
        outcome.violations.first().map(|v| &v.message)
    );
}

/// Learner 0 trusts `decision⟨v⟩` one sender short of a basic subset
/// (quorum-size off-by-one): a single forged decision from a Byzantine
/// acceptor makes it learn a never-proposed value — agreement and
/// validity both break.
#[test]
fn one_short_decision_mutant_is_found() {
    let mut model = ConsensusModel::contention(1);
    model.setup = Some(Rc::new(|h| {
        let cfg = h.config().clone();
        let learners = cfg.learners.clone();
        h.world_mut()
            .replace_node(learners[0], Box::new(Learner::new_mutant_one_short(cfg)));
        let targets = learners;
        h.make_byzantine(
            3,
            Box::new(ScriptedAcceptor::new(move |_from, msg, ctx| {
                if let ConsensusMsg::Prepare { .. } = msg {
                    ctx.broadcast(
                        targets.iter().copied(),
                        ConsensusMsg::Decision { value: 999 },
                    );
                }
            })),
        );
    }));
    let outcome = dfs(&model, &Bounds::delivery(4, 2), true);
    assert_eq!(outcome.violations.len(), 1);
    let v = &outcome.violations[0];
    assert!(
        v.message.contains("agreement") || v.message.contains("validity"),
        "{}",
        v.message
    );
    assert!(v.message.contains("999"), "{}", v.message);
    assert!(v.shrunk.len() <= 2, "shrunk trace: {:?}", v.shrunk);
    let (_, out) = replay(&model, &v.shrunk, 20_000);
    assert!(out.violation.is_some());
}

/// The correct learner is immune to the same forged decision: a single
/// Byzantine sender is not a basic subset.
#[test]
fn correct_learner_ignores_forged_decision() {
    let mut model = ConsensusModel::contention(1);
    model.setup = Some(Rc::new(|h| {
        let learners = h.config().learners.clone();
        let targets = learners;
        h.make_byzantine(
            3,
            Box::new(ScriptedAcceptor::new(move |_from, msg, ctx| {
                if let ConsensusMsg::Prepare { .. } = msg {
                    ctx.broadcast(
                        targets.iter().copied(),
                        ConsensusMsg::Decision { value: 999 },
                    );
                }
            })),
        );
    }));
    let outcome = dfs(&model, &Bounds::delivery(3, 2), true);
    assert!(outcome.stats.exhausted);
    assert!(
        outcome.violations.is_empty(),
        "{:?}",
        outcome.violations.first().map(|v| &v.message)
    );
}
