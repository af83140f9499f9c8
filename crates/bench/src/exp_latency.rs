//! **E4, E6, E9** — the headline latency results:
//!
//! - E4 (§3.2, Theorem 9): the storage algorithm is `(m, QCm)`-fast —
//!   synchronous uncontended reads and writes take 1 / 2 / 3 rounds when
//!   the best fully-correct quorum is class 1 / 2 / 3, against the ABD
//!   baseline whose reads are always 2 rounds (and which tolerates no
//!   Byzantine servers);
//! - E6 (§4.2, Definition 4): consensus learns in 2 / 3 / 4 message
//!   delays for class 1 / 2 / 3 correct quorums, against the classic
//!   Byzantine-quorum baseline that always needs 4;
//! - E9 (Fig. 14): leader crash → exponential-backoff view change →
//!   decision.

use crate::report::Report;
use rqs_consensus::ConsensusHarness;
use rqs_core::threshold::ThresholdConfig;
use rqs_core::{ProcessSet, QuorumClass, Rqs};
use rqs_sim::{NodeId, ScenarioNet, Time, World};
use rqs_storage::abd::{AbdClient, AbdServer};
use rqs_storage::{StorageHarness, Value};

/// One row of the storage latency table.
#[derive(Clone, Debug)]
pub struct StorageLatencyRow {
    /// Configuration description.
    pub config: String,
    /// Number of crashed servers.
    pub crashes: usize,
    /// Best class among surviving quorums.
    pub class: Option<QuorumClass>,
    /// Measured write rounds.
    pub write_rounds: usize,
    /// Measured read rounds.
    pub read_rounds: usize,
}

/// Measures write/read rounds for a configuration with `f` crashed
/// servers (the highest-indexed ones).
pub fn measure_storage(rqs: Rqs, f: usize) -> StorageLatencyRow {
    let n = rqs.universe_size();
    let faulty: ProcessSet = (n - f..n).collect();
    let class = rqs.best_available_class(faulty);
    let config = format!("n={n}");
    let mut h = StorageHarness::new(rqs, 1);
    if f > 0 {
        h.crash_servers(faulty);
    }
    let w = h.write(Value::from(42u64));
    let r = h.read(0);
    assert_eq!(r.returned.val, Value::from(42u64));
    h.check_atomicity().expect("atomic");
    StorageLatencyRow {
        config,
        crashes: f,
        class,
        write_rounds: w.rounds,
        read_rounds: r.rounds,
    }
}

/// Measures the ABD baseline (crash-only majorities).
pub fn measure_abd(n: usize, f: usize) -> (usize, usize) {
    let mut world = World::new(ScenarioNet::benign());
    let servers: Vec<NodeId> = (0..n)
        .map(|_| world.add_node(Box::new(AbdServer::new())))
        .collect();
    let writer = world.add_node(Box::new(AbdClient::new(servers.clone())));
    let reader = world.add_node(Box::new(AbdClient::new(servers.clone())));
    for &s in servers.iter().rev().take(f) {
        world.crash_at(s, Time::ZERO);
    }
    world.run_before(Time(1));
    world.invoke::<AbdClient>(writer, |c, ctx| c.start_write(Value::from(1u64), ctx));
    world.run_to_quiescence();
    let w = world.node_as::<AbdClient>(writer).outcomes()[0].rounds;
    world.invoke::<AbdClient>(reader, |c, ctx| c.start_read(ctx));
    world.run_to_quiescence();
    let r = world.node_as::<AbdClient>(reader).outcomes()[0].rounds;
    (w, r)
}

/// The three-class storage configuration used in the graded sweeps:
/// `n = 7, t = 2, k = 1, q = 0, r = 1`.
pub fn graded_storage_rqs() -> Rqs {
    ThresholdConfig::new(7, 2, 1)
        .with_class1(0)
        .with_class2(1)
        .build()
        .expect("graded config is feasible")
}

/// The degraded-read scenario: a fast (1-round) write completes with all
/// servers alive, `f` servers then crash, and a read runs against the
/// surviving class. This is where the paper's 1/2/3-round *read* grading
/// shows: the read must re-establish enough evidence by writing back.
pub fn measure_degraded_read(rqs: Rqs, f: usize) -> StorageLatencyRow {
    let n = rqs.universe_size();
    let faulty: ProcessSet = (n - f..n).collect();
    let class = rqs.best_available_class(faulty);
    let config = format!("n={n}");
    let mut h = StorageHarness::new(rqs, 1);
    let w = h.write(Value::from(42u64));
    if f > 0 {
        h.crash_servers(faulty);
    }
    let r = h.read(0);
    assert_eq!(r.returned.val, Value::from(42u64));
    h.check_atomicity().expect("atomic");
    StorageLatencyRow {
        config,
        crashes: f,
        class,
        write_rounds: w.rounds,
        read_rounds: r.rounds,
    }
}

/// Builds the E4 report.
pub fn storage_report() -> Report {
    let mut r = Report::new("E4 (Theorem 9): storage is (m, QCm)-fast");
    r.note("Synchronous, uncontended operations; crashes knock out the fast");
    r.note("quorum classes one by one. Paper: 1/2/3 rounds for class 1/2/3.");
    r.note("ABD baseline: reads always 2 rounds, crash faults only.");
    r.headers([
        "system",
        "crashes",
        "best class",
        "write rounds",
        "read rounds",
    ]);
    // §1.2 crash system: n=5, t=2, fast at 4.
    for f in 0..=2 {
        let row = measure_storage(ThresholdConfig::crash_fast(5, 1).build().unwrap(), f);
        r.row([
            "crash n=5 t=2 (§1.2)".to_string(),
            row.crashes.to_string(),
            row.class.map(|c| c.to_string()).unwrap_or_default(),
            row.write_rounds.to_string(),
            row.read_rounds.to_string(),
        ]);
    }
    // Byzantine n = 3t+1 instantiations.
    for t in [1usize, 2] {
        for f in 0..=t {
            let row = measure_storage(ThresholdConfig::byzantine_fast(t).build().unwrap(), f);
            r.row([
                format!("byzantine n={} t=k={t}", 3 * t + 1),
                row.crashes.to_string(),
                row.class.map(|c| c.to_string()).unwrap_or_default(),
                row.write_rounds.to_string(),
                row.read_rounds.to_string(),
            ]);
        }
    }
    // Graded n=7 with all three classes distinct.
    for f in 0..=2 {
        let row = measure_storage(graded_storage_rqs(), f);
        r.row([
            "graded n=7 t=2 k=1 q=0 r=1".to_string(),
            row.crashes.to_string(),
            row.class.map(|c| c.to_string()).unwrap_or_default(),
            row.write_rounds.to_string(),
            row.read_rounds.to_string(),
        ]);
    }
    // Degraded reads: fast write first, then crashes, then the read.
    for f in 0..=2 {
        let row = measure_degraded_read(graded_storage_rqs(), f);
        r.row([
            "graded n=7, crash AFTER fast write".to_string(),
            row.crashes.to_string(),
            row.class.map(|c| c.to_string()).unwrap_or_default(),
            format!("{} (before crashes)", row.write_rounds),
            row.read_rounds.to_string(),
        ]);
    }
    // ABD baseline.
    for f in 0..=2 {
        let (w, rr) = measure_abd(5, f);
        r.row([
            "ABD baseline n=5 (crash-only)".to_string(),
            f.to_string(),
            "-".to_string(),
            w.to_string(),
            rr.to_string(),
        ]);
    }
    r
}

/// One row of the consensus latency table.
#[derive(Clone, Debug)]
pub struct ConsensusLatencyRow {
    /// Configuration description.
    pub config: String,
    /// Crashed acceptors.
    pub crashes: usize,
    /// Best class among surviving quorums.
    pub class: Option<QuorumClass>,
    /// Message delays until every learner learned.
    pub delays: u64,
}

/// Measures learning delays with `f` crashed acceptors.
pub fn measure_consensus(rqs: Rqs, f: usize) -> ConsensusLatencyRow {
    let n = rqs.universe_size();
    let faulty: ProcessSet = (n - f..n).collect();
    let class = rqs.best_available_class(faulty);
    let config = format!("n={n}");
    let mut h = ConsensusHarness::new(rqs, 2, 2);
    if f > 0 {
        h.crash_acceptors(faulty);
    }
    h.propose(0, 7);
    assert!(h.run_until_learned(400_000), "must learn");
    assert_eq!(h.agreed_value(), Some(7));
    let delays = h
        .learner_delays()
        .into_iter()
        .map(|d| d.expect("learned"))
        .max()
        .unwrap();
    ConsensusLatencyRow {
        config,
        crashes: f,
        class,
        delays,
    }
}

/// Builds the E6 report.
pub fn consensus_report() -> Report {
    let mut r = Report::new("E6 (Definition 4): consensus learns in m+1 message delays");
    r.note("Best-case executions (single proposer, synchrony). Paper: 2/3/4");
    r.note("message delays when a class-1/2/3 quorum of acceptors is correct;");
    r.note("classic Byzantine quorums (no fast classes) always need 4.");
    r.headers(["system", "crashes", "best class", "message delays"]);
    let graded = || {
        ThresholdConfig::new(7, 2, 1)
            .with_class1(0)
            .with_class2(1)
            .build()
            .unwrap()
    };
    for f in 0..=2 {
        let row = measure_consensus(graded(), f);
        r.row([
            "graded n=7 t=2 k=1 q=0 r=1".to_string(),
            row.crashes.to_string(),
            row.class.map(|c| c.to_string()).unwrap_or_default(),
            row.delays.to_string(),
        ]);
    }
    for t in [1usize] {
        for f in 0..=t {
            let row = measure_consensus(ThresholdConfig::byzantine_fast(t).build().unwrap(), f);
            r.row([
                format!("byzantine n={} t=k={t}", 3 * t + 1),
                row.crashes.to_string(),
                row.class.map(|c| c.to_string()).unwrap_or_default(),
                row.delays.to_string(),
            ]);
        }
    }
    let row = measure_consensus(ThresholdConfig::classic_byzantine(4).build().unwrap(), 0);
    r.row([
        "baseline n=4 (no fast classes)".to_string(),
        "0".to_string(),
        row.class.map(|c| c.to_string()).unwrap_or_default(),
        row.delays.to_string(),
    ]);
    r
}

/// E9: crash the initial leader(s); measure delays until learning and the
/// view in which the decision lands.
pub fn measure_view_change(leader_crashes: usize) -> (u64, bool) {
    let rqs = ThresholdConfig::byzantine_fast(1).build().unwrap();
    let proposers = leader_crashes + 1;
    let mut h = ConsensusHarness::new(rqs, proposers, 1);
    for i in 0..leader_crashes {
        h.crash_proposer_at(i, Time::ZERO);
    }
    // All proposers propose (the dead ones' invocations are lost).
    for i in 0..proposers {
        if i >= leader_crashes {
            h.propose(i, 5 + i as u64);
        }
    }
    let learned = h.run_until_learned(2_000_000);
    let delays = h.learner_delays().into_iter().flatten().max().unwrap_or(0);
    (delays, learned)
}

/// Builds the E9 report.
pub fn view_change_report() -> Report {
    let mut r = Report::new("E9 (Fig. 14): election module under leader failure");
    r.note("Byzantine n=4 system; the lowest-id proposers crash before");
    r.note("proposing; a surviving proposer's value must still be learned");
    r.note("(in the initial view directly, or after view changes).");
    r.headers(["crashed leaders", "learned", "message delays"]);
    for crashes in 0..=2 {
        let (delays, learned) = measure_view_change(crashes);
        r.row([crashes.to_string(), learned.to_string(), delays.to_string()]);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_latency_matches_theorem9() {
        // Graded config: 1/2/3 rounds as crashes mount.
        let r0 = measure_storage(graded_storage_rqs(), 0);
        assert_eq!((r0.write_rounds, r0.read_rounds), (1, 1));
        assert_eq!(r0.class, Some(QuorumClass::Class1));
        let r1 = measure_storage(graded_storage_rqs(), 1);
        assert_eq!(r1.write_rounds, 2);
        assert_eq!(r1.class, Some(QuorumClass::Class2));
        let r2 = measure_storage(graded_storage_rqs(), 2);
        assert_eq!(r2.write_rounds, 3);
        assert_eq!(r2.class, Some(QuorumClass::Class3));
    }

    #[test]
    fn degraded_reads_grade_one_two_three() {
        let r0 = measure_degraded_read(graded_storage_rqs(), 0);
        assert_eq!(r0.read_rounds, 1, "class 1 intact: 1-round read");
        let r1 = measure_degraded_read(graded_storage_rqs(), 1);
        assert_eq!(r1.read_rounds, 2, "class 2 left: 2-round read");
        let r2 = measure_degraded_read(graded_storage_rqs(), 2);
        assert_eq!(r2.read_rounds, 3, "class 3 left: 3-round read");
    }

    #[test]
    fn abd_baseline_reads_two_rounds() {
        let (w, r) = measure_abd(5, 0);
        assert_eq!((w, r), (1, 2));
        let (w, r) = measure_abd(5, 2);
        assert_eq!((w, r), (1, 2));
    }

    #[test]
    fn consensus_latency_matches_definition4() {
        let graded = || {
            ThresholdConfig::new(7, 2, 1)
                .with_class1(0)
                .with_class2(1)
                .build()
                .unwrap()
        };
        assert_eq!(measure_consensus(graded(), 0).delays, 2);
        assert_eq!(measure_consensus(graded(), 1).delays, 3);
        assert_eq!(measure_consensus(graded(), 2).delays, 4);
    }

    #[test]
    fn baseline_consensus_always_four() {
        let row = measure_consensus(ThresholdConfig::classic_byzantine(4).build().unwrap(), 0);
        assert_eq!(row.delays, 4);
    }

    #[test]
    fn view_change_recovers() {
        let (_, learned) = measure_view_change(1);
        assert!(learned, "a surviving proposer must get its value learned");
    }
}
