//! **E12 (§6 concluding remarks)** — the regular-semantics extension:
//! with regular (non-atomic) guarantees, reads skip the write-back part
//! entirely and complete in one round at *every* quorum class, matching
//! the paper's observation that Properties 1 and 3a suffice for
//! non-atomic best-case-efficient storage.
//!
//! The flip side is also measured: regular reads permit read inversion
//! (two sequential reads going backwards), which the atomic algorithm's
//! write-back exists to prevent.

use crate::report::Report;
use rqs_core::threshold::ThresholdConfig;
use rqs_core::Rqs;
use rqs_sim::{NodeId, ScenarioNet, World};
use rqs_storage::regular::RegularReader;
use rqs_storage::{Server, Value, Writer};
use std::sync::Arc;

fn graded() -> Rqs {
    ThresholdConfig::new(7, 2, 1)
        .with_class1(0)
        .with_class2(1)
        .build()
        .unwrap()
}

/// Measures a regular read with `f` servers crashed *after* a fast write.
pub fn measure_regular_read(f: usize) -> (usize, bool) {
    let rqs = Arc::new(graded());
    let n = rqs.universe_size();
    let mut world = World::new(ScenarioNet::benign());
    let servers: Vec<NodeId> = (0..n)
        .map(|_| world.add_node(Box::new(Server::new())))
        .collect();
    let writer = world.add_node(Box::new(Writer::new(rqs.clone(), servers.clone())));
    let reader = world.add_node(Box::new(RegularReader::new(rqs, servers.clone())));

    world.invoke::<Writer>(writer, |w, ctx| w.start_write(Value::from(9u64), ctx));
    world.run_to_quiescence();
    let now = world.now();
    for &s in servers.iter().rev().take(f) {
        world.crash_at(s, now);
    }
    world.run_before(now + 1);
    world.invoke::<RegularReader>(reader, |r, ctx| r.start_read(ctx));
    world.run_to_quiescence();
    let out = &world.node_as::<RegularReader>(reader).outcomes()[0];
    (out.rounds, out.returned.val == Value::from(9u64))
}

/// Builds the E12 report, contrasting atomic and regular read latency.
pub fn report() -> Report {
    let mut r = Report::new("E12 (§6): regular semantics — 1-round reads at every class");
    r.note("Same system (graded n=7), crash AFTER a fast write. The atomic");
    r.note("reader must write back (1/2/3 rounds by class); the regular");
    r.note("reader returns immediately — the paper's observation that");
    r.note("Properties 1 + 3a suffice for non-atomic fast reads.");
    r.note("Cost: regular reads permit read inversion (see rqs-storage");
    r.note("regular::tests::regularity_checker_accepts_inversion).");
    r.headers([
        "crashes",
        "best class",
        "atomic read rounds",
        "regular read rounds",
    ]);
    for f in 0..=2usize {
        let atomic = crate::exp_latency::measure_degraded_read(graded(), f);
        let (regular_rounds, correct) = measure_regular_read(f);
        assert!(correct, "regular read must return the written value");
        r.row([
            f.to_string(),
            atomic.class.map(|c| c.to_string()).unwrap_or_default(),
            atomic.read_rounds.to_string(),
            regular_rounds.to_string(),
        ]);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regular_reads_always_one_round() {
        for f in 0..=2 {
            let (rounds, correct) = measure_regular_read(f);
            assert_eq!(rounds, 1, "regular read at {f} crashes");
            assert!(correct);
        }
    }

    #[test]
    fn report_contrasts_atomic_and_regular() {
        let r = report();
        assert_eq!(r.rows.len(), 3);
        // Atomic degrades 1/2/3; regular stays at 1.
        assert_eq!(r.cell("atomic read rounds", |row| row[0] == "2"), Some("3"));
        assert_eq!(
            r.cell("regular read rounds", |row| row[0] == "2"),
            Some("1")
        );
    }
}
