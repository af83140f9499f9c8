//! The untimed correctness check of a lap, and the planted faults that
//! show it has teeth.

use crate::adapter::{AtomicityChecker, KvOutcome, OpKind, OpRecord, TsVal, Value};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// What a lap produced, as the check sees it.
pub struct Evidence<'a> {
    /// Every completed preload and timed op as `(client, outcome)`, in
    /// harvest order.
    pub outcomes: &'a [(usize, KvOutcome)],
    /// The read-back after the drain: one read per written object.
    pub readback: &'a [(usize, KvOutcome)],
    /// Preload plus timed ops the lap submitted.
    pub expected: usize,
    /// The last value written to each object (`None` = never written).
    pub last_written: &'a [Option<Value>],
}

pub struct Verdict {
    pub problems: Vec<String>,
    /// Time spent inside `AtomicityChecker::observe` and `finish`.
    pub checker_time: Duration,
    pub ops_checked: u64,
    pub max_frontier: usize,
}

impl Verdict {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Checks op count, per-object atomicity and the read-back.
pub fn check(ev: &Evidence) -> Verdict {
    let mut problems = Vec::new();
    if ev.outcomes.len() != ev.expected {
        problems.push(format!(
            "{} ops completed, {} submitted",
            ev.outcomes.len(),
            ev.expected
        ));
    }

    let mut checkers: BTreeMap<u64, AtomicityChecker> = BTreeMap::new();
    let t0 = Instant::now();
    for (client, out) in ev.outcomes.iter().chain(ev.readback) {
        checkers
            .entry(out.object.0)
            .or_default()
            .observe(&OpRecord {
                kind: out.kind,
                client: *client,
                pair: out.pair.clone(),
                invoked_at: out.invoked_at,
                completed_at: out.completed_at,
            });
    }
    let mut ops_checked = 0;
    let mut max_frontier = 0;
    for (object, checker) in &mut checkers {
        if let Err(violation) = checker.finish() {
            problems.push(format!("object {object}: {violation}"));
        }
        let stats = checker.stats();
        ops_checked += stats.ops_checked;
        max_frontier = max_frontier.max(stats.max_frontier);
    }
    let checker_time = t0.elapsed();

    let mut read: BTreeMap<u64, &TsVal> = BTreeMap::new();
    for (_, out) in ev.readback {
        if out.kind == OpKind::Read {
            read.insert(out.object.0, &out.pair);
        }
    }
    for (object, last) in ev.last_written.iter().enumerate() {
        let Some(last) = last else { continue };
        match read.get(&(object as u64)) {
            Some(pair) if pair.val == *last => {}
            Some(pair) => problems.push(format!(
                "object {object}: read-back returned {pair}, last acked write was {last}"
            )),
            None => problems.push(format!("object {object}: no read-back")),
        }
    }
    problems.truncate(8);
    Verdict {
        problems,
        checker_time,
        ops_checked,
        max_frontier,
    }
}

/// A fault planted into a correct lap's evidence by `--self-test`.
#[derive(Clone, Copy, Debug)]
pub enum Plant {
    /// A read returns a pair nobody wrote.
    FabricatedRead,
    /// An acknowledged write is gone: the read-back of its object returns
    /// the initial pair.
    DroppedAckedWrite,
}

/// Applies `plant` to copies of the evidence.
pub fn plant(
    plant: Plant,
    outcomes: &mut [(usize, KvOutcome)],
    readback: &mut [(usize, KvOutcome)],
) {
    match plant {
        Plant::FabricatedRead => {
            let (_, read) = outcomes
                .iter_mut()
                .rev()
                .find(|(_, o)| o.kind == OpKind::Read)
                .expect("the lap has a read");
            read.pair = TsVal::new(read.pair.ts + 1_000_000, Value::from(0xDEAD_u64));
        }
        Plant::DroppedAckedWrite => {
            let (_, read) = readback.first_mut().expect("the lap read back an object");
            read.pair = TsVal::initial();
        }
    }
}
