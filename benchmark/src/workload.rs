//! The four workloads and their seeded input generation.
//!
//! Everything a lap feeds the program — preload writes, the timed ops, the
//! open loop's arrival times — is a pure function of `(workload, n, seed)`.
//! The program only ever sees the generated ops.

use crate::adapter::{owner, KvOp, ObjectId, Value, WorkloadOp, CLIENTS};

/// Measured time a run is sized for (`run_seconds` of `BENCHMARK.json`):
/// the measured laps' timed phases add up to about this on the reference
/// box. `--seconds` scales every workload's op count linearly from here,
/// so a run at the committed `run_seconds` always attempts the same ops.
pub const NOMINAL_SECONDS: f64 = 15.0;

/// How a lap's timed phase is driven.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mode {
    /// Closed loop on the threaded runtime: a sliding window of `window`
    /// outstanding ops per client, topped up by one polling driver thread.
    Closed { window: usize },
    /// Open loop on the threaded runtime: seeded Poisson arrivals at
    /// `rate` ops/s; server 3 is amnesia-crashed after a third of the
    /// phase and restarted after two thirds.
    Open { rate: f64 },
    /// Deterministic simulator, `KvDeployment::run_workload(ops, batch)`.
    Waves { batch: usize },
}

/// Which store the servers journal through.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StoreKind {
    Volatile,
    Mem,
    /// In-memory store with `flush_us` injected per sync.
    Delayed {
        flush_us: u64,
    },
}

/// One workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub mode: Mode,
    /// Wall-clock tick of the threaded runtime; the nominal tick simulated
    /// time is reported in on the simulator.
    pub tick_us: u64,
    /// Injected one-way link delay Δ, in ticks.
    pub link_delay_ticks: u64,
    pub store: StoreKind,
    pub objects: usize,
    pub read_percent: u64,
    /// Pipeline depth per `(object, lane)`.
    pub depth: usize,
    /// Untimed writes per object before the timed phase.
    pub preload: usize,
    /// Timed ops per lap at [`NOMINAL_SECONDS`].
    pub ops: usize,
    /// Measured laps of a run (after one discarded warm-up lap).
    pub laps: usize,
    /// Gap between two polling passes of the driver thread.
    pub poll_us: u64,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "mem-mixed",
        mode: Mode::Closed { window: 24 },
        tick_us: 250,
        link_delay_ticks: 4,
        store: StoreKind::Volatile,
        objects: 1024,
        read_percent: 50,
        depth: 8,
        preload: 16,
        ops: 45_000,
        laps: 5,
        poll_us: 200,
    },
    Spec {
        name: "durable-write",
        mode: Mode::Closed { window: 6 },
        tick_us: 1_000,
        link_delay_ticks: 0,
        store: StoreKind::Delayed { flush_us: 1_000 },
        objects: 256,
        read_percent: 20,
        depth: 8,
        preload: 16,
        ops: 3_300,
        laps: 5,
        poll_us: 500,
    },
    Spec {
        name: "sim-hot-read",
        mode: Mode::Waves { batch: 8 },
        tick_us: 50,
        link_delay_ticks: 0,
        store: StoreKind::Volatile,
        objects: 16,
        read_percent: 95,
        depth: 4,
        preload: 512,
        ops: 60_000,
        laps: 9,
        poll_us: 0,
    },
    Spec {
        name: "wan-degraded",
        mode: Mode::Open { rate: 2000.0 },
        tick_us: 1_000,
        link_delay_ticks: 1,
        store: StoreKind::Mem,
        objects: 1024,
        read_percent: 50,
        depth: 4,
        preload: 1,
        ops: 6_000,
        laps: 5,
        poll_us: 1_000,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: the benchmark's only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        ((self.next() as u128 * n as u128) >> 64) as u64
    }

    /// Fisher–Yates.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// What one lap feeds the program.
pub struct Inputs {
    pub preload: Vec<WorkloadOp>,
    pub ops: Vec<WorkloadOp>,
    /// Intended send time of `ops[i]`, in seconds from the start of the
    /// timed phase (open loop only; empty otherwise).
    pub arrivals: Vec<f64>,
    /// The last value the inputs write to each object (`None` = never
    /// written): what a read-back after the lap must return.
    pub last_written: Vec<Option<Value>>,
}

/// The value of the `seq`-th write to `object`: unique per object, which
/// the atomicity checker relies on.
fn value(object: u64, seq: u64) -> Value {
    Value::from(0x8000_0000_0000_0000 | (object << 32) | seq)
}

/// Generates the inputs of a lap of `n` timed ops.
pub fn generate(spec: &Spec, n: usize, seed: u64) -> Inputs {
    let mut rng = Rng::new(seed);
    let objects = spec.objects as u64;
    let mut writes = vec![0u64; spec.objects];
    let mut write = |object: u64| {
        let seq = writes[object as usize];
        writes[object as usize] += 1;
        WorkloadOp {
            client: owner(spec.objects, object),
            op: KvOp::Write {
                object: ObjectId(object),
                value: value(object, seq),
            },
        }
    };
    // Round-major, so consecutive preload writes hit different lanes.
    let mut preload = Vec::with_capacity(spec.preload * spec.objects);
    for _ in 0..spec.preload {
        let rotate = rng.below(objects);
        preload.extend((0..objects).map(|o| write((o + rotate) % objects)));
    }
    // Exactly `read_percent` of the ops are reads and every object gets
    // the same share of them (to within one); the seed decides the order.
    // Seeds then differ in interleaving, not in how much work they are.
    let reads = n * spec.read_percent as usize / 100;
    let mut is_read: Vec<bool> = (0..n).map(|i| i < reads).collect();
    let mut targets: Vec<u64> = (0..n as u64).map(|i| i % objects).collect();
    rng.shuffle(&mut is_read);
    rng.shuffle(&mut targets);
    let ops: Vec<WorkloadOp> = is_read
        .into_iter()
        .zip(targets)
        .map(|(read, object)| match read {
            true => WorkloadOp {
                client: rng.below(CLIENTS as u64) as usize,
                op: KvOp::Read {
                    object: ObjectId(object),
                },
            },
            false => write(object),
        })
        .collect();
    let arrivals = match spec.mode {
        Mode::Open { rate } => {
            // Exponential gaps, then scaled so the last arrival lands
            // exactly at n / rate: the offered rate is the same on every
            // seed, the spacing is Poisson and does not alias with the
            // tick grid.
            let mut t = 0.0;
            let mut at: Vec<f64> = (0..n)
                .map(|_| {
                    t += -(1.0 - rng.unit()).ln();
                    t
                })
                .collect();
            let scale = n as f64 / rate / t;
            at.iter_mut().for_each(|a| *a *= scale);
            at
        }
        _ => Vec::new(),
    };
    let last_written = writes
        .iter()
        .enumerate()
        .map(|(o, &count)| (count > 0).then(|| value(o as u64, count - 1)))
        .collect();
    Inputs {
        preload,
        ops,
        arrivals,
        last_written,
    }
}
