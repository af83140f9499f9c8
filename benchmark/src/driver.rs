//! One lap: a fresh deployment driven through build → preload → timed
//! phase of exactly `n` ops → drain → untimed check → shutdown.
//!
//! A single driver thread does all of it. The timed phase is closed loop
//! (sliding window), open loop (seeded arrival times) or the simulator's
//! wave driver, per the workload's [`Mode`]. Every timed phase is cut into
//! [`CHUNKS`] chunks of equal work, each with its own wall time, CPU time
//! and latency samples, so that a run can be assembled from the chunks
//! the machine left undisturbed (see `main.rs`).

use crate::adapter::{
    owner, Backend, BenchTracer, DeploySpec, Deployment, KvOp, KvOutcome, NetCounts, ObjectId,
    OpKind, Sim, Span, StoreControl, StoreCounts, Stores, Threaded, TraceEvent, TraceKind,
    WorkloadOp, CLIENTS, DRIVER_PID, SERVERS, TRACE_KINDS,
};
use crate::check::{check, Evidence, Verdict};
use crate::metrics::{cpu_ns, ctx_switches, percentile, percentile_of, threads, PER_LAYER};
use crate::workload::{Inputs, Mode, Spec, StoreKind};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Chunks of equal work a timed phase is cut into.
pub const CHUNKS: usize = 60;
/// An op not completed this long after the lap's last send has failed.
const OP_DEADLINE: Duration = Duration::from_secs(2);
/// Ops the open-loop generator holds back per client (because their lane
/// is at pipeline depth) before it refuses new arrivals.
const BACKLOG_CAP: usize = 1024;
/// Window the untimed preload and read-back phases are driven with.
const SETUP_WINDOW: usize = 128;
/// Trace events and benchmark spans kept per traced lap (the rest are
/// counted, not kept).
const EVENT_CAP: usize = 50_000;
/// No-op inspections timed after the drain.
const PINGS: usize = 200;
/// Server the open-loop workload crashes and restarts.
const VICTIM: usize = SERVERS - 1;

/// One chunk of a timed phase.
pub struct Chunk {
    /// What the chunk is ranked by across laps: its wall time where the
    /// work is fixed, its summed op latency where the schedule is.
    pub cost: f64,
    pub wall_s: f64,
    /// CPU time of the program's threads (the driver thread's own is left
    /// out where it is a thread of its own).
    pub cpu_us: f64,
    /// Latency, in ticks, of every op of the chunk that completed.
    pub lat_ticks: Vec<f64>,
}

/// What one lap measured.
pub struct Lap {
    /// Timed ops attempted.
    pub n: usize,
    pub failed: usize,
    pub problems: Vec<String>,
    pub chunks: Vec<Chunk>,
    /// Everything of the lap outside its timed phase: build, preload,
    /// drain, check, shutdown.
    pub untimed_s: f64,
    /// Per-layer values, one per name in [`PER_LAYER`] (except
    /// `obs.trace_overhead_pct`, which takes two laps to compute).
    pub layer: BTreeMap<&'static str, f64>,
}

impl Lap {
    /// Wall-clock length of the timed phase.
    pub fn wall_s(&self) -> f64 {
        self.chunks.iter().map(|c| c.wall_s).sum()
    }
}

/// Chrome-trace material of a traced lap.
pub struct LapTrace {
    pub events: Vec<TraceEvent>,
    pub spans: Vec<Span>,
}

/// The driver's own spans, kept only on traced laps.
struct Spans {
    epoch: Instant,
    keep: bool,
    spans: Vec<Span>,
}

impl Spans {
    fn new(epoch: Instant, keep: bool) -> Self {
        Spans {
            epoch,
            keep,
            spans: Vec::new(),
        }
    }

    fn add(&mut self, name: &'static str, tid: u64, start: Instant, end: Instant) {
        if self.keep && self.spans.len() < EVENT_CAP {
            self.spans.push(Span {
                name,
                pid: DRIVER_PID,
                tid,
                start_us: start.duration_since(self.epoch).as_micros() as u64,
                dur_us: end.duration_since(start).as_micros() as u64,
            });
        }
    }
}

/// A chunk boundary: when it was crossed and the CPU time used so far.
struct Mark {
    at: Instant,
    cpu_ns: u64,
}

impl Mark {
    /// `driver` says whether the calling thread's CPU time counts: it does
    /// on the simulator, which runs the program on the driver thread.
    fn now(driver: bool) -> Self {
        Mark {
            at: Instant::now(),
            cpu_ns: cpu_ns(driver),
        }
    }
}

/// Process and deployment counters at one instant.
struct Snapshot {
    threads: u64,
    ctx: u64,
    net: NetCounts,
    store: StoreCounts,
    trace: [u64; TRACE_KINDS],
}

fn snapshot<S: Backend>(dep: &mut Deployment<S>, tracer: &Option<Arc<BenchTracer>>) -> Snapshot {
    Snapshot {
        threads: threads(),
        ctx: ctx_switches(),
        net: dep.net_counts(),
        store: dep.store_counts(),
        trace: tracer.as_ref().map_or([0; TRACE_KINDS], |t| t.counts()),
    }
}

/// The driver's own cost over one phase.
#[derive(Default)]
struct DriverCost {
    submit_us: Vec<f64>,
    harvest_us: Vec<f64>,
    slept: Duration,
    /// How late each open-loop op was handed to its client.
    late_us: Vec<f64>,
}

impl DriverCost {
    fn submit<S: Backend>(
        &mut self,
        dep: &mut Deployment<S>,
        client: usize,
        batch: Vec<KvOp>,
        spans: &mut Spans,
    ) {
        let t0 = Instant::now();
        dep.submit(client, batch);
        let t1 = Instant::now();
        self.submit_us.push((t1 - t0).as_secs_f64() * 1e6);
        spans.add("submit", 2, t0, t1);
    }

    fn harvest<S: Backend>(
        &mut self,
        dep: &mut Deployment<S>,
        client: usize,
        spans: &mut Spans,
    ) -> Vec<KvOutcome> {
        let t0 = Instant::now();
        let outs = dep.harvest(client);
        let t1 = Instant::now();
        self.harvest_us.push((t1 - t0).as_secs_f64() * 1e6);
        spans.add("harvest", 2, t0, t1);
        outs
    }

    fn sleep(&mut self, nap: Duration) {
        let t = Instant::now();
        std::thread::sleep(nap);
        self.slept += t.elapsed();
    }
}

/// `(client, outcome)` pairs in harvest order.
pub type Outcomes = Vec<(usize, KvOutcome)>;

type LaneKey = (usize, u64, bool);

fn lane(client: usize, object: ObjectId, kind: OpKind) -> LaneKey {
    (client, object.0, kind == OpKind::Read)
}

fn per_client(ops: &[WorkloadOp]) -> Vec<VecDeque<KvOp>> {
    let mut queues = vec![VecDeque::new(); CLIENTS];
    for w in ops {
        queues[w.client].push_back(w.op.clone());
    }
    queues
}

/// Latency of a closed-loop or simulator op in ticks: admission into the
/// client (`invoked_at − queued_ticks`) to completion.
fn ticks_of(out: &KvOutcome) -> f64 {
    (out.completed_at.ticks() + out.queued_ticks).saturating_sub(out.invoked_at.ticks()) as f64
}

/// Result of a closed-loop phase.
struct Closed {
    /// Ops that did not complete.
    failed: usize,
    cost: DriverCost,
    /// The start of the phase, then one mark per `chunk_ops` completions
    /// (and one at the end, if the phase did not end on a boundary).
    marks: Vec<Mark>,
}

/// How a closed-loop phase is paced.
#[derive(Clone, Copy)]
struct Pace {
    /// Outstanding ops per client.
    window: usize,
    /// Outstanding ops per `(object, lane)`.
    depth: usize,
    /// Completions per chunk mark (`usize::MAX` for an unmeasured phase).
    chunk_ops: usize,
    /// Gap between two polling passes.
    poll: Duration,
}

/// Drives `queues` to completion at `pace`, appending outcomes to `log`.
fn closed_loop(
    dep: &mut Deployment<Threaded>,
    mut queues: Vec<VecDeque<KvOp>>,
    pace: Pace,
    log: &mut Outcomes,
    spans: &mut Spans,
) -> Closed {
    let Pace {
        window,
        depth,
        chunk_ops,
        poll,
    } = pace;
    let mut cost = DriverCost::default();
    let mut outstanding = [0usize; CLIENTS];
    let mut lanes: HashMap<LaneKey, usize> = HashMap::new();
    let from = log.len();
    let mut boundary = chunk_ops;
    let mut marks = vec![Mark::now(false)];
    let mut last_progress = Instant::now();
    let failed = loop {
        for client in 0..CLIENTS {
            if outstanding[client] > 0 {
                let outs = cost.harvest(dep, client, spans);
                if !outs.is_empty() {
                    last_progress = Instant::now();
                }
                for out in outs {
                    outstanding[client] -= 1;
                    *lanes
                        .get_mut(&lane(client, out.object, out.kind))
                        .expect("outcome of a submitted op") -= 1;
                    log.push((client, out));
                }
                while log.len() - from >= boundary {
                    marks.push(Mark::now(false));
                    boundary = boundary.saturating_add(chunk_ops);
                }
            }
            let mut batch = Vec::new();
            while outstanding[client] < window {
                let Some(front) = queues[client].front() else {
                    break;
                };
                let used = lanes
                    .entry(lane(client, front.object(), front.kind()))
                    .or_insert(0);
                if *used >= depth {
                    break; // keep program order: wait for the lane
                }
                *used += 1;
                outstanding[client] += 1;
                batch.extend(queues[client].pop_front());
            }
            if !batch.is_empty() {
                cost.submit(dep, client, batch, spans);
                last_progress = Instant::now();
            }
        }
        let left =
            outstanding.iter().sum::<usize>() + queues.iter().map(VecDeque::len).sum::<usize>();
        if left == 0 || last_progress.elapsed() > OP_DEADLINE {
            break left;
        }
        cost.sleep(poll);
    };
    if !(log.len() - from).is_multiple_of(chunk_ops) {
        marks.push(Mark::now(false));
    }
    Closed {
        failed,
        cost,
        marks,
    }
}

/// Cuts the outcomes of a fixed-work phase into chunks along `marks`.
fn chunks_of(marks: &[Mark], outcomes: &[(usize, KvOutcome)], chunk_ops: usize) -> Vec<Chunk> {
    marks
        .windows(2)
        .zip(outcomes.chunks(chunk_ops))
        .map(|(m, ops)| {
            let wall_s = (m[1].at - m[0].at).as_secs_f64();
            Chunk {
                cost: wall_s,
                wall_s,
                cpu_us: (m[1].cpu_ns - m[0].cpu_ns) as f64 / 1e3,
                lat_ticks: ops.iter().map(|(_, o)| ticks_of(o)).collect(),
            }
        })
        .collect()
}

/// Result of an open-loop phase.
struct Open {
    failed: usize,
    cost: DriverCost,
    chunks: Vec<Chunk>,
    /// Latency by phase of the fault schedule: before, during and after
    /// the crash window.
    by_phase: [Vec<f64>; 3],
}

/// Drives the timed ops on their seeded arrival schedule, crashing
/// [`VICTIM`] a third of the way in and restarting it at two thirds.
fn open_loop(
    dep: &mut Deployment<Threaded>,
    inputs: &Inputs,
    spec: &Spec,
    chunk_ops: usize,
    log: &mut Outcomes,
    spans: &mut Spans,
) -> Open {
    let ops = &inputs.ops;
    let arrivals = &inputs.arrivals;
    let n = ops.len();
    let tick_us = spec.tick_us as f64;
    let poll = Duration::from_micros(spec.poll_us);
    let length = arrivals.last().copied().unwrap_or(0.0);
    let (crash_at, restart_at) = (length / 3.0, length * 2.0 / 3.0);

    // Map the substrate's tick clock onto the driver's: wait for a tick
    // edge, which pins the substrate's elapsed time to within a clock
    // read. Completion ticks are floors, so half a tick is added back.
    let before = dep.now_ticks();
    let (edge_tick, edge) = loop {
        let now = dep.now_ticks();
        if now != before {
            break (now, Instant::now());
        }
        std::hint::spin_loop();
    };
    let t0 = Instant::now() + Duration::from_millis(1);
    let origin_us = edge_tick as f64 * tick_us + (t0 - edge).as_secs_f64() * 1e6;
    let done_us = |tick: u64| (tick as f64 + 0.5) * tick_us - origin_us;

    let mut cost = DriverCost::default();
    let mut pending: Vec<VecDeque<usize>> = vec![VecDeque::new(); CLIENTS];
    let mut in_flight: HashMap<LaneKey, VecDeque<usize>> = HashMap::new();
    let mut lat_us = vec![f64::NAN; n];
    let mut marks = vec![Mark::now(false)];
    let mut next = 0;
    let mut outstanding = 0usize;
    let mut refused = 0usize;
    let (mut crashed, mut restarted) = (false, false);
    let mut last_send = t0;
    let mut next_harvest = t0;
    let failed = loop {
        let now = Instant::now();
        let elapsed = now.saturating_duration_since(t0).as_secs_f64();
        if !crashed && elapsed >= crash_at {
            dep.crash_server_amnesia(VICTIM);
            crashed = true;
        }
        if !restarted && elapsed >= restart_at {
            dep.restart_server(VICTIM);
            restarted = true;
        }
        while next < n && arrivals[next] <= elapsed {
            let queue = &mut pending[ops[next].client];
            if queue.len() >= BACKLOG_CAP {
                refused += 1;
            } else {
                queue.push_back(next);
            }
            next += 1;
            if next % chunk_ops == 0 && next < n {
                marks.push(Mark::now(false));
            }
        }
        for (client, pending) in pending.iter_mut().enumerate() {
            let mut batch = Vec::new();
            while let Some(&idx) = pending.front() {
                let op = &ops[idx].op;
                let lane = in_flight
                    .entry(lane(client, op.object(), op.kind()))
                    .or_default();
                if lane.len() >= spec.depth {
                    break;
                }
                lane.push_back(idx);
                pending.pop_front();
                cost.late_us.push((elapsed - arrivals[idx]) * 1e6);
                batch.push(op.clone());
            }
            if !batch.is_empty() {
                outstanding += batch.len();
                cost.submit(dep, client, batch, spans);
                last_send = Instant::now();
            }
        }
        if now >= next_harvest && outstanding > 0 {
            for client in 0..CLIENTS {
                for out in cost.harvest(dep, client, spans) {
                    let idx = in_flight
                        .get_mut(&lane(client, out.object, out.kind))
                        .and_then(VecDeque::pop_front)
                        .expect("outcome of a submitted op");
                    lat_us[idx] = done_us(out.completed_at.ticks()) - arrivals[idx] * 1e6;
                    outstanding -= 1;
                    log.push((client, out));
                }
            }
            next_harvest = Instant::now() + poll;
        }
        let held: usize = pending.iter().map(VecDeque::len).sum();
        if next == n && (outstanding + held == 0 || last_send.elapsed() > OP_DEADLINE) {
            break refused + outstanding + held;
        }
        let mut wake = next_harvest;
        if next < n {
            wake = wake.min(t0 + Duration::from_secs_f64(arrivals[next]));
        }
        let nap = wake.saturating_duration_since(Instant::now());
        if !nap.is_zero() {
            cost.sleep(nap);
        }
    };
    marks.push(Mark::now(false));

    let mut by_phase: [Vec<f64>; 3] = Default::default();
    for (&at, &l) in arrivals.iter().zip(&lat_us) {
        if !l.is_nan() {
            let phase = usize::from(at >= crash_at) + usize::from(at >= restart_at);
            by_phase[phase].push(l);
        }
    }
    let chunks = marks
        .windows(2)
        .zip(lat_us.chunks(chunk_ops))
        .map(|(m, lat)| {
            let done: Vec<f64> = lat.iter().copied().filter(|l| !l.is_nan()).collect();
            Chunk {
                // The schedule fixes a chunk's wall time; what a disturbed
                // machine changes is how long its ops took.
                cost: done.iter().sum::<f64>()
                    + (lat.len() - done.len()) as f64 * OP_DEADLINE.as_secs_f64() * 1e6,
                wall_s: (m[1].at - m[0].at).as_secs_f64(),
                cpu_us: (m[1].cpu_ns - m[0].cpu_ns) as f64 / 1e3,
                lat_ticks: done.iter().map(|l| l / tick_us).collect(),
            }
        })
        .collect();
    Open {
        failed,
        cost,
        chunks,
        by_phase,
    }
}

/// The reads of the read-back: one per written object, by its owner.
fn readback_ops(inputs: &Inputs) -> Vec<WorkloadOp> {
    let objects = inputs.last_written.len();
    (0..objects as u64)
        .filter(|&o| inputs.last_written[o as usize].is_some())
        .map(|o| WorkloadOp {
            client: owner(objects, o),
            op: KvOp::Read {
                object: ObjectId(o),
            },
        })
        .collect()
}

/// Median round trip of a no-op inspection on the drained deployment.
fn ping_us<S: Backend>(dep: &mut Deployment<S>) -> f64 {
    let samples = (0..PINGS)
        .map(|i| {
            let t = Instant::now();
            dep.ping(i % CLIENTS);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    percentile_of(samples, 50.0)
}

/// What the layer ledger is computed from, beyond the outcomes.
struct Ledger<'a> {
    spec: &'a Spec,
    /// Outcomes of the timed phase.
    timed: &'a [(usize, KvOutcome)],
    n: usize,
    before: Snapshot,
    after: Snapshot,
    verdict: &'a Verdict,
    history_lens: Vec<usize>,
    rqs_build: Duration,
}

/// Fills the per-layer values every substrate computes the same way, and
/// zero for every name still missing.
fn fill_layers(layer: &mut BTreeMap<&'static str, f64>, l: Ledger) {
    let ops = l.n.max(1) as f64;
    let tick_us = l.spec.tick_us as f64;
    let (before, after) = (&l.before, &l.after);
    let p50 = |f: &dyn Fn(&KvOutcome) -> f64| {
        percentile_of(l.timed.iter().map(|(_, o)| f(o)).collect(), 50.0)
    };
    let envelopes = (after.net.envelopes - before.net.envelopes) as f64;
    layer.insert("kv.envelopes_per_op", envelopes / ops);
    layer.insert(
        "kv.items_per_envelope",
        (after.net.items - before.net.items) as f64 / envelopes.max(1.0),
    );
    layer.insert(
        "kv.retries_per_kop",
        (after.net.retries - before.net.retries) as f64 * 1000.0 / ops,
    );
    layer.insert(
        "kv.queue_wait_us_p50",
        p50(&|o| o.queued_ticks as f64 * tick_us),
    );
    let mut ticks: Vec<f64> = l.timed.iter().map(|(_, o)| ticks_of(o)).collect();
    ticks.sort_by(f64::total_cmp);
    let p50_ticks = percentile(&ticks, 50.0);
    layer.insert("kv.latency_ticks_p50", p50_ticks);
    layer.insert("kv.latency_ticks_p99", percentile(&ticks, 99.0));
    if l.spec.link_delay_ticks > 0 {
        // Distance from the paper's floor of 2 message delays (the open
        // loop has already put its fault-free phase's figure here).
        layer
            .entry("storage.p50_msg_delays")
            .or_insert(p50_ticks / l.spec.link_delay_ticks as f64);
    }

    let rounds = |kind: Option<OpKind>| {
        let (sum, count) = l
            .timed
            .iter()
            .filter(|(_, o)| kind.is_none_or(|k| o.kind == k))
            .fold((0usize, 0usize), |(s, c), (_, o)| (s + o.rounds, c + 1));
        sum as f64 / count.max(1) as f64
    };
    layer.insert("storage.rounds_per_op", rounds(None));
    layer.insert("storage.read_rounds_per_op", rounds(Some(OpKind::Read)));
    layer.insert("storage.write_rounds_per_op", rounds(Some(OpKind::Write)));
    let fast = l.timed.iter().filter(|(_, o)| o.rounds <= 1).count();
    layer.insert(
        "storage.fast_path_ratio",
        fast as f64 / l.timed.len().max(1) as f64,
    );
    layer.insert(
        "storage.service_us_p50",
        p50(&|o| o.completed_at.ticks().saturating_sub(o.invoked_at.ticks()) as f64 * tick_us),
    );
    layer.insert(
        "storage.history_len_p50",
        percentile_of(l.history_lens.iter().map(|&h| h as f64).collect(), 50.0),
    );
    layer.insert(
        "storage.checker_ns_per_op",
        l.verdict.checker_time.as_nanos() as f64 / l.verdict.ops_checked.max(1) as f64,
    );
    layer.insert(
        "storage.checker_max_frontier",
        l.verdict.max_frontier as f64,
    );

    let trace = |kind: TraceKind| (after.trace[kind as usize] - before.trace[kind as usize]) as f64;
    layer.insert(
        "substrate.deliveries_per_op",
        trace(TraceKind::Deliver) / ops,
    );
    layer.insert("substrate.drops", trace(TraceKind::Drop));
    layer.insert(
        "substrate.ctx_switches_per_op",
        (after.ctx - before.ctx) as f64 / ops,
    );
    layer.insert("substrate.threads", after.threads as f64);
    let events: u64 = (0..TRACE_KINDS)
        .map(|k| after.trace[k] - before.trace[k])
        .sum();
    layer.insert("obs.events_per_op", events as f64 / ops);

    let store =
        |f: fn(&StoreCounts) -> u64| f(&after.store).saturating_sub(f(&before.store)) as f64;
    layer.insert("store.appends_per_op", store(|s| s.appends) / ops);
    layer.insert("store.syncs_per_op", store(|s| s.syncs) / ops);
    layer.insert("store.bytes_per_op", store(|s| s.bytes) / ops);
    layer.insert("store.replayed_records", store(|s| s.replayed));
    layer.insert("core.rqs_build_us", l.rqs_build.as_secs_f64() * 1e6);
    for (name, _) in PER_LAYER {
        layer.entry(name).or_insert(0.0);
    }
}

/// What a lap of `spec` deploys.
fn deploy_spec(
    spec: &Spec,
    control: &Arc<StoreControl>,
    tracer: Option<Arc<BenchTracer>>,
) -> DeploySpec {
    DeploySpec {
        objects: spec.objects,
        depth: spec.depth,
        tick: Duration::from_micros(spec.tick_us),
        link_delay_ticks: spec.link_delay_ticks,
        stores: match spec.store {
            StoreKind::Volatile => Stores::Volatile,
            StoreKind::Mem => Stores::Mem,
            StoreKind::Delayed { .. } => Stores::Delayed(control.clone()),
        },
        tracer,
    }
}

/// Runs one lap of `spec` over `inputs`; a traced lap also returns its
/// Chrome-trace material.
pub fn run_lap(
    spec: &Spec,
    inputs: &Inputs,
    traced: bool,
    epoch: Instant,
) -> (Lap, Option<LapTrace>) {
    let lap_start = Instant::now();
    let mut spans = Spans::new(epoch, traced);
    let tracer = traced.then(|| BenchTracer::new(epoch, EVENT_CAP));
    let control = StoreControl::new(epoch);
    let deploy = deploy_spec(spec, &control, tracer.clone());
    let (mut lap, mut lap_spans) = match spec.mode {
        Mode::Waves { batch } => sim_lap(spec, inputs, batch, &deploy, &mut spans),
        _ => threaded_lap(spec, inputs, &deploy, &control, &mut spans),
    };
    let lap_end = Instant::now();
    spans.add("lap", 0, lap_start, lap_end);
    lap.untimed_s = (lap_end - lap_start).as_secs_f64() - lap.wall_s();
    let trace = tracer.map(|tracer| {
        lap_spans.append(&mut spans.spans);
        LapTrace {
            events: tracer.take_events(),
            spans: lap_spans,
        }
    });
    (lap, trace)
}

fn threaded_lap(
    spec: &Spec,
    inputs: &Inputs,
    deploy: &DeploySpec,
    control: &StoreControl,
    spans: &mut Spans,
) -> (Lap, Vec<Span>) {
    let mut quiet = Spans::new(spans.epoch, false);
    let mut dep = Deployment::<Threaded>::build(deploy);
    let mut problems = Vec::new();
    let mut log = Vec::with_capacity(inputs.preload.len() + inputs.ops.len());
    let n = inputs.ops.len();
    let chunk_ops = n.div_ceil(CHUNKS);
    // Preload and read-back are driven unmeasured, at a fixed window.
    let setup = Pace {
        window: SETUP_WINDOW,
        depth: spec.depth,
        chunk_ops: usize::MAX,
        poll: Duration::from_micros(spec.poll_us),
    };

    let t = Instant::now();
    let preload = closed_loop(
        &mut dep,
        per_client(&inputs.preload),
        setup,
        &mut log,
        &mut quiet,
    );
    if preload.failed > 0 {
        problems.push(format!("{} preload ops did not complete", preload.failed));
    }
    spans.add("preload", 1, t, Instant::now());
    let timed_from = log.len();

    if let StoreKind::Delayed { flush_us } = spec.store {
        control.set_flush(Duration::from_micros(flush_us));
    }
    control.set_recording(spans.keep);
    let before = snapshot(&mut dep, &deploy.tracer);
    let t = Instant::now();
    let (failed, cost, chunks, by_phase) = match spec.mode {
        Mode::Open { .. } => {
            let open = open_loop(&mut dep, inputs, spec, chunk_ops, &mut log, spans);
            (open.failed, open.cost, open.chunks, Some(open.by_phase))
        }
        Mode::Closed { window } => {
            let closed = closed_loop(
                &mut dep,
                per_client(&inputs.ops),
                Pace {
                    window,
                    chunk_ops,
                    ..setup
                },
                &mut log,
                spans,
            );
            let chunks = chunks_of(&closed.marks, &log[timed_from..], chunk_ops);
            (closed.failed, closed.cost, chunks, None)
        }
        Mode::Waves { .. } => unreachable!("the simulator has its own lap"),
    };
    spans.add("timed", 1, t, Instant::now());
    let after = snapshot(&mut dep, &deploy.tracer);
    control.set_flush(Duration::ZERO);
    control.set_recording(false);
    let store_spans = control.take_spans();

    let ping = ping_us(&mut dep);
    let t = Instant::now();
    let mut readback = Vec::new();
    let lost = closed_loop(
        &mut dep,
        per_client(&readback_ops(inputs)),
        setup,
        &mut readback,
        &mut quiet,
    )
    .failed;
    if lost > 0 {
        problems.push(format!("{lost} read-back ops did not complete"));
    }
    let history_lens = dep.history_lens();
    let verdict = check(&Evidence {
        outcomes: &log,
        readback: &readback,
        expected: inputs.preload.len() + n - failed,
        last_written: &inputs.last_written,
    });
    spans.add("check", 1, t, Instant::now());
    dep.shutdown();
    problems.extend(verdict.problems.iter().cloned());

    let wall_s: f64 = chunks.iter().map(|c| c.wall_s).sum::<f64>().max(1e-9);
    let mut layer = BTreeMap::new();
    layer.insert("substrate.inspect_roundtrip_us", ping);
    layer.insert("driver.submit_us_p50", percentile_of(cost.submit_us, 50.0));
    layer.insert(
        "driver.harvest_us_p50",
        percentile_of(cost.harvest_us, 50.0),
    );
    layer.insert("driver.poll_share", 1.0 - cost.slept.as_secs_f64() / wall_s);
    layer.insert("driver.late_us_p99", percentile_of(cost.late_us, 99.0));
    let span_us = |sync: bool| {
        store_spans
            .iter()
            .filter(|s| s.sync == sync)
            .map(|s| s.dur_ns as f64 / 1e3)
            .collect::<Vec<f64>>()
    };
    layer.insert("store.append_us_p50", percentile_of(span_us(false), 50.0));
    layer.insert("store.sync_us_p50", percentile_of(span_us(true), 50.0));
    let busy_ns: u64 = store_spans.iter().map(|s| s.dur_ns).sum();
    layer.insert(
        "store.busy_share",
        busy_ns as f64 / 1e9 / (wall_s * SERVERS as f64),
    );
    if let Some([fast, degraded, recovered]) = by_phase {
        let fast_p50 = percentile_of(fast, 50.0);
        let delta_us = (spec.link_delay_ticks * spec.tick_us).max(1) as f64;
        layer.insert("storage.fast_p50_us", fast_p50);
        layer.insert("storage.degraded_p50_us", percentile_of(degraded, 50.0));
        layer.insert("storage.recovered_p50_us", percentile_of(recovered, 50.0));
        layer.insert("storage.p50_msg_delays", fast_p50 / delta_us);
    }
    fill_layers(
        &mut layer,
        Ledger {
            spec,
            timed: &log[timed_from..],
            n,
            before,
            after,
            verdict: &verdict,
            history_lens,
            rqs_build: dep.rqs_build,
        },
    );
    let store_spans = store_spans
        .iter()
        .take(EVENT_CAP)
        .map(|s| Span {
            name: if s.sync { "store.sync" } else { "store.append" },
            pid: s.server as u64,
            tid: 3,
            start_us: s.start_ns / 1000,
            dur_us: s.dur_ns / 1000,
        })
        .collect();
    let lap = Lap {
        n,
        failed,
        problems,
        chunks,
        untimed_s: 0.0,
        layer,
    };
    (lap, store_spans)
}

fn sim_lap(
    spec: &Spec,
    inputs: &Inputs,
    batch: usize,
    deploy: &DeploySpec,
    spans: &mut Spans,
) -> (Lap, Vec<Span>) {
    let mut dep = Deployment::<Sim>::build(deploy);
    let n = inputs.ops.len();
    let chunk_ops = n.div_ceil(CHUNKS);
    let t = Instant::now();
    dep.run_waves(&inputs.preload, batch);
    let mut log = dep.take_completed();
    spans.add("preload", 1, t, Instant::now());
    let timed_from = log.len();

    let before = snapshot(&mut dep, &deploy.tracer);
    let steps = dep.sim_steps();
    let t = Instant::now();
    let mut chunks = Vec::with_capacity(CHUNKS);
    for ops in inputs.ops.chunks(chunk_ops) {
        let m0 = Mark::now(true);
        dep.run_waves(ops, batch);
        let m1 = Mark::now(true);
        let done = dep.take_completed();
        let wall_s = (m1.at - m0.at).as_secs_f64();
        chunks.push(Chunk {
            cost: wall_s,
            wall_s,
            cpu_us: (m1.cpu_ns - m0.cpu_ns) as f64 / 1e3,
            lat_ticks: done.iter().map(|(_, o)| ticks_of(o)).collect(),
        });
        log.extend(done);
    }
    spans.add("timed", 1, t, Instant::now());
    let steps = dep.sim_steps() - steps;
    let after = snapshot(&mut dep, &deploy.tracer);

    let ping = ping_us(&mut dep);
    let t = Instant::now();
    dep.run_waves(&readback_ops(inputs), batch);
    let readback = dep.take_completed();
    let history_lens = dep.history_lens();
    let verdict = check(&Evidence {
        outcomes: &log,
        readback: &readback,
        expected: inputs.preload.len() + n,
        last_written: &inputs.last_written,
    });
    spans.add("check", 1, t, Instant::now());
    dep.shutdown();

    let mut layer = BTreeMap::new();
    layer.insert("substrate.inspect_roundtrip_us", ping);
    layer.insert(
        "substrate.sim_events_per_op",
        steps as f64 / n.max(1) as f64,
    );
    layer.insert("driver.poll_share", 1.0);
    fill_layers(
        &mut layer,
        Ledger {
            spec,
            timed: &log[timed_from..],
            n,
            before,
            after,
            verdict: &verdict,
            history_lens,
            rqs_build: dep.rqs_build,
        },
    );
    let lap = Lap {
        n,
        failed: 0,
        problems: verdict.problems,
        chunks,
        untimed_s: 0.0,
        layer,
    };
    (lap, Vec::new())
}

/// Preload, timed ops and read-back of one simulator lap, unmeasured: the
/// evidence `--self-test` plants its faults into.
pub fn sim_evidence(spec: &Spec, inputs: &Inputs) -> (Outcomes, Outcomes) {
    let Mode::Waves { batch } = spec.mode else {
        panic!("{} does not run on the simulator", spec.name);
    };
    let control = StoreControl::new(Instant::now());
    let mut dep = Deployment::<Sim>::build(&deploy_spec(spec, &control, None));
    dep.run_waves(&inputs.preload, batch);
    dep.run_waves(&inputs.ops, batch);
    let log = dep.take_completed();
    dep.run_waves(&readback_ops(inputs), batch);
    (log, dep.take_completed())
}
