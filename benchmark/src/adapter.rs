//! The one file that touches the repo's crates.
//!
//! Everything the benchmark needs from the program goes through here:
//! building a deployment, handing ops to a client, harvesting outcomes,
//! injecting a crash, reading counters, and the two traits the benchmark
//! implements on its own side of the seam ([`Tracer`] for the traced run,
//! [`Durable`] for the injected flush delay). The other modules import
//! repo types from this module only, so an API change in the repo is a
//! change to this file.
//!
//! The deployment is always built through
//! `KvDeployment::<S>::with_setup_traced` — the constructor every other
//! one funnels into — never through the `RtKv`/`KvSim`/`with_*` aliases.

use rqs_core::threshold::ThresholdConfig;
use rqs_kv::{KvBatch, KvClient, KvDeployment, KvServer, ShardMap};
use rqs_obs::{chrome_trace, NopTracer, ObsHandle};
use rqs_runtime::Runtime;
use rqs_sim::{CrashMode, LinkEffect, LinkRule, NodeId, Scenario, Substrate, World};
use rqs_store::{Durable, MemDurable, Recovered, StoreHandle, StoreStats};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub use rqs_kv::{KvOp, KvOutcome, ObjectId, WorkloadOp};
pub use rqs_obs::{parse_chrome_trace, TraceEvent, TraceKind, Tracer};
pub use rqs_storage::{AtomicityChecker, OpKind, OpRecord, TsVal, Value};

/// The deterministic simulator substrate.
pub type Sim = World<KvBatch>;
/// The node-per-thread substrate.
pub type Threaded = Runtime<KvBatch>;

/// Servers in every workload: `ThresholdConfig::byzantine_fast(1)`.
pub const SERVERS: usize = 4;
/// Client nodes in every workload (= `nproc` on the reference box).
pub const CLIENTS: usize = 2;
/// Number of [`TraceKind`] variants (size of the per-kind count table).
pub const TRACE_KINDS: usize = 12;

/// The client owning (allowed to write) `object`.
pub fn owner(objects: usize, object: u64) -> usize {
    ShardMap::new(objects, CLIENTS).owner(ObjectId(object))
}

// ---- the injected flush delay ------------------------------------------

/// One call into the inner store, as seen by the wrapper.
#[derive(Clone, Copy, Debug)]
pub struct StoreSpan {
    /// Server index.
    pub server: usize,
    /// `true` for the sync part (including the injected delay), `false`
    /// for the append part.
    pub sync: bool,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Controls shared by the four store wrappers of one deployment.
pub struct StoreControl {
    epoch: Instant,
    /// Injected delay per sync, in nanoseconds (0 while the lap is not in
    /// its timed phase: preload and read-back are not what is measured).
    flush_ns: AtomicU64,
    recording: AtomicBool,
    spans: Mutex<Vec<StoreSpan>>,
}

impl StoreControl {
    pub fn new(epoch: Instant) -> Arc<Self> {
        Arc::new(StoreControl {
            epoch,
            flush_ns: AtomicU64::new(0),
            recording: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Sets the injected delay per sync.
    pub fn set_flush(&self, delay: Duration) {
        self.flush_ns
            .store(delay.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Starts or stops keeping a span per call into the inner store.
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::Relaxed);
    }

    /// Takes the recorded spans.
    pub fn take_spans(&self) -> Vec<StoreSpan> {
        std::mem::take(&mut self.spans.lock().expect("span lock"))
    }

    fn span(&self, server: usize, sync: bool, start: Instant, end: Instant) {
        if self.recording.load(Ordering::Relaxed) {
            self.spans.lock().expect("span lock").push(StoreSpan {
                server,
                sync,
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                dur_ns: end.duration_since(start).as_nanos() as u64,
            });
        }
    }
}

/// A `Durable` that forwards to an in-memory store and sleeps a stated
/// time for every sync the inner store performs.
///
/// The delay is observed through the inner store's own `stats().syncs`
/// delta, so the program's sync policy (`sync_every = 1`, log before ack)
/// is untouched: whatever makes the program sync less often makes the
/// wrapper sleep less often.
struct DelayedDurable {
    inner: MemDurable,
    server: usize,
    control: Arc<StoreControl>,
}

impl DelayedDurable {
    fn call(&mut self, f: impl FnOnce(&mut MemDurable)) {
        let before = self.inner.stats().syncs;
        let t0 = Instant::now();
        f(&mut self.inner);
        let t1 = Instant::now();
        self.control.span(self.server, false, t0, t1);
        let syncs = (self.inner.stats().syncs - before) as u64;
        let delay = self.control.flush_ns.load(Ordering::Relaxed);
        if syncs > 0 {
            if delay > 0 {
                std::thread::sleep(Duration::from_nanos(delay * syncs));
            }
            self.control.span(self.server, true, t1, Instant::now());
        }
    }
}

impl Durable for DelayedDurable {
    fn append(&mut self, record: &[u8]) {
        self.call(|s| s.append(record));
    }
    fn sync(&mut self) {
        self.call(|s| s.sync());
    }
    fn install_snapshot(&mut self, snapshot: &[u8]) {
        self.call(|s| s.install_snapshot(snapshot));
    }
    fn crash(&mut self) {
        self.inner.crash();
    }
    fn load(&mut self) -> Recovered {
        self.inner.load()
    }
    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}

/// Which durable store every server journals through.
#[derive(Clone)]
pub enum Stores {
    /// No store: servers are volatile.
    Volatile,
    /// `StoreHandle::mem()`: no delay, survives an amnesia crash.
    Mem,
    /// In-memory store behind the delay wrapper.
    Delayed(Arc<StoreControl>),
}

/// Store counters summed over the servers.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreCounts {
    pub appends: u64,
    pub syncs: u64,
    pub bytes: u64,
    pub replayed: u64,
}

// ---- the traced run ------------------------------------------------------

/// The benchmark's trace sink: counts every event by kind, and keeps the
/// first `cap` events of the lap stamped with wall-clock microseconds.
pub struct BenchTracer {
    epoch: Instant,
    counts: [AtomicU64; TRACE_KINDS],
    full: AtomicBool,
    cap: usize,
    events: Mutex<Vec<TraceEvent>>,
}

impl BenchTracer {
    pub fn new(epoch: Instant, cap: usize) -> Arc<Self> {
        Arc::new(BenchTracer {
            epoch,
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            full: AtomicBool::new(cap == 0),
            cap,
            events: Mutex::new(Vec::new()),
        })
    }

    /// Events seen so far, by `TraceKind as usize`.
    pub fn counts(&self) -> [u64; TRACE_KINDS] {
        std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed))
    }

    /// Takes the kept events.
    pub fn take_events(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events.lock().expect("event lock"))
    }
}

impl Tracer for BenchTracer {
    fn record(&self, mut ev: TraceEvent) {
        self.counts[ev.kind as usize].fetch_add(1, Ordering::Relaxed);
        if self.full.load(Ordering::Relaxed) {
            return;
        }
        ev.tick = self.epoch.elapsed().as_micros() as u64;
        let mut events = self.events.lock().expect("event lock");
        if events.len() < self.cap {
            events.push(ev);
        } else {
            self.full.store(true, Ordering::Relaxed);
        }
    }
}

/// A span recorded by the benchmark itself (driver or store wrapper).
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Chrome `pid`: server index for store spans, [`DRIVER_PID`] for the
    /// driver.
    pub pid: u64,
    /// Chrome `tid`: nesting level for driver spans.
    pub tid: u64,
    pub start_us: u64,
    pub dur_us: u64,
}

/// Chrome `pid` of the driver's own spans.
pub const DRIVER_PID: u64 = 1000;

/// Renders the kept events through `rqs_obs::chrome_trace` and adds the
/// benchmark's own spans as `X` entries of the same document.
pub fn chrome_document(events: &[TraceEvent], spans: &[Span]) -> String {
    let doc = chrome_trace(events);
    let extra: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":{},\"tid\":{},\"args\":{{}}}}",
                s.name, s.start_us, s.dur_us, s.pid, s.tid
            )
        })
        .collect();
    if extra.is_empty() {
        return doc;
    }
    // `chrome_trace` renders `{"traceEvents":[...],"displayTimeUnit":"ms"}`.
    let tail = "],\"displayTimeUnit\"";
    let at = doc.rfind(tail).expect("chrome_trace document shape");
    let sep = if doc[..at].ends_with('[') { "" } else { "," };
    format!("{}{}{}{}", &doc[..at], sep, extra.join(","), &doc[at..])
}

// ---- the deployment ------------------------------------------------------

/// What a lap deploys.
pub struct DeploySpec {
    pub objects: usize,
    /// Pipeline depth per `(object, lane)`.
    pub depth: usize,
    /// Wall-clock length of a protocol tick (ignored by the simulator).
    pub tick: Duration,
    /// Injected one-way link delay in ticks (0 = none).
    pub link_delay_ticks: u64,
    pub stores: Stores,
    /// Trace sink of a traced lap.
    pub tracer: Option<Arc<BenchTracer>>,
}

/// Message and retry counters of a deployment since it was built.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetCounts {
    pub envelopes: u64,
    pub items: u64,
    pub retries: u64,
}

/// A substrate the KV service deploys on.
pub trait Backend: Substrate<KvBatch> {}
impl<S: Substrate<KvBatch>> Backend for S {}

/// One KV deployment on substrate `S`.
pub struct Deployment<S: Backend> {
    kv: KvDeployment<S>,
    clients: Vec<NodeId>,
    /// Harvest cursor into each client's outcome log.
    cursors: Vec<usize>,
    objects: usize,
    /// Time `ThresholdConfig::build` took.
    pub rqs_build: Duration,
}

impl<S: Backend> Deployment<S> {
    pub fn build(spec: &DeploySpec) -> Self {
        let t0 = Instant::now();
        let rqs = ThresholdConfig::byzantine_fast(1)
            .build()
            .expect("byzantine_fast(1) is a refined quorum system");
        let rqs_build = t0.elapsed();
        assert_eq!(rqs.universe_size(), SERVERS);
        let mut scenario = Scenario::named("benchmark");
        if spec.link_delay_ticks > 0 {
            scenario = scenario.link(LinkRule::every(LinkEffect::Delay(spec.link_delay_ticks)));
        }
        let stores: Vec<StoreHandle> = match &spec.stores {
            Stores::Volatile => Vec::new(),
            Stores::Mem => (0..SERVERS).map(|_| StoreHandle::mem()).collect(),
            Stores::Delayed(control) => (0..SERVERS)
                .map(|server| {
                    StoreHandle::new(Box::new(DelayedDurable {
                        inner: MemDurable::new(),
                        server,
                        control: control.clone(),
                    }))
                })
                .collect(),
        };
        let tracer: ObsHandle = match &spec.tracer {
            Some(t) => t.clone(),
            None => Arc::new(NopTracer),
        };
        let mut kv = KvDeployment::<S>::with_setup_traced(
            rqs,
            spec.objects,
            CLIENTS,
            scenario,
            spec.tick,
            stores,
            tracer,
        );
        kv.set_pipeline(spec.depth);
        Deployment {
            kv,
            clients: (SERVERS..SERVERS + CLIENTS).map(NodeId).collect(),
            cursors: vec![0; CLIENTS],
            objects: spec.objects,
            rqs_build,
        }
    }

    /// Hands `ops` to client `client` in one step (asynchronous on the
    /// threaded substrate).
    pub fn submit(&mut self, client: usize, ops: Vec<KvOp>) {
        self.kv
            .substrate()
            .invoke_on::<KvClient>(self.clients[client], move |c, ctx| c.start_ops(ops, ctx));
    }

    /// The outcomes client `client` completed since the last harvest.
    pub fn harvest(&mut self, client: usize) -> Vec<KvOutcome> {
        let skip = self.cursors[client];
        let outs = self
            .kv
            .substrate()
            .inspect_on::<KvClient, Vec<KvOutcome>>(self.clients[client], move |k| {
                k.outcomes()[skip..].to_vec()
            });
        self.cursors[client] += outs.len();
        outs
    }

    /// A no-op inspection: two channel hops and a wake on the threaded
    /// substrate, a function call on the simulator.
    pub fn ping(&mut self, client: usize) {
        self.kv
            .substrate()
            .inspect_on::<KvClient, ()>(self.clients[client], |_| ());
    }

    pub fn crash_server_amnesia(&mut self, server: usize) {
        self.kv.crash_server(server, CrashMode::Amnesia);
    }

    pub fn restart_server(&mut self, server: usize) {
        self.kv.restart_server(server);
    }

    /// The substrate's protocol clock.
    pub fn now_ticks(&mut self) -> u64 {
        self.kv.substrate().now_ticks().ticks()
    }

    pub fn net_counts(&mut self) -> NetCounts {
        let s = self.kv.substrate().stats();
        NetCounts {
            envelopes: s.envelopes,
            items: s.items,
            retries: self.kv.retry_stats().retries_issued,
        }
    }

    pub fn store_counts(&self) -> StoreCounts {
        let s = self.kv.store_stats();
        StoreCounts {
            appends: s.appends as u64,
            syncs: s.syncs as u64,
            bytes: s.log_bytes as u64,
            replayed: s.replayed as u64,
        }
    }

    /// `History::len` of every `(server, object)` pair.
    pub fn history_lens(&mut self) -> Vec<usize> {
        let objects = self.objects as u64;
        let servers = self.kv.servers().to_vec();
        let mut lens = Vec::with_capacity(servers.len() * self.objects);
        for server in servers {
            lens.extend(
                self.kv
                    .substrate()
                    .inspect_on::<KvServer, Vec<usize>>(server, move |s| {
                        (0..objects).map(|o| s.history(ObjectId(o)).len()).collect()
                    }),
            );
        }
        lens
    }

    pub fn shutdown(&mut self) {
        self.kv.shutdown();
    }
}

impl Deployment<Sim> {
    /// Drives `ops` to completion through `KvDeployment::run_workload`
    /// in waves of `batch` per client.
    pub fn run_waves(&mut self, ops: &[WorkloadOp], batch: usize) {
        self.kv.run_workload(ops, batch);
    }

    /// The `(client, outcome)` pairs completed since the last call.
    pub fn take_completed(&mut self) -> Vec<(usize, KvOutcome)> {
        let all = self.kv.completed();
        let new = all[self.cursors[0]..].to_vec();
        self.cursors[0] = all.len();
        new
    }

    /// Events the simulator has executed.
    pub fn sim_steps(&mut self) -> u64 {
        World::stats(self.kv.substrate()).steps as u64
    }
}
