//! Typed trace events, the tracer trait, and the flight recorder.
//!
//! Protocol automata emit one fixed-size [`TraceEvent`] per auditable
//! step through an [`Obs`] handle. The handle wraps an `Arc<dyn Tracer>`
//! so every layer shares one sink: the zero-overhead [`NopTracer`] by
//! default, or a [`FlightRecorder`] ring when a run is being observed.

use core::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Lane tag for events emitted by a writer automaton.
pub const LANE_WRITER: u8 = 0;
/// Lane tag for events emitted by a reader automaton.
pub const LANE_READER: u8 = 1;
/// Lane tag for substrate/storage events that belong to no client lane.
pub const LANE_SYS: u8 = 2;

/// What happened. Every variant carries its specifics in the generic
/// [`TraceEvent::a`] / [`TraceEvent::b`] payload words (documented per
/// variant), keeping the event `Copy` and allocation-free.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[repr(u8)]
pub enum TraceKind {
    /// A client operation was invoked (`a` = op payload hint, `b` unused).
    OpInvoked = 0,
    /// A client operation completed (`a` = protocol rounds used).
    OpCompleted = 1,
    /// A protocol round began (`a` = round number).
    RoundStarted = 2,
    /// A quorum of replies closed a round (`a` = round, `b` = acks).
    QuorumAssembled = 3,
    /// A retry watchdog fired and re-sent the current round (`a` =
    /// attempt number).
    RetryNudged = 4,
    /// A record was appended to a write-ahead log (`a` = payload bytes,
    /// `b` = deltas the record carries: the group fill of the step that
    /// logged it).
    WalAppended = 5,
    /// A WAL tail reached the durable medium (`a` = syncs so far).
    Fsync = 6,
    /// A node (or its store) crashed.
    Crash = 7,
    /// A node recovered (`a` = log records replayed).
    Recover = 8,
    /// The substrate delivered a message (`a` = sender node).
    Deliver = 9,
    /// The substrate dropped a message (`a` = sender node, `b` = 1 if
    /// dropped because the receiver was crashed).
    Drop = 10,
    /// A pipelined op left its client-side lane backlog and was issued
    /// (`a` = ticks spent queued, `b` = backlog depth behind it at
    /// launch). Emitted only when the wait was non-zero, so depth-1
    /// runs produce no such events.
    QueueWait = 11,
}

impl TraceKind {
    /// Stable lowercase name (used by the exporters).
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::OpInvoked => "op_invoked",
            TraceKind::OpCompleted => "op_completed",
            TraceKind::RoundStarted => "round_started",
            TraceKind::QuorumAssembled => "quorum_assembled",
            TraceKind::RetryNudged => "retry_nudged",
            TraceKind::WalAppended => "wal_appended",
            TraceKind::Fsync => "fsync",
            TraceKind::Crash => "crash",
            TraceKind::Recover => "recover",
            TraceKind::Deliver => "deliver",
            TraceKind::Drop => "drop",
            TraceKind::QueueWait => "queue_wait",
        }
    }

    /// Inverse of [`TraceKind::name`] (used by the strict parser).
    pub fn from_name(name: &str) -> Option<TraceKind> {
        Some(match name {
            "op_invoked" => TraceKind::OpInvoked,
            "op_completed" => TraceKind::OpCompleted,
            "round_started" => TraceKind::RoundStarted,
            "quorum_assembled" => TraceKind::QuorumAssembled,
            "retry_nudged" => TraceKind::RetryNudged,
            "wal_appended" => TraceKind::WalAppended,
            "fsync" => TraceKind::Fsync,
            "crash" => TraceKind::Crash,
            "recover" => TraceKind::Recover,
            "deliver" => TraceKind::Deliver,
            "drop" => TraceKind::Drop,
            "queue_wait" => TraceKind::QueueWait,
            _ => return None,
        })
    }

    fn from_u8(v: u8) -> Option<TraceKind> {
        Some(match v {
            0 => TraceKind::OpInvoked,
            1 => TraceKind::OpCompleted,
            2 => TraceKind::RoundStarted,
            3 => TraceKind::QuorumAssembled,
            4 => TraceKind::RetryNudged,
            5 => TraceKind::WalAppended,
            6 => TraceKind::Fsync,
            7 => TraceKind::Crash,
            8 => TraceKind::Recover,
            9 => TraceKind::Deliver,
            10 => TraceKind::Drop,
            11 => TraceKind::QueueWait,
            _ => return None,
        })
    }
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One auditable protocol step: fixed-size, `Copy`, allocation-free.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TraceEvent {
    /// Protocol tick at which the event happened (`0` for layers with no
    /// clock access, e.g. the durable store).
    pub tick: u64,
    /// Node the event is attributed to.
    pub node: u64,
    /// Operation/object the event belongs to (`0` when not op-scoped).
    pub op: u64,
    /// Client lane ([`LANE_WRITER`], [`LANE_READER`], [`LANE_SYS`]).
    pub lane: u8,
    /// What happened.
    pub kind: TraceKind,
    /// Kind-specific payload (see [`TraceKind`]).
    pub a: u64,
    /// Second kind-specific payload word.
    pub b: u64,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "t{} n{} op{} l{} {} a={} b={}",
            self.tick, self.node, self.op, self.lane, self.kind, self.a, self.b
        )
    }
}

/// A sink for trace events. Implementations must be cheap enough to sit
/// on the protocol hot path: call sites guard every emission with
/// [`Tracer::enabled`], so a disabled tracer costs one virtual call and
/// one bool check per *potential* event, and zero allocations.
pub trait Tracer: Send + Sync {
    /// Whether events should be constructed and recorded at all.
    fn enabled(&self) -> bool {
        true
    }

    /// Records one event.
    fn record(&self, ev: TraceEvent);

    /// The retained events, oldest first (empty for sinks that keep
    /// nothing). Used to attach flight-recorder dumps to failure
    /// reports.
    fn snapshot(&self) -> Vec<TraceEvent> {
        Vec::new()
    }
}

/// The zero-overhead default sink: reports itself disabled and drops
/// everything.
#[derive(Clone, Copy, Debug, Default)]
pub struct NopTracer;

impl Tracer for NopTracer {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _ev: TraceEvent) {}
}

/// A shared, cheaply cloneable tracer.
pub type ObsHandle = Arc<dyn Tracer>;

/// A lock-free fixed-capacity ring keeping the last `capacity` events.
///
/// Writers claim a slot with one `fetch_add` and stamp it with a
/// sequence word released after the payload, so concurrent recording
/// never blocks and a [`FlightRecorder::snapshot`] skips slots caught
/// mid-overwrite. On the deterministic simulator (single-threaded) the
/// snapshot is exact; on the threaded runtime a wrapped ring may drop a
/// handful of in-flight slots, which is acceptable for a post-mortem
/// diagnostic buffer.
pub struct FlightRecorder {
    /// 7 words per slot: tick, node, op, lane|kind, a, b, seq.
    slots: Vec<[AtomicU64; 7]>,
    head: AtomicUsize,
}

impl fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FlightRecorder(cap={}, recorded={})",
            self.slots.len(),
            self.head.load(Ordering::Relaxed)
        )
    }
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` events (at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let mut slots = Vec::with_capacity(capacity);
        for _ in 0..capacity {
            slots.push(core::array::from_fn(|_| AtomicU64::new(0)));
        }
        FlightRecorder {
            slots,
            head: AtomicUsize::new(0),
        }
    }

    /// A recorder sized for whole-run exports of bench workloads.
    pub fn for_export() -> Arc<Self> {
        Arc::new(FlightRecorder::new(1 << 16))
    }

    /// Events ever recorded (recorded, not retained).
    pub fn recorded(&self) -> usize {
        self.head.load(Ordering::Acquire)
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

impl Tracer for FlightRecorder {
    fn record(&self, ev: TraceEvent) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[ticket % self.slots.len()];
        slot[0].store(ev.tick, Ordering::Relaxed);
        slot[1].store(ev.node, Ordering::Relaxed);
        slot[2].store(ev.op, Ordering::Relaxed);
        slot[3].store(((ev.lane as u64) << 8) | ev.kind as u64, Ordering::Relaxed);
        slot[4].store(ev.a, Ordering::Relaxed);
        slot[5].store(ev.b, Ordering::Relaxed);
        // Sequence stamp last, released: a snapshot accepts the slot only
        // if the stamp matches this ticket before and after reading.
        slot[6].store(ticket as u64 + 1, Ordering::Release);
    }

    fn snapshot(&self) -> Vec<TraceEvent> {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len();
        let start = head.saturating_sub(cap);
        let mut out = Vec::with_capacity(head - start);
        for ticket in start..head {
            let slot = &self.slots[ticket % cap];
            let seq = slot[6].load(Ordering::Acquire);
            if seq != ticket as u64 + 1 {
                continue; // claimed but unstamped, or already overwritten
            }
            let packed = slot[3].load(Ordering::Relaxed);
            let Some(kind) = TraceKind::from_u8((packed & 0xff) as u8) else {
                continue;
            };
            let ev = TraceEvent {
                tick: slot[0].load(Ordering::Relaxed),
                node: slot[1].load(Ordering::Relaxed),
                op: slot[2].load(Ordering::Relaxed),
                lane: (packed >> 8) as u8,
                kind,
                a: slot[4].load(Ordering::Relaxed),
                b: slot[5].load(Ordering::Relaxed),
            };
            if slot[6].load(Ordering::Acquire) == seq {
                out.push(ev);
            }
        }
        out
    }
}

/// The handle protocol automata embed: a shared tracer plus a `tag`
/// identifying the emitting automaton (conventionally the object id for
/// KV lanes, `0` for substrate layers).
#[derive(Clone)]
pub struct Obs {
    tracer: ObsHandle,
    tag: u64,
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Obs(tag={}, enabled={})",
            self.tag,
            self.tracer.enabled()
        )
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs::nop()
    }
}

impl Obs {
    /// The disabled handle every automaton starts with.
    pub fn nop() -> Self {
        Obs {
            tracer: Arc::new(NopTracer),
            tag: 0,
        }
    }

    /// Wraps a tracer with an automaton tag.
    pub fn new(tracer: ObsHandle, tag: u64) -> Self {
        Obs { tracer, tag }
    }

    /// The same tracer under a different tag (one per object lane).
    pub fn with_tag(&self, tag: u64) -> Self {
        Obs {
            tracer: self.tracer.clone(),
            tag,
        }
    }

    /// The automaton tag.
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// Whether emission is worthwhile (hot paths check this first).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.tracer.enabled()
    }

    /// The underlying shared tracer.
    pub fn handle(&self) -> ObsHandle {
        self.tracer.clone()
    }

    /// The retained events of the underlying tracer.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.tracer.snapshot()
    }

    /// Emits one event with this handle's tag as the `op` field.
    #[inline]
    pub fn emit(&self, kind: TraceKind, tick: u64, node: u64, lane: u8, a: u64, b: u64) {
        if self.tracer.enabled() {
            self.tracer.record(TraceEvent {
                tick,
                node,
                op: self.tag,
                lane,
                kind,
                a,
                b,
            });
        }
    }

    /// Emits a fully explicit event (for layers that manage op ids
    /// themselves).
    #[inline]
    pub fn emit_event(&self, ev: TraceEvent) {
        if self.tracer.enabled() {
            self.tracer.record(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(tick: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            tick,
            node: 1,
            op: 2,
            lane: LANE_WRITER,
            kind,
            a: 3,
            b: 4,
        }
    }

    #[test]
    fn nop_tracer_is_disabled_and_silent() {
        let nop = NopTracer;
        assert!(!nop.enabled());
        nop.record(ev(0, TraceKind::Deliver));
        assert!(nop.snapshot().is_empty());
    }

    #[test]
    fn recorder_round_trips_events_in_order() {
        let rec = FlightRecorder::new(8);
        assert!(rec.enabled());
        for t in 0..5 {
            rec.record(ev(t, TraceKind::Deliver));
        }
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 5);
        assert_eq!(snap[0], ev(0, TraceKind::Deliver));
        assert_eq!(snap[4], ev(4, TraceKind::Deliver));
        assert_eq!(rec.recorded(), 5);
    }

    #[test]
    fn recorder_ring_keeps_only_the_tail() {
        let rec = FlightRecorder::new(4);
        for t in 0..10 {
            rec.record(ev(t, TraceKind::Fsync));
        }
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 4);
        let ticks: Vec<u64> = snap.iter().map(|e| e.tick).collect();
        assert_eq!(ticks, vec![6, 7, 8, 9]);
        assert_eq!(rec.capacity(), 4);
        assert_eq!(rec.recorded(), 10);
    }

    #[test]
    fn recorder_is_safe_under_concurrent_writers() {
        let rec = Arc::new(FlightRecorder::new(64));
        let mut handles = Vec::new();
        for w in 0..4u64 {
            let rec = rec.clone();
            handles.push(std::thread::spawn(move || {
                for t in 0..1000 {
                    rec.record(TraceEvent {
                        tick: t,
                        node: w,
                        op: 0,
                        lane: LANE_SYS,
                        kind: TraceKind::Deliver,
                        a: 0,
                        b: 0,
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rec.recorded(), 4000);
        let snap = rec.snapshot();
        assert!(snap.len() <= 64);
        assert!(!snap.is_empty());
    }

    #[test]
    fn obs_tags_and_emits() {
        let rec: Arc<FlightRecorder> = Arc::new(FlightRecorder::new(8));
        let obs = Obs::new(rec.clone(), 7);
        assert_eq!(obs.tag(), 7);
        obs.emit(TraceKind::RoundStarted, 3, 9, LANE_READER, 2, 0);
        let other = obs.with_tag(8);
        other.emit(TraceKind::RoundStarted, 4, 9, LANE_READER, 1, 0);
        let snap = obs.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].op, 7);
        assert_eq!(snap[1].op, 8);
        assert_eq!(snap[0].kind, TraceKind::RoundStarted);
    }

    #[test]
    fn kind_names_round_trip() {
        for k in [
            TraceKind::OpInvoked,
            TraceKind::OpCompleted,
            TraceKind::RoundStarted,
            TraceKind::QuorumAssembled,
            TraceKind::RetryNudged,
            TraceKind::WalAppended,
            TraceKind::Fsync,
            TraceKind::Crash,
            TraceKind::Recover,
            TraceKind::Deliver,
            TraceKind::Drop,
            TraceKind::QueueWait,
        ] {
            assert_eq!(TraceKind::from_name(k.name()), Some(k));
            assert_eq!(TraceKind::from_u8(k as u8), Some(k));
        }
        assert_eq!(TraceKind::from_name("bogus"), None);
        assert_eq!(TraceKind::from_u8(99), None);
    }

    #[test]
    fn event_display_is_compact() {
        let e = ev(5, TraceKind::QuorumAssembled);
        assert_eq!(e.to_string(), "t5 n1 op2 l0 quorum_assembled a=3 b=4");
    }
}
