//! Durable crash-recovery storage: an append-only write-ahead log plus a
//! snapshot store, behind the [`Durable`] trait.
//!
//! A node that must survive *amnesia* crashes (volatile state lost)
//! appends one record per *step* — carrying a delta for every
//! externally-visible state change the step made — **before** any of the
//! step's acknowledgements leave, and may periodically
//! [`install_snapshot`] to compact the log. On an amnesia restart the
//! node is rebuilt from its store only: [`load`] returns the last
//! installed snapshot plus every record that survived the crash.
//!
//! Two backends implement the trait:
//!
//! - [`MemDurable`] — in-memory and fully deterministic; the simulator
//!   backend. "Disk" is a byte vector.
//! - [`FileDurable`] — file-backed (`wal` + `snapshot` files under a
//!   directory); the threaded-runtime backend.
//!
//! Both simulate the two classic durability hazards:
//!
//! - **fsync points** ([`StoreConfig::sync_every`]): appends accumulate in
//!   a volatile tail buffer and only reach the durable medium at sync
//!   points. Everything after the last sync is lost by a crash. The
//!   default (`sync_every = 1`) syncs every append — the write-ahead
//!   guarantee protocols rely on before acking.
//! - **torn tails** ([`StoreConfig::torn_tail`]): a crash may leave a
//!   *prefix* of the first unsynced record on the medium. The framed
//!   decoder (length + FNV-1a checksum per record) detects and discards
//!   the torn record at load, counting it in
//!   [`StoreStats::torn_discarded`].
//!
//! [`install_snapshot`]: Durable::install_snapshot
//! [`load`]: Durable::load

use bytes::BytesMut;
use rqs_obs::{Obs, TraceKind, LANE_SYS};
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

pub mod codec;

/// 64-bit FNV-1a (the workspace's stable dependency-free hash), used here
/// as the per-record checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Record framing: `[len: u32 LE][checksum: u64 LE][payload]`.
const FRAME_HEADER: usize = 4 + 8;

/// Appends one framed record to `out` in place — the hot-path variant
/// that lets a store reuse a single tail buffer across appends instead
/// of allocating a `Vec` per record.
fn frame_into(out: &mut BytesMut, record: &[u8]) {
    out.reserve(FRAME_HEADER + record.len());
    out.extend_from_slice(&(record.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a(record).to_le_bytes());
    out.extend_from_slice(record);
}

#[cfg(test)]
fn frame(record: &[u8]) -> Vec<u8> {
    let mut out = BytesMut::with_capacity(FRAME_HEADER + record.len());
    frame_into(&mut out, record);
    out.take_vec()
}

/// Decodes every intact framed record in `bytes`; returns the records and
/// whether a torn (truncated or checksum-failing) tail was discarded.
fn deframe(bytes: &[u8]) -> (Vec<Vec<u8>>, bool) {
    let mut records = Vec::new();
    let mut at = 0usize;
    while at < bytes.len() {
        if bytes.len() - at < FRAME_HEADER {
            return (records, true);
        }
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let sum = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap());
        let start = at + FRAME_HEADER;
        if bytes.len() - start < len {
            return (records, true);
        }
        let payload = &bytes[start..start + len];
        if fnv1a(payload) != sum {
            return (records, true);
        }
        records.push(payload.to_vec());
        at = start + len;
    }
    (records, false)
}

/// Store configuration: where the durability hazards sit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreConfig {
    /// Sync the log to the durable medium every `sync_every` appends.
    /// `1` (the default) syncs each append before it is visible to a
    /// crash — the write-ahead guarantee. `0` never auto-syncs (only
    /// explicit [`Durable::sync`] calls persist the tail).
    pub sync_every: usize,
    /// Simulate torn tails: a crash leaves half of the first unsynced
    /// record on the medium, which the loader must detect and discard.
    pub torn_tail: bool,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            sync_every: 1,
            torn_tail: false,
        }
    }
}

impl StoreConfig {
    /// A hazardous configuration: sync only every `n` appends and leave
    /// torn tails behind crashes. For tests that demonstrate what the
    /// write-ahead discipline prevents.
    pub fn lazy(n: usize) -> Self {
        StoreConfig {
            sync_every: n,
            torn_tail: true,
        }
    }
}

/// Counters every backend maintains.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Records appended to the log. A record is the unit of a *step*,
    /// not of a write: a server handling an envelope of several writes
    /// appends one record carrying all their deltas, so under
    /// `sync_every = 1` this is also the number of sync points the
    /// protocol paid for.
    pub appends: usize,
    /// Sync points (explicit calls and auto-syncs).
    pub syncs: usize,
    /// Snapshots installed.
    pub snapshots: usize,
    /// Size of the last installed snapshot, in bytes.
    pub snapshot_bytes: usize,
    /// Bytes currently in the durable log (synced, framed).
    pub log_bytes: usize,
    /// Records returned by [`Durable::load`] calls, summed — records,
    /// not the deltas inside them (a recovering node reports its own
    /// delta count from `restore_state`).
    pub replayed: usize,
    /// Torn tails discarded at load.
    pub torn_discarded: usize,
    /// Records lost to crashes (appended but never synced).
    pub lost_unsynced: usize,
    /// Simulated crashes survived.
    pub crashes: usize,
}

impl StoreStats {
    /// Field-wise sum (aggregating a fleet of stores for reports).
    pub fn merge(&mut self, other: &StoreStats) {
        self.appends += other.appends;
        self.syncs += other.syncs;
        self.snapshots += other.snapshots;
        self.snapshot_bytes += other.snapshot_bytes;
        self.log_bytes += other.log_bytes;
        self.replayed += other.replayed;
        self.torn_discarded += other.torn_discarded;
        self.lost_unsynced += other.lost_unsynced;
        self.crashes += other.crashes;
    }
}

/// What a crashed node gets back from its store.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Recovered {
    /// The last installed snapshot, if any.
    pub snapshot: Option<Vec<u8>>,
    /// Log records appended after that snapshot, oldest first.
    pub log: Vec<Vec<u8>>,
}

/// An append-only write-ahead log plus snapshot store.
///
/// Appends go to a volatile tail until a sync point makes them durable;
/// [`crash`](Durable::crash) models the process dying (the unsynced tail
/// is lost, possibly leaving a torn record), and [`load`](Durable::load)
/// is what a recovering node reads.
pub trait Durable: Send {
    /// Appends one record to the log (volatile until the next sync
    /// point; auto-syncs per [`StoreConfig::sync_every`]). The record is
    /// opaque here and atomic under crashes — it survives whole or not at
    /// all — which is what lets a caller pack every delta of one step
    /// into it and pay one sync point for the lot.
    fn append(&mut self, record: &[u8]);

    /// Forces the unsynced tail onto the durable medium.
    fn sync(&mut self);

    /// Installs a full-state snapshot and truncates the log. Snapshots
    /// are synced immediately (atomically replacing any previous one).
    fn install_snapshot(&mut self, snapshot: &[u8]);

    /// Simulates a process crash: the unsynced tail is lost; with
    /// [`StoreConfig::torn_tail`] half of its first record stays behind
    /// as a torn tail for the loader to reject.
    fn crash(&mut self);

    /// Reads the store back: last snapshot + surviving log records.
    fn load(&mut self) -> Recovered;

    /// Counters.
    fn stats(&self) -> StoreStats;
}

// ---- in-memory backend ------------------------------------------------

/// The deterministic in-memory backend: "disk" is a byte vector.
#[derive(Debug, Default)]
pub struct MemDurable {
    config: StoreConfig,
    /// Synced (durable) framed log bytes.
    disk_log: Vec<u8>,
    /// Durable snapshot.
    disk_snapshot: Option<Vec<u8>>,
    /// Unsynced framed bytes, in one reusable buffer: `clear` keeps the
    /// allocation, so a steady append/sync cadence stops allocating once
    /// the buffer reaches its high-water mark.
    tail: BytesMut,
    /// Framed length of each unsynced record (record count for
    /// `sync_every` / `lost_unsynced`; first entry bounds the torn tail).
    tail_lens: Vec<usize>,
    stats: StoreStats,
}

impl MemDurable {
    /// A store with the write-ahead default configuration.
    pub fn new() -> Self {
        Self::with_config(StoreConfig::default())
    }

    /// A store with an explicit configuration.
    pub fn with_config(config: StoreConfig) -> Self {
        MemDurable {
            config,
            ..MemDurable::default()
        }
    }
}

impl Durable for MemDurable {
    fn append(&mut self, record: &[u8]) {
        frame_into(&mut self.tail, record);
        self.tail_lens.push(FRAME_HEADER + record.len());
        self.stats.appends += 1;
        if self.config.sync_every > 0 && self.tail_lens.len() >= self.config.sync_every {
            self.sync();
        }
    }

    fn sync(&mut self) {
        if self.tail_lens.is_empty() {
            return;
        }
        self.disk_log.extend_from_slice(&self.tail);
        self.tail.clear();
        self.tail_lens.clear();
        self.stats.syncs += 1;
        self.stats.log_bytes = self.disk_log.len();
    }

    fn install_snapshot(&mut self, snapshot: &[u8]) {
        self.sync(); // durable order: log precedes snapshot cut-over
        self.disk_snapshot = Some(snapshot.to_vec());
        self.disk_log.clear();
        self.tail.clear();
        self.tail_lens.clear();
        self.stats.snapshots += 1;
        self.stats.snapshot_bytes = snapshot.len();
        self.stats.log_bytes = 0;
    }

    fn crash(&mut self) {
        self.stats.crashes += 1;
        if self.tail_lens.is_empty() {
            return;
        }
        self.stats.lost_unsynced += self.tail_lens.len();
        if self.config.torn_tail {
            let first = &self.tail[..self.tail_lens[0]];
            self.disk_log.extend_from_slice(&first[..first.len() / 2]);
        }
        self.tail.clear();
        self.tail_lens.clear();
        self.stats.log_bytes = self.disk_log.len();
    }

    fn load(&mut self) -> Recovered {
        let (log, torn) = deframe(&self.disk_log);
        if torn {
            self.stats.torn_discarded += 1;
            // Heal the medium: truncate the torn bytes so later appends
            // start at a clean frame boundary.
            let clean: usize = log.iter().map(|r| FRAME_HEADER + r.len()).sum();
            self.disk_log.truncate(clean);
            self.stats.log_bytes = self.disk_log.len();
        }
        self.stats.replayed += log.len();
        Recovered {
            snapshot: self.disk_snapshot.clone(),
            log,
        }
    }

    fn stats(&self) -> StoreStats {
        self.stats
    }
}

// ---- file backend -----------------------------------------------------

/// The file-backed backend: `wal` and `snapshot` files under a directory.
///
/// Appends buffer in memory and reach the `wal` file (with `sync_data`)
/// at sync points, through one file handle held across syncs; snapshots
/// are written to a temp file and atomically renamed over `snapshot`.
/// The crash/torn-tail simulation is identical to [`MemDurable`]'s,
/// applied to the on-disk bytes.
#[derive(Debug)]
pub struct FileDurable {
    config: StoreConfig,
    dir: PathBuf,
    /// Unsynced framed bytes in one reusable buffer (see
    /// [`MemDurable::tail`]); synced to the `wal` file in a single
    /// contiguous write instead of a flatten-and-collect.
    tail: BytesMut,
    /// Framed length of each unsynced record.
    tail_lens: Vec<usize>,
    /// The `wal` file, opened for append on the first sync point and held
    /// until something replaces the file under it (snapshot cut-over,
    /// crash, torn-tail heal).
    wal: Option<fs::File>,
    stats: StoreStats,
}

impl FileDurable {
    /// Opens (creating if needed) a store under `dir`. Existing `wal` /
    /// `snapshot` files are preserved — reopening a directory recovers
    /// the previous store's durable contents.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<Self> {
        Self::open_with_config(dir, StoreConfig::default())
    }

    /// Opens with an explicit configuration.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory.
    pub fn open_with_config(dir: impl AsRef<Path>, config: StoreConfig) -> std::io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let mut store = FileDurable {
            config,
            dir,
            tail: BytesMut::new(),
            tail_lens: Vec::new(),
            wal: None,
            stats: StoreStats::default(),
        };
        store.stats.log_bytes = store
            .wal_path()
            .metadata()
            .map(|m| m.len() as usize)
            .unwrap_or(0);
        Ok(store)
    }

    fn wal_path(&self) -> PathBuf {
        self.dir.join("wal")
    }

    fn snapshot_path(&self) -> PathBuf {
        self.dir.join("snapshot")
    }

    fn append_disk(&mut self, bytes: &[u8]) {
        if self.wal.is_none() {
            let f = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.wal_path())
                .expect("open wal for append");
            self.wal = Some(f);
        }
        let f = self.wal.as_mut().expect("wal handle just ensured");
        f.write_all(bytes).expect("append wal");
        f.sync_data().expect("sync wal");
        self.stats.log_bytes += bytes.len();
    }
}

impl Durable for FileDurable {
    fn append(&mut self, record: &[u8]) {
        frame_into(&mut self.tail, record);
        self.tail_lens.push(FRAME_HEADER + record.len());
        self.stats.appends += 1;
        if self.config.sync_every > 0 && self.tail_lens.len() >= self.config.sync_every {
            self.sync();
        }
    }

    fn sync(&mut self) {
        if self.tail_lens.is_empty() {
            return;
        }
        let bytes = std::mem::take(&mut self.tail);
        self.append_disk(&bytes);
        // Hand the allocation back so the next sync cycle reuses it.
        self.tail = bytes;
        self.tail.clear();
        self.tail_lens.clear();
        self.stats.syncs += 1;
    }

    fn install_snapshot(&mut self, snapshot: &[u8]) {
        self.sync();
        let tmp = self.dir.join("snapshot.tmp");
        fs::write(&tmp, snapshot).expect("write snapshot");
        fs::rename(&tmp, self.snapshot_path()).expect("install snapshot");
        self.wal = None;
        let _ = fs::remove_file(self.wal_path());
        self.tail.clear();
        self.tail_lens.clear();
        self.stats.snapshots += 1;
        self.stats.snapshot_bytes = snapshot.len();
        self.stats.log_bytes = 0;
    }

    fn crash(&mut self) {
        self.stats.crashes += 1;
        self.stats.lost_unsynced += self.tail_lens.len();
        if self.config.torn_tail && !self.tail_lens.is_empty() {
            let torn = self.tail[..self.tail_lens[0] / 2].to_vec();
            self.append_disk(&torn);
        }
        // A crashed process holds no descriptors: recovery reopens.
        self.wal = None;
        self.tail.clear();
        self.tail_lens.clear();
    }

    fn load(&mut self) -> Recovered {
        let bytes = fs::read(self.wal_path()).unwrap_or_default();
        let (log, torn) = deframe(&bytes);
        if torn {
            self.stats.torn_discarded += 1;
            let clean: usize = log.iter().map(|r| FRAME_HEADER + r.len()).sum();
            let mut healed = bytes;
            healed.truncate(clean);
            self.wal = None;
            fs::write(self.wal_path(), &healed).expect("heal torn wal");
            self.stats.log_bytes = clean;
        }
        self.stats.replayed += log.len();
        Recovered {
            snapshot: fs::read(self.snapshot_path()).ok(),
            log,
        }
    }

    fn stats(&self) -> StoreStats {
        self.stats
    }
}

// ---- shared handle ----------------------------------------------------

/// A cloneable handle to one node's store.
///
/// The automaton holds one clone (appending deltas before it acks) and
/// the deployment holds another (injecting crashes, reading stats,
/// verifying recovery) — the store outlives the node's volatile state,
/// which is the whole point.
#[derive(Clone)]
pub struct StoreHandle {
    inner: Arc<Mutex<Box<dyn Durable>>>,
    /// Shared across clones so tracing installed by the deployment is
    /// visible to the automaton's clone too. Durability events are not
    /// clock-stamped (the store has no clock): they carry tick 0 and the
    /// owning node id in both the node and op fields.
    obs: Arc<Mutex<Obs>>,
}

impl fmt::Debug for StoreHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "StoreHandle({:?})", self.stats())
    }
}

impl StoreHandle {
    /// Wraps any backend.
    pub fn new(backend: Box<dyn Durable>) -> Self {
        StoreHandle {
            inner: Arc::new(Mutex::new(backend)),
            obs: Arc::new(Mutex::new(Obs::nop())),
        }
    }

    /// Installs a structured-trace observer (shared by every clone of
    /// this handle); its tag should be the owning node's id.
    pub fn set_obs(&self, obs: Obs) {
        *self.obs.lock().expect("obs lock") = obs;
    }

    fn emit(&self, kind: TraceKind, a: u64, b: u64) {
        let obs = self.obs.lock().expect("obs lock");
        if obs.enabled() {
            obs.emit(kind, 0, obs.tag(), LANE_SYS, a, b);
        }
    }

    /// A deterministic in-memory store (the simulator default).
    pub fn mem() -> Self {
        Self::new(Box::new(MemDurable::new()))
    }

    /// A file-backed store under `dir` (the threaded-runtime backend).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory.
    pub fn file(dir: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(Self::new(Box::new(FileDurable::open(dir)?)))
    }

    /// See [`Durable::append`]. `deltas` is how many state changes the
    /// record carries (its group fill), reported in the trace event only.
    pub fn append(&self, record: &[u8], deltas: usize) {
        self.inner.lock().expect("store lock").append(record);
        self.emit(TraceKind::WalAppended, record.len() as u64, deltas as u64);
    }

    /// See [`Durable::sync`].
    pub fn sync(&self) {
        self.inner.lock().expect("store lock").sync();
        self.emit(TraceKind::Fsync, 0, 0);
    }

    /// See [`Durable::install_snapshot`].
    pub fn install_snapshot(&self, snapshot: &[u8]) {
        self.inner
            .lock()
            .expect("store lock")
            .install_snapshot(snapshot);
        self.emit(TraceKind::Fsync, snapshot.len() as u64, 1);
    }

    /// See [`Durable::crash`].
    pub fn crash(&self) {
        self.inner.lock().expect("store lock").crash();
        self.emit(TraceKind::Crash, 0, 2);
    }

    /// See [`Durable::load`].
    pub fn load(&self) -> Recovered {
        let rec = self.inner.lock().expect("store lock").load();
        self.emit(TraceKind::Recover, rec.log.len() as u64, 2);
        rec
    }

    /// See [`Durable::stats`].
    pub fn stats(&self) -> StoreStats {
        self.inner.lock().expect("store lock").stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(store: &mut dyn Durable) {
        store.append(b"one");
        store.append(b"two");
        let rec = store.load();
        assert_eq!(rec.snapshot, None);
        assert_eq!(rec.log, vec![b"one".to_vec(), b"two".to_vec()]);
    }

    #[test]
    fn mem_append_load_roundtrip() {
        roundtrip(&mut MemDurable::new());
    }

    #[test]
    fn mem_snapshot_truncates_log() {
        let mut s = MemDurable::new();
        s.append(b"a");
        s.install_snapshot(b"SNAP");
        s.append(b"b");
        let rec = s.load();
        assert_eq!(rec.snapshot.as_deref(), Some(&b"SNAP"[..]));
        assert_eq!(rec.log, vec![b"b".to_vec()]);
        assert_eq!(s.stats().snapshots, 1);
        assert_eq!(s.stats().snapshot_bytes, 4);
    }

    #[test]
    fn write_ahead_survives_crash() {
        let mut s = MemDurable::new(); // sync_every = 1
        s.append(b"critical");
        s.crash();
        let rec = s.load();
        assert_eq!(rec.log, vec![b"critical".to_vec()]);
        assert_eq!(s.stats().lost_unsynced, 0);
    }

    #[test]
    fn lazy_sync_loses_unsynced_tail() {
        let mut s = MemDurable::with_config(StoreConfig {
            sync_every: 0,
            torn_tail: false,
        });
        s.append(b"a");
        s.sync();
        s.append(b"lost-1");
        s.append(b"lost-2");
        s.crash();
        let rec = s.load();
        assert_eq!(rec.log, vec![b"a".to_vec()]);
        assert_eq!(s.stats().lost_unsynced, 2);
    }

    #[test]
    fn torn_tail_detected_and_discarded() {
        let mut s = MemDurable::with_config(StoreConfig::lazy(0));
        s.append(b"durable");
        s.sync();
        s.append(b"torn-record-payload");
        s.crash();
        let rec = s.load();
        assert_eq!(rec.log, vec![b"durable".to_vec()]);
        assert_eq!(s.stats().torn_discarded, 1);
        // The medium is healed: appending after recovery works.
        s.append(b"after");
        s.sync();
        let rec = s.load();
        assert_eq!(rec.log, vec![b"durable".to_vec(), b"after".to_vec()]);
    }

    #[test]
    fn checksum_rejects_corruption() {
        let mut bytes = frame(b"hello");
        let n = bytes.len();
        bytes[n - 1] ^= 0xff;
        let (recs, torn) = deframe(&bytes);
        assert!(recs.is_empty());
        assert!(torn);
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/tmp")).join(name);
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn file_backend_roundtrip_and_reopen() {
        let dir = temp_dir("file-roundtrip");
        {
            let mut s = FileDurable::open(&dir).unwrap();
            roundtrip(&mut s);
            s.install_snapshot(b"S1");
            s.append(b"three");
        }
        // Reopen: durable contents survive the process "restart".
        let mut s = FileDurable::open(&dir).unwrap();
        let rec = s.load();
        assert_eq!(rec.snapshot.as_deref(), Some(&b"S1"[..]));
        assert_eq!(rec.log, vec![b"three".to_vec()]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_backend_torn_tail() {
        let dir = temp_dir("file-torn");
        let mut s = FileDurable::open_with_config(&dir, StoreConfig::lazy(0)).unwrap();
        s.append(b"kept");
        s.sync();
        s.append(b"gone");
        s.crash();
        let rec = s.load();
        assert_eq!(rec.log, vec![b"kept".to_vec()]);
        assert_eq!(s.stats().torn_discarded, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn handle_is_shared() {
        let a = StoreHandle::mem();
        let b = a.clone();
        a.append(b"x", 1);
        assert_eq!(b.load().log, vec![b"x".to_vec()]);
        assert_eq!(b.stats().appends, 1);
    }

    #[test]
    fn stats_merge_sums() {
        let mut a = StoreStats {
            appends: 1,
            syncs: 1,
            ..StoreStats::default()
        };
        let b = StoreStats {
            appends: 2,
            replayed: 3,
            ..StoreStats::default()
        };
        a.merge(&b);
        assert_eq!(a.appends, 3);
        assert_eq!(a.syncs, 1);
        assert_eq!(a.replayed, 3);
    }
}
