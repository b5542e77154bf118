//! Spans recorded from outside the program: a [`KvStore`] wrapper that
//! times each call into the wrapped store, and the recorder span names
//! the benchmark uses.
//!
//! The wrapper is what `net-mixed` hands to `clsm_net::serve` in the
//! traced run, so the server's own per-op time can be split from the
//! time spent inside `Db`. It adds no instrumentation to the program.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use clsm_kv::{KvSnapshot, KvStore, ScanRange, WriteBatch, WriteOptions};
use clsm_util::error::Result;
use clsm_util::metrics::{ConcurrentHistogram, MetricsSnapshot};
use clsm_util::trace::TraceId;

use crate::spec::OpKind;

/// Client-side spans around each request a driver thread sends.
pub static CLIENT_SPANS: [TraceId; 4] = [
    TraceId::new("bench.client.get"),
    TraceId::new("bench.client.put"),
    TraceId::new("bench.client.scan"),
    TraceId::new("bench.client.rmw"),
];
/// Spans around each call into the store's public API.
pub static DB_SPANS: [TraceId; 4] = [
    TraceId::new("bench.db.get"),
    TraceId::new("bench.db.put"),
    TraceId::new("bench.db.scan"),
    TraceId::new("bench.db.rmw"),
];
static SNAPSHOT_SPAN: TraceId = TraceId::new("bench.db.snapshot");
static SNAPSHOT_SCAN_SPAN: TraceId = TraceId::new("bench.db.snapshot_scan");

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Times every call into the wrapped store, per [`OpKind`], and splits
/// a scan into `snapshot()` and the snapshot's `scan`.
pub struct TimedStore {
    inner: Arc<dyn KvStore>,
    /// Time inside the store per request in ns, indexed by
    /// [`OpKind::index`]. A coalesced write counts once for every
    /// request it carries, so the mean matches the server's per-request
    /// `net.op.write_ns`.
    pub calls: [ConcurrentHistogram; 4],
    /// `write` durations in ns, once per call (per `Db::write`).
    pub write_calls: ConcurrentHistogram,
    /// `snapshot()` durations of scans, in ns.
    pub snapshot: ConcurrentHistogram,
    /// The snapshot's `scan` durations, in ns.
    pub snapshot_scan: ConcurrentHistogram,
    /// Durations are recorded only while this is set (the measured
    /// window, not the warm-up).
    pub recording: AtomicBool,
}

impl TimedStore {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn KvStore>) -> TimedStore {
        TimedStore {
            inner,
            calls: std::array::from_fn(|_| ConcurrentHistogram::new()),
            write_calls: ConcurrentHistogram::new(),
            snapshot: ConcurrentHistogram::new(),
            snapshot_scan: ConcurrentHistogram::new(),
            recording: AtomicBool::new(false),
        }
    }

    fn record(&self, h: &ConcurrentHistogram, began: Instant) {
        if self.recording.load(Ordering::Relaxed) {
            h.record(elapsed_ns(began));
        }
    }

    fn timed<T>(&self, kind: OpKind, f: impl FnOnce() -> T) -> T {
        let _span = DB_SPANS[kind.index()].span();
        let began = Instant::now();
        let out = f();
        self.record(&self.calls[kind.index()], began);
        out
    }
}

impl KvStore for TimedStore {
    fn write(&self, batch: WriteBatch, opts: &WriteOptions) -> Result<()> {
        let requests = batch.len();
        let _span = DB_SPANS[OpKind::Put.index()].span();
        let began = Instant::now();
        let out = self.inner.write(batch, opts);
        if self.recording.load(Ordering::Relaxed) {
            let ns = elapsed_ns(began);
            self.write_calls.record(ns);
            for _ in 0..requests {
                self.calls[OpKind::Put.index()].record(ns);
            }
        }
        out
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.timed(OpKind::Get, || self.inner.get(key))
    }

    fn snapshot(&self) -> Result<Box<dyn KvSnapshot>> {
        self.inner.snapshot()
    }

    fn scan(&self, range: ScanRange, limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.timed(OpKind::Scan, || {
            let began = Instant::now();
            let snap = {
                let _span = SNAPSHOT_SPAN.span();
                self.inner.snapshot()?
            };
            self.record(&self.snapshot, began);
            let began = Instant::now();
            let entries = {
                let _span = SNAPSHOT_SCAN_SPAN.span();
                snap.scan(range, limit)
            };
            self.record(&self.snapshot_scan, began);
            entries
        })
    }

    fn put_if_absent(&self, key: &[u8], value: &[u8]) -> Result<bool> {
        self.timed(OpKind::Rmw, || self.inner.put_if_absent(key, value))
    }

    fn quiesce(&self) -> Result<()> {
        self.inner.quiesce()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn stats(&self) -> MetricsSnapshot {
        self.inner.stats()
    }
}
