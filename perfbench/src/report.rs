//! Turning a measured window into named metrics.

use clsm_util::histogram::Histogram;
use clsm_util::metrics::MetricsSnapshot;
use lsm_storage::store::WriteAmp;

use crate::driver::{WindowOut, SLICE};
use crate::procfs::CpuDelta;
use crate::spec::OpKind;
use crate::system::ratio;

/// One named, measured number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// An ordered list of metrics with a push helper.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends one metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Nearest-rank percentile `q` (0..=1) of sorted nanosecond samples,
/// in µs; 0 without samples.
pub fn percentile_us(sorted: &[u32], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    f64::from(sorted[rank - 1]) / 1e3
}

/// Mean of nanosecond samples in µs; 0 without samples.
pub fn mean_us(samples: &[u32]) -> f64 {
    let sum: u64 = samples.iter().map(|&s| u64::from(s)).sum();
    ratio(sum as f64, samples.len() as f64) / 1e3
}

/// Client-observed latencies of one window, merged over threads and
/// sorted, per [`OpKind`].
pub struct Latencies {
    /// Sorted ns samples per [`OpKind::index`].
    pub by_kind: [Vec<u32>; 4],
    /// All kinds together, sorted.
    pub all: Vec<u32>,
    /// Requests completed in each [`SLICE`] that lies wholly inside the
    /// window.
    pub slice_ops: Vec<u64>,
}

impl Latencies {
    /// Merges the threads' samples.
    pub fn of(window: &WindowOut) -> Latencies {
        let full = (window.elapsed.as_nanos() / SLICE.as_nanos()) as usize;
        let mut by_kind: [Vec<u32>; 4] = Default::default();
        let mut slice_ops = vec![0; full];
        for s in window.threads.iter().flat_map(|t| &t.samples) {
            by_kind[s.kind as usize].push(s.ns);
            if let Some(n) = slice_ops.get_mut(s.slice as usize) {
                *n += 1;
            }
        }
        let mut all: Vec<u32> = by_kind.iter().flatten().copied().collect();
        all.sort_unstable();
        for v in &mut by_kind {
            v.sort_unstable();
        }
        Latencies {
            by_kind,
            all,
            slice_ops,
        }
    }

    /// Successful requests.
    pub fn ops(&self) -> u64 {
        self.all.len() as u64
    }

    /// Samples of one kind.
    pub fn kind(&self, kind: OpKind) -> &[u32] {
        &self.by_kind[kind.index()]
    }
}

/// Counter and histogram deltas between two metrics snapshots.
pub struct Delta<'a> {
    /// Snapshot at the window start.
    pub before: &'a MetricsSnapshot,
    /// Snapshot at the window end.
    pub after: &'a MetricsSnapshot,
}

impl Delta<'_> {
    /// Growth of a counter.
    pub fn counter(&self, name: &str) -> f64 {
        let get = |s: &MetricsSnapshot| s.counters.get(name).copied().unwrap_or(0);
        get(self.after).saturating_sub(get(self.before)) as f64
    }

    /// Growth of a histogram's `(sum, count)`.
    pub fn hist(&self, name: &str) -> (f64, f64) {
        let get = |s: &MetricsSnapshot| s.histograms.get(name).map_or((0, 0), |h| (h.sum, h.count));
        let (s0, c0) = get(self.before);
        let (s1, c1) = get(self.after);
        (s1.saturating_sub(s0) as f64, c1.saturating_sub(c0) as f64)
    }

    /// Mean of the samples a histogram gained, in µs of its ns samples.
    pub fn hist_mean_us(&self, name: &str) -> f64 {
        let (sum, count) = self.hist(name);
        ratio(sum, count) / 1e3
    }
}

/// Mean in µs of a timing wrapper's ns histogram.
pub fn hist_mean_us(h: &Histogram) -> f64 {
    ratio(h.sum() as f64, h.count() as f64) / 1e3
}

/// Everything read at one edge of the traced window.
pub struct Edge {
    /// Per-thread CPU.
    pub cpu: crate::procfs::CpuSample,
    /// The store's metrics registry.
    pub db: MetricsSnapshot,
    /// The server's `net.*` registry (`net-mixed` only).
    pub net: MetricsSnapshot,
    /// Block cache `(hits, misses)`.
    pub cache: (u64, u64),
    /// Write-amplification counters.
    pub amp: WriteAmp,
}

/// The per-thread CPU groups as `cpu.<group>_us_per_op` metrics plus
/// the residual the live threads do not cover.
pub fn cpu_metrics(m: &mut Metrics, cpu: &CpuDelta, ops: u64) {
    let per_op = |secs: f64| ratio(secs * 1e6, ops as f64);
    for (group, secs) in &cpu.groups {
        m.push(format!("cpu.{group}_us_per_op"), per_op(*secs), "us");
    }
    m.push("cpu.residual_us_per_op", per_op(cpu.residual_secs()), "us");
    m.push("cpu.total_us_per_op", per_op(cpu.total_secs), "us");
}
