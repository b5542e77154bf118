//! The three workloads and the one store configuration they share.
//!
//! Every workload runs two driver threads (the host has two CPUs) in a
//! closed loop: a thread sends its next request only after the reply to
//! the previous one. The store is `Options::default()` except for the
//! sizes a workload's shape needs: memtable, block cache and level base.

use clsm::Options;
use clsm_workloads::KeyDistribution;

/// Number of closed-loop driver threads.
pub const THREADS: usize = 2;

/// Zipf skew of the heavy-tailed workloads (the §5.2 production shape).
pub const ZIPF_THETA: f64 = 0.99;

/// One kind of client request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    /// Point read.
    Get,
    /// Single-key put.
    Put,
    /// Snapshot scan of a short key range.
    Scan,
    /// `put_if_absent` (Algorithm 3 read-modify-write).
    Rmw,
}

impl OpKind {
    /// All kinds, in report order.
    pub const ALL: [OpKind; 4] = [OpKind::Get, OpKind::Put, OpKind::Scan, OpKind::Rmw];

    /// Name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Get => "get",
            OpKind::Put => "put",
            OpKind::Scan => "scan",
            OpKind::Rmw => "rmw",
        }
    }

    /// Index into per-kind arrays.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Async single-key puts, uniform keys, from an empty store.
    Ingest,
    /// 95% get / 5% async put over a dataset larger than the cache.
    ServeRead,
    /// Gets, sync puts, snapshot scans and `put_if_absent` over the
    /// wire protocol on loopback.
    NetMixed,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Ingest, Workload::ServeRead, Workload::NetMixed];

    /// The name given on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::ServeRead => "serve-read",
            Workload::NetMixed => "net-mixed",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's shape.
    pub fn spec(self) -> Spec {
        const MIB: usize = 1 << 20;
        let mut options = Options::default();
        match self {
            Workload::Ingest => {
                // A 1M-key space (~270 MB of data) against a 1 MiB
                // memtable: a 10 s run flushes about a dozen times and
                // pushes L0 into L1 and L1 into L2.
                options.memtable_bytes = MIB;
                options.store.base_level_bytes = 2 * MIB as u64;
                Spec {
                    workload: self,
                    mix: [0, 100, 0, 0],
                    key_space: 1_000_000,
                    dist: KeyDistribution::Uniform,
                    preload: None,
                    sync_every: None,
                    net: false,
                    options,
                }
            }
            Workload::ServeRead => {
                // 20k keys of 16 B + 256 B (5.4 MB) against a 1 MiB
                // block cache; loaded through forced flushes of
                // 2000-key chunks so background compaction spreads the
                // tables over L0..L2. The 5% puts (~1.5 MB/s) flush the
                // 1 MiB memtable about once a second, so hot keys keep
                // moving to disk and a run averages many flush cycles.
                options.memtable_bytes = MIB;
                options.store.block_cache_bytes = MIB;
                options.store.base_level_bytes = 2 * MIB as u64;
                Spec {
                    workload: self,
                    mix: [95, 5, 0, 0],
                    key_space: 20_000,
                    dist: KeyDistribution::HeavyTail { theta: ZIPF_THETA },
                    preload: Some(Preload {
                        flush_every: Some(2_000),
                    }),
                    sync_every: None,
                    net: false,
                    options,
                }
            }
            Workload::NetMixed => {
                // 2000 keys (0.5 MB) stay in the default 128 MiB
                // memtable, which the run's puts (~13 MB) never fill, so
                // the storage read path and flushes stay out of the way.
                // One put in ten is durable: when every put waited for
                // the fsync, the server worker blocked behind it and all
                // latencies followed the host's fsync time, which swung
                // 2x between runs minutes apart on the sizing host.
                Spec {
                    workload: self,
                    mix: [50, 30, 10, 10],
                    key_space: 2_000,
                    dist: KeyDistribution::HeavyTail { theta: ZIPF_THETA },
                    preload: Some(Preload { flush_every: None }),
                    sync_every: Some(10),
                    net: true,
                    options,
                }
            }
        }
    }
}

/// How the dataset is loaded in setup.
#[derive(Debug, Clone)]
pub struct Preload {
    /// Force a memtable flush after every this many keys (and wait for
    /// the resulting compactions); `None` leaves the data in memory.
    pub flush_every: Option<u64>,
}

/// A workload's full shape.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Which workload this is.
    pub workload: Workload,
    /// Percent of requests per [`OpKind`] (get, put, scan, rmw).
    pub mix: [u32; 4],
    /// Number of distinct keys gets, puts and scans touch.
    pub key_space: u64,
    /// How those keys are drawn.
    pub dist: KeyDistribution,
    /// Whether (and how) setup loads every key first.
    pub preload: Option<Preload>,
    /// Every this many puts of a thread, one waits for the WAL fsync;
    /// `None`: no put does.
    pub sync_every: Option<u64>,
    /// Whether requests cross the wire protocol on loopback.
    pub net: bool,
    /// The store configuration.
    pub options: Options,
}

/// Snapshot scans read this many keys at most (drawn uniformly in the
/// range) from a range this many keys wide.
pub const SCAN_LIMITS: std::ops::RangeInclusive<usize> = 10..=20;
/// Width of a scan's key range.
pub const SCAN_RANGE_KEYS: u64 = 40;

/// `put_if_absent` keys live above the main key space, so they are all
/// absent when the run starts; they are drawn Zipf-distributed over
/// this many keys.
pub const RMW_KEY_SPACE: u64 = 100_000;
/// First index of the `put_if_absent` key range.
pub const RMW_KEY_BASE: u64 = 1_000_000_000;

impl Spec {
    /// Picks an op kind from a uniform draw in `0..100`.
    pub fn kind_for(&self, draw: u32) -> OpKind {
        let mut acc = 0;
        for kind in OpKind::ALL {
            acc += self.mix[kind.index()];
            if draw < acc {
                return kind;
            }
        }
        unreachable!("op mix sums to {acc}, not 100")
    }

    /// Whether the workload issues requests of `kind`.
    pub fn has(&self, kind: OpKind) -> bool {
        self.mix[kind.index()] > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_sum_to_100_and_options_validate() {
        for w in Workload::ALL {
            let s = w.spec();
            assert_eq!(s.mix.iter().sum::<u32>(), 100, "{}", w.name());
            s.options.validate().unwrap();
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }
}
