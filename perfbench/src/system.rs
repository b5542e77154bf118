//! Building, closing and checking the store a run measures.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use clsm::Db;
use clsm_kv::KvStore;
use clsm_net::{NetOptions, RemoteStore};
use lsm_storage::format::MAX_TS;
use lsm_storage::{Store, ValueKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::driver::{Expected, Violation};
use crate::spec::{Spec, THREADS};
use crate::timed::TimedStore;
use crate::value::{self, Stamp, LOADER};

/// Wraps the store the driver threads call (the self-tests use it to
/// plant wrong answers and errors).
pub type Wrap = dyn Fn(Arc<dyn KvStore>) -> Arc<dyn KvStore> + Sync;

/// A store ready to be measured.
pub struct System {
    /// The store itself.
    pub db: Arc<Db>,
    /// What the driver threads call: the store, or a `RemoteStore` on
    /// loopback in front of it.
    pub client: Arc<dyn KvStore>,
    /// The wire client and its in-process server, for `net-mixed`.
    pub remote: Option<Arc<RemoteStore>>,
    /// The timing wrapper the server calls, in traced `net-mixed` runs.
    pub timed: Option<Arc<TimedStore>>,
}

fn err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// Opens a fresh store in `dir`, loads the dataset and, for `net`
/// workloads, serves it on loopback.
pub fn setup(
    spec: &Spec,
    dir: &Path,
    seed: u64,
    timed: bool,
    wrap: Option<&Wrap>,
) -> Result<System, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| err("clear store directory", e))?;
    }
    let db = Arc::new(Db::open(dir, spec.options.clone()).map_err(|e| err("open store", e))?);
    if let Some(preload) = &spec.preload {
        let mut order: Vec<u64> = (0..spec.key_space).collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_10ad);
        for n in (1..order.len()).rev() {
            order.swap(n, rng.random_range(0..=n));
        }
        for (n, &i) in order.iter().enumerate() {
            let key = value::key(i);
            db.put(&key, &value::make(&key, LOADER, 0))
                .map_err(|e| err("load", e))?;
            if preload
                .flush_every
                .is_some_and(|every| (n as u64 + 1).is_multiple_of(every))
            {
                db.compact_to_quiescence()
                    .map_err(|e| err("flush after load chunk", e))?;
            }
        }
        if preload.flush_every.is_some() {
            db.compact_to_quiescence()
                .map_err(|e| err("compact after load", e))?;
        }
    }
    let mut timed_store = None;
    let (client, remote): (Arc<dyn KvStore>, _) = if spec.net {
        let served: Arc<dyn KvStore> = if timed {
            let t = Arc::new(TimedStore::new(db.clone()));
            timed_store = Some(Arc::clone(&t));
            t
        } else {
            db.clone()
        };
        let opts = NetOptions::builder()
            .addr("127.0.0.1:0")
            .workers(2)
            .connections(THREADS)
            .build()
            .map_err(|e| err("net options", e))?;
        let remote = Arc::new(
            RemoteStore::with_embedded_server(served, &opts)
                .map_err(|e| err("serve on loopback", e))?,
        );
        (remote.clone(), Some(remote))
    } else {
        (db.clone(), None)
    };
    let client = match wrap {
        Some(w) => w(client),
        None => client,
    };
    Ok(System {
        db,
        client,
        remote,
        timed: timed_store,
    })
}

/// Stops the server, if any, and closes the store cleanly.
pub fn close(sys: System) -> Result<(), String> {
    let System {
        db,
        client,
        remote,
        timed,
    } = sys;
    drop(client);
    drop(remote);
    drop(timed);
    let db = Arc::into_inner(db).ok_or("store still referenced at close")?;
    drop(db);
    Ok(())
}

/// Reopens the closed store in `dir` and checks that every key holds
/// its last acknowledged value.
pub fn verify(spec: &Spec, dir: &Path, expected: &Expected) -> Result<(), Violation> {
    let db = Db::open(dir, spec.options.clone()).map_err(|e| err("reopen store", e))?;
    expected.check(|k| db.get(k).map_err(|e| err("get after reopen", e)))
}

/// What replaying the run's gets through the storage layer alone gave.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// Gets replayed.
    pub gets: u64,
    /// Mean `Store::get` time in µs.
    pub mean_us: f64,
    /// Block-cache hit ratio of the replay.
    pub cache_hit_ratio: f64,
}

/// Opens the closed store's directory with `lsm_storage::Store` and
/// replays `keys` through `Store::get(key, MAX_TS)`, checking each
/// answer against `expected`. The store must have been flushed before
/// it was closed, so every key is on disk.
pub fn replay(
    spec: &Spec,
    dir: &Path,
    keys: &[u64],
    expected: &Expected,
) -> Result<Replay, Violation> {
    let want: HashMap<u64, Stamp> = expected.main.iter().copied().collect();
    let (store, _recovered) =
        Store::open(dir, spec.options.store.clone()).map_err(|e| err("open storage", e))?;
    let (hits0, misses0) = store.cache_stats().unwrap_or_default();
    let mut total_ns = 0u128;
    for &i in keys {
        let key = value::key(i);
        let began = Instant::now();
        let got = store.get(&key, MAX_TS).map_err(|e| err("storage get", e))?;
        total_ns += began.elapsed().as_nanos();
        let got = match got {
            Some((_, ValueKind::Put, v)) => Some(value::check(&key, &v)?),
            _ => None,
        };
        if got != want.get(&i).copied() {
            return Err(format!(
                "storage replay of key {i} gives {got:?}, expected {:?}",
                want.get(&i)
            ));
        }
    }
    let (hits, misses) = store.cache_stats().unwrap_or_default();
    let (hits, misses) = (hits - hits0, misses - misses0);
    Ok(Replay {
        gets: keys.len() as u64,
        mean_us: if keys.is_empty() {
            0.0
        } else {
            total_ns as f64 / keys.len() as f64 / 1e3
        },
        cache_hit_ratio: ratio(hits as f64, (hits + misses) as f64),
    })
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Bytes of every file under `dir`.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}
