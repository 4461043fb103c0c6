//! The storage harness: standalone per-partition stores and WAL writers,
//! fed the layer replay's read and write streams in replay order.

use std::path::Path;
use std::time::Instant;

use paris::types::{Timestamp, Version};

use crate::deploy::{self, Workload};
use crate::layers;
use crate::replay::StoreOp;
use crate::report::{quantile, ratio};

/// Operations between two GC passes.
const GC_EVERY: usize = 1_000;
/// WAL fsyncs timed for `storage.fsync_us_p50`.
const FSYNC_SAMPLES: usize = 200;
/// Window update transactions fed to the durable engine for
/// `storage.fsyncs_per_tx`.
const FSYNC_TXS: usize = 200;

#[derive(Default)]
pub struct StorageCosts {
    pub apply_ns: f64,
    pub read_at_ns: f64,
    pub gc_ns_per_version: f64,
    pub versions_per_key: f64,
    pub wal_append_ns: f64,
    pub fsync_us_p50: f64,
    pub fsyncs_per_tx: f64,
    /// Snapshot reads of preloaded keys that found no version.
    pub missing_reads: u64,
}

fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Runs the load stream, then the window stream, through one in-memory
/// store per partition (apply, read and GC costs), then times the WAL.
pub fn run(
    workload: Workload,
    load: &[StoreOp],
    window: &[StoreOp],
    scratch: &Path,
) -> StorageCosts {
    let mut out = StorageCosts::default();
    let stores: Vec<_> = (0..deploy::PARTITIONS).map(|_| layers::store()).collect();
    let store_of =
        |key: paris::types::Key| &stores[(key.0 % u64::from(deploy::PARTITIONS)) as usize];

    let ops: Vec<&StoreOp> = load.iter().chain(window).collect();
    // GC may only drop what no later read needs: the horizon at each
    // point is the oldest snapshot any later read uses.
    let mut horizon = vec![None; ops.len() + 1];
    for i in (0..ops.len()).rev() {
        horizon[i] = match ops[i] {
            StoreOp::Read(_, ts) => Some(horizon[i + 1].map_or(*ts, |h: Timestamp| h.min(*ts))),
            StoreOp::Apply(_) => horizon[i + 1],
        };
    }

    let (mut applies, mut apply_ns, mut reads, mut read_ns) = (0u64, 0u64, 0u64, 0u64);
    let (mut gc_ns, mut gc_removed) = (0u64, 0u64);
    for (i, op) in ops.iter().enumerate() {
        match op {
            StoreOp::Apply(v) => {
                let store = store_of(v.key);
                let t0 = Instant::now();
                std::hint::black_box(layers::apply(store, v));
                apply_ns += ns_since(t0);
                applies += 1;
            }
            StoreOp::Read(key, ts) => {
                let store = store_of(*key);
                let t0 = Instant::now();
                let found = std::hint::black_box(layers::read_at(store, *key, *ts));
                read_ns += ns_since(t0);
                reads += 1;
                if found.is_none() {
                    out.missing_reads += 1;
                }
            }
        }
        if (i + 1) % GC_EVERY == 0 {
            if let Some(h) = horizon[i + 1] {
                for store in &stores {
                    let t0 = Instant::now();
                    gc_removed += layers::gc(store, h) as u64;
                    gc_ns += ns_since(t0);
                }
            }
        }
    }
    out.apply_ns = ratio(apply_ns as f64, applies as f64);
    out.read_at_ns = ratio(read_ns as f64, reads as f64);
    out.gc_ns_per_version = ratio(gc_ns as f64, gc_removed as f64);
    let (versions, keys) = stores
        .iter()
        .map(|s| layers::size(s))
        .fold((0, 0), |(v, k), (v2, k2)| (v + v2, k + k2));
    out.versions_per_key = ratio(versions as f64, keys as f64);
    drop(stores);

    let versions: Vec<&Version> = ops
        .iter()
        .filter_map(|op| match op {
            StoreOp::Apply(v) => Some(v),
            StoreOp::Read(..) => None,
        })
        .collect();
    wal_costs(&mut out, &versions, scratch);
    out.fsyncs_per_tx = fsyncs_per_tx(workload, window, scratch);
    out
}

/// Appends every version to a bare WAL segment (no sync), then times
/// `FSYNC_SAMPLES` append + fsync pairs on a second segment.
fn wal_costs(out: &mut StorageCosts, versions: &[&Version], scratch: &Path) {
    let dir = scratch.join("wal-append");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::create_dir_all(&dir);
    let mut wal = layers::wal(&dir);
    let t0 = Instant::now();
    for v in versions {
        layers::wal_append(&mut wal, v);
    }
    out.wal_append_ns = ratio(ns_since(t0) as f64, versions.len() as f64);
    drop(wal);

    let sync_dir = scratch.join("wal-sync");
    let _ = std::fs::remove_dir_all(&sync_dir);
    let _ = std::fs::create_dir_all(&sync_dir);
    let mut wal = layers::wal(&sync_dir);
    let mut syncs = Vec::with_capacity(FSYNC_SAMPLES);
    for v in versions.iter().rev().take(FSYNC_SAMPLES) {
        layers::wal_append(&mut wal, v);
        let t0 = Instant::now();
        layers::wal_sync(&mut wal);
        syncs.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    out.fsync_us_p50 = quantile(&syncs, 0.5);
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&sync_dir);
}

/// Fsyncs a durable engine with the workload's WAL policy issues per
/// update transaction, fed the writes of the window's first `FSYNC_TXS`
/// update transactions (0 without durability: the workload's servers
/// keep no log).
fn fsyncs_per_tx(workload: Workload, window: &[StoreOp], scratch: &Path) -> f64 {
    let Some(policy) = workload.fsync() else {
        return 0.0;
    };
    let dir = scratch.join("engine");
    let _ = std::fs::remove_dir_all(&dir);
    let engine = layers::durable(&dir, policy);
    let mut txs = std::collections::HashSet::new();
    for op in window {
        if let StoreOp::Apply(v) = op {
            if txs.len() == FSYNC_TXS && !txs.contains(&v.tx) {
                break;
            }
            txs.insert(v.tx);
            layers::apply(&engine, v);
        }
    }
    let fsyncs = layers::fsyncs(&engine);
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    ratio(fsyncs as f64, txs.len() as f64)
}
