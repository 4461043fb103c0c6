//! The per-shard commit pipeline: the write half of the server, made
//! concurrent.
//!
//! PaRiS parallelized the *read* path first (Alg. 3 slice reads off the
//! loop via [`crate::ReadView`]); this module does the same for the write
//! path. A [`CommitPipeline`] is a cheap `Arc`-shared handle onto a
//! server's sharded storage [`Engine`] plus a fixed set of **apply
//! lanes** — one mutex per lane, each lane owning a disjoint set of store
//! shards (`lane = shard % lanes`). Two halves of every write-path
//! message run through it:
//!
//! * **Prepare staging** ([`CommitPipeline::stage_prepare`], Alg. 3
//!   lines 9–14): the UST bump (`ust ← max(ust, snapshot)`, an atomic on
//!   the shared [`StableFrontier`]), the write-set copy and the per-shard
//!   partitioning all run *off* the server loop; only the HLC stamp and
//!   the `Prepared` insert re-enter the loop via
//!   [`Server::admit_prepared`](super::Server::admit_prepared) — the 2PC
//!   decision ordering the paper requires stays loop-owned.
//! * **Replication apply** ([`CommitPipeline::apply_replicated`], Alg. 4
//!   lines 23–30): versions destined for different shards apply in
//!   parallel on different lanes, while versions for the *same* shard
//!   apply under that shard's lane mutex in the batch's ascending
//!   `(ct, tx)` order. The version-vector bump that makes the batch
//!   *visible* re-enters the loop via
//!   [`Server::note_remote_applied`](super::Server::note_remote_applied),
//!   strictly after every store write of the batch has landed — so the
//!   installed watermark never announces a version that is not yet
//!   readable.
//!
//! Safety against concurrent GC is inherited from the store: applies
//! carry `ct >` the installed watermark `≥ UST ≥ S_old`, so the trimmed
//! horizon can never touch an in-flight apply. Safety against each other
//! comes from the lanes; callers that fan one batch across workers must
//! route **by source server** (same src → same lane) so per-src FIFO —
//! the order Alg. 4's watermark argument relies on — is preserved.
//!
//! Dropping a [`LaneGuard`] without holding it across the apply would
//! silently serialize nothing and order nothing, hence the `#[must_use]`
//! and the module-wide `unused_must_use` deny (CI runs clippy with
//! `-D warnings`, so a dropped guard fails the build).

#![deny(unused_must_use)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use paris_proto::ReplicatedTx;
use paris_storage::{Engine, StableFrontier};
use paris_types::{Timestamp, WriteSetEntry};

/// Write-path counters, shared between a server and all pipeline handles.
#[derive(Debug, Default)]
pub struct PipelineStats {
    /// Prepares staged through the pipeline (on- or off-loop).
    staged_prepares: AtomicU64,
    /// Replication frames applied through the lanes.
    lane_batches: AtomicU64,
    /// Versions inserted through the lanes.
    lane_applies: AtomicU64,
}

impl PipelineStats {
    /// Prepares staged so far.
    pub fn staged_prepares(&self) -> u64 {
        self.staged_prepares.load(Ordering::Relaxed)
    }

    /// Replication frames applied through the lanes so far.
    pub fn lane_batches(&self) -> u64 {
        self.lane_batches.load(Ordering::Relaxed)
    }

    /// Versions inserted through the lanes so far.
    pub fn lane_applies(&self) -> u64 {
        self.lane_applies.load(Ordering::Relaxed)
    }
}

/// A staged prepare: everything Alg. 3 lines 9–14 can compute without the
/// server loop. Feed it to
/// [`Server::admit_prepared`](super::Server::admit_prepared) for the HLC
/// stamp and the `Prepared`-queue insert.
#[derive(Debug)]
#[must_use = "a staged prepare must be admitted on the server loop"]
pub struct StagedPrepare {
    /// The UST after the Alg. 3 line 11 bump (`ust ← max(ust, snapshot)`).
    pub(crate) ust: Timestamp,
    /// The write set, copied off-loop.
    pub(crate) writes: Vec<WriteSetEntry>,
    /// Distinct apply lanes the write set touches (observability; the
    /// lanes are acquired at apply time, not prepare time).
    pub(crate) lanes_touched: usize,
}

impl StagedPrepare {
    /// Distinct apply lanes this write set will occupy when it applies.
    pub fn lanes_touched(&self) -> usize {
        self.lanes_touched
    }
}

/// Exclusive hold of one apply lane. Writes to the lane's shard set are
/// ordered by this guard; dropping it early un-serializes the lane.
#[must_use = "dropping the guard releases the lane before the apply is ordered"]
#[derive(Debug)]
pub struct LaneGuard<'a> {
    _held: MutexGuard<'a, ()>,
}

/// The concurrently-usable write-path handle of one server. See the
/// module docs. Obtain one with
/// [`Server::commit_pipeline`](super::Server::commit_pipeline); it is
/// `Arc`-shared, so clones are cheap and all of them hit the same lanes.
#[derive(Debug)]
pub struct CommitPipeline {
    store: Arc<dyn Engine>,
    frontier: Arc<StableFrontier>,
    lanes: Box<[Mutex<()>]>,
    stats: PipelineStats,
}

impl CommitPipeline {
    /// A pipeline over `store` with `lanes` apply lanes (clamped to at
    /// least one; more lanes than shards buys nothing and is clamped
    /// down).
    pub(crate) fn new(store: Arc<dyn Engine>, frontier: Arc<StableFrontier>, lanes: usize) -> Self {
        let lanes = lanes.clamp(1, store.shard_count());
        CommitPipeline {
            store,
            frontier,
            lanes: (0..lanes).map(|_| Mutex::new(())).collect(),
            stats: PipelineStats::default(),
        }
    }

    /// Number of apply lanes.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// The shared write-path counters.
    pub fn stats(&self) -> &PipelineStats {
        &self.stats
    }

    /// The lane owning store shard `shard`.
    fn lane_of_shard(&self, shard: usize) -> usize {
        shard % self.lanes.len()
    }

    /// The lane that will apply writes to `key`.
    pub fn lane_of(&self, key: paris_types::Key) -> usize {
        self.lane_of_shard(self.store.shard_index(key))
    }

    /// Acquires exclusive hold of one apply lane. Never acquire two lanes
    /// from one thread — the pipeline's internal paths take one lane at a
    /// time precisely so lane order cannot deadlock — and never call into
    /// the engine while holding one: engine groups take their own lock
    /// first, then lanes.
    pub fn acquire(&self, lane: usize) -> LaneGuard<'_> {
        LaneGuard {
            _held: self.lanes[lane].lock().expect("apply lane poisoned"),
        }
    }

    /// Stages one `PrepareReq` off the server loop (Alg. 3 lines 9–14,
    /// minus the HLC stamp): bumps the shared UST to the snapshot,
    /// copies the write set and partitions it by store shard. The result
    /// must be handed to
    /// [`Server::admit_prepared`](super::Server::admit_prepared).
    pub fn stage_prepare(&self, snapshot: Timestamp, writes: &[WriteSetEntry]) -> StagedPrepare {
        // Alg. 3 line 11: ust ← max(ust, snapshot). Atomic on the shared
        // frontier — the same monotone fetch_max the read path uses.
        let ust = self.frontier.max_ust(snapshot);
        let mut touched = vec![false; self.lanes.len()];
        for w in writes {
            touched[self.lane_of(w.key)] = true;
        }
        self.stats.staged_prepares.fetch_add(1, Ordering::Relaxed);
        StagedPrepare {
            ust,
            writes: writes.to_vec(),
            lanes_touched: touched.iter().filter(|&&t| t).count(),
        }
    }

    /// Applies one replication batch through the lanes (Alg. 4
    /// lines 24–28): writes are partitioned by store shard, each lane's
    /// slice is applied under that lane's mutex in the batch's ascending
    /// `(ct, tx)` order, and lanes holding disjoint shard sets proceed in
    /// parallel across threads. Exactly one lane is held at a time, so
    /// concurrent callers cannot deadlock. The whole frame is one
    /// [`Engine::apply_batch`] group, so a durable engine has logged (and
    /// under `FsyncPolicy::Always` fsynced) it once, with no lane held,
    /// by the time this returns. Returns the number of versions newly
    /// inserted (re-deliveries are idempotent).
    ///
    /// Callers fanning batches across threads must route all batches of
    /// one source server through the same thread (per-src FIFO); see the
    /// module docs.
    pub fn apply_replicated(&self, txs: &[ReplicatedTx]) -> u64 {
        let mut by_lane: Vec<Vec<(&WriteSetEntry, &ReplicatedTx)>> =
            vec![Vec::new(); self.lanes.len()];
        for t in txs {
            for w in &t.writes {
                by_lane[self.lane_of(w.key)].push((w, t));
            }
        }
        // One engine group per frame: a durable engine logs the frame's
        // new versions with one write and at most one fsync, after every
        // lane below is released and before this returns.
        let inserted = self.store.apply_batch(&mut |apply| {
            for (lane, writes) in by_lane.iter().enumerate() {
                if writes.is_empty() {
                    continue;
                }
                let guard = self.acquire(lane);
                for &(w, t) in writes {
                    apply(w.key, w.value.clone(), t.ct, t.tx, t.src);
                }
                drop(guard);
            }
        });
        self.stats.lane_batches.fetch_add(1, Ordering::Relaxed);
        self.stats
            .lane_applies
            .fetch_add(inserted, Ordering::Relaxed);
        inserted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paris_storage::PartitionStore;
    use paris_types::{DcId, Key, PartitionId, ServerId, TxId, Value};

    fn ts(t: u64) -> Timestamp {
        Timestamp::from_physical_micros(t)
    }

    fn pipeline(lanes: usize) -> CommitPipeline {
        CommitPipeline::new(
            Arc::new(PartitionStore::new()),
            Arc::new(StableFrontier::new()),
            lanes,
        )
    }

    fn rtx(seq: u64, ct: u64, keys: &[u64]) -> ReplicatedTx {
        ReplicatedTx {
            tx: TxId::new(ServerId::new(DcId(0), PartitionId(0)), seq),
            ct: ts(ct),
            src: DcId(0),
            writes: keys
                .iter()
                .map(|&k| WriteSetEntry::new(Key(k), Value(k.to_le_bytes().to_vec())))
                .collect(),
        }
    }

    #[test]
    fn lanes_are_clamped_to_the_shard_count() {
        assert_eq!(pipeline(0).lane_count(), 1);
        assert_eq!(pipeline(4).lane_count(), 4);
        assert_eq!(pipeline(1_000).lane_count(), 16, "one lane per shard max");
    }

    #[test]
    fn stage_prepare_bumps_the_ust_and_partitions_by_lane() {
        let p = pipeline(4);
        let writes: Vec<WriteSetEntry> = (0..64u64)
            .map(|k| WriteSetEntry::new(Key(k), Value(k.to_le_bytes().to_vec())))
            .collect();
        let staged = p.stage_prepare(ts(50), &writes);
        assert_eq!(staged.ust, ts(50), "Alg. 3 line 11 ran off-loop");
        assert_eq!(p.frontier.ust(), ts(50));
        assert_eq!(staged.lanes_touched(), 4, "64 dense keys span every lane");
        assert_eq!(p.stats().staged_prepares(), 1);
        let narrow = p.stage_prepare(ts(40), &writes[..1]);
        assert_eq!(narrow.ust, ts(50), "UST is monotone");
        assert_eq!(narrow.lanes_touched(), 1);
    }

    #[test]
    fn apply_routes_every_write_to_its_key_shard_lane() {
        let p = pipeline(4);
        for k in 0..32 {
            assert_eq!(
                p.lane_of(Key(k)),
                p.store.shard_index(Key(k)) % 4,
                "lane = shard mod lanes"
            );
        }
    }

    #[test]
    fn apply_replicated_installs_every_version_once() {
        let p = pipeline(4);
        let batch = vec![rtx(1, 10, &[1, 2, 3]), rtx(2, 20, &[2, 40, 41])];
        assert_eq!(p.apply_replicated(&batch), 6);
        assert_eq!(p.apply_replicated(&batch), 0, "re-delivery is idempotent");
        assert_eq!(p.stats().lane_applies(), 6);
        assert_eq!(p.stats().lane_batches(), 2);
        for (k, ct) in [(1, 10), (2, 20), (3, 10), (40, 20), (41, 20)] {
            let v = p.store.latest(Key(k)).expect("version installed");
            assert_eq!(v.ut, ts(ct), "freshest ct per key");
        }
    }

    #[test]
    fn same_shard_writes_keep_batch_ct_order() {
        // One lane: every write serializes through it, and the chain
        // (retained newest-first) must hold every version in ct order.
        let p = pipeline(1);
        let batch = vec![rtx(1, 10, &[7]), rtx(2, 20, &[7]), rtx(3, 30, &[7])];
        assert_eq!(p.apply_replicated(&batch), 3);
        let chain: Vec<u64> = p
            .store
            .chain(Key(7))
            .expect("chain exists")
            .iter()
            .map(|v| v.ut.physical_micros())
            .collect();
        assert_eq!(chain, vec![30, 20, 10]);
    }

    #[test]
    fn concurrent_lane_holders_exclude_each_other() {
        let p = Arc::new(pipeline(2));
        let guard = p.acquire(0);
        let p2 = Arc::clone(&p);
        let other = std::thread::spawn(move || {
            // Lane 1 is free: acquiring it must not block on lane 0.
            let g = p2.acquire(1);
            drop(g);
        });
        other.join().expect("disjoint lane acquired while 0 held");
        drop(guard);
        let g = p.acquire(0);
        drop(g);
    }
}
