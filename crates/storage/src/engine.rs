//! The storage-engine boundary.
//!
//! Every server owns its partition's store through the [`Engine`] trait:
//! the protocol layers (commit pipeline, read view, replication) only
//! ever see `Arc<dyn Engine>`, so the in-memory store
//! ([`MemEngine`](crate::MemEngine)) and the durable WAL + checkpoint
//! engine ([`DurableEngine`](crate::DurableEngine)) are interchangeable
//! at construction time. The trait is deliberately the exact surface the
//! protocol uses — nothing leaks through it that would pin a caller to
//! one implementation.

use paris_types::{DcId, Key, Timestamp, TxId, Value, Version};

use crate::chain::VersionChain;
use crate::store::StoreStats;

/// Counters describing a durable engine's log and checkpoint activity.
///
/// All zero for purely in-memory engines (which report `None` from
/// [`Engine::durable_stats`]). Byte counts are physical file bytes, so
/// the fault-recovery bench can report WAL overhead per committed
/// transaction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurableStats {
    /// Bytes appended to the write-ahead log since open.
    pub wal_bytes: u64,
    /// Records appended to the write-ahead log since open.
    pub wal_records: u64,
    /// Explicit `fsync` calls issued (0 under `FsyncPolicy::Never`).
    pub wal_syncs: u64,
    /// Checkpoint segment files written since open.
    pub checkpoints: u64,
    /// Bytes written into checkpoint segment files since open.
    pub checkpoint_bytes: u64,
    /// Closed WAL segments deleted after their records froze into a
    /// checkpoint.
    pub segments_pruned: u64,
}

/// The per-update function an [`Engine::apply_batch`] caller feeds its
/// group through: the arguments and result of one [`Engine::apply`].
pub type ApplyFn<'a> = dyn FnMut(Key, Value, Timestamp, TxId, DcId) -> bool + 'a;

/// The storage engine owned by one partition server.
///
/// This is the `update(k, v, ut, id_T)` / snapshot-read target of
/// Alg. 3–4: idempotent version-chain inserts, snapshot reads at a
/// timestamp, and GC below the stable horizon. Implementations must be
/// safe to share across the server loop, the commit pipeline lanes and
/// the read pool (all methods take `&self`).
pub trait Engine: Send + Sync + std::fmt::Debug {
    /// Applies one committed update: inserts version
    /// `⟨k, v, ut, tx, src⟩` into `k`'s chain (Alg. 4, `update`).
    /// Idempotent under replication re-delivery; returns `true` if the
    /// version was new.
    fn apply(&self, key: Key, value: Value, ut: Timestamp, tx: TxId, src: DcId) -> bool;

    /// Applies a group of committed updates as one unit — the batch the
    /// protocol already has: one apply tick at the origin, one inbound
    /// replication frame at a peer (Alg. 4 lines 5–30). `fill` is called
    /// once and passes every update of the group, in apply order, to the
    /// function it is given; each behaves exactly as [`Engine::apply`]
    /// (idempotent, `true` if new). Returns the versions newly inserted.
    ///
    /// Durable engines log the group's new versions with one write and
    /// at most one fsync, all before this returns, so callers publish
    /// the group (watermark, replication) only after it is durable.
    /// `fill` may take locks of its own (the commit pipeline's lanes);
    /// they are released before the log write, but it must never call
    /// back into the engine.
    fn apply_batch(&self, fill: &mut dyn FnMut(&mut ApplyFn<'_>)) -> u64 {
        let mut inserted = 0u64;
        fill(&mut |key, value, ut, tx, src| {
            let new = self.apply(key, value, ut, tx, src);
            inserted += u64::from(new);
            new
        });
        inserted
    }

    /// Snapshot read: the freshest version of `key` with `ut ≤ ts`
    /// (Alg. 3 lines 5–6).
    fn read_at(&self, key: Key, ts: Timestamp) -> Option<Version>;

    /// The freshest version of `key` regardless of snapshot.
    fn latest(&self, key: Key) -> Option<Version>;

    /// A clone of `key`'s chain, if any version was ever applied
    /// (diagnostics, convergence checks; hot paths never clone chains).
    fn chain(&self, key: Key) -> Option<VersionChain>;

    /// Garbage-collects every chain below the oldest-active snapshot
    /// horizon `s_old` (§IV-B). Returns versions removed. Durable
    /// engines also truncate WAL segments whose records are all frozen
    /// into a checkpoint at or below the horizon.
    fn gc(&self, s_old: Timestamp) -> usize;

    /// Visits every (key, chain) pair in unspecified order.
    fn for_each_chain(&self, f: &mut dyn FnMut(Key, &VersionChain));

    /// Current contents/activity counters.
    fn stats(&self) -> StoreStats;

    /// Number of chain shards (the commit pipeline sizes its lanes off
    /// this).
    fn shard_count(&self) -> usize;

    /// Index of the shard holding `key`'s chain (the commit pipeline
    /// partitions write sets by shard to route them onto lanes).
    fn shard_index(&self, key: Key) -> usize;

    /// Offers the engine a chance to freeze the `≤ ust` stable prefix
    /// into a checkpoint. `now_micros` is the server's monotone clock so
    /// checkpoint cadence follows each backend's notion of time (the
    /// deterministic sim passes virtual time). Returns `true` if a
    /// checkpoint was written. No-op for in-memory engines.
    fn maybe_checkpoint(&self, _ust: Timestamp, _now_micros: u64) -> bool {
        false
    }

    /// Durability counters, `None` for engines with no persistent state.
    fn durable_stats(&self) -> Option<DurableStats> {
        None
    }
}
