//! Transaction-coordinator role (paper Algorithm 2).
//!
//! Coordinator state lives in the shared [`TxTable`](super::TxTable):
//! snapshot assignment (`StartTxReq`) and read-only commits may execute
//! on any thread through
//! [`ReadView::serve_start_tx`](crate::ReadView::serve_start_tx) and
//! [`ReadView::serve_read_only_commit`](crate::ReadView::serve_read_only_commit),
//! while the fan-out bookkeeping below still runs exclusively on the
//! server loop. Each handler takes the table lock once, for a few map
//! operations.

use std::collections::{BTreeMap, HashSet};

use paris_proto::{Envelope, Msg, ReadResult};
use paris_types::{Key, Mode, PartitionId, Timestamp, TxId, WriteSetEntry};

use super::{PendingOp, Server};

impl Server {
    /// `StartTxReq` (Alg. 2 lines 1–5): assign a snapshot and a fresh
    /// transaction id.
    ///
    /// * PaRiS: `ust ← max(ust, ust_c)`, snapshot = `ust` — a stable
    ///   snapshot installed everywhere, hence non-blocking reads. The
    ///   assignment goes through the shared table, atomically with the
    ///   context registration, exactly as the pooled path does.
    /// * BPR: snapshot = `max(ust_c, HLC)` — fresh, but reads must block
    ///   until the serving partition installs it (§V). The HLC belongs to
    ///   the loop, so BPR starts are never pooled.
    pub(super) fn on_start_tx(
        &mut self,
        env: &Envelope,
        client_ust: Timestamp,
        now: u64,
    ) -> Vec<Envelope> {
        let client = match env.src {
            paris_proto::Endpoint::Client(c) => c,
            paris_proto::Endpoint::Server(_) => {
                debug_assert!(false, "StartTxReq from a server");
                return Vec::new();
            }
        };
        let (tx, snapshot) = match self.mode {
            Mode::Paris => {
                self.tx_table
                    .begin_paris(self.id, client, &self.frontier, client_ust, now)
            }
            Mode::Bpr => {
                let snapshot = client_ust.max(self.hlc.peek(&self.clock));
                let tx = self
                    .tx_table
                    .begin_with_snapshot(self.id, client, snapshot, now);
                (tx, snapshot)
            }
        };
        vec![Envelope::new(
            self.id,
            client,
            Msg::StartTxResp { tx, snapshot },
        )]
    }

    /// `ReadReq` (Alg. 2 lines 6–16): fan the keys out to one replica per
    /// partition, local when possible, otherwise the preferred remote DC.
    pub(super) fn on_read_req(
        &mut self,
        env: &Envelope,
        tx: TxId,
        keys: &[Key],
        _now: u64,
    ) -> Vec<Envelope> {
        let mut ctxs = self.tx_table.lock();
        let Some(ctx) = ctxs.get(&tx) else {
            // Unknown transaction (e.g. coordinator restarted): return an
            // empty result so the client does not hang.
            return vec![Envelope::new(
                self.id,
                env.src,
                Msg::ReadResp {
                    tx,
                    results: Vec::new(),
                },
            )];
        };
        debug_assert!(ctx.pending.is_none(), "client issued overlapping ops");
        let snapshot = ctx.snapshot;
        let client = ctx.client;

        // Group keys by partition (Alg. 2 line 9).
        let mut by_partition: BTreeMap<PartitionId, Vec<Key>> = BTreeMap::new();
        for &k in keys {
            by_partition
                .entry(self.topo.partition_of(k))
                .or_default()
                .push(k);
        }
        // Resolve a reachable replica per partition; if any partition has
        // none, the operation cannot complete (§III-C) and the
        // transaction aborts.
        let mut targets = Vec::with_capacity(by_partition.len());
        for partition in by_partition.keys() {
            match self
                .topo
                .reachable_target_dc(*partition, self.id.dc, &self.unreachable)
            {
                Some(dc) => targets.push(paris_types::ServerId::new(dc, *partition)),
                None => {
                    ctxs.remove(&tx);
                    return vec![Envelope::new(self.id, client, Msg::OpFailed { tx })];
                }
            }
        }

        let awaiting: HashSet<PartitionId> = by_partition.keys().copied().collect();
        ctxs.get_mut(&tx).expect("context checked above").pending = Some(PendingOp::Read {
            awaiting,
            results: Vec::new(),
        });

        // One slice request per involved partition, in parallel
        // (Alg. 2 lines 10–15).
        by_partition
            .into_values()
            .zip(targets)
            .map(|(keys, target)| {
                Envelope::new(
                    self.id,
                    target,
                    Msg::ReadSliceReq {
                        tx,
                        snapshot,
                        keys,
                        reply_to: self.id,
                    },
                )
            })
            .collect()
    }

    /// `ReadSliceResp`: accumulate; when all partitions answered, reply to
    /// the client (Alg. 2 line 16).
    pub(super) fn on_read_slice_resp(
        &mut self,
        tx: TxId,
        partition: PartitionId,
        results: &[ReadResult],
        _now: u64,
    ) -> Vec<Envelope> {
        let mut ctxs = self.tx_table.lock();
        let Some(ctx) = ctxs.get_mut(&tx) else {
            return Vec::new(); // stale response for a finished transaction
        };
        let Some(PendingOp::Read {
            awaiting,
            results: acc,
        }) = ctx.pending.as_mut()
        else {
            return Vec::new();
        };
        if !awaiting.remove(&partition) {
            return Vec::new(); // duplicate
        }
        acc.extend_from_slice(results);
        if !awaiting.is_empty() {
            return Vec::new();
        }
        let results = match ctx.pending.take() {
            Some(PendingOp::Read { results, .. }) => results,
            _ => unreachable!("checked above"),
        };
        vec![Envelope::new(
            self.id,
            ctx.client,
            Msg::ReadResp { tx, results },
        )]
    }

    /// `CommitReq` (Alg. 2 lines 17–25): first phase of 2PC.
    ///
    /// Read-only transactions (empty write set) are finalized immediately:
    /// the context is dropped — releasing its snapshot from the GC
    /// aggregate — and the client gets `ct = 0`. That branch is the shared
    /// table's, so [`ReadView::serve_read_only_commit`](crate::ReadView::serve_read_only_commit)
    /// serves it identically off the loop.
    pub(super) fn on_commit_req(
        &mut self,
        env: &Envelope,
        tx: TxId,
        hwt: Timestamp,
        writes: &[WriteSetEntry],
        _now: u64,
    ) -> Vec<Envelope> {
        if writes.is_empty() {
            return vec![self.tx_table.commit_read_only(self.id, tx, env.src)];
        }
        let mut ctxs = self.tx_table.lock();
        let Some(ctx) = ctxs.get(&tx) else {
            return vec![Envelope::new(
                self.id,
                env.src,
                Msg::CommitResp {
                    tx,
                    ct: Timestamp::ZERO,
                },
            )];
        };
        debug_assert!(ctx.pending.is_none(), "client issued overlapping ops");

        // ht: the max timestamp seen by the client (Alg. 2 line 19).
        let snapshot = ctx.snapshot;
        let client = ctx.client;
        let ht = snapshot.max(hwt);

        // Group writes by partition (Alg. 2 line 20).
        let mut by_partition: BTreeMap<PartitionId, Vec<WriteSetEntry>> = BTreeMap::new();
        for w in writes {
            by_partition
                .entry(self.topo.partition_of(w.key))
                .or_default()
                .push(w.clone());
        }
        // Resolve a reachable participant per partition, aborting if some
        // partition has no reachable replica (§III-C).
        let mut participants = Vec::with_capacity(by_partition.len());
        for partition in by_partition.keys() {
            match self
                .topo
                .reachable_target_dc(*partition, self.id.dc, &self.unreachable)
            {
                Some(dc) => participants.push(paris_types::ServerId::new(dc, *partition)),
                None => {
                    ctxs.remove(&tx);
                    return vec![Envelope::new(self.id, client, Msg::OpFailed { tx })];
                }
            }
        }
        let awaiting: HashSet<PartitionId> = by_partition.keys().copied().collect();
        ctxs.get_mut(&tx).expect("context checked above").pending = Some(PendingOp::Commit {
            awaiting,
            participants: participants.clone(),
            max_proposed: Timestamp::ZERO,
        });

        // PrepareReq to each involved partition (Alg. 2 lines 21–25).
        by_partition
            .into_values()
            .zip(participants)
            .map(|(writes, target)| {
                Envelope::new(
                    self.id,
                    target,
                    Msg::PrepareReq {
                        tx,
                        snapshot,
                        ht,
                        writes,
                        reply_to: self.id,
                        src_dc: self.id.dc,
                    },
                )
            })
            .collect()
    }

    /// `PrepareResp`: gather proposals; when all arrived, pick the max as
    /// commit time, notify cohorts and the client (Alg. 2 lines 26–29).
    pub(super) fn on_prepare_resp(
        &mut self,
        tx: TxId,
        partition: PartitionId,
        proposed: Timestamp,
        now: u64,
    ) -> Vec<Envelope> {
        let (participants, ct, client) = {
            let mut ctxs = self.tx_table.lock();
            let Some(ctx) = ctxs.get_mut(&tx) else {
                return Vec::new();
            };
            let Some(PendingOp::Commit {
                awaiting,
                max_proposed,
                ..
            }) = ctx.pending.as_mut()
            else {
                return Vec::new();
            };
            if !awaiting.remove(&partition) {
                return Vec::new(); // duplicate
            }
            *max_proposed = (*max_proposed).max(proposed);
            if !awaiting.is_empty() {
                return Vec::new();
            }

            let (participants, ct) = match ctx.pending.take() {
                Some(PendingOp::Commit {
                    participants,
                    max_proposed,
                    ..
                }) => (participants, max_proposed),
                _ => unreachable!("checked above"),
            };
            let client = ctx.client;
            ctxs.remove(&tx); // Alg. 2 line 28
            (participants, ct, client)
        };
        self.stats.txs_coordinated += 1;
        if let Some(log) = self.events.as_mut() {
            log.commits.push((tx, ct, now));
        }

        let mut out: Vec<Envelope> = participants
            .into_iter()
            .map(|p| Envelope::new(self.id, p, Msg::CommitTx { tx, ct }))
            .collect();
        out.push(Envelope::new(self.id, client, Msg::CommitResp { tx, ct }));
        out
    }

    /// The oldest snapshot among transactions coordinated here, or the
    /// current UST when idle — this server's contribution to the `S_old`
    /// aggregate (§IV-B, garbage collection).
    pub(crate) fn oldest_active_snapshot(&self) -> Timestamp {
        self.tx_table.oldest_active_snapshot(&self.frontier)
    }
}
