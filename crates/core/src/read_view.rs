//! The published snapshot-read view: Algorithm 3 slice reads served off
//! the server loop.
//!
//! A [`ReadView`] is a cheap cloneable handle onto a server's shared
//! state — the sharded storage [`Engine`] and the atomic
//! [`StableFrontier`] — that executes the read half of Algorithm 3
//! (`ust ← max(ust, snapshot)`, then the freshest version `≤ snapshot`
//! per key) **without entering the single-writer state machine**. Any
//! number of threads may serve reads through views of the same server
//! concurrently; this is the paper's *parallel non-blocking read*
//! property made concrete:
//!
//! * reads never take the server lock, so they cannot queue behind
//!   commits, replication batches or gossip ticks;
//! * the snapshot is universally stable (`snapshot ≤ UST` at the
//!   coordinator that assigned it), so every version the read needs is
//!   already installed — no waiting, by construction;
//! * safety against the one mutation reads can race — garbage
//!   collection — comes from the frontier: each view read registers its
//!   snapshot (GC honors the oldest in-flight read), and a read below
//!   the published `S_old` is rejected with [`StaleSnapshot`] so the
//!   authoritative single-writer loop serves it instead.
//!
//! The deterministic backends (mini, sim) call the same `serve_slice`
//! synchronously from the cohort handler, so one code path is exercised
//! by every substrate and the cross-backend agreement tests keep their
//! teeth.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use paris_proto::{Endpoint, Envelope, Msg, ReadResult};
use paris_storage::{Engine, StableFrontier, StaleSnapshot};
use paris_types::{ClientId, Key, Mode, ServerId, Timestamp, TxId, Version};

use crate::server::{ReportTable, RootsTable, TxTable};

/// Read-path counters, shared between a server and all its views.
#[derive(Debug, Default)]
pub struct ReadViewStats {
    /// Slice reads served through views (off- or on-loop).
    pub(crate) slice_reads: AtomicU64,
    /// Keys returned by view-served slice reads.
    pub(crate) keys_read: AtomicU64,
    /// Reads rejected because their snapshot fell below `S_old`.
    pub(crate) stale_rejections: AtomicU64,
    /// Transactions started through views (pooled snapshot assignment).
    pub(crate) start_txs: AtomicU64,
    /// Read-only transactions committed through views (context dropped
    /// off the server loop).
    pub(crate) read_only_commits: AtomicU64,
    /// Stabilization child reports folded through views (off-loop
    /// `GstReport` handling).
    pub(crate) gst_reports: AtomicU64,
    /// Whole coalesced `GossipDigest`s folded through views (off-loop
    /// digest handling).
    pub(crate) gossip_digests: AtomicU64,
    /// Logical frames carried inside those digests (the server folds
    /// this into its `coalesced_frames` counter).
    pub(crate) digest_frames: AtomicU64,
}

impl ReadViewStats {
    /// Slice reads served through views so far.
    pub fn slice_reads(&self) -> u64 {
        self.slice_reads.load(Ordering::Relaxed)
    }

    /// Keys served through views so far.
    pub fn keys_read(&self) -> u64 {
        self.keys_read.load(Ordering::Relaxed)
    }

    /// Stale-snapshot rejections so far.
    pub fn stale_rejections(&self) -> u64 {
        self.stale_rejections.load(Ordering::Relaxed)
    }

    /// Transactions started through views (pooled snapshot assignment) so
    /// far.
    pub fn start_txs(&self) -> u64 {
        self.start_txs.load(Ordering::Relaxed)
    }

    /// Read-only transactions committed through views so far.
    pub fn read_only_commits(&self) -> u64 {
        self.read_only_commits.load(Ordering::Relaxed)
    }

    /// Stabilization child reports folded through views so far.
    pub fn gst_reports(&self) -> u64 {
        self.gst_reports.load(Ordering::Relaxed)
    }

    /// Whole gossip digests folded through views so far.
    pub fn gossip_digests(&self) -> u64 {
        self.gossip_digests.load(Ordering::Relaxed)
    }

    /// Logical frames carried inside view-folded digests so far.
    pub fn digest_frames(&self) -> u64 {
        self.digest_frames.load(Ordering::Relaxed)
    }
}

/// A concurrently-usable handle serving Algorithm 3 snapshot reads from a
/// server's published state. Obtain one with
/// [`Server::read_view`](crate::Server::read_view); clone it freely — all
/// clones share the same store, frontier and counters.
#[derive(Debug, Clone)]
pub struct ReadView {
    id: ServerId,
    mode: Mode,
    store: Arc<dyn Engine>,
    frontier: Arc<StableFrontier>,
    stats: Arc<ReadViewStats>,
    tx_table: Arc<TxTable>,
    child_reports: Arc<ReportTable>,
    dc_roots: Arc<RootsTable>,
}

impl ReadView {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: ServerId,
        mode: Mode,
        store: Arc<dyn Engine>,
        frontier: Arc<StableFrontier>,
        stats: Arc<ReadViewStats>,
        tx_table: Arc<TxTable>,
        child_reports: Arc<ReportTable>,
        dc_roots: Arc<RootsTable>,
    ) -> Self {
        ReadView {
            id,
            mode,
            store,
            frontier,
            stats,
            tx_table,
            child_reports,
            dc_roots,
        }
    }

    /// The server this view reads from.
    pub fn server(&self) -> ServerId {
        self.id
    }

    /// The server's published universal stable time.
    pub fn ust(&self) -> Timestamp {
        self.frontier.ust()
    }

    /// The server's published GC horizon.
    pub fn s_old(&self) -> Timestamp {
        self.frontier.s_old()
    }

    /// The shared read-path counters.
    pub fn stats(&self) -> &ReadViewStats {
        &self.stats
    }

    /// Serves one `ReadSliceReq` (Alg. 3 lines 1–8): bumps the published
    /// UST to the snapshot (PaRiS only — BPR snapshots are fresh, not
    /// stable, and must never drag the UST forward), reads the freshest
    /// version `≤ snapshot` of every key, and returns the
    /// `ReadSliceResp` envelope ready to send.
    ///
    /// # Errors
    ///
    /// Returns [`StaleSnapshot`] when the snapshot is below the published
    /// `S_old`: the caller must punt the request to the server loop,
    /// which serializes with GC and stays authoritative.
    pub fn serve_slice(
        &self,
        tx: TxId,
        snapshot: Timestamp,
        keys: &[Key],
        reply_to: ServerId,
    ) -> Result<Envelope, StaleSnapshot> {
        let _guard = self.frontier.begin_read(snapshot).inspect_err(|_| {
            self.stats.stale_rejections.fetch_add(1, Ordering::Relaxed);
        })?;
        if self.mode == Mode::Paris {
            // Alg. 3 line 2: ust ← max(ust, snapshot).
            self.frontier.max_ust(snapshot);
        }
        self.stats.slice_reads.fetch_add(1, Ordering::Relaxed);
        self.stats
            .keys_read
            .fetch_add(keys.len() as u64, Ordering::Relaxed);
        let results: Vec<ReadResult> = keys
            .iter()
            .map(|&key| ReadResult {
                key,
                version: self.store.read_at(key, snapshot),
            })
            .collect();
        Ok(Envelope::new(
            self.id,
            reply_to,
            Msg::ReadSliceResp {
                tx,
                partition: self.id.partition,
                results,
            },
        ))
    }

    /// Serves one `StartTxReq` (Alg. 2 lines 1–5) off the server loop:
    /// assigns the PaRiS snapshot (`ust ← max(ust, ust_c)`), registers the
    /// coordinator context in the shared transaction table — atomically
    /// with the snapshot read, so the `S_old` aggregate can never miss it
    /// — and returns the `StartTxResp` envelope ready to send. Snapshot
    /// assignment is read-only with respect to storage, which is why the
    /// read pool may carry it.
    ///
    /// Returns `None` under BPR: fresh snapshots come from the loop's HLC,
    /// so the caller must punt the request to the server state machine
    /// (pools are rejected for BPR at build time; this is the defensive
    /// backstop).
    pub fn serve_start_tx(
        &self,
        client: ClientId,
        client_ust: Timestamp,
        now: u64,
    ) -> Option<Envelope> {
        if self.mode != Mode::Paris {
            return None;
        }
        let (tx, snapshot) =
            self.tx_table
                .begin_paris(self.id, client, &self.frontier, client_ust, now);
        self.stats.start_txs.fetch_add(1, Ordering::Relaxed);
        Some(Envelope::new(
            self.id,
            client,
            Msg::StartTxResp { tx, snapshot },
        ))
    }

    /// Serves one read-only `CommitReq` (empty write set, Alg. 2) off the
    /// server loop: drops the transaction's context and returns the
    /// `CommitResp { ct: 0 }` for its client, or for `src` when the
    /// transaction is unknown — the very table operation the loop's own
    /// handler runs, so both paths reply identically.
    ///
    /// GC-safe: the context leaves under the lock the `S_old` aggregate
    /// reads, and a client sends `CommitReq` only after its last
    /// `ReadResp`, so no slice read of the transaction is still pending.
    pub fn serve_read_only_commit(&self, tx: TxId, src: Endpoint) -> Envelope {
        let resp = self.tx_table.commit_read_only(self.id, tx, src);
        self.stats.read_only_commits.fetch_add(1, Ordering::Relaxed);
        resp
    }

    /// Folds one `GstReport` (a tree child's stabilization aggregate)
    /// into the shared report table, off the server loop. Folding is
    /// read-only with respect to storage and touches only the dedicated
    /// table, so the threaded runtime's read pool can absorb report
    /// frames that would otherwise queue behind commits and replication
    /// batches on the server mailbox. Out-of-order deliveries (racing
    /// pool lanes, or a pool frame racing a loop frame) are handled by
    /// the table's monotone fold — see `server::report_table`.
    ///
    /// Unbatched reports travel through here; with coalescing enabled,
    /// gossip arrives folded inside `GossipDigest` frames, which
    /// [`ReadView::serve_gossip_digest`] absorbs whole.
    pub fn serve_gst_report(
        &self,
        partition: paris_types::PartitionId,
        mins: &[(paris_types::DcId, Timestamp)],
        oldest_active: Timestamp,
    ) {
        self.child_reports.fold(partition, mins, oldest_active);
        self.stats.gst_reports.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds one coalesced `GossipDigest` entirely off the server loop:
    /// child reports into the shared report table, root GSTs into the
    /// shared roots table, and the UST/`S_old` broadcast into the atomic
    /// frontier. Every component is a monotone maximum, so pool delivery
    /// is indistinguishable from in-order loop delivery — the digest
    /// never has to queue behind commits and replication batches.
    ///
    /// Runtimes that record protocol events must keep digests on the
    /// loop instead: the off-loop path cannot stamp `ust_advances` into
    /// the server's [`EventLog`](crate::EventLog).
    pub fn serve_gossip_digest(
        &self,
        reports: &[paris_proto::DigestReport],
        roots: &[(paris_types::DcId, Timestamp, Timestamp)],
        ust: Option<(Timestamp, Timestamp)>,
        frames: u32,
    ) {
        for r in reports {
            self.child_reports
                .fold(r.partition, &r.mins, r.oldest_active);
        }
        for (dc, gst, oldest_active) in roots {
            self.dc_roots.fold_remote(*dc, *gst, *oldest_active);
        }
        if let Some((ust, s_old)) = ust {
            self.frontier.advance_ust(ust);
            self.frontier.advance_s_old(s_old);
        }
        self.stats.gossip_digests.fetch_add(1, Ordering::Relaxed);
        self.stats
            .digest_frames
            .fetch_add(u64::from(frames), Ordering::Relaxed);
    }

    /// Reads one key at `snapshot` through the view (stress tests and
    /// direct embedding; the protocol path is [`ReadView::serve_slice`]).
    ///
    /// # Errors
    ///
    /// Returns [`StaleSnapshot`] when the snapshot is below `S_old`.
    pub fn read_at(&self, key: Key, snapshot: Timestamp) -> Result<Option<Version>, StaleSnapshot> {
        let _guard = self.frontier.begin_read(snapshot)?;
        Ok(self.store.read_at(key, snapshot))
    }

    /// Registers an in-flight read at `snapshot` without serving yet: the
    /// returned guard pins the server's GC horizon at or below `snapshot`
    /// until dropped. [`ReadView::serve_slice`] registers internally; this
    /// is for callers that span multiple reads over one snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`StaleSnapshot`] when the snapshot is already below `S_old`.
    pub fn pin(&self, snapshot: Timestamp) -> Result<paris_storage::ReadGuard, StaleSnapshot> {
        self.frontier.begin_read(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use paris_clock::SimClock;
    use paris_types::{ClusterConfig, DcId, PartitionId};

    use super::*;
    use crate::{Server, ServerOptions, Topology};

    fn server() -> Server {
        let topology = Arc::new(Topology::new(
            ClusterConfig::builder()
                .dcs(2)
                .partitions(2)
                .replication_factor(2)
                .build()
                .unwrap(),
        ));
        Server::new(ServerOptions {
            id: ServerId::new(DcId(0), PartitionId(0)),
            topology,
            clock: Box::new(SimClock::new()),
            mode: Mode::Paris,
            record_events: false,
        })
    }

    /// Everything the coordinator table holds, in a comparable order.
    fn table(s: &Server) -> BTreeMap<TxId, (Timestamp, ClientId, bool, u64)> {
        s.tx_table
            .lock()
            .iter()
            .map(|(tx, c)| {
                (
                    *tx,
                    (c.snapshot, c.client, c.pending.is_some(), c.started_at),
                )
            })
            .collect()
    }

    /// The view's read-only commit and the loop's `CommitReq` handler
    /// with an empty write set give the same reply and leave the same
    /// transaction table, for a known and for an unknown transaction.
    #[test]
    fn view_read_only_commit_matches_the_loop_handler() {
        let (mut on_loop, mut on_view) = (server(), server());
        let client = ClientId::new(DcId(0), 7);
        let stranger = ClientId::new(DcId(0), 8);
        let mut started = Vec::new();
        for s in [&mut on_loop, &mut on_view] {
            let start = Envelope::new(
                client,
                s.id(),
                Msg::StartTxReq {
                    client_ust: Timestamp::from_physical_micros(5),
                },
            );
            // Two open transactions: commit one, leave the other open.
            let txs: Vec<TxId> = (0..2)
                .map(|_| match s.handle(&start, 100).remove(0).msg {
                    Msg::StartTxResp { tx, .. } => tx,
                    other => panic!("expected StartTxResp, got {}", other.kind()),
                })
                .collect();
            started.push(txs);
        }
        assert_eq!(started[0], started[1]);
        let known = started[0][0];
        let unknown = TxId::new(on_loop.id(), 99);
        let view = on_view.read_view();
        for tx in [known, unknown] {
            let req = Envelope::new(
                stranger,
                on_loop.id(),
                Msg::CommitReq {
                    tx,
                    hwt: Timestamp::ZERO,
                    writes: Vec::new(),
                },
            );
            let by_loop = on_loop.handle(&req, 200);
            let by_view = view.serve_read_only_commit(tx, req.src);
            assert_eq!(by_loop, vec![by_view.clone()], "{tx}");
            assert_eq!(table(&on_loop), table(&on_view), "{tx}");
            let expect_to = if tx == known { client } else { stranger };
            assert_eq!(by_view.dst, Endpoint::Client(expect_to), "{tx}");
        }
        assert_eq!(table(&on_view).len(), 1, "the other transaction stays open");
        assert_eq!(view.stats().read_only_commits(), 2);
        assert_eq!(on_loop.read_view().stats().read_only_commits(), 0);
    }
}
