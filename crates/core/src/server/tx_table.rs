//! The shared coordinator transaction table.
//!
//! PaRiS snapshot assignment (Alg. 2 lines 1–5) is read-only with respect
//! to storage — it reads the published UST — and so is a read-only
//! commit, which only drops the context, so the runtime may serve both
//! on any thread, off the server loop. What they do mutate is
//! coordinator bookkeeping: the fresh transaction id and the
//! `TX[id_T]` context every later operation of the transaction looks up.
//! This table is that bookkeeping, shared (via `Arc`) between the server
//! state machine and its [`ReadView`](crate::ReadView)s:
//!
//! * the id sequence is a lock-free atomic counter;
//! * the context map sits behind a mutex whose critical sections are a
//!   handful of map operations — starts are one per transaction, so the
//!   lock is cold next to the (lock-free) read admission path.
//!
//! # GC safety of off-loop assignment
//!
//! The `S_old` aggregate (§IV-B) must never advance past the snapshot of
//! an active transaction. The loop computes its contribution —
//! [`TxTable::oldest_active_snapshot`] — from this table, so an off-loop
//! start that reads `ust = X` and *then* registers its context would race
//! it: a stabilization tick between the two steps could report a minimum
//! above `X`. The table closes the window by doing both under one lock:
//! [`TxTable::begin_paris`] reads the UST and inserts the context inside
//! the same critical section that `oldest_active_snapshot` takes, and
//! `oldest_active_snapshot` reads its idle fallback (the current UST)
//! inside that section too. Every report therefore either sees the new
//! context or ran entirely before its snapshot was assigned — in which
//! case the reported minimum is at most the UST of that earlier instant,
//! which monotonicity keeps at or below the snapshot.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use paris_proto::{Endpoint, Envelope, Msg};
use paris_storage::StableFrontier;
use paris_types::{ClientId, ServerId, Timestamp, TxId};

use super::TxContext;

/// Coordinator transaction contexts plus the transaction-id sequence,
/// shared between the server loop and its read views. See the module
/// docs.
#[derive(Debug, Default)]
pub(crate) struct TxTable {
    /// Next transaction sequence number (ids are `(server, seq)`).
    next_seq: AtomicU64,
    /// The paper's `TX[id_T]` map (Alg. 2 line 4).
    ctxs: Mutex<HashMap<TxId, TxContext>>,
}

impl TxTable {
    /// Locks the context map for one coordinator operation.
    pub(crate) fn lock(&self) -> MutexGuard<'_, HashMap<TxId, TxContext>> {
        self.ctxs.lock().expect("tx table poisoned")
    }

    /// PaRiS snapshot assignment: `ust ← max(ust, ust_c)`, snapshot =
    /// `ust`, context registered — all in one critical section, so the
    /// `S_old` aggregate can never miss an assigned-but-unregistered
    /// snapshot (module docs). Safe to call from any thread.
    pub(crate) fn begin_paris(
        &self,
        id: ServerId,
        client: ClientId,
        frontier: &StableFrontier,
        client_ust: Timestamp,
        now: u64,
    ) -> (TxId, Timestamp) {
        let mut ctxs = self.lock();
        let snapshot = frontier.max_ust(client_ust);
        let tx = TxId::new(id, self.next_seq.fetch_add(1, Ordering::Relaxed));
        ctxs.insert(
            tx,
            TxContext {
                snapshot,
                client,
                pending: None,
                started_at: now,
            },
        );
        (tx, snapshot)
    }

    /// Registers a context with a precomputed snapshot (the BPR loop path:
    /// fresh snapshots come from the HLC, which only the loop owns).
    pub(crate) fn begin_with_snapshot(
        &self,
        id: ServerId,
        client: ClientId,
        snapshot: Timestamp,
        now: u64,
    ) -> TxId {
        let mut ctxs = self.lock();
        let tx = TxId::new(id, self.next_seq.fetch_add(1, Ordering::Relaxed));
        ctxs.insert(
            tx,
            TxContext {
                snapshot,
                client,
                pending: None,
                started_at: now,
            },
        );
        tx
    }

    /// Finalizes a read-only transaction (`CommitReq` with an empty write
    /// set, Alg. 2): drops its context — releasing its snapshot from the
    /// `S_old` aggregate, under the lock
    /// [`TxTable::oldest_active_snapshot`] takes — and returns the
    /// `CommitResp { ct: 0 }` from `id` to the context's client, or to
    /// `src` when the transaction is unknown (e.g. expired). Safe to call
    /// from any thread: the server loop and read views share it.
    pub(crate) fn commit_read_only(&self, id: ServerId, tx: TxId, src: Endpoint) -> Envelope {
        let ctx = self.lock().remove(&tx);
        debug_assert!(
            ctx.as_ref().is_none_or(|ctx| ctx.pending.is_none()),
            "client issued overlapping ops"
        );
        let to = ctx.map_or(src, |ctx| Endpoint::Client(ctx.client));
        Envelope::new(
            id,
            to,
            Msg::CommitResp {
                tx,
                ct: Timestamp::ZERO,
            },
        )
    }

    /// The oldest snapshot among transactions coordinated here, or the
    /// current UST when idle — this server's contribution to the `S_old`
    /// aggregate (§IV-B). The idle fallback is read under the table lock
    /// so it cannot leapfrog an assignment in progress.
    pub(crate) fn oldest_active_snapshot(&self, frontier: &StableFrontier) -> Timestamp {
        let ctxs = self.lock();
        ctxs.values()
            .map(|c| c.snapshot)
            .min()
            .unwrap_or_else(|| frontier.ust())
    }

    /// Number of open contexts.
    pub(crate) fn len(&self) -> usize {
        self.lock().len()
    }

    /// Drops contexts older than `timeout_micros`; returns how many.
    pub(crate) fn expire(&self, now: u64, timeout_micros: u64) -> usize {
        let mut ctxs = self.lock();
        let before = ctxs.len();
        ctxs.retain(|_, ctx| now.saturating_sub(ctx.started_at) < timeout_micros);
        before - ctxs.len()
    }
}
