//! Message definitions.

use paris_types::{
    ClientId, DcId, Key, PartitionId, ServerId, Timestamp, TxId, Version, WriteSetEntry,
};

/// A network endpoint: either a partition server or a client session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Endpoint {
    /// A partition server `p_n^m`.
    Server(ServerId),
    /// A client session.
    Client(ClientId),
}

impl Endpoint {
    /// The DC this endpoint lives in.
    pub fn dc(&self) -> DcId {
        match self {
            Endpoint::Server(s) => s.dc,
            Endpoint::Client(c) => c.dc,
        }
    }

    /// The server id, if this endpoint is a server.
    pub fn as_server(&self) -> Option<ServerId> {
        match self {
            Endpoint::Server(s) => Some(*s),
            Endpoint::Client(_) => None,
        }
    }

    /// A stable routing key for this endpoint (Fibonacci-mixed packed
    /// identity). The write-path taps key lanes by **source** with it —
    /// per-src FIFO is what keeps commit-after-prepare and
    /// watermark-after-apply ordering intact when write traffic fans out
    /// over pool lanes — and the deterministic simulator uses the same
    /// key, so every backend shards sources identically.
    pub fn route_key(&self) -> u64 {
        let packed = match self {
            Endpoint::Server(s) => (u64::from(s.dc.0) << 32) | u64::from(s.partition.0),
            Endpoint::Client(c) => (1 << 63) | (u64::from(c.dc.0) << 32) | u64::from(c.seq),
        };
        packed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32
    }
}

impl From<ServerId> for Endpoint {
    fn from(s: ServerId) -> Self {
        Endpoint::Server(s)
    }
}

impl From<ClientId> for Endpoint {
    fn from(c: ClientId) -> Self {
        Endpoint::Client(c)
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Server(s) => write!(f, "{s}"),
            Endpoint::Client(c) => write!(f, "{c}"),
        }
    }
}

/// A message in flight between two endpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Sender.
    pub src: Endpoint,
    /// Receiver.
    pub dst: Endpoint,
    /// Payload.
    pub msg: Msg,
}

impl Envelope {
    /// Creates an envelope.
    pub fn new(src: impl Into<Endpoint>, dst: impl Into<Endpoint>, msg: Msg) -> Self {
        Envelope {
            src: src.into(),
            dst: dst.into(),
            msg,
        }
    }

    /// The server-side pool that may serve this envelope off the server
    /// loop, if any. Only server-bound traffic qualifies. The one
    /// classifier behind the in-process router's taps and the socket
    /// child's demux, so both backends divert exactly the same set.
    pub fn pool_path(&self) -> Option<PoolPath> {
        if !matches!(self.dst, Endpoint::Server(_)) {
            return None;
        }
        match &self.msg {
            Msg::ReadSliceReq { .. }
            | Msg::StartTxReq { .. }
            | Msg::GstReport { .. }
            | Msg::GossipDigest { .. } => Some(PoolPath::Read),
            Msg::CommitReq { writes, .. } if writes.is_empty() => Some(PoolPath::Read),
            Msg::PrepareReq { .. }
            | Msg::CommitTx { .. }
            | Msg::Replicate { .. }
            | Msg::ReplicateBatch { .. }
            | Msg::Heartbeat { .. } => Some(PoolPath::Write),
            _ => None,
        }
    }
}

/// Which pool carries a server-bound message off the server loop (see
/// [`Envelope::pool_path`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolPath {
    /// Served from published state through a `ReadView`: slice reads,
    /// snapshot assignments, read-only commits and stabilization folds.
    /// Any thread may serve them, in any order.
    Read,
    /// The store-touching write path: prepares, commit decisions,
    /// replication frames and heartbeats. Must stay FIFO per source.
    Write,
}

/// Per-key outcome of a slice read: the key may have no version visible in
/// the snapshot (the paper returns only found items; carrying the miss
/// explicitly lets the client distinguish "absent" from "lost").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadResult {
    /// The requested key.
    pub key: Key,
    /// The freshest visible version, if any.
    pub version: Option<Version>,
}

/// One transaction inside a replication batch (Alg. 4 lines 9–16): the
/// updates a replica applied locally and now pushes to its peer replicas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicatedTx {
    /// The transaction id.
    pub tx: TxId,
    /// Its commit timestamp (= update time of every written version).
    pub ct: Timestamp,
    /// Source DC that committed the updates (the coordinator's DC).
    pub src: DcId,
    /// The writes that hit the sending partition.
    pub writes: Vec<WriteSetEntry>,
}

/// One subtree report inside a [`Msg::GossipDigest`]: the freshest
/// `GstReport` a coalescing window saw from one reporting partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestReport {
    /// Reporting partition.
    pub partition: PartitionId,
    /// `(source DC, min VV entry)` per DC the subtree replicates with.
    pub mins: Vec<(DcId, Timestamp)>,
    /// Oldest active snapshot in the subtree.
    pub oldest_active: Timestamp,
}

/// Every PaRiS protocol message.
///
/// Naming follows the paper's algorithms; the `reply_to` fields make the
/// state machines self-contained (no transport-level correlation needed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msg {
    // ------------------------------------------------------ client ↔ server
    /// Client → coordinator: start a transaction, piggybacking the highest
    /// stable snapshot the client has seen (Alg. 1 line 2).
    StartTxReq {
        /// The client's `ust_c`.
        client_ust: Timestamp,
    },
    /// Coordinator → client: transaction id and assigned snapshot
    /// (Alg. 2 line 5).
    StartTxResp {
        /// Fresh transaction id.
        tx: TxId,
        /// Snapshot timestamp visible to the transaction.
        snapshot: Timestamp,
    },
    /// Client → coordinator: read a set of keys within a transaction
    /// (Alg. 1 line 15).
    ReadReq {
        /// Transaction id.
        tx: TxId,
        /// Keys not satisfied from the client-local sets.
        keys: Vec<Key>,
    },
    /// Coordinator → client: the assembled read results (Alg. 2 line 16).
    ReadResp {
        /// Transaction id.
        tx: TxId,
        /// Per-key results.
        results: Vec<ReadResult>,
    },
    /// Client → coordinator: commit the transaction's buffered writes
    /// (Alg. 1 line 27).
    CommitReq {
        /// Transaction id.
        tx: TxId,
        /// Commit time of the client's previous update transaction
        /// (`hwt_c`), so commit timestamps reflect session order.
        hwt: Timestamp,
        /// The buffered write set.
        writes: Vec<WriteSetEntry>,
    },
    /// Coordinator → client: the commit timestamp (Alg. 2 line 29).
    CommitResp {
        /// Transaction id.
        tx: TxId,
        /// Commit timestamp.
        ct: Timestamp,
    },
    /// Coordinator → client: the operation could not be completed and the
    /// transaction is aborted — in this reproduction this happens only
    /// when *no* replica of a target partition is reachable (§III-C:
    /// "If all replicas of one partition cannot be reached by a DC, then
    /// PaRiS cannot complete remote operations that target that
    /// partition, thus leading to unavailability").
    OpFailed {
        /// Transaction id.
        tx: TxId,
    },

    // ------------------------------------------------------ server ↔ server
    /// Coordinator → cohort: read `keys` at `snapshot` (Alg. 2 line 12).
    /// The cohort may be in any DC that replicates the partition.
    ReadSliceReq {
        /// Transaction id (correlation only).
        tx: TxId,
        /// Snapshot to read at.
        snapshot: Timestamp,
        /// Keys owned by the cohort's partition.
        keys: Vec<Key>,
        /// Coordinator to reply to.
        reply_to: ServerId,
    },
    /// Cohort → coordinator: slice results (Alg. 3 line 8).
    ReadSliceResp {
        /// Transaction id.
        tx: TxId,
        /// Partition that served the slice.
        partition: PartitionId,
        /// Per-key results.
        results: Vec<ReadResult>,
    },
    /// Coordinator → cohort: first phase of 2PC (Alg. 2 line 23).
    PrepareReq {
        /// Transaction id.
        tx: TxId,
        /// Transaction snapshot timestamp.
        snapshot: Timestamp,
        /// `ht`: max(snapshot, client's `hwt`) (Alg. 2 line 19).
        ht: Timestamp,
        /// Writes owned by the cohort's partition.
        writes: Vec<WriteSetEntry>,
        /// Coordinator to reply to.
        reply_to: ServerId,
        /// DC of the committing client/coordinator — recorded as the
        /// version's source (`sr`) consistently at every replica.
        src_dc: DcId,
    },
    /// Cohort → coordinator: proposed prepare timestamp (Alg. 3 line 14).
    PrepareResp {
        /// Transaction id.
        tx: TxId,
        /// Partition that prepared.
        partition: PartitionId,
        /// Proposed commit timestamp.
        proposed: Timestamp,
    },
    /// Coordinator → cohort: second phase of 2PC with the final commit
    /// timestamp (Alg. 2 line 27).
    CommitTx {
        /// Transaction id.
        tx: TxId,
        /// Final commit timestamp (max over proposals).
        ct: Timestamp,
    },
    /// Replica → peer replicas of the same partition: transactions applied
    /// locally, in commit-timestamp order, plus the sender's new version
    /// clock (Alg. 4 lines 15 and 23–30).
    Replicate {
        /// Partition the batch belongs to.
        partition: PartitionId,
        /// Applied transactions, ascending by `ct`.
        txs: Vec<ReplicatedTx>,
        /// Sender's version clock after the batch (`ub`): the receiver may
        /// set `VV[sender] = watermark`, as no later update from the sender
        /// can carry a smaller timestamp.
        watermark: Timestamp,
    },
    /// Replica → peer replicas: version-clock heartbeat in the absence of
    /// updates (Alg. 4 line 21).
    Heartbeat {
        /// Partition the heartbeat belongs to.
        partition: PartitionId,
        /// Sender's version clock.
        watermark: Timestamp,
    },
    /// Several replication-class frames ([`Msg::Replicate`] /
    /// [`Msg::Heartbeat`]) on one link, coalesced into a single wire
    /// message by the batching layer. FIFO channels make the fold exact:
    /// transactions stay in ascending `ct` order across the merged frames
    /// and the surviving watermark is the newest one, so the receiver
    /// applies the batch in one pass and advances the sender's
    /// version-vector entry once.
    ReplicateBatch {
        /// Partition the batch belongs to.
        partition: PartitionId,
        /// Applied transactions, ascending by `ct`, concatenated across
        /// the coalesced frames.
        txs: Vec<ReplicatedTx>,
        /// The newest sender version clock among the coalesced frames.
        watermark: Timestamp,
        /// Number of logical frames folded into this message (accounting:
        /// `frames − 1` wire messages were saved).
        frames: u32,
    },

    // ------------------------------------------------- stabilization tree
    /// Tree child → parent (within a DC): the child's aggregated minimum of
    /// version-vector entries per source DC, and the subtree's oldest
    /// active snapshot (for GC).
    GstReport {
        /// Reporting partition.
        partition: PartitionId,
        /// `(source DC, min VV entry)` for every DC the subtree's
        /// partitions replicate with.
        mins: Vec<(DcId, Timestamp)>,
        /// Oldest snapshot of any transaction running in the subtree
        /// (or the reporter's stable time if none).
        oldest_active: Timestamp,
    },
    /// DC root → other DC roots: this DC's Global Stable Time — the minimum
    /// over its GSV entries — plus the DC's oldest active snapshot.
    RootGst {
        /// Originating DC.
        dc: DcId,
        /// min over the DC's Global Stabilization Vector.
        gst: Timestamp,
        /// Oldest active snapshot in the DC.
        oldest_active: Timestamp,
    },
    /// DC root → all servers in the DC (down the tree): the new universal
    /// stable time and GC horizon.
    UstBroadcast {
        /// Universal stable time: every partition in every DC has
        /// installed a snapshot at least this fresh.
        ust: Timestamp,
        /// GC horizon `S_old`: oldest snapshot visible to any running
        /// transaction, system-wide.
        s_old: Timestamp,
    },
    /// Stabilization-class frames ([`Msg::GstReport`] / [`Msg::RootGst`] /
    /// [`Msg::UstBroadcast`]) on one link, coalesced into a digest.
    /// Every component is monotonic and its handler keeps only the
    /// freshest value, so the fold keeps the latest report per partition,
    /// the latest GST per DC and the maximum UST — semantically identical
    /// to delivering the frames individually, in order.
    GossipDigest {
        /// Freshest subtree report per reporting partition (tree edges).
        reports: Vec<DigestReport>,
        /// Freshest `(dc, gst, oldest_active)` per DC (root exchange).
        roots: Vec<(DcId, Timestamp, Timestamp)>,
        /// Freshest `(ust, s_old)` broadcast, if any was coalesced.
        ust: Option<(Timestamp, Timestamp)>,
        /// Number of logical frames folded into this message.
        frames: u32,
    },
}

impl Msg {
    /// Short human-readable tag, for traces and stats.
    pub fn kind(&self) -> &'static str {
        match self {
            Msg::StartTxReq { .. } => "StartTxReq",
            Msg::StartTxResp { .. } => "StartTxResp",
            Msg::ReadReq { .. } => "ReadReq",
            Msg::ReadResp { .. } => "ReadResp",
            Msg::CommitReq { .. } => "CommitReq",
            Msg::CommitResp { .. } => "CommitResp",
            Msg::OpFailed { .. } => "OpFailed",
            Msg::ReadSliceReq { .. } => "ReadSliceReq",
            Msg::ReadSliceResp { .. } => "ReadSliceResp",
            Msg::PrepareReq { .. } => "PrepareReq",
            Msg::PrepareResp { .. } => "PrepareResp",
            Msg::CommitTx { .. } => "CommitTx",
            Msg::Replicate { .. } => "Replicate",
            Msg::Heartbeat { .. } => "Heartbeat",
            Msg::ReplicateBatch { .. } => "ReplicateBatch",
            Msg::GstReport { .. } => "GstReport",
            Msg::RootGst { .. } => "RootGst",
            Msg::UstBroadcast { .. } => "UstBroadcast",
            Msg::GossipDigest { .. } => "GossipDigest",
        }
    }

    /// Whether this is a background (stabilization/replication) message as
    /// opposed to foreground transaction traffic.
    pub fn is_background(&self) -> bool {
        matches!(
            self,
            Msg::Replicate { .. }
                | Msg::Heartbeat { .. }
                | Msg::ReplicateBatch { .. }
                | Msg::GstReport { .. }
                | Msg::RootGst { .. }
                | Msg::UstBroadcast { .. }
                | Msg::GossipDigest { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paris_types::Value;

    #[test]
    fn endpoint_dc_and_conversions() {
        let s = ServerId::new(DcId(1), PartitionId(2));
        let c = ClientId::new(DcId(3), 4);
        assert_eq!(Endpoint::from(s).dc(), DcId(1));
        assert_eq!(Endpoint::from(c).dc(), DcId(3));
        assert_eq!(Endpoint::from(s).as_server(), Some(s));
        assert_eq!(Endpoint::from(c).as_server(), None);
    }

    #[test]
    fn endpoint_display() {
        let s = Endpoint::from(ServerId::new(DcId(1), PartitionId(2)));
        assert_eq!(s.to_string(), "dc1/p2");
        let c = Endpoint::from(ClientId::new(DcId(0), 9));
        assert_eq!(c.to_string(), "c0.9");
    }

    #[test]
    fn envelope_new_converts_endpoints() {
        let s = ServerId::new(DcId(0), PartitionId(0));
        let c = ClientId::new(DcId(0), 1);
        let env = Envelope::new(
            c,
            s,
            Msg::StartTxReq {
                client_ust: Timestamp::ZERO,
            },
        );
        assert_eq!(env.src, Endpoint::Client(c));
        assert_eq!(env.dst, Endpoint::Server(s));
    }

    #[test]
    fn msg_kind_covers_background_classification() {
        let hb = Msg::Heartbeat {
            partition: PartitionId(0),
            watermark: Timestamp::ZERO,
        };
        assert_eq!(hb.kind(), "Heartbeat");
        assert!(hb.is_background());

        let rr = Msg::ReadReq {
            tx: TxId::new(ServerId::new(DcId(0), PartitionId(0)), 1),
            keys: vec![Key(1)],
        };
        assert_eq!(rr.kind(), "ReadReq");
        assert!(!rr.is_background());
    }

    #[test]
    fn pool_path_splits_server_bound_traffic() {
        let s = ServerId::new(DcId(0), PartitionId(0));
        let c = ClientId::new(DcId(0), 1);
        let tx = TxId::new(s, 1);
        let commit = |writes| Msg::CommitReq {
            tx,
            hwt: Timestamp::ZERO,
            writes,
        };
        let start = Msg::StartTxReq {
            client_ust: Timestamp::ZERO,
        };
        let hb = Msg::Heartbeat {
            partition: PartitionId(0),
            watermark: Timestamp::ZERO,
        };
        let path = |src: Endpoint, dst: Endpoint, msg| Envelope { src, dst, msg }.pool_path();
        assert_eq!(
            path(c.into(), s.into(), start.clone()),
            Some(PoolPath::Read)
        );
        assert_eq!(
            path(c.into(), s.into(), commit(vec![])),
            Some(PoolPath::Read)
        );
        assert_eq!(path(s.into(), s.into(), hb.clone()), Some(PoolPath::Write));
        // A commit with writes runs 2PC on the loop.
        let writes = vec![WriteSetEntry::new(Key(1), Value::from("x"))];
        assert_eq!(path(c.into(), s.into(), commit(writes)), None);
        assert_eq!(
            path(s.into(), s.into(), Msg::ReadReq { tx, keys: vec![] }),
            None
        );
        // Client-bound traffic is never pooled.
        assert_eq!(path(s.into(), c.into(), start), None);
        assert_eq!(path(s.into(), c.into(), hb), None);
    }

    #[test]
    fn replicated_tx_holds_batch_fields() {
        let tx = TxId::new(ServerId::new(DcId(0), PartitionId(0)), 1);
        let r = ReplicatedTx {
            tx,
            ct: Timestamp::from_physical_micros(10),
            src: DcId(0),
            writes: vec![WriteSetEntry::new(Key(1), Value::from("x"))],
        };
        assert_eq!(r.writes.len(), 1);
        assert_eq!(r.ct.physical_micros(), 10);
    }
}
