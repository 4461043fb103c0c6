//! The one adapter between the benchmark and the library's layer APIs
//! (`clock`, `core`, `proto`, `net`, `storage`). The layer replay, the
//! storage harness and the load generator reach each layer only through
//! here, so a rename in a layer changes this file alone.

use std::path::Path;
use std::sync::Arc;

use paris::core::{ServerOptions, Topology};
use paris::proto::wire;
use paris::storage::wal::SegmentWriter;
use paris::storage::{DurableConfig, DurableEngine, Engine, FsyncPolicy, PartitionStore};
use paris::types::{
    ClientId, ClusterConfig, DcId, Error, Key, Mode, PartitionId, ServerId, Timestamp, Value,
    Version,
};

pub use paris::clock::SimClock;
pub use paris::core::{ClientEvent, ClientRead, ClientSession, ReadSource, ReadStep, Server};
pub use paris::net::batch::{Coalescer, Offer};
pub use paris::proto::{Endpoint, Envelope, Msg};

use crate::replay::Span;

// ------------------------------------------------------------------ core

/// The deployment's placement.
pub fn topology(cfg: ClusterConfig) -> Arc<Topology> {
    Arc::new(Topology::new(cfg))
}

pub fn server_ids(topo: &Topology) -> Vec<ServerId> {
    topo.all_servers()
}

pub fn partitions_in_dc(topo: &Topology, dc: u16) -> Vec<PartitionId> {
    topo.partitions_in_dc(DcId(dc))
}

/// A PaRiS server with default tuning on the shared virtual clock.
pub fn server(id: ServerId, topo: &Arc<Topology>, clock: &SimClock) -> Server {
    Server::new(ServerOptions {
        id,
        topology: Arc::clone(topo),
        clock: Box::new(clock.clone()),
        mode: Mode::Paris,
        record_events: false,
    })
}

/// The session of client `seq` in `dc`, bound to its coordinator.
pub fn session(topo: &Topology, dc: u16, seq: u32) -> ClientSession {
    let id = ClientId::new(DcId(dc), seq);
    ClientSession::new(id, topo.coordinator_for(DcId(dc), seq), Mode::Paris)
}

pub fn handle(server: &mut Server, env: &Envelope, now: u64) -> Vec<Envelope> {
    server.handle(env, now)
}

pub fn replicate_tick(server: &mut Server, now: u64) -> Vec<Envelope> {
    server.on_replicate_tick(now)
}

/// One stabilization step: the tree report, then the UST round.
pub fn stabilize_tick(server: &mut Server, now: u64) -> Vec<Envelope> {
    let mut out = server.on_gst_tick(now);
    out.extend(server.on_ust_tick(now));
    out
}

pub fn gc_tick(server: &mut Server, now: u64) {
    server.on_gc_tick(now);
}

/// The span a server's handling of `msg` is charged to.
pub fn span_of(msg: &Msg) -> Span {
    match msg {
        Msg::StartTxReq { .. } => Span::StartTx,
        Msg::ReadSliceReq { .. } => Span::ReadSlice,
        Msg::PrepareReq { .. } => Span::Prepare,
        Msg::CommitTx { .. } => Span::CommitTx,
        Msg::Replicate { .. } | Msg::Heartbeat { .. } | Msg::ReplicateBatch { .. } => {
            Span::ReplicateApply
        }
        Msg::GstReport { .. }
        | Msg::RootGst { .. }
        | Msg::UstBroadcast { .. }
        | Msg::GossipDigest { .. } => Span::Gossip,
        _ => Span::Coordinator,
    }
}

pub fn begin(s: &mut ClientSession) -> Result<Envelope, Error> {
    s.begin()
}

pub fn read(s: &mut ClientSession, keys: &[Key]) -> Result<ReadStep, Error> {
    s.read(keys)
}

pub fn write(s: &mut ClientSession, writes: &[(Key, Value)]) -> Result<(), Error> {
    s.write(writes)
}

pub fn commit(s: &mut ClientSession) -> Result<Envelope, Error> {
    s.commit()
}

pub fn deliver(s: &mut ClientSession, env: &Envelope) -> Option<ClientEvent> {
    s.handle(env)
}

// ----------------------------------------------------------------- proto

/// Encodes with the deployment's default wire format, as the socket
/// transport frames it.
pub fn encode(env: &Envelope, cfg: &ClusterConfig) -> impl AsRef<[u8]> {
    wire::encode_envelope_with(env, cfg.wire)
}

pub fn decode(bytes: &[u8]) -> Option<Envelope> {
    wire::decode_envelope_auto(bytes).ok()
}

// ------------------------------------------------------------------- net

/// The deployment's default coalescer.
pub fn coalescer(cfg: &ClusterConfig) -> Coalescer {
    Coalescer::new(cfg.batch, cfg.wire)
}

pub fn offer(c: &mut Coalescer, env: Envelope, now: u64) -> Offer {
    c.offer(env, now)
}

pub fn poll(c: &mut Coalescer, now: u64) -> Vec<Envelope> {
    c.poll(now)
}

/// The earliest flush deadline of any queued link.
pub fn next_due(c: &Coalescer) -> Option<u64> {
    c.next_due()
}

// --------------------------------------------------------------- storage

pub fn store() -> PartitionStore {
    PartitionStore::new()
}

pub fn apply(store: &dyn Engine, v: &Version) -> bool {
    store.apply(v.key, v.value.clone(), v.ut, v.tx, v.src)
}

pub fn read_at(store: &dyn Engine, key: Key, ts: Timestamp) -> Option<Version> {
    store.read_at(key, ts)
}

pub fn gc(store: &dyn Engine, horizon: Timestamp) -> usize {
    store.gc(horizon)
}

/// `(versions, keys)` held.
pub fn size(store: &dyn Engine) -> (usize, usize) {
    let s = store.stats();
    (s.versions, s.keys)
}

/// A durable engine under `dir` with the given WAL policy.
pub fn durable(dir: &Path, fsync: FsyncPolicy) -> DurableEngine {
    let cfg = DurableConfig::new(dir).fsync(fsync);
    DurableEngine::open(cfg, paris::storage::DEFAULT_SHARDS)
        .expect("a fresh durable engine opens")
        .0
}

pub fn fsyncs(store: &dyn Engine) -> u64 {
    store.durable_stats().map_or(0, |s| s.wal_syncs)
}

/// A bare WAL segment writer under `dir`.
pub fn wal(dir: &Path) -> SegmentWriter {
    SegmentWriter::create(dir, 0).expect("a fresh WAL segment opens")
}

pub fn wal_append(w: &mut SegmentWriter, v: &Version) {
    w.append(v).expect("WAL append");
}

pub fn wal_sync(w: &mut SegmentWriter) {
    w.sync().expect("WAL sync");
}
