//! The two places the protocol already batches applies — the origin's
//! apply tick and each inbound replication frame — are one WAL group on
//! a durable server: one write and, under `FsyncPolicy::Always`, one
//! fsync per group, never one per version.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use paris_clock::SimClock;
use paris_core::{
    DurableConfig, DurableStats, FsyncPolicy, Mode, Server, ServerOptions, ServerTuning, Topology,
};
use paris_proto::{Envelope, Msg, ReplicatedTx};
use paris_types::{
    ClusterConfig, DcId, PartitionId, ServerId, Timestamp, TxId, Value, WriteSetEntry,
};

/// Counts allocations made by the current thread, so concurrently
/// running tests do not disturb each other's counts.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// thread-local counter is const-initialized and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Three DCs all replicating both partitions: every server has two peer
/// replicas, i.e. two independent replication sources.
fn topo() -> Arc<Topology> {
    Arc::new(Topology::new(
        ClusterConfig::builder()
            .dcs(3)
            .partitions(2)
            .replication_factor(3)
            .build()
            .unwrap(),
    ))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("paris-durable-group-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Server `(dc, 0)`: durable with `FsyncPolicy::Always` under `dir`, or
/// in-memory when `dir` is `None`.
fn server(topo: &Arc<Topology>, dc: u16, dir: Option<&PathBuf>) -> Server {
    Server::with_tuning(
        ServerOptions {
            id: ServerId::new(DcId(dc), PartitionId(0)),
            topology: Arc::clone(topo),
            clock: Box::new(SimClock::new()),
            mode: Mode::Paris,
            record_events: false,
        },
        ServerTuning {
            durable: dir.map(|d| {
                DurableConfig::new(d)
                    .fsync(FsyncPolicy::Always)
                    .checkpoint_interval_micros(u64::MAX)
            }),
            ..ServerTuning::default()
        },
    )
}

fn wal(s: &Server) -> DurableStats {
    s.durable_stats().expect("durable server")
}

fn writes(topo: &Topology, first: u64, n: u64) -> Vec<WriteSetEntry> {
    (first..first + n)
        .map(|rank| WriteSetEntry::new(topo.key_at(PartitionId(0), rank), Value::filled(8, rank)))
        .collect()
}

/// Prepares and commits one transaction on cohort `s` from a coordinator
/// in the same DC (the cohort half of Alg. 3 lines 9–16).
fn commit(s: &mut Server, seq: u64, writes: Vec<WriteSetEntry>) {
    let coordinator = ServerId::new(s.id().dc, PartitionId(1));
    let tx = TxId::new(coordinator, seq);
    let out = s.handle(
        &Envelope::new(
            coordinator,
            s.id(),
            Msg::PrepareReq {
                tx,
                snapshot: Timestamp::ZERO,
                ht: Timestamp::ZERO,
                writes,
                reply_to: coordinator,
                src_dc: s.id().dc,
            },
        ),
        0,
    );
    let Msg::PrepareResp { proposed, .. } = out[0].msg else {
        panic!("expected PrepareResp");
    };
    s.handle(
        &Envelope::new(coordinator, s.id(), Msg::CommitTx { tx, ct: proposed }),
        0,
    );
}

/// A replication frame from DC `src`: `txs` transactions of two writes.
fn frame(topo: &Topology, src: u16, first_seq: u64, txs: u64) -> (Vec<ReplicatedTx>, Timestamp) {
    let coordinator = ServerId::new(DcId(src), PartitionId(1));
    let txs: Vec<ReplicatedTx> = (first_seq..first_seq + txs)
        .map(|seq| ReplicatedTx {
            tx: TxId::new(coordinator, seq),
            ct: Timestamp::from_physical_micros(1_000 * seq),
            src: DcId(src),
            writes: writes(topo, 2 * seq, 2),
        })
        .collect();
    let watermark = txs.last().expect("non-empty frame").ct;
    (txs, watermark)
}

#[test]
fn origin_apply_tick_is_one_wal_group() {
    let topo = topo();
    let dir = tmpdir("tick");
    let mut s = server(&topo, 0, Some(&dir));
    let k = 4;
    for seq in 0..k {
        commit(&mut s, seq, writes(&topo, 3 * seq, 3));
    }
    let before = wal(&s);
    assert_eq!(
        before.wal_records, 0,
        "commits log nothing until the apply tick"
    );

    let out = s.on_replicate_tick(10);
    let after = wal(&s);
    assert_eq!(
        after.wal_syncs,
        before.wal_syncs + 1,
        "one fsync for the tick"
    );
    assert_eq!(
        after.wal_records,
        before.wal_records + 3 * k,
        "every write logged"
    );
    let shipped = out
        .iter()
        .filter(|e| matches!(&e.msg, Msg::Replicate { txs, .. } if txs.len() == k as usize))
        .count();
    assert_eq!(shipped, 2, "the group goes to both peer replicas");
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn heartbeat_tick_writes_syncs_and_allocates_nothing_for_the_log() {
    let topo = topo();
    let dir = tmpdir("heartbeat");
    let mut durable = server(&topo, 0, Some(&dir));
    let mut mem = server(&topo, 0, None);
    // Warm both up with one heartbeat tick each.
    durable.on_replicate_tick(10);
    mem.on_replicate_tick(10);

    let before = wal(&durable);
    let start = allocs();
    let out = durable.on_replicate_tick(20);
    let durable_allocs = allocs() - start;
    drop(out);
    assert_eq!(wal(&durable), before, "no write, no sync, no record");

    let start = allocs();
    let out = mem.on_replicate_tick(20);
    let mem_allocs = allocs() - start;
    drop(out);
    assert!(mem_allocs > 0, "the counter sees the tick's own envelopes");
    assert_eq!(
        durable_allocs, mem_allocs,
        "a heartbeat tick on a durable server allocates exactly what an in-memory one does"
    );
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn inbound_replicate_batch_syncs_once_per_frame_through_handle() {
    let topo = topo();
    let dir = tmpdir("handle");
    let mut s = server(&topo, 1, Some(&dir));
    let peer = ServerId::new(DcId(0), PartitionId(0));
    let (txs, watermark) = frame(&topo, 0, 1, 3);
    let env = Envelope::new(
        peer,
        s.id(),
        Msg::ReplicateBatch {
            partition: PartitionId(0),
            txs,
            watermark,
            frames: 3,
        },
    );
    s.handle(&env, 0);
    assert_eq!(wal(&s).wal_syncs, 1, "one fsync for the frame");
    assert_eq!(wal(&s).wal_records, 6);
    assert_eq!(s.version_vector()[&DcId(0)], watermark);

    s.handle(&env, 0);
    assert_eq!(
        wal(&s).wal_syncs,
        1,
        "a re-delivered frame inserts nothing, syncs nothing"
    );
    assert_eq!(wal(&s).wal_records, 6);
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn write_pool_halves_with_two_write_threads_sync_once_per_frame() {
    let topo = topo();
    let dir = tmpdir("pool");
    let s = Arc::new(Mutex::new(server(&topo, 0, Some(&dir))));
    let pipeline = s.lock().unwrap().commit_pipeline();
    // Two write threads, one per source DC (per-source FIFO), each
    // running the pool's two halves for two frames: the lane apply off
    // the server lock, then the completion under it.
    let workers: Vec<_> = [1u16, 2]
        .into_iter()
        .map(|src| {
            let (s, pipeline, topo) = (Arc::clone(&s), Arc::clone(&pipeline), Arc::clone(&topo));
            std::thread::spawn(move || {
                for f in 0..2u64 {
                    let (txs, watermark) = frame(&topo, src, 1 + 10 * u64::from(src) + 3 * f, 3);
                    pipeline.apply_replicated(&txs);
                    let mut s = s.lock().unwrap();
                    s.note_remote_applied(DcId(src), PartitionId(0), &txs, watermark, 1, 0);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("write worker");
    }
    let s = s.lock().unwrap();
    assert_eq!(wal(&s).wal_syncs, 4, "two frames from each of two sources");
    assert_eq!(wal(&s).wal_records, 4 * 3 * 2);
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);
}
