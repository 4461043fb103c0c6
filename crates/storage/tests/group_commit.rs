//! WAL group commit: [`Engine::apply_batch`] on the durable engine must be
//! indistinguishable from feeding the same updates one by one through
//! [`Engine::apply`] — same chains, same log records, same recovered
//! state — while writing each group once and fsyncing it at most once.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use paris_storage::wal::{self, SegmentWriter, SEGMENT_HEADER_LEN};
use paris_storage::{DurableConfig, DurableEngine, Engine, FsyncPolicy};
use paris_types::{DcId, Key, PartitionId, ServerId, Timestamp, TxId, Value, Version};
use proptest::prelude::*;

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

/// A fresh, empty directory unique to this process and call.
fn tmpdir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "paris-group-commit-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A durable engine that never checkpoints on its own (every test drives
/// the log only).
fn open(dir: &Path, fsync: FsyncPolicy) -> DurableEngine {
    let cfg = DurableConfig::new(dir)
        .fsync(fsync)
        .checkpoint_interval_micros(u64::MAX);
    DurableEngine::open(cfg, 4).expect("engine opens").0
}

fn version(key: u64, val: u8, ut: u64, seq: u64, src: u16) -> Version {
    Version::new(
        Key(key),
        Value(vec![val; 1 + (key as usize % 3)]),
        Timestamp::from_physical_micros(ut),
        TxId::new(ServerId::new(DcId(src), PartitionId(0)), seq),
        DcId(src),
    )
}

/// Applies `group` as one engine group; returns the versions inserted.
fn apply_group(engine: &dyn Engine, group: &[Version]) -> u64 {
    engine.apply_batch(&mut |apply| {
        for v in group {
            apply(v.key, v.value.clone(), v.ut, v.tx, v.src);
        }
    })
}

/// Every retained version, chain order included.
fn chains(engine: &dyn Engine) -> BTreeMap<Key, Vec<Version>> {
    let mut out = BTreeMap::new();
    engine.for_each_chain(&mut |key, chain| {
        out.insert(key, chain.iter().cloned().collect());
    });
    out
}

fn wal(engine: &dyn Engine) -> (u64, u64, u64) {
    let s = engine.durable_stats().expect("durable engine");
    (s.wal_records, s.wal_bytes, s.wal_syncs)
}

/// Groups of versions over a small space, so the same `(key, ut, tx,
/// src)` recurs within and across groups; `redeliver` replays an earlier
/// group whole, the way at-least-once replication re-sends a frame.
fn arb_groups() -> impl Strategy<Value = Vec<(Vec<Version>, Option<usize>)>> {
    let v = (0u64..5, any::<u8>(), 1u64..12, 0u64..3, 0u16..3)
        .prop_map(|(key, val, ut, seq, src)| version(key, val, ut, seq, src));
    proptest::collection::vec(
        (
            proptest::collection::vec(v, 0..8),
            proptest::option::of(0usize..8),
        ),
        1..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn prop_batch_apply_matches_one_by_one_apply_and_recovery(spec in arb_groups()) {
        let mut groups: Vec<Vec<Version>> = Vec::new();
        for (group, redeliver) in spec {
            groups.push(group);
            if let Some(i) = redeliver {
                let again = groups[i % groups.len()].clone();
                groups.push(again);
            }
        }

        let (batch_dir, single_dir) = (tmpdir("batch"), tmpdir("single"));
        let (batched, single) = {
            let batch = open(&batch_dir, FsyncPolicy::Never);
            let one = open(&single_dir, FsyncPolicy::Never);
            let mut inserted = 0;
            for group in &groups {
                inserted += apply_group(&batch, group);
            }
            let mut singles = 0;
            for v in groups.iter().flatten() {
                singles += u64::from(one.apply(v.key, v.value.clone(), v.ut, v.tx, v.src));
            }
            prop_assert_eq!(inserted, singles);
            prop_assert_eq!(chains(&batch), chains(&one));
            let (batch_records, batch_bytes, _) = wal(&batch);
            let (single_records, single_bytes, _) = wal(&one);
            prop_assert_eq!(batch_records, single_records);
            prop_assert_eq!(batch_records, inserted, "one record per new version");
            prop_assert_eq!(batch_bytes, single_bytes, "same records, same bytes");
            (chains(&batch), chains(&one))
        };

        // Both logs recover to the state they were written from.
        let batch = open(&batch_dir, FsyncPolicy::Never);
        let one = open(&single_dir, FsyncPolicy::Never);
        prop_assert_eq!(&chains(&batch), &batched);
        prop_assert_eq!(&chains(&one), &single);
        drop((batch, one));
        let _ = std::fs::remove_dir_all(&batch_dir);
        let _ = std::fs::remove_dir_all(&single_dir);
    }
}

#[test]
fn always_syncs_once_per_group_that_inserted_a_new_version() {
    let dir = tmpdir("always");
    let engine = open(&dir, FsyncPolicy::Always);
    let first: Vec<Version> = (0..5).map(|k| version(k, 1, 10, 1, 0)).collect();

    assert_eq!(apply_group(&engine, &first), 5);
    assert_eq!(wal(&engine).0, 5);
    assert_eq!(wal(&engine).2, 1, "five new versions, one fsync");

    assert_eq!(apply_group(&engine, &first), 0, "a re-delivered group");
    assert_eq!(apply_group(&engine, &[]), 0, "an empty group");
    assert_eq!(wal(&engine).0, 5);
    assert_eq!(
        wal(&engine).2,
        1,
        "all-duplicate and empty groups never sync"
    );

    let mut mixed = first.clone();
    mixed.push(version(9, 2, 20, 2, 1));
    assert_eq!(apply_group(&engine, &mixed), 1);
    assert_eq!(wal(&engine).0, 6);
    assert_eq!(
        wal(&engine).2,
        2,
        "one new version among duplicates: one fsync"
    );

    // `apply` keeps per-call durability.
    let v = version(3, 3, 30, 3, 2);
    assert!(engine.apply(v.key, v.value.clone(), v.ut, v.tx, v.src));
    assert!(!engine.apply(v.key, v.value.clone(), v.ut, v.tx, v.src));
    assert_eq!(wal(&engine).2, 3);
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_group_torn_at_any_byte_recovers_a_record_prefix_of_it() {
    let dir = tmpdir("torn-source");
    let before: Vec<Version> = (0..3).map(|k| version(k, 7, 5, 1, 0)).collect();
    let group: Vec<Version> = (0..5)
        .map(|k| version(10 + k, k as u8, 10 + k, 2, 1))
        .collect();
    let segment = wal::segment_path(&dir, 0);
    let (start, bytes) = {
        let engine = open(&dir, FsyncPolicy::Never);
        apply_group(&engine, &before);
        let start = std::fs::metadata(&segment).unwrap().len() as usize;
        apply_group(&engine, &group);
        (start, std::fs::read(&segment).unwrap())
    };
    // Record boundaries inside the group's single write.
    let mut ends = vec![start];
    for v in &group {
        ends.push(ends.last().unwrap() + wal::encode_record(v).len());
    }
    assert_eq!(*ends.last().unwrap(), bytes.len(), "the group is the tail");
    assert!(start > SEGMENT_HEADER_LEN);

    for cut in start..=bytes.len() {
        let torn = tmpdir("torn");
        std::fs::create_dir_all(&torn).unwrap();
        std::fs::write(wal::segment_path(&torn, 0), &bytes[..cut]).unwrap();
        let cfg = DurableConfig::new(&torn).checkpoint_interval_micros(u64::MAX);
        let (engine, info) = DurableEngine::open(cfg, 4).unwrap();
        // Whole records of the group that fit below the cut survive; the
        // rest, including any partial record, are gone.
        let whole = ends.iter().filter(|&&end| end <= cut).count() - 1;
        assert_eq!(
            info.replayed_records as usize,
            before.len() + whole,
            "cut {cut}"
        );
        assert_eq!(
            info.truncated_bytes as usize,
            cut - ends[whole],
            "cut {cut}"
        );
        for v in &before {
            assert_eq!(engine.latest(v.key).as_ref(), Some(v), "cut {cut}");
        }
        for (i, v) in group.iter().enumerate() {
            let expected = (i < whole).then_some(v);
            assert_eq!(engine.latest(v.key).as_ref(), expected, "cut {cut}");
        }
        drop(engine);
        let _ = std::fs::remove_dir_all(&torn);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn group_encoding_allocates_nothing_per_record() {
    let dir = tmpdir("allocs");
    std::fs::create_dir_all(&dir).unwrap();
    let mut writer = SegmentWriter::create(&dir, 0).unwrap();
    let group: Vec<Version> = (0..32).map(|k| version(k, 9, 100 + k, 4, 2)).collect();
    // The first group sizes the reusable buffer.
    for v in &group {
        writer.stage(v);
    }
    let first = writer.write_group().unwrap();

    let start = allocs();
    for v in &group {
        writer.stage(v);
    }
    let second = writer.write_group().unwrap();
    let append = writer.append(&group[0]).unwrap();
    assert_eq!(
        allocs() - start,
        0,
        "staging, writing and appending reuse one buffer"
    );
    assert_eq!(first, second);
    assert_eq!(append as usize, wal::encode_record(&group[0]).len());
    drop(writer);
    let _ = std::fs::remove_dir_all(&dir);
}
