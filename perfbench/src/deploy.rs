//! The deployment every workload runs on, and its set-up: build, bulk
//! load of every key through the facade, stabilize.

use std::path::{Path, PathBuf};
use std::time::Instant;

use paris::runtime::{Backend, Cluster, Durability, FsyncPolicy, Paris};
use paris::types::{ClientId, ClusterConfig, Error, Key, Value};
use paris::workload::WorkloadConfig;

/// Data centers.
pub const DCS: u16 = 3;
/// Partitions; with `REPLICATION = 2` each DC holds 4 of the 6.
pub const PARTITIONS: u32 = 6;
/// Replicas per partition.
pub const REPLICATION: u16 = 2;
/// Keys per partition, every one of them written at set-up.
pub const KEYS_PER_PARTITION: u64 = 10_000;
/// Value payload size in bytes (the paper's 8-byte items).
pub const VALUE_SIZE: usize = 8;
/// Keys written per set-up transaction.
pub const LOAD_BATCH: u64 = 250;
/// Stabilization rounds after the bulk load (3–5 make every committed
/// write stable in every DC).
pub const STABILIZE_ROUNDS: usize = 5;

/// The three workloads of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 95:5 read shape without its write, thread backend.
    RoThread,
    /// 50:50 mix over loopback TCP, one process per server.
    RwSocket,
    /// 50:50 mix, thread backend, WAL fsync on every append.
    RwDurable,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "ro_thread" => Some(Workload::RoThread),
            "rw_socket" => Some(Workload::RwSocket),
            "rw_durable" => Some(Workload::RwDurable),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::RoThread => "ro_thread",
            Workload::RwSocket => "rw_socket",
            Workload::RwDurable => "rw_durable",
        }
    }

    /// The transaction mix the generator draws from.
    pub fn mix(self) -> WorkloadConfig {
        let base = match self {
            Workload::RoThread => WorkloadConfig {
                writes_per_tx: 0,
                ..WorkloadConfig::read_heavy()
            },
            Workload::RwSocket | Workload::RwDurable => WorkloadConfig::write_heavy(),
        };
        WorkloadConfig {
            keys_per_partition: KEYS_PER_PARTITION,
            value_size: VALUE_SIZE,
            ..base
        }
    }

    /// The WAL policy the workload's servers run with (`None`: in memory).
    pub fn fsync(self) -> Option<FsyncPolicy> {
        (self == Workload::RwDurable).then_some(FsyncPolicy::Always)
    }
}

/// The cluster shape, for placement questions the benchmark asks itself
/// (which partitions a DC holds).
pub fn cluster_config() -> ClusterConfig {
    ClusterConfig::builder()
        .dcs(DCS)
        .partitions(PARTITIONS)
        .replication_factor(REPLICATION)
        .keys_per_partition(KEYS_PER_PARTITION)
        .value_size(VALUE_SIZE)
        .build()
        .expect("the benchmark deployment is a valid shape")
}

/// Every key of the keyspace, in load order.
pub fn all_keys() -> impl Iterator<Item = Key> {
    (0..u64::from(PARTITIONS) * KEYS_PER_PARTITION).map(Key)
}

/// The value the set-up writes under `key`.
pub fn load_value(key: Key) -> Value {
    Value::filled(VALUE_SIZE, key.0)
}

/// A built, loaded and stabilized deployment.
pub struct Deployment {
    pub cluster: Box<dyn Cluster>,
    /// One session per DC, in DC order.
    pub sessions: Vec<ClientId>,
    /// Server child processes (socket backend only).
    pub child_pids: Vec<u32>,
    /// Declared after `cluster`, so the directory goes only once the
    /// servers writing into it have stopped.
    _data_dir: RemoveOnDrop,
}

/// Removes a durability directory when dropped.
struct RemoveOnDrop(Option<PathBuf>);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        if let Some(dir) = &self.0 {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Builds the deployment of `workload`, bulk-loads every key once and
/// stabilizes. Returns it with the wall time the set-up took.
pub fn set_up(workload: Workload, seed: u64, scratch: &Path) -> Result<(Deployment, f64), Error> {
    let started = Instant::now();
    let builder = Paris::builder()
        .dcs(DCS)
        .partitions(PARTITIONS)
        .replication(REPLICATION)
        .keys_per_partition(KEYS_PER_PARTITION)
        .value_size(VALUE_SIZE)
        .uniform_latency_micros(0)
        .jitter(0.0)
        .clients_per_dc(1)
        .workload(workload.mix())
        .seed(seed);
    let mut data_dir = None;
    let builder = match workload.fsync() {
        Some(policy) => {
            let dir = scratch.join("durable");
            let _ = std::fs::remove_dir_all(&dir);
            data_dir = Some(dir.clone());
            builder.durability(Durability::new(dir).fsync(policy))
        }
        None => builder,
    };
    let (cluster, child_pids): (Box<dyn Cluster>, Vec<u32>) = match workload {
        Workload::RwSocket => {
            let cluster = builder.backend(Backend::Socket).build_socket()?;
            let pids = cluster.server_pids();
            (Box::new(cluster), pids)
        }
        Workload::RoThread | Workload::RwDurable => (
            Box::new(builder.backend(Backend::Thread).build_thread()?),
            Vec::new(),
        ),
    };
    let mut dep = Deployment {
        cluster,
        sessions: Vec::new(),
        child_pids,
        _data_dir: RemoveOnDrop(data_dir),
    };
    for dc in 0..DCS {
        let id = dep.cluster.open_client(dc)?;
        dep.sessions.push(id);
    }
    bulk_load(&mut dep)?;
    dep.cluster.stabilize(STABILIZE_ROUNDS);
    Ok((dep, started.elapsed().as_secs_f64()))
}

/// Writes every key once, `LOAD_BATCH` keys per transaction, round-robin
/// over the sessions.
fn bulk_load(dep: &mut Deployment) -> Result<(), Error> {
    let keys: Vec<Key> = all_keys().collect();
    for (i, chunk) in keys.chunks(LOAD_BATCH as usize).enumerate() {
        let client = dep.sessions[i % dep.sessions.len()];
        let mut txn = dep.cluster.begin(client)?;
        for &key in chunk {
            txn.write(key, load_value(key));
        }
        txn.commit()?;
    }
    Ok(())
}
