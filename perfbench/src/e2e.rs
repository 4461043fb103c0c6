//! The closed-loop load on the real backend: one benchmark thread, one
//! transaction outstanding, round-robin over one session per DC. Every
//! output is checked as it arrives.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use paris::runtime::Cluster;
use paris::types::{ClientId, Error, Key, Timestamp};
use paris::workload::{TxSpec, WorkloadGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::deploy::{self, Deployment, Workload};
use crate::layers::{self, ClientRead};
use crate::procfs::{self, Group};

/// One generator and seeded RNG per DC session: the same `--seed` gives
/// the same transactions, here and in the layer replay.
pub struct TxSource {
    gens: Vec<(WorkloadGenerator, StdRng)>,
    next: usize,
}

impl TxSource {
    pub fn new(workload: Workload, seed: u64) -> TxSource {
        let topo = layers::topology(deploy::cluster_config());
        let gens = (0..deploy::DCS)
            .map(|dc| {
                let local = layers::partitions_in_dc(&topo, dc);
                let gen = WorkloadGenerator::new(workload.mix(), deploy::PARTITIONS, local);
                let rng = StdRng::seed_from_u64(seed ^ ((u64::from(dc) + 1) << 40));
                (gen, rng)
            })
            .collect();
        TxSource { gens, next: 0 }
    }

    /// The next transaction and the index of the session that runs it.
    pub fn next_tx(&mut self) -> (usize, TxSpec) {
        let s = self.next;
        self.next = (s + 1) % self.gens.len();
        let (gen, rng) = &mut self.gens[s];
        (s, gen.next_tx(rng))
    }
}

/// The per-transaction output checks: a preloaded key always reads a
/// value, and a session reads its own committed writes.
#[derive(Default)]
pub struct Oracle {
    /// Per session: the commit timestamp of its last write to each key.
    own_writes: Vec<HashMap<Key, Timestamp>>,
    pub missing_reads: u64,
    pub ryw_violations: u64,
}

impl Oracle {
    pub fn new(sessions: usize) -> Oracle {
        Oracle {
            own_writes: vec![HashMap::new(); sessions],
            ..Oracle::default()
        }
    }

    /// Checks one transaction's reads; returns whether they all passed.
    pub fn check_reads(&mut self, session: usize, reads: &[ClientRead]) -> bool {
        let mut ok = true;
        for r in reads {
            if r.value.is_none() {
                self.missing_reads += 1;
                ok = false;
            }
            if let Some(&written) = self.own_writes[session].get(&r.key) {
                if r.version.as_ref().is_none_or(|v| v.ut < written) {
                    self.ryw_violations += 1;
                    ok = false;
                }
            }
        }
        ok
    }

    pub fn record_commit(&mut self, session: usize, spec: &TxSpec, ct: Timestamp) {
        for (key, _) in &spec.writes {
            self.own_writes[session].insert(*key, ct);
        }
    }
}

/// Wall-clock stage timings of one traced transaction, in microseconds.
#[derive(Clone, Copy)]
pub struct Stages {
    pub begin: f64,
    pub read: f64,
    pub commit: f64,
    pub total: f64,
}

/// What one measured window produced.
#[derive(Default)]
pub struct Window {
    pub secs: f64,
    pub attempted: u64,
    pub failed: u64,
    pub committed: u64,
    /// Latency of every attempted transaction, in µs; a failed one counts
    /// as infinitely late.
    pub latencies_us: Vec<f64>,
    /// Newest acknowledged commit minus the next snapshot, in µs.
    pub staleness_us: Vec<f64>,
    /// Stage timings (traced windows only).
    pub stages: Vec<Stages>,
    pub cpu_micros: u64,
    pub rss_mb: f64,
    /// Bytes the benchmark and its children passed to `write` calls.
    pub wchar: u64,
    /// CPU ticks the hypervisor stole during the window.
    pub steal_ticks: u64,
    /// Key + value bytes of the committed writes.
    pub user_bytes: u64,
}

impl Window {
    /// All of `windows` as one: samples concatenated, counts summed, the
    /// last window's memory.
    pub fn pool(windows: &[Window]) -> Window {
        let mut out = Window::default();
        for w in windows {
            out.secs += w.secs;
            out.attempted += w.attempted;
            out.failed += w.failed;
            out.committed += w.committed;
            out.latencies_us.extend_from_slice(&w.latencies_us);
            out.staleness_us.extend_from_slice(&w.staleness_us);
            out.stages.extend_from_slice(&w.stages);
            out.cpu_micros += w.cpu_micros;
            out.rss_mb = w.rss_mb;
            out.wchar += w.wchar;
            out.steal_ticks += w.steal_ticks;
            out.user_bytes += w.user_bytes;
        }
        out
    }
}

/// The load generator, its correctness oracle and freshness tracking,
/// persistent across warm-up and measured windows.
pub struct LoadLoop {
    source: TxSource,
    pub oracle: Oracle,
    newest_ack: Timestamp,
}

impl LoadLoop {
    pub fn new(workload: Workload, seed: u64, sessions: usize) -> LoadLoop {
        LoadLoop {
            source: TxSource::new(workload, seed),
            oracle: Oracle::new(sessions),
            newest_ack: Timestamp::ZERO,
        }
    }

    /// Runs the closed loop for `dur` or `max_txs` transactions, whichever
    /// ends first. With `traced`, each call into the facade gets a span.
    pub fn run(
        &mut self,
        dep: &mut Deployment,
        dur: Duration,
        max_txs: u64,
        traced: bool,
    ) -> Window {
        let group = Group::new(&dep.child_pids);
        let mut w = Window::default();
        let cpu0 = group.cpu_micros();
        let steal0 = procfs::steal_ticks();
        let wchar0 = group.wchar();
        let start = Instant::now();
        while w.attempted < max_txs && start.elapsed() < dur {
            let (s, spec) = self.source.next_tx();
            let client = dep.sessions[s];
            let cluster = dep.cluster.as_mut();
            let t0 = Instant::now();
            let outcome = run_tx(cluster, client, &spec, traced);
            let total = t0.elapsed().as_secs_f64() * 1e6;
            w.attempted += 1;
            match outcome {
                Ok(done) => {
                    if self.newest_ack > Timestamp::ZERO {
                        let lag = self.newest_ack.physical_delta_micros(done.snapshot);
                        w.staleness_us.push(lag as f64);
                    }
                    let reads_ok = self.oracle.check_reads(s, &done.reads);
                    if done.ct > Timestamp::ZERO {
                        self.oracle.record_commit(s, &spec, done.ct);
                        self.newest_ack = self.newest_ack.max(done.ct);
                        w.user_bytes += spec
                            .writes
                            .iter()
                            .map(|(_, v)| (8 + v.len()) as u64)
                            .sum::<u64>();
                    }
                    if reads_ok {
                        w.committed += 1;
                        w.latencies_us.push(total);
                    } else {
                        w.failed += 1;
                        w.latencies_us.push(f64::INFINITY);
                    }
                    if let Some([t1, t2, t3]) = done.marks {
                        w.stages.push(Stages {
                            begin: (t1 - t0).as_secs_f64() * 1e6,
                            read: (t2 - t1).as_secs_f64() * 1e6,
                            commit: (t3 - t2).as_secs_f64() * 1e6,
                            total,
                        });
                    }
                }
                Err(_) => {
                    w.failed += 1;
                    w.latencies_us.push(f64::INFINITY);
                    let _ = cluster.reset_client(client);
                }
            }
        }
        w.secs = start.elapsed().as_secs_f64();
        w.cpu_micros = group.cpu_micros().saturating_sub(cpu0);
        w.steal_ticks = procfs::steal_ticks().saturating_sub(steal0);
        w.wchar = group.wchar().saturating_sub(wchar0);
        w.rss_mb = group.rss_mb();
        w
    }
}

struct TxDone {
    snapshot: Timestamp,
    reads: Vec<ClientRead>,
    ct: Timestamp,
    /// Ends of `begin`, `read` and `commit`, when traced.
    marks: Option<[Instant; 3]>,
}

/// One transaction through the facade: begin, read all keys, buffer the
/// writes, commit.
fn run_tx(
    cluster: &mut dyn Cluster,
    client: ClientId,
    spec: &TxSpec,
    traced: bool,
) -> Result<TxDone, Error> {
    let mut txn = cluster.begin(client)?;
    let t1 = traced.then(Instant::now);
    let snapshot = txn.snapshot();
    let reads = if spec.read_keys.is_empty() {
        Vec::new()
    } else {
        txn.read(&spec.read_keys)?
    };
    let t2 = traced.then(Instant::now);
    for (key, value) in &spec.writes {
        txn.write(*key, value.clone());
    }
    let ct = txn.commit()?;
    let marks = match (t1, t2) {
        (Some(t1), Some(t2)) => Some([t1, t2, Instant::now()]),
        _ => None,
    };
    Ok(TxDone {
        snapshot,
        reads,
        ct,
        marks,
    })
}
