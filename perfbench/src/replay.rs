//! The layer replay: the seed's transactions, replayed on one thread
//! through the client session, the servers' handlers and ticks on a
//! virtual clock, the default wire codec (every message is encoded and
//! decoded) and the coalescer. Every call into a layer gets a span that
//! records wall time and allocations; calls, messages, bytes and
//! allocations repeat exactly for a seed.

use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

use paris::types::{ClusterConfig, DcId, Intervals, Key, ServerId, Timestamp, TxId, Version};
use paris::workload::TxSpec;

use crate::alloc;
use crate::deploy::{self, Workload};
use crate::e2e::{Oracle, TxSource};
use crate::layers::{
    self, ClientEvent, ClientRead, ClientSession, Coalescer, Endpoint, Envelope, Offer, ReadSource,
    ReadStep, Server, SimClock,
};

/// A directed link, as the coalescer keys it.
type Link = (Endpoint, Endpoint);

/// Transactions replayed after the set-up load.
pub const REPLAY_TXS: u64 = 3_000;
/// Virtual time between two transactions, in µs (≈ 1 000 tx/s, the
/// order of the real write-mix rate; the ro mix runs ~4x faster).
const TX_STEP_MICROS: u64 = 1_000;
/// Virtual time the set-up load is given to stabilize.
const SETTLE_MICROS: u64 = 100_000;

/// The spans of the replay, one per layer call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Span {
    /// `Server::handle(StartTxReq)`.
    StartTx,
    /// `Server::handle(ReadSliceReq)`.
    ReadSlice,
    /// `Server::handle(PrepareReq)`.
    Prepare,
    /// `Server::handle(CommitTx)`.
    CommitTx,
    /// `Server::handle` of coordinator-side foreground messages.
    Coordinator,
    /// `Server::handle` of replication frames.
    ReplicateApply,
    /// `Server::handle` of stabilization gossip.
    Gossip,
    /// `Server::on_replicate_tick`.
    ReplicateTick,
    /// `Server::on_gst_tick` + `on_ust_tick`.
    StabilizeTick,
    /// `Server::on_gc_tick`.
    GcTick,
    /// Every `ClientSession` call.
    Client,
    /// Wire encode of one envelope.
    Encode,
    /// Wire decode of one envelope.
    Decode,
    /// Coalescer offer / poll.
    Coalesce,
}

impl Span {
    /// Spans inside `paris-core`.
    pub fn is_core(self) -> bool {
        !matches!(self, Span::Encode | Span::Decode | Span::Coalesce)
    }
}

/// Calls, wall time and allocations of one span.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    pub calls: u64,
    pub ns: u64,
    pub allocs: u64,
}

/// Everything one replay measured.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    pub spans: BTreeMap<Span, Cost>,
    pub messages: u64,
    pub bytes: u64,
    /// Virtual µs each coalesced frame waited before its link flushed.
    pub flush_waits: Vec<u64>,
    pub txs: u64,
}

impl Ledger {
    pub fn cost(&self, span: Span) -> Cost {
        self.spans.get(&span).copied().unwrap_or_default()
    }

    /// Sum over the spans `pick` selects.
    pub fn total(&self, pick: impl Fn(Span) -> bool) -> Cost {
        self.spans
            .iter()
            .filter(|(s, _)| pick(**s))
            .fold(Cost::default(), |a, (_, c)| Cost {
                calls: a.calls + c.calls,
                ns: a.ns + c.ns,
                allocs: a.allocs + c.allocs,
            })
    }

    /// The exact counts a same-seed replay must repeat.
    pub fn counts(&self) -> ExactCounts {
        ExactCounts {
            spans: self
                .spans
                .iter()
                .map(|(s, c)| (*s, c.calls, c.allocs))
                .collect(),
            messages: self.messages,
            bytes: self.bytes,
            flush_waits: self.flush_waits.clone(),
        }
    }
}

/// Per span calls and allocations, messages, bytes and flush waits.
#[derive(Debug, PartialEq, Eq)]
pub struct ExactCounts {
    spans: Vec<(Span, u64, u64)>,
    messages: u64,
    bytes: u64,
    flush_waits: Vec<u64>,
}

/// One storage operation the replay caused, in order, for the storage
/// harness.
#[derive(Debug, Clone)]
pub enum StoreOp {
    /// A committed version (set-up load or window).
    Apply(Version),
    /// A server-side snapshot read.
    Read(Key, Timestamp),
}

/// What a replay hands back.
pub struct Outcome {
    pub ledger: Ledger,
    /// Storage operations of the set-up load, then of the window.
    pub load_ops: Vec<StoreOp>,
    pub window_ops: Vec<StoreOp>,
    pub oracle: Oracle,
    /// Codec round trips that did not give back the same envelope, and
    /// operations that failed.
    pub problems: Vec<String>,
}

struct Pump {
    cfg: ClusterConfig,
    intervals: Intervals,
    clock: SimClock,
    now: u64,
    servers: BTreeMap<ServerId, Server>,
    sessions: Vec<ClientSession>,
    coalescer: Coalescer,
    queue: VecDeque<Envelope>,
    events: VecDeque<ClientEvent>,
    /// Offer times of frames waiting in the coalescer, per link.
    waiting: BTreeMap<Link, Vec<u64>>,
    next_replicate: u64,
    next_stabilize: u64,
    next_gc: u64,
    ledger: Ledger,
    problems: Vec<String>,
}

/// Times `f` into `span`.
fn measure<T>(ledger: &mut Ledger, span: Span, f: impl FnOnce() -> T) -> T {
    let a0 = alloc::count();
    let t0 = Instant::now();
    let out = f();
    let ns = t0.elapsed().as_nanos() as u64;
    let c = ledger.spans.entry(span).or_default();
    c.calls += 1;
    c.ns += ns;
    c.allocs += alloc::count() - a0;
    out
}

impl Pump {
    fn new() -> Pump {
        let cfg = deploy::cluster_config();
        let topo = layers::topology(cfg.clone());
        let clock = SimClock::new();
        let now = 1_000;
        clock.advance_to(now);
        let servers = layers::server_ids(&topo)
            .into_iter()
            .map(|id| (id, layers::server(id, &topo, &clock)))
            .collect();
        let sessions = (0..deploy::DCS)
            .map(|dc| layers::session(&topo, dc, 0))
            .collect();
        let intervals = cfg.intervals;
        Pump {
            coalescer: layers::coalescer(&cfg),
            cfg,
            intervals,
            clock,
            now,
            servers,
            sessions,
            queue: VecDeque::new(),
            events: VecDeque::new(),
            waiting: BTreeMap::new(),
            next_replicate: now + intervals.replication_micros,
            next_stabilize: now + intervals.gst_micros,
            next_gc: now + intervals.gc_micros,
            ledger: Ledger::default(),
            problems: Vec::new(),
        }
    }

    /// Advances virtual time by `micros`, stopping at every tick and
    /// coalescer deadline on the way.
    fn advance(&mut self, micros: u64) {
        let end = self.now + micros;
        loop {
            let next = self
                .next_replicate
                .min(self.next_stabilize)
                .min(self.next_gc)
                .min(layers::next_due(&self.coalescer).unwrap_or(u64::MAX))
                .min(end)
                .max(self.now);
            self.now = next;
            self.clock.advance_to(next);
            if self.now == self.next_replicate {
                self.next_replicate += self.intervals.replication_micros;
                self.tick(Span::ReplicateTick);
            }
            if self.now == self.next_stabilize {
                self.next_stabilize += self.intervals.gst_micros;
                self.tick(Span::StabilizeTick);
            }
            if self.now == self.next_gc {
                self.next_gc += self.intervals.gc_micros;
                self.tick(Span::GcTick);
            }
            self.poll();
            self.pump();
            if next == end {
                break;
            }
        }
    }

    fn tick(&mut self, span: Span) {
        let now = self.now;
        let ids: Vec<ServerId> = self.servers.keys().copied().collect();
        for id in ids {
            let server = self.servers.get_mut(&id).expect("known server");
            let out = measure(&mut self.ledger, span, || match span {
                Span::ReplicateTick => layers::replicate_tick(server, now),
                Span::StabilizeTick => layers::stabilize_tick(server, now),
                _ => {
                    layers::gc_tick(server, now);
                    Vec::new()
                }
            });
            for env in out {
                self.route(env);
            }
        }
    }

    /// Hands a server's output to the coalescer, as every transport does.
    fn route(&mut self, env: Envelope) {
        let now = self.now;
        let link = (env.src, env.dst);
        match measure(&mut self.ledger, Span::Coalesce, || {
            layers::offer(&mut self.coalescer, env, now)
        }) {
            Offer::Pass(env) => self.queue.push_back(env),
            Offer::Flush(flushed) => {
                self.waiting.entry(link).or_default().push(now);
                self.sent(flushed);
            }
            Offer::Queued { .. } => self.waiting.entry(link).or_default().push(now),
        }
    }

    fn poll(&mut self) {
        let now = self.now;
        let flushed = measure(&mut self.ledger, Span::Coalesce, || {
            layers::poll(&mut self.coalescer, now)
        });
        self.sent(flushed);
    }

    /// Queues flushed wire messages and closes their frames' waits.
    fn sent(&mut self, flushed: Vec<Envelope>) {
        for env in flushed {
            if let Some(offers) = self.waiting.remove(&(env.src, env.dst)) {
                self.ledger
                    .flush_waits
                    .extend(offers.into_iter().map(|t| self.now - t));
            }
            self.queue.push_back(env);
        }
    }

    /// Delivers queued messages until the system is quiet: each one is
    /// encoded, decoded and handed to its server or session.
    fn pump(&mut self) {
        while let Some(env) = self.queue.pop_front() {
            let bytes = measure(&mut self.ledger, Span::Encode, || {
                layers::encode(&env, &self.cfg)
            });
            let bytes = bytes.as_ref();
            self.ledger.messages += 1;
            self.ledger.bytes += bytes.len() as u64;
            let decoded = measure(&mut self.ledger, Span::Decode, || layers::decode(bytes));
            let Some(decoded) = decoded.filter(|d| *d == env) else {
                self.problems
                    .push(format!("codec round trip changed {:?}", env.msg.kind()));
                continue;
            };
            match decoded.dst {
                Endpoint::Server(id) => {
                    let span = layers::span_of(&decoded.msg);
                    let now = self.now;
                    let Some(server) = self.servers.get_mut(&id) else {
                        continue;
                    };
                    let out = measure(&mut self.ledger, span, || {
                        layers::handle(server, &decoded, now)
                    });
                    for env in out {
                        self.route(env);
                    }
                }
                Endpoint::Client(id) => {
                    let session = &mut self.sessions[usize::from(id.dc.0)];
                    if let Some(ev) = measure(&mut self.ledger, Span::Client, || {
                        layers::deliver(session, &decoded)
                    }) {
                        self.events.push_back(ev);
                    }
                }
            }
        }
    }

    /// Sends a client request and pumps until its completion arrives.
    fn round_trip(&mut self, env: Envelope) -> Option<ClientEvent> {
        self.queue.push_back(env);
        self.pump();
        self.events.pop_front()
    }

    /// One transaction of session `s`: begin, read, write, commit.
    /// Returns the snapshot, the reads and the commit timestamp.
    fn run_tx(&mut self, s: usize, spec: &TxSpec) -> Result<TxRun, String> {
        let session = &mut self.sessions[s];
        let env = measure(&mut self.ledger, Span::Client, || layers::begin(session))
            .map_err(|e| e.to_string())?;
        let Some(ClientEvent::Started { tx, snapshot }) = self.round_trip(env) else {
            return Err("begin did not complete".into());
        };
        let mut reads = Vec::new();
        if !spec.read_keys.is_empty() {
            let session = &mut self.sessions[s];
            let step = measure(&mut self.ledger, Span::Client, || {
                layers::read(session, &spec.read_keys)
            })
            .map_err(|e| e.to_string())?;
            reads = match step {
                ReadStep::Done(reads) => reads,
                ReadStep::Send(env) => match self.round_trip(env) {
                    Some(ClientEvent::ReadDone { reads, .. }) => reads,
                    _ => return Err("read did not complete".into()),
                },
            };
        }
        let session = &mut self.sessions[s];
        if !spec.writes.is_empty() {
            measure(&mut self.ledger, Span::Client, || {
                layers::write(session, &spec.writes)
            })
            .map_err(|e| e.to_string())?;
        }
        let session = &mut self.sessions[s];
        let env = measure(&mut self.ledger, Span::Client, || layers::commit(session))
            .map_err(|e| e.to_string())?;
        let Some(ClientEvent::Committed { ct, .. }) = self.round_trip(env) else {
            return Err("commit did not complete".into());
        };
        Ok(TxRun {
            tx,
            snapshot,
            reads,
            ct,
        })
    }
}

struct TxRun {
    tx: TxId,
    snapshot: Timestamp,
    reads: Vec<ClientRead>,
    ct: Timestamp,
}

/// Records a transaction's storage operations: its server-served reads
/// at the snapshot, and its writes as committed versions.
fn record_ops(ops: &mut Vec<StoreOp>, s: usize, spec: &TxSpec, run: &TxRun) {
    for r in &run.reads {
        if r.source == ReadSource::Server {
            ops.push(StoreOp::Read(r.key, run.snapshot));
        }
    }
    if run.ct > Timestamp::ZERO {
        for (key, value) in &spec.writes {
            ops.push(StoreOp::Apply(Version {
                key: *key,
                value: value.clone(),
                ut: run.ct,
                tx: run.tx,
                src: DcId(s as u16),
            }));
        }
    }
}

/// Replays the set-up load, lets it stabilize, then replays
/// `REPLAY_TXS` transactions of the seed's mix with every span recorded.
pub fn replay(workload: Workload, seed: u64) -> Outcome {
    let mut pump = Pump::new();
    let mut load_ops = Vec::new();
    let keys: Vec<Key> = deploy::all_keys().collect();
    for (i, chunk) in keys.chunks(deploy::LOAD_BATCH as usize).enumerate() {
        let spec = TxSpec {
            read_keys: Vec::new(),
            writes: chunk.iter().map(|&k| (k, deploy::load_value(k))).collect(),
            local: false,
        };
        let s = i % pump.sessions.len();
        match pump.run_tx(s, &spec) {
            Ok(run) => record_ops(&mut load_ops, s, &spec, &run),
            Err(e) => pump.problems.push(format!("set-up load: {e}")),
        }
        pump.advance(TX_STEP_MICROS);
    }
    pump.advance(SETTLE_MICROS);

    pump.ledger = Ledger::default();
    let mut source = TxSource::new(workload, seed);
    let mut oracle = Oracle::new(pump.sessions.len());
    let mut window_ops = Vec::new();
    for _ in 0..REPLAY_TXS {
        let (s, spec) = source.next_tx();
        match pump.run_tx(s, &spec) {
            Ok(run) => {
                oracle.check_reads(s, &run.reads);
                if run.ct > Timestamp::ZERO {
                    oracle.record_commit(s, &spec, run.ct);
                }
                record_ops(&mut window_ops, s, &spec, &run);
            }
            Err(e) => pump.problems.push(format!("replay: {e}")),
        }
        pump.ledger.txs += 1;
        pump.advance(TX_STEP_MICROS);
    }
    Outcome {
        ledger: pump.ledger,
        load_ops,
        window_ops,
        oracle,
        problems: pump.problems,
    }
}
