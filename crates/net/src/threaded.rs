//! Real multi-threaded in-process transport.
//!
//! Endpoints register an inbox; a *delay wheel* thread injects the same
//! WAN latencies as the simulated network (optionally scaled down so tests
//! run fast) while preserving per-link FIFO order. This substrate runs the
//! protocol state machines under genuine concurrency and is what the
//! integration tests use to catch races the deterministic simulator
//! cannot.
//!
//! **Inline intra-DC delivery.** Handing an envelope to the wheel costs a
//! thread hand-off, which is more than a scaled intra-DC link's delay
//! (250 µs × 0.01 = 2.5 µs by default). So [`NetHandle::send`] delivers
//! an envelope itself — waits out its jittered delay on the sending
//! thread, then delivers through the same taps and inboxes as the wheel —
//! when its source and destination share a DC whose worst-case scaled
//! intra-DC delay is below [`INLINE_MAX_DELAY_MICROS`], unless it is
//! coalescable background traffic while batching is on. Everything else
//! takes the wheel: all cross-DC traffic, coalesced frames, and
//! intra-DC links slow enough to be worth modelling (e.g. `scale = 1.0`).
//! Link faults ([`LinkControl`]) only ever touch cross-DC links, so they
//! never need the inline path. Per-link FIFO holds because the path an
//! envelope takes is a function of its link and message class, and an
//! inline send returns only after delivery. The one ordering the wheel
//! alone would not produce — a foreground message overtaking a background
//! frame already flushed into the wheel on the same link — is one the
//! coalescer already produces by holding background frames back.
//!
//! **Inline read serving.** A read-path envelope (see
//! [`Envelope::pool_path`]) delivered inline is served on the sending
//! thread too, by the read server the runtime installs with
//! [`Router::set_read_server`], instead of crossing to a read-pool lane:
//! a slice read, a snapshot assignment or a read-only commit is served
//! from the destination's published state before `send` returns. The
//! wheel's deliveries — all cross-DC traffic and coalesced gossip — keep
//! feeding the read tap's lanes. Since a server may take a server mutex
//! (a stale-snapshot read is punted to the server state machine), **no
//! thread may call [`NetHandle::send`] while holding a server mutex or
//! the registry lock**; the router calls the server with no lock held.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Mutex;

use paris_proto::wire::encoded_len_with;
use paris_proto::{Endpoint, Envelope, PoolPath};
use paris_types::{BatchConfig, DcId, WireFormat};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::batch::{Coalescer, Offer};
use crate::sim::RegionMatrix;

/// Configuration of the threaded transport.
#[derive(Debug, Clone)]
pub struct ThreadedNetConfig {
    /// Inter-DC latency matrix.
    pub matrix: RegionMatrix,
    /// Multiplier applied to every latency (e.g. `0.01` compresses a 70 ms
    /// RTT to 0.7 ms so tests finish quickly while preserving relative
    /// latency structure). A DC whose scaled worst-case intra-DC delay,
    /// `one_way(d, d) × (1 + jitter) × scale`, is below
    /// [`INLINE_MAX_DELAY_MICROS`] has its intra-DC traffic delivered by
    /// the sending thread instead of the delay wheel (see the module docs).
    pub scale: f64,
    /// Jitter fraction (±), applied before scaling.
    pub jitter: f64,
    /// RNG seed for jitter.
    pub seed: u64,
    /// Background-traffic coalescing, applied by the delay wheel before
    /// latency injection. Flush deadlines are wall-clock and *not* scaled
    /// by [`ThreadedNetConfig::scale`].
    pub batch: BatchConfig,
    /// Wire encoding sizing the router's byte accounting (the in-process
    /// wheel never serializes, but reports what the traffic would cost).
    pub wire: WireFormat,
}

impl ThreadedNetConfig {
    /// A fast-test configuration: `dcs` DCs on the AWS matrix compressed
    /// by 100×, no jitter, no batching.
    pub fn fast(dcs: u16) -> Self {
        ThreadedNetConfig {
            matrix: RegionMatrix::aws_10(dcs),
            scale: 0.01,
            jitter: 0.0,
            seed: 0,
            batch: BatchConfig::DISABLED,
            wire: WireFormat::default(),
        }
    }
}

/// Worst-case scaled intra-DC delay, in microseconds, below which
/// [`NetHandle::send`] delivers intra-DC traffic from the sending thread
/// instead of through the delay wheel. The wheel's extra thread hand-off
/// costs about this much per message on its own (a router ping-pong took
/// a median 39 µs per round trip against 18 µs over a bare channel, on a
/// 2-vCPU x86 host), so a shorter link delay is not worth modelling there.
pub const INLINE_MAX_DELAY_MICROS: f64 = 10.0;

/// Snapshot of the router's traffic counters: everything scheduled onto
/// the (simulated) wire after coalescing, sized in the configured
/// [`ThreadedNetConfig::wire`] encoding.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Wire messages scheduled.
    pub messages: u64,
    /// Encoded message bytes scheduled.
    pub bytes: u64,
    /// The subset of `bytes` carried by background traffic
    /// (replication, heartbeats, stabilization gossip).
    pub background_bytes: u64,
}

#[derive(Debug, Default)]
struct NetCounters {
    messages: AtomicU64,
    bytes: AtomicU64,
    background_bytes: AtomicU64,
}

impl NetCounters {
    fn record(&self, env: &Envelope, wire: WireFormat) {
        let frame = encoded_len_with(&env.msg, wire) as u64;
        self.messages.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(frame, Ordering::Relaxed);
        if env.msg.is_background() {
            self.background_bytes.fetch_add(frame, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> NetStats {
        NetStats {
            messages: self.messages.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            background_bytes: self.background_bytes.load(Ordering::Relaxed),
        }
    }
}

enum WheelCmd {
    Send {
        env: Envelope,
        sent_at: Instant,
    },
    /// Fault injection: reconfigure one inter-DC link. Shares the command
    /// channel with `Send`, so a partition is totally ordered against the
    /// traffic around it.
    SetLink {
        a: DcId,
        b: DcId,
        op: LinkOp,
    },
    Shutdown,
}

enum LinkOp {
    /// Cut the link; cross-DC traffic on it is held (TCP semantics), not
    /// dropped.
    Partition,
    /// Reconnect the link and schedule everything held, in FIFO order.
    Heal,
    /// Multiply the link's one-way latency by the factor (≤ 1.0 restores
    /// the nominal latency).
    Scale(f64),
}

/// The unordered map key of the `a`–`b` link.
fn link_key(a: DcId, b: DcId) -> (DcId, DcId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Serves one read-path envelope on the thread that delivers it (see
/// [`Router::set_read_server`]).
type ReadServer = Arc<dyn Fn(Envelope) + Send + Sync>;

struct Registry {
    inboxes: HashMap<Endpoint, Sender<Envelope>>,
    read_tap: Option<Tap>,
    write_tap: Option<Tap>,
    /// Serves inline-delivered read-path envelopes on the sending thread.
    read_server: Option<ReadServer>,
    /// Bumped on every tap install and every lane prune. Deliveries run
    /// concurrently (the wheel and every inline sender), so a delivery
    /// whose lane send failed prunes only if the tap is still the one it
    /// picked from — never a healthy lane of a replacement tap, nor one
    /// that a concurrent prune shifted into the dead lane's slot.
    tap_epoch: u64,
}

impl Registry {
    fn tap(&mut self, path: PoolPath) -> &mut Option<Tap> {
        match path {
            PoolPath::Read => &mut self.read_tap,
            PoolPath::Write => &mut self.write_tap,
        }
    }

    /// Where `env` goes: an inline read-path delivery to a registered
    /// server goes to the read server when one is installed; tapped
    /// traffic goes to a lane of its path's tap — round-robin on the read
    /// path, keyed by source on the write path, so all traffic of one
    /// source stays FIFO on one lane (the ordering the commit and
    /// replication handlers rely on); everything else goes to the
    /// destination inbox.
    fn route(&mut self, env: &Envelope, inline: bool) -> Route {
        let path = env.pool_path();
        if inline && path == Some(PoolPath::Read) {
            if let Some(server) = &self.read_server {
                if self.inboxes.contains_key(&env.dst) {
                    return Route::Serve(Arc::clone(server));
                }
            }
        }
        if let Some(path) = path {
            if let Some(tap) = self.tap(path).as_mut() {
                let idx = match path {
                    PoolPath::Read => {
                        let idx = tap.next % tap.lanes.len();
                        tap.next = tap.next.wrapping_add(1);
                        idx
                    }
                    PoolPath::Write => (env.src.route_key() as usize) % tap.lanes.len(),
                };
                return Route::Lane {
                    path,
                    epoch: tap.epoch,
                    idx,
                    lane: tap.lanes[idx].clone(),
                };
            }
        }
        match self.inboxes.get(&env.dst) {
            Some(inbox) => Route::Inbox(inbox.clone()),
            None => Route::Drop,
        }
    }

    /// Removes lane `idx` of the `path` tap after a failed send, unless
    /// the tap changed since the lane was picked (epoch mismatch). The tap
    /// uninstalls when its last lane goes.
    fn prune(&mut self, path: PoolPath, epoch: u64, idx: usize) {
        let next_epoch = self.tap_epoch + 1;
        let slot = self.tap(path);
        let Some(tap) = slot.as_mut().filter(|tap| tap.epoch == epoch) else {
            return;
        };
        tap.lanes.remove(idx);
        tap.epoch = next_epoch;
        if tap.lanes.is_empty() {
            *slot = None;
        }
        self.tap_epoch = next_epoch;
    }
}

/// One delivery's destination, resolved under a single registry lock and
/// acted on after it is released.
enum Route {
    /// The installed read server, called on the delivering thread.
    Serve(ReadServer),
    /// Lane `idx` of the `path` tap as installed at `epoch`.
    Lane {
        path: PoolPath,
        epoch: u64,
        idx: usize,
        lane: Sender<Envelope>,
    },
    /// The destination's inbox.
    Inbox(Sender<Envelope>),
    /// An unregistered destination: the envelope is dropped.
    Drop,
}

/// Fan-out of one path's server-bound deliveries into pool lanes.
struct Tap {
    lanes: Vec<Sender<Envelope>>,
    /// Round-robin cursor (read tap only).
    next: usize,
    epoch: u64,
}

/// The in-process network router.
///
/// Create one [`Router`], [`Router::register`] every endpoint (each gets a
/// private [`Receiver`]), then hand cloned [`NetHandle`]s to the threads
/// that drive servers and clients. Dropping the router shuts the wheel
/// down after draining.
pub struct Router {
    registry: Arc<Mutex<Registry>>,
    wheel_tx: Sender<WheelCmd>,
    wheel: Option<JoinHandle<()>>,
    counters: Arc<NetCounters>,
    inline: Arc<InlinePath>,
}

/// A cheap cloneable sender into the network.
#[derive(Clone)]
pub struct NetHandle {
    wheel_tx: Sender<WheelCmd>,
    inline: Arc<InlinePath>,
}

impl NetHandle {
    /// Sends an envelope; it will be delivered to the destination inbox
    /// after the configured link latency. Messages to unregistered
    /// endpoints are dropped (the destination may have shut down).
    ///
    /// Intra-DC traffic on a fast enough link is delivered before this
    /// returns (see the module docs); everything else is queued on the
    /// delay wheel.
    pub fn send(&self, env: Envelope) {
        let sent_at = Instant::now();
        if let Some(base) = self.inline.base_micros(&env) {
            self.inline.send(env, base, sent_at);
            return;
        }
        // Ignore errors: the wheel is gone only during teardown.
        let _ = self.wheel_tx.send(WheelCmd::Send { env, sent_at });
    }
}

/// The sending-thread half of the router: what [`NetHandle::send`] needs
/// to deliver intra-DC traffic without the wheel.
struct InlinePath {
    /// Per DC: the nominal intra-DC one-way latency in µs when its scaled
    /// worst case is below [`INLINE_MAX_DELAY_MICROS`], `None` otherwise.
    local_base: Vec<Option<f64>>,
    jitter: f64,
    scale: f64,
    wire: WireFormat,
    /// Background traffic is coalesced on the wheel, so it never goes
    /// inline while batching is on.
    batching: bool,
    /// Jitter source, locked only when there is jitter.
    rng: Mutex<StdRng>,
    registry: Arc<Mutex<Registry>>,
    counters: Arc<NetCounters>,
}

impl InlinePath {
    fn new(
        config: &ThreadedNetConfig,
        registry: Arc<Mutex<Registry>>,
        counters: Arc<NetCounters>,
    ) -> Self {
        let local_base = (0..config.matrix.dcs())
            .map(|d| {
                let base = config.matrix.one_way(DcId(d), DcId(d)) as f64;
                let worst = base * (1.0 + config.jitter) * config.scale;
                (worst < INLINE_MAX_DELAY_MICROS).then_some(base)
            })
            .collect();
        InlinePath {
            local_base,
            jitter: config.jitter,
            scale: config.scale,
            wire: config.wire,
            batching: config.batch.is_enabled(),
            rng: Mutex::new(StdRng::seed_from_u64(config.seed)),
            registry,
            counters,
        }
    }

    /// The nominal link latency of `env` if it is delivered inline.
    fn base_micros(&self, env: &Envelope) -> Option<f64> {
        let dc = env.src.dc();
        if dc != env.dst.dc() || (self.batching && Coalescer::is_coalescable(&env.msg)) {
            return None;
        }
        self.local_base.get(dc.index()).copied().flatten()
    }

    /// Counts `env`, waits out its delay and delivers it, all on the
    /// calling thread — a read-path envelope through the installed read
    /// server, if any. The delay is a few µs, far below the sleep
    /// granularity, so the wait spins.
    fn send(&self, env: Envelope, base: f64, sent_at: Instant) {
        self.counters.record(&env, self.wire);
        let delay = link_delay(base, self.jitter, self.scale, || {
            self.rng.lock().expect("jitter rng poisoned").gen::<f64>()
        });
        let due = sent_at + delay;
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        deliver(&self.registry, env, true);
    }
}

/// The delay of one message on a link of nominal one-way latency `base`
/// µs: jittered by `±jitter` (drawing from `unit` only when there is
/// jitter), scaled, and truncated to whole microseconds.
fn link_delay(base: f64, jitter: f64, scale: f64, unit: impl FnOnce() -> f64) -> Duration {
    let jittered = if jitter > 0.0 {
        base * (1.0 + jitter * (unit() * 2.0 - 1.0))
    } else {
        base
    };
    Duration::from_micros((jittered * scale).max(0.0) as u64)
}

/// A cheap cloneable fault-injection handle: link partition, heal and
/// latency scaling, executed by the delay-wheel thread in arrival order
/// relative to the traffic around each command.
///
/// A partitioned link *holds* cross-DC traffic instead of dropping it
/// (the TCP model, matching the simulated network); healing releases the
/// held messages in FIFO order. Intra-DC traffic is never affected.
#[derive(Clone)]
pub struct LinkControl {
    wheel_tx: Sender<WheelCmd>,
}

impl LinkControl {
    /// Cuts the `a`–`b` link (both directions).
    pub fn partition_link(&self, a: DcId, b: DcId) {
        let _ = self.wheel_tx.send(WheelCmd::SetLink {
            a,
            b,
            op: LinkOp::Partition,
        });
    }

    /// Reconnects the `a`–`b` link, releasing held traffic.
    pub fn heal_link(&self, a: DcId, b: DcId) {
        let _ = self.wheel_tx.send(WheelCmd::SetLink {
            a,
            b,
            op: LinkOp::Heal,
        });
    }

    /// Multiplies the `a`–`b` link latency by `factor` (≥ 1.0); `1.0`
    /// restores the nominal latency.
    pub fn set_link_scale(&self, a: DcId, b: DcId, factor: f64) {
        let _ = self.wheel_tx.send(WheelCmd::SetLink {
            a,
            b,
            op: LinkOp::Scale(factor),
        });
    }

    /// Cuts every link between `dc` and the other `dcs` DCs.
    pub fn isolate_dc(&self, dc: DcId, dcs: u16) {
        for other in 0..dcs {
            if DcId(other) != dc {
                self.partition_link(dc, DcId(other));
            }
        }
    }

    /// Reconnects every link between `dc` and the other `dcs` DCs.
    pub fn rejoin_dc(&self, dc: DcId, dcs: u16) {
        for other in 0..dcs {
            if DcId(other) != dc {
                self.heal_link(dc, DcId(other));
            }
        }
    }
}

impl Router {
    /// Starts the router and its delay-wheel thread, and decides once
    /// which DCs' intra-DC traffic is delivered inline (see the module
    /// docs).
    pub fn start(config: ThreadedNetConfig) -> Self {
        let registry = Arc::new(Mutex::new(Registry {
            inboxes: HashMap::new(),
            read_tap: None,
            write_tap: None,
            read_server: None,
            tap_epoch: 0,
        }));
        let (wheel_tx, wheel_rx) = channel::<WheelCmd>();
        let wheel_registry = Arc::clone(&registry);
        let counters = Arc::new(NetCounters::default());
        let wheel_counters = Arc::clone(&counters);
        let inline = Arc::new(InlinePath::new(
            &config,
            Arc::clone(&registry),
            Arc::clone(&counters),
        ));
        let wheel = std::thread::Builder::new()
            .name("paris-net-wheel".into())
            .spawn(move || wheel_loop(config, wheel_rx, wheel_registry, wheel_counters))
            .expect("spawn delay wheel");
        Router {
            registry,
            wheel_tx,
            wheel: Some(wheel),
            counters,
            inline,
        }
    }

    /// Traffic scheduled onto the wire so far (post-coalescing).
    pub fn net_stats(&self) -> NetStats {
        self.counters.snapshot()
    }

    /// Registers an endpoint, returning the inbox it should drain.
    ///
    /// Re-registering an endpoint replaces its inbox (the old receiver
    /// starts reporting disconnection once the sender is dropped).
    pub fn register(&self, endpoint: impl Into<Endpoint>) -> Receiver<Envelope> {
        let (tx, rx) = channel();
        self.registry
            .lock()
            .expect("registry poisoned")
            .inboxes
            .insert(endpoint.into(), tx);
        rx
    }

    /// Removes an endpoint; in-flight messages to it are dropped on
    /// delivery.
    pub fn deregister(&self, endpoint: impl Into<Endpoint>) {
        self.registry
            .lock()
            .expect("registry poisoned")
            .inboxes
            .remove(&endpoint.into());
    }

    /// A sender handle for use by server/client threads.
    pub fn handle(&self) -> NetHandle {
        NetHandle {
            wheel_tx: self.wheel_tx.clone(),
            inline: Arc::clone(&self.inline),
        }
    }

    /// A fault-injection handle (see [`LinkControl`]).
    pub fn link_control(&self) -> LinkControl {
        LinkControl {
            wheel_tx: self.wheel_tx.clone(),
        }
    }

    /// Installs the read tap: from now on, read-path envelopes bound for
    /// *server* endpoints ([`PoolPath::Read`]: `ReadSliceReq` slice
    /// reads, `StartTxReq` snapshot assignments, read-only `CommitReq`s,
    /// unbatched `GstReport` stabilization reports and whole coalesced
    /// `GossipDigest`s, all served against shared (lock-free or
    /// table-folded) state) are delivered round-robin into `lanes` (after
    /// their normal link latency) instead of the destination inbox; the
    /// runtime's read-thread pool drains the lanes and serves them off
    /// the server loop. An inline delivery goes to the read server
    /// instead when one is installed ([`Router::set_read_server`]), so
    /// the lanes then see only the wheel's read-path traffic. All other
    /// traffic is unaffected. A lane that has shut down is
    /// pruned from the tap on first failed delivery (the tap uninstalls
    /// itself when the last lane goes), and the envelope is retried on the
    /// surviving lanes, falling back to the server inbox — so no request
    /// is ever lost and dead lanes are not paid for again. Passing an
    /// empty vector uninstalls the tap.
    pub fn set_read_tap(&self, lanes: Vec<Sender<Envelope>>) {
        self.install_tap(PoolPath::Read, lanes);
    }

    /// Installs the write tap: from now on, write-path envelopes bound
    /// for *server* endpoints ([`PoolPath::Write`]: `PrepareReq`,
    /// `CommitTx`, `Replicate`, `ReplicateBatch` and `Heartbeat`) are
    /// delivered (after their normal link latency) into
    /// `lanes[source.route_key() % lanes]` instead of the destination
    /// inbox; the runtime's write-thread pool drains the lanes and runs
    /// the store-touching half of each off the server loop. Routing is
    /// **source-keyed**, never round-robin: a `CommitTx` must trail its
    /// `PrepareReq` and a watermark its applies, and per-src FIFO on one
    /// lane preserves exactly that. (Coalesced gossip — `GossipDigest` —
    /// is read-path and never write-tapped.) Dead lanes are pruned like
    /// the read tap's — the envelope re-routes by the shrunken lane set, and
    /// when the last lane dies the tap uninstalls and traffic falls back
    /// to the server inboxes. Passing an empty vector uninstalls the
    /// tap.
    pub fn set_write_tap(&self, lanes: Vec<Sender<Envelope>>) {
        self.install_tap(PoolPath::Write, lanes);
    }

    fn install_tap(&self, path: PoolPath, lanes: Vec<Sender<Envelope>>) {
        let mut reg = self.registry.lock().expect("registry poisoned");
        reg.tap_epoch += 1;
        let epoch = reg.tap_epoch;
        *reg.tap(path) = (!lanes.is_empty()).then_some(Tap {
            lanes,
            next: 0,
            epoch,
        });
    }

    /// Installs the read server: from now on, a read-path envelope
    /// ([`PoolPath::Read`]) that [`NetHandle::send`] delivers inline to a
    /// registered server is handed to `server` on the sending thread,
    /// before `send` returns, instead of to a read-tap lane or the inbox.
    /// Wheel deliveries are unaffected and keep feeding the read tap. The
    /// router calls `server` with no lock held; it may send (its replies
    /// re-enter the router) and may take a server mutex, which is why no
    /// thread may send while holding one (see the module docs).
    /// Replaces any server installed before; [`Router`]'s drop removes it,
    /// which breaks the cycle of a server that holds a [`NetHandle`].
    pub fn set_read_server(&self, server: impl Fn(Envelope) + Send + Sync + 'static) {
        // The replaced server is dropped after the lock is released.
        let _replaced = self
            .registry
            .lock()
            .expect("registry poisoned")
            .read_server
            .replace(Arc::new(server));
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        let _ = self.wheel_tx.send(WheelCmd::Shutdown);
        if let Some(h) = self.wheel.take() {
            let _ = h.join();
        }
        // Handles outlive the router and still reach the registry through
        // the inline path: empty it, so inline sends after teardown are
        // dropped like wheel sends and every inbox sees its disconnect.
        // The read server typically holds a handle, which holds the
        // registry, which holds the server: removing it breaks that cycle.
        // It is dropped after the lock is released.
        let _server = self.registry.lock().ok().and_then(|mut reg| {
            reg.inboxes.clear();
            reg.read_tap = None;
            reg.write_tap = None;
            reg.read_server.take()
        });
    }
}

struct Pending {
    due: Instant,
    seq: u64,
    env: Envelope,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

/// The latency-injection state of the wheel: everything needed to turn an
/// accepted envelope into a delayed, per-link-FIFO delivery.
struct WheelState {
    heap: BinaryHeap<Reverse<Pending>>,
    fifo: HashMap<(Endpoint, Endpoint), Instant>,
    rng: StdRng,
    seq: u64,
    counters: Arc<NetCounters>,
    /// Partitioned DC pairs (stored with a ≤ b).
    blocked: HashSet<(DcId, DcId)>,
    /// Traffic held on blocked links, per ordered (src DC, dst DC), FIFO.
    held: HashMap<(DcId, DcId), VecDeque<Envelope>>,
    /// Per-link latency multipliers (stored with a ≤ b); absent = nominal.
    link_scale: HashMap<(DcId, DcId), f64>,
}

impl WheelState {
    fn schedule(&mut self, config: &ThreadedNetConfig, env: Envelope, sent_at: Instant) {
        // Every envelope entering the wheel is one wire message leaving
        // the "NIC" — coalesced traffic was already folded upstream. Held
        // traffic counts as sent (it left the source; the link lost it),
        // matching the simulated network's accounting.
        self.counters.record(&env, config.wire);
        let (sdc, ddc) = (env.src.dc(), env.dst.dc());
        if sdc != ddc && self.blocked.contains(&link_key(sdc, ddc)) {
            self.held.entry((sdc, ddc)).or_default().push_back(env);
            return;
        }
        self.schedule_now(config, env, sent_at);
    }

    /// Latency injection without the partition check — the release path
    /// for healed traffic, which must not be re-held or re-counted.
    fn schedule_now(&mut self, config: &ThreadedNetConfig, env: Envelope, sent_at: Instant) {
        let (sdc, ddc) = (env.src.dc(), env.dst.dc());
        let mut base = config.matrix.one_way(sdc, ddc) as f64;
        if sdc != ddc {
            if let Some(scale) = self.link_scale.get(&link_key(sdc, ddc)) {
                base *= scale;
            }
        }
        let delay = link_delay(base, config.jitter, config.scale, || self.rng.gen::<f64>());
        let link = (env.src, env.dst);
        let natural = sent_at + delay;
        let due = match self.fifo.get(&link) {
            Some(prev) => natural.max(*prev + Duration::from_nanos(1)),
            None => natural,
        };
        self.fifo.insert(link, due);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Pending { due, seq, env }));
    }

    fn set_link(&mut self, config: &ThreadedNetConfig, a: DcId, b: DcId, op: LinkOp) {
        let key = link_key(a, b);
        match op {
            LinkOp::Partition => {
                self.blocked.insert(key);
            }
            LinkOp::Heal => {
                self.blocked.remove(&key);
                let now = Instant::now();
                let mut release = Vec::new();
                if let Some(q) = self.held.remove(&(a, b)) {
                    release.extend(q);
                }
                if let Some(q) = self.held.remove(&(b, a)) {
                    release.extend(q);
                }
                for env in release {
                    self.schedule_now(config, env, now);
                }
            }
            LinkOp::Scale(factor) => {
                if factor > 1.0 {
                    self.link_scale.insert(key, factor);
                } else {
                    self.link_scale.remove(&key);
                }
            }
        }
    }

    /// Shutdown path: nothing may stay held past teardown — heal every
    /// link and schedule all held traffic for delivery.
    fn release_all(&mut self, config: &ThreadedNetConfig) {
        self.blocked.clear();
        let now = Instant::now();
        let mut links: Vec<(DcId, DcId)> = self.held.keys().copied().collect();
        links.sort_unstable();
        for link in links {
            if let Some(q) = self.held.remove(&link) {
                for env in q {
                    self.schedule_now(config, env, now);
                }
            }
        }
    }
}

/// Delivers one envelope: an inline read-path delivery to the read
/// server, tapped traffic (see [`Envelope::pool_path`]) to a pool lane,
/// the rest to the destination inbox. Called by the wheel and by inline
/// senders, concurrently. The registry lock is taken once to resolve the
/// route and released before the envelope moves on. A lane whose receiver
/// is gone is pruned and the envelope re-routed, so no request is lost
/// and later deliveries never pay for a dead lane again.
fn deliver(registry: &Mutex<Registry>, mut env: Envelope, inline: bool) {
    loop {
        let route = registry
            .lock()
            .expect("registry poisoned")
            .route(&env, inline);
        match route {
            Route::Serve(server) => return server(env),
            Route::Inbox(inbox) => {
                let _ = inbox.send(env);
                return;
            }
            Route::Drop => return,
            Route::Lane {
                path,
                epoch,
                idx,
                lane,
            } => match lane.send(env) {
                Ok(()) => return,
                Err(std::sync::mpsc::SendError(returned)) => {
                    env = returned;
                    registry
                        .lock()
                        .expect("registry poisoned")
                        .prune(path, epoch, idx);
                }
            },
        }
    }
}

fn wheel_loop(
    config: ThreadedNetConfig,
    rx: Receiver<WheelCmd>,
    registry: Arc<Mutex<Registry>>,
    counters: Arc<NetCounters>,
) {
    let mut wheel = WheelState {
        heap: BinaryHeap::new(),
        fifo: HashMap::new(),
        rng: StdRng::seed_from_u64(config.seed),
        seq: 0,
        counters,
        blocked: HashSet::new(),
        held: HashMap::new(),
        link_scale: HashMap::new(),
    };
    // The coalescer runs on a wall-clock microsecond timebase anchored at
    // wheel start; envelopes it holds back get their link latency applied
    // from flush time (the batch leaves the "NIC" when it flushes).
    let epoch = Instant::now();
    let mut coalescer = Coalescer::new(config.batch, config.wire);
    let mut shutting_down = false;

    loop {
        // Flush coalescing deadlines that have passed.
        let now_micros = epoch.elapsed().as_micros() as u64;
        for env in coalescer.poll(now_micros) {
            wheel.schedule(&config, env, Instant::now());
        }
        // Deliver everything due.
        let now = Instant::now();
        while wheel.heap.peek().is_some_and(|Reverse(p)| p.due <= now) {
            let Reverse(p) = wheel.heap.pop().expect("peeked");
            deliver(&registry, p.env, false);
        }
        if shutting_down && wheel.heap.is_empty() && coalescer.pending_links() == 0 {
            return;
        }
        // Wait for the next delivery, the next flush deadline, or a new
        // command — whichever comes first.
        let heap_wait = wheel
            .heap
            .peek()
            .map(|Reverse(p)| p.due.saturating_duration_since(Instant::now()));
        let flush_wait = coalescer.next_due().map(|due| {
            Duration::from_micros(due.saturating_sub(epoch.elapsed().as_micros() as u64))
        });
        let timeout = [heap_wait, flush_wait]
            .into_iter()
            .flatten()
            .min()
            .unwrap_or(Duration::from_millis(50));
        match rx.recv_timeout(timeout) {
            Ok(WheelCmd::Send { env, sent_at }) if shutting_down => {
                // Past shutdown, nothing may be parked again — a queued
                // frame would hold the wheel (and `Router::drop`) hostage
                // for up to a flush interval.
                wheel.schedule(&config, env, sent_at);
            }
            Ok(WheelCmd::Send { env, sent_at }) => {
                let now_micros = epoch.elapsed().as_micros() as u64;
                match coalescer.offer(env, now_micros) {
                    Offer::Pass(env) => wheel.schedule(&config, env, sent_at),
                    Offer::Flush(envs) => {
                        for env in envs {
                            wheel.schedule(&config, env, sent_at);
                        }
                    }
                    Offer::Queued { .. } => {}
                }
            }
            Ok(WheelCmd::SetLink { a, b, op }) => {
                // Past shutdown a fresh partition would strand traffic in
                // the held queues and hang `Router::drop`; heals and scale
                // changes stay harmless.
                if !(shutting_down && matches!(op, LinkOp::Partition)) {
                    wheel.set_link(&config, a, b, op);
                }
            }
            Ok(WheelCmd::Shutdown) => {
                shutting_down = true;
                // Nothing may stay parked or held past teardown.
                for env in coalescer.flush_all() {
                    wheel.schedule(&config, env, Instant::now());
                }
                wheel.release_all(&config);
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                shutting_down = true;
                for env in coalescer.flush_all() {
                    wheel.schedule(&config, env, Instant::now());
                }
                wheel.release_all(&config);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paris_proto::Msg;
    use paris_types::{ClientId, DcId, PartitionId, ServerId, Timestamp};

    fn hb(n: u32) -> Msg {
        Msg::Heartbeat {
            partition: PartitionId(n),
            watermark: Timestamp::ZERO,
        }
    }

    #[test]
    fn delivers_to_registered_inbox() {
        let router = Router::start(ThreadedNetConfig::fast(2));
        let a = ServerId::new(DcId(0), PartitionId(0));
        let b = ServerId::new(DcId(1), PartitionId(1));
        let rx = router.register(b);
        router.handle().send(Envelope::new(a, b, hb(1)));
        let got = rx.recv_timeout(Duration::from_secs(2)).expect("delivered");
        assert_eq!(got.msg, hb(1));
    }

    #[test]
    fn preserves_fifo_per_link() {
        let router = Router::start(ThreadedNetConfig {
            jitter: 0.5, // try hard to reorder
            ..ThreadedNetConfig::fast(2)
        });
        let a = ServerId::new(DcId(0), PartitionId(0));
        // Cross-DC through the wheel, and intra-DC inline (3.75 µs worst
        // case).
        for b in [
            ServerId::new(DcId(1), PartitionId(1)),
            ServerId::new(DcId(0), PartitionId(1)),
        ] {
            let rx = router.register(b);
            let h = router.handle();
            for i in 0..100 {
                h.send(Envelope::new(a, b, hb(i)));
            }
            for i in 0..100 {
                let got = rx.recv_timeout(Duration::from_secs(2)).expect("delivered");
                assert_eq!(got.msg, hb(i), "{b}: message {i} out of order");
            }
        }
    }

    #[test]
    fn unregistered_destination_drops_silently() {
        let router = Router::start(ThreadedNetConfig::fast(2));
        let a = ServerId::new(DcId(0), PartitionId(0));
        let ghost = ServerId::new(DcId(1), PartitionId(9));
        // No panic, no deadlock.
        router.handle().send(Envelope::new(a, ghost, hb(0)));
        std::thread::sleep(Duration::from_millis(20));
    }

    #[test]
    fn latency_scale_compresses_wan_delay() {
        let router = Router::start(ThreadedNetConfig {
            matrix: RegionMatrix::uniform(2, 30_000), // 30 ms one-way
            scale: 0.01,                              // → 300 µs
            jitter: 0.0,
            seed: 0,
            batch: BatchConfig::DISABLED,
            wire: WireFormat::default(),
        });
        let a = ClientId::new(DcId(0), 0);
        let b = ServerId::new(DcId(1), PartitionId(0));
        let rx = router.register(b);
        let start = Instant::now();
        router.handle().send(Envelope::new(
            a,
            b,
            Msg::StartTxReq {
                client_ust: Timestamp::ZERO,
            },
        ));
        rx.recv_timeout(Duration::from_secs(2)).expect("delivered");
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_micros(250), "latency applied");
        assert!(elapsed < Duration::from_millis(200), "latency scaled down");
    }

    #[test]
    fn deregister_stops_delivery() {
        let router = Router::start(ThreadedNetConfig::fast(2));
        let a = ServerId::new(DcId(0), PartitionId(0));
        let b = ServerId::new(DcId(1), PartitionId(1));
        let rx = router.register(b);
        router.deregister(b);
        router.handle().send(Envelope::new(a, b, hb(1)));
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
    }

    #[test]
    fn counters_report_scheduled_traffic_in_the_configured_encoding() {
        for wire in [WireFormat::V1, WireFormat::V2] {
            let router = Router::start(ThreadedNetConfig {
                wire,
                ..ThreadedNetConfig::fast(2)
            });
            let a = ServerId::new(DcId(0), PartitionId(0));
            let b = ServerId::new(DcId(1), PartitionId(1));
            let rx = router.register(b);
            let background = Envelope::new(a, b, hb(1));
            let foreground = Envelope::new(
                ClientId::new(DcId(0), 0),
                b,
                Msg::StartTxReq {
                    client_ust: Timestamp::ZERO,
                },
            );
            let expect_bg = encoded_len_with(&background.msg, wire) as u64;
            let expect_total = expect_bg + encoded_len_with(&foreground.msg, wire) as u64;
            router.handle().send(background);
            router.handle().send(foreground);
            for _ in 0..2 {
                rx.recv_timeout(Duration::from_secs(2)).expect("delivered");
            }
            let stats = router.net_stats();
            assert_eq!(stats.messages, 2, "{wire}");
            assert_eq!(stats.bytes, expect_total, "{wire}");
            assert_eq!(
                stats.background_bytes, expect_bg,
                "{wire}: only the heartbeat is background"
            );
        }
    }

    #[test]
    fn batching_coalesces_heartbeats_into_one_frame() {
        let router = Router::start(ThreadedNetConfig {
            batch: BatchConfig::fixed(4, 2_000_000), // force the size trigger
            ..ThreadedNetConfig::fast(2)
        });
        let a = ServerId::new(DcId(0), PartitionId(0));
        let b = ServerId::new(DcId(1), PartitionId(0));
        let rx = router.register(b);
        let h = router.handle();
        for i in 1..=4u64 {
            h.send(Envelope::new(
                a,
                b,
                Msg::Heartbeat {
                    partition: PartitionId(0),
                    watermark: Timestamp::from_physical_micros(i * 10),
                },
            ));
        }
        let got = rx.recv_timeout(Duration::from_secs(2)).expect("delivered");
        match got.msg {
            Msg::ReplicateBatch {
                frames, watermark, ..
            } => {
                assert_eq!(frames, 4);
                assert_eq!(watermark, Timestamp::from_physical_micros(40));
            }
            other => panic!("expected a coalesced batch, got {}", other.kind()),
        }
        // Exactly one wire message came out.
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
    }

    #[test]
    fn batching_flushes_on_deadline() {
        let router = Router::start(ThreadedNetConfig {
            batch: BatchConfig::fixed(1_000, 20_000), // never hit the size trigger
            ..ThreadedNetConfig::fast(2)
        });
        let a = ServerId::new(DcId(0), PartitionId(0));
        let b = ServerId::new(DcId(1), PartitionId(0));
        let rx = router.register(b);
        router.handle().send(Envelope::new(a, b, hb(0)));
        let got = rx.recv_timeout(Duration::from_secs(2)).expect("delivered");
        assert!(matches!(got.msg, Msg::ReplicateBatch { frames: 1, .. }));
    }

    #[test]
    fn shutdown_flushes_parked_frames() {
        let rx;
        {
            let router = Router::start(ThreadedNetConfig {
                batch: BatchConfig::fixed(1_000, 60_000_000), // would park for a minute
                ..ThreadedNetConfig::fast(2)
            });
            let a = ServerId::new(DcId(0), PartitionId(0));
            let b = ServerId::new(DcId(1), PartitionId(1));
            rx = router.register(b);
            router.handle().send(Envelope::new(a, b, hb(1)));
            // Router dropped: the parked frame must still arrive.
        }
        let got = rx.recv_timeout(Duration::from_secs(2)).expect("flushed");
        assert!(matches!(got.msg, Msg::ReplicateBatch { .. }));
    }

    fn read_req(tx_seq: u64) -> Msg {
        Msg::ReadSliceReq {
            tx: paris_types::TxId::new(ServerId::new(DcId(0), PartitionId(0)), tx_seq),
            snapshot: Timestamp::ZERO,
            keys: vec![paris_types::Key(1)],
            reply_to: ServerId::new(DcId(0), PartitionId(0)),
        }
    }

    #[test]
    fn read_tap_diverts_slice_reads_round_robin() {
        let router = Router::start(ThreadedNetConfig::fast(2));
        let a = ServerId::new(DcId(0), PartitionId(0));
        let b = ServerId::new(DcId(1), PartitionId(0));
        let inbox = router.register(b);
        let (l1_tx, l1) = std::sync::mpsc::channel();
        let (l2_tx, l2) = std::sync::mpsc::channel();
        router.set_read_tap(vec![l1_tx, l2_tx]);
        let h = router.handle();
        for i in 0..4 {
            h.send(Envelope::new(a, b, read_req(i)));
        }
        // Non-read traffic still reaches the inbox.
        h.send(Envelope::new(a, b, hb(9)));
        for lane in [&l1, &l2] {
            for _ in 0..2 {
                let got = lane.recv_timeout(Duration::from_secs(2)).expect("tapped");
                assert!(matches!(got.msg, Msg::ReadSliceReq { .. }));
            }
        }
        let got = inbox.recv_timeout(Duration::from_secs(2)).expect("inbox");
        assert_eq!(got.msg, hb(9));
        assert!(inbox.recv_timeout(Duration::from_millis(100)).is_err());
    }

    #[test]
    fn read_tap_falls_back_to_inbox_when_lane_closes() {
        let router = Router::start(ThreadedNetConfig::fast(2));
        let a = ServerId::new(DcId(0), PartitionId(0));
        let b = ServerId::new(DcId(1), PartitionId(0));
        let inbox = router.register(b);
        let (lane_tx, lane_rx) = std::sync::mpsc::channel();
        router.set_read_tap(vec![lane_tx]);
        drop(lane_rx); // pool died
        router.handle().send(Envelope::new(a, b, read_req(1)));
        let got = inbox
            .recv_timeout(Duration::from_secs(2))
            .expect("fallback");
        assert!(matches!(got.msg, Msg::ReadSliceReq { .. }));
        // The dead lane took the tap with it (it was the only lane), so
        // later reads go straight to the inbox too.
        router.handle().send(Envelope::new(a, b, read_req(2)));
        let got = inbox
            .recv_timeout(Duration::from_secs(2))
            .expect("tap uninstalled");
        assert!(matches!(got.msg, Msg::ReadSliceReq { .. }));
    }

    #[test]
    fn read_tap_prunes_a_dead_lane_and_keeps_the_survivor() {
        let router = Router::start(ThreadedNetConfig::fast(2));
        let a = ServerId::new(DcId(0), PartitionId(0));
        let b = ServerId::new(DcId(1), PartitionId(0));
        let inbox = router.register(b);
        let (l1_tx, l1_rx) = std::sync::mpsc::channel();
        let (l2_tx, l2) = std::sync::mpsc::channel();
        router.set_read_tap(vec![l1_tx, l2_tx]);
        drop(l1_rx); // one pool thread died
        let h = router.handle();
        for i in 0..6 {
            h.send(Envelope::new(a, b, read_req(i)));
        }
        // Every read lands on the surviving lane: the first delivery that
        // hits the dead lane prunes it and retries, and once pruned the
        // dead lane is never offered traffic again (nothing reaches the
        // inbox, which is where a failed lane send would fall back to).
        for i in 0..6 {
            let got = l2
                .recv_timeout(Duration::from_secs(2))
                .unwrap_or_else(|e| panic!("read {i} missing from survivor: {e}"));
            assert!(matches!(got.msg, Msg::ReadSliceReq { .. }));
        }
        assert!(
            inbox.recv_timeout(Duration::from_millis(100)).is_err(),
            "a read fell back to the inbox after the dead lane was pruned"
        );
    }

    #[test]
    fn read_tap_diverts_start_tx_requests() {
        let router = Router::start(ThreadedNetConfig::fast(2));
        let a = ClientId::new(DcId(0), 3);
        let b = ServerId::new(DcId(1), PartitionId(0));
        let inbox = router.register(b);
        let (lane_tx, lane) = std::sync::mpsc::channel();
        router.set_read_tap(vec![lane_tx]);
        router.handle().send(Envelope::new(
            a,
            b,
            Msg::StartTxReq {
                client_ust: Timestamp::ZERO,
            },
        ));
        let got = lane.recv_timeout(Duration::from_secs(2)).expect("tapped");
        assert!(matches!(got.msg, Msg::StartTxReq { .. }));
        assert!(inbox.recv_timeout(Duration::from_millis(100)).is_err());
    }

    #[test]
    fn client_bound_reads_are_never_tapped() {
        // Defensive: the tap keys on Server destinations only.
        let router = Router::start(ThreadedNetConfig::fast(2));
        let a = ServerId::new(DcId(0), PartitionId(0));
        let c = ClientId::new(DcId(1), 7);
        let inbox = router.register(c);
        let (lane_tx, _lane_rx) = std::sync::mpsc::channel();
        router.set_read_tap(vec![lane_tx]);
        router.handle().send(Envelope::new(a, c, read_req(1)));
        let got = inbox.recv_timeout(Duration::from_secs(2)).expect("inbox");
        assert!(matches!(got.msg, Msg::ReadSliceReq { .. }));
    }

    fn commit_tx(tx_seq: u64, coordinator: ServerId) -> Msg {
        Msg::CommitTx {
            tx: paris_types::TxId::new(coordinator, tx_seq),
            ct: Timestamp::from_physical_micros(10),
        }
    }

    #[test]
    fn write_tap_routes_by_source_not_round_robin() {
        let router = Router::start(ThreadedNetConfig::fast(2));
        let src_a = ServerId::new(DcId(0), PartitionId(0));
        let src_b = ServerId::new(DcId(0), PartitionId(1));
        let dst = ServerId::new(DcId(1), PartitionId(0));
        let inbox = router.register(dst);
        let (l1_tx, l1) = std::sync::mpsc::channel();
        let (l2_tx, l2) = std::sync::mpsc::channel();
        router.set_write_tap(vec![l1_tx, l2_tx]);
        let h = router.handle();
        // Several messages from each source: all of a source's traffic
        // must land on one lane, in order.
        for i in 0..3 {
            h.send(Envelope::new(src_a, dst, commit_tx(i, src_a)));
            h.send(Envelope::new(src_b, dst, commit_tx(i, src_b)));
        }
        let lane_of = |src: ServerId| (Endpoint::Server(src).route_key() as usize) % 2;
        let lanes = [&l1, &l2];
        for (src, n) in [(src_a, 3u64), (src_b, 3)] {
            let lane = lanes[lane_of(src)];
            for i in 0..n {
                let got = lane.recv_timeout(Duration::from_secs(2)).expect("tapped");
                assert_eq!(got.msg, commit_tx(i, src), "per-src FIFO on one lane");
            }
        }
        assert!(inbox.recv_timeout(Duration::from_millis(100)).is_err());
    }

    #[test]
    fn write_tap_diverts_the_whole_write_path_and_nothing_else() {
        let router = Router::start(ThreadedNetConfig::fast(2));
        let a = ServerId::new(DcId(0), PartitionId(0));
        let b = ServerId::new(DcId(1), PartitionId(0));
        let inbox = router.register(b);
        let (lane_tx, lane) = std::sync::mpsc::channel();
        router.set_write_tap(vec![lane_tx]);
        let h = router.handle();
        h.send(Envelope::new(a, b, hb(1))); // Heartbeat: tapped (ordering!)
        h.send(Envelope::new(
            a,
            b,
            Msg::Replicate {
                partition: PartitionId(0),
                txs: Vec::new(),
                watermark: Timestamp::ZERO,
            },
        ));
        // Read-path traffic is NOT the write tap's business.
        h.send(Envelope::new(a, b, read_req(1)));
        let got = lane.recv_timeout(Duration::from_secs(2)).expect("tapped");
        assert_eq!(got.msg, hb(1));
        let got = lane.recv_timeout(Duration::from_secs(2)).expect("tapped");
        assert!(matches!(got.msg, Msg::Replicate { .. }));
        let got = inbox.recv_timeout(Duration::from_secs(2)).expect("inbox");
        assert!(matches!(got.msg, Msg::ReadSliceReq { .. }));
        assert!(lane.recv_timeout(Duration::from_millis(100)).is_err());
    }

    #[test]
    fn write_tap_falls_back_to_inbox_when_lane_closes() {
        let router = Router::start(ThreadedNetConfig::fast(2));
        let a = ServerId::new(DcId(0), PartitionId(0));
        let b = ServerId::new(DcId(1), PartitionId(0));
        let inbox = router.register(b);
        let (lane_tx, lane_rx) = std::sync::mpsc::channel();
        router.set_write_tap(vec![lane_tx]);
        drop(lane_rx); // pool died
        router.handle().send(Envelope::new(a, b, commit_tx(1, a)));
        let got = inbox
            .recv_timeout(Duration::from_secs(2))
            .expect("fallback");
        assert!(matches!(got.msg, Msg::CommitTx { .. }));
        // The dead lane took the tap with it; later writes skip it.
        router.handle().send(Envelope::new(a, b, commit_tx(2, a)));
        let got = inbox
            .recv_timeout(Duration::from_secs(2))
            .expect("tap uninstalled");
        assert!(matches!(got.msg, Msg::CommitTx { .. }));
    }

    #[test]
    fn read_and_write_taps_coexist() {
        let router = Router::start(ThreadedNetConfig::fast(2));
        let a = ServerId::new(DcId(0), PartitionId(0));
        let b = ServerId::new(DcId(1), PartitionId(0));
        let inbox = router.register(b);
        let (r_tx, r_lane) = std::sync::mpsc::channel();
        let (w_tx, w_lane) = std::sync::mpsc::channel();
        router.set_read_tap(vec![r_tx]);
        router.set_write_tap(vec![w_tx]);
        let h = router.handle();
        h.send(Envelope::new(a, b, read_req(1)));
        h.send(Envelope::new(a, b, commit_tx(1, a)));
        h.send(Envelope::new(
            a,
            b,
            Msg::UstBroadcast {
                ust: Timestamp::ZERO,
                s_old: Timestamp::ZERO,
            },
        ));
        assert!(matches!(
            r_lane.recv_timeout(Duration::from_secs(2)).unwrap().msg,
            Msg::ReadSliceReq { .. }
        ));
        assert!(matches!(
            w_lane.recv_timeout(Duration::from_secs(2)).unwrap().msg,
            Msg::CommitTx { .. }
        ));
        // Loop-owned traffic (stabilization broadcast) is untapped.
        assert!(matches!(
            inbox.recv_timeout(Duration::from_secs(2)).unwrap().msg,
            Msg::UstBroadcast { .. }
        ));
    }

    #[test]
    fn partitioned_link_holds_and_heal_releases_in_order() {
        let router = Router::start(ThreadedNetConfig::fast(3));
        let a = ServerId::new(DcId(0), PartitionId(0));
        let b = ServerId::new(DcId(1), PartitionId(1));
        let c = ServerId::new(DcId(2), PartitionId(2));
        let rx_b = router.register(b);
        let rx_c = router.register(c);
        let ctl = router.link_control();
        ctl.partition_link(DcId(0), DcId(1));
        let h = router.handle();
        for i in 0..5 {
            h.send(Envelope::new(a, b, hb(i)));
        }
        // The unrelated 0–2 link is unaffected.
        h.send(Envelope::new(a, c, hb(99)));
        assert_eq!(
            rx_c.recv_timeout(Duration::from_secs(2)).expect("0-2").msg,
            hb(99)
        );
        assert!(
            rx_b.recv_timeout(Duration::from_millis(150)).is_err(),
            "partitioned link must hold traffic"
        );
        ctl.heal_link(DcId(1), DcId(0)); // unordered: either orientation heals
        for i in 0..5 {
            let got = rx_b.recv_timeout(Duration::from_secs(2)).expect("released");
            assert_eq!(got.msg, hb(i), "held traffic must release in order");
        }
    }

    #[test]
    fn isolate_dc_cuts_every_link_and_rejoin_restores() {
        let router = Router::start(ThreadedNetConfig::fast(3));
        let a = ServerId::new(DcId(0), PartitionId(0));
        let b = ServerId::new(DcId(1), PartitionId(1));
        let rx = router.register(b);
        let ctl = router.link_control();
        ctl.isolate_dc(DcId(1), 3);
        router.handle().send(Envelope::new(a, b, hb(1)));
        assert!(rx.recv_timeout(Duration::from_millis(150)).is_err());
        ctl.rejoin_dc(DcId(1), 3);
        let got = rx.recv_timeout(Duration::from_secs(2)).expect("rejoined");
        assert_eq!(got.msg, hb(1));
    }

    #[test]
    fn slow_link_stretches_delivery_and_restore_undoes_it() {
        let router = Router::start(ThreadedNetConfig {
            matrix: RegionMatrix::uniform(2, 2_000), // 2 ms one-way
            scale: 1.0,
            jitter: 0.0,
            seed: 0,
            batch: BatchConfig::DISABLED,
            wire: WireFormat::default(),
        });
        let a = ServerId::new(DcId(0), PartitionId(0));
        let b = ServerId::new(DcId(1), PartitionId(1));
        let rx = router.register(b);
        let ctl = router.link_control();
        ctl.set_link_scale(DcId(0), DcId(1), 25.0); // → 50 ms
        let start = Instant::now();
        router.handle().send(Envelope::new(a, b, hb(1)));
        rx.recv_timeout(Duration::from_secs(2)).expect("delivered");
        assert!(
            start.elapsed() >= Duration::from_millis(40),
            "slowdown factor must apply"
        );
        ctl.set_link_scale(DcId(0), DcId(1), 1.0);
        let start = Instant::now();
        router.handle().send(Envelope::new(a, b, hb(2)));
        rx.recv_timeout(Duration::from_secs(2)).expect("delivered");
        assert!(
            start.elapsed() < Duration::from_millis(40),
            "restore must return to nominal latency"
        );
    }

    #[test]
    fn dropping_a_router_with_held_traffic_releases_it() {
        let rx;
        {
            let router = Router::start(ThreadedNetConfig::fast(2));
            let a = ServerId::new(DcId(0), PartitionId(0));
            let b = ServerId::new(DcId(1), PartitionId(1));
            rx = router.register(b);
            router.link_control().partition_link(DcId(0), DcId(1));
            router.handle().send(Envelope::new(a, b, hb(7)));
            // Router dropped with the link still cut: the held message
            // must not hang the wheel thread, and still arrives.
        }
        let got = rx.recv_timeout(Duration::from_secs(2)).expect("released");
        assert_eq!(got.msg, hb(7));
    }

    #[test]
    fn slow_intra_dc_link_still_goes_through_the_wheel() {
        let router = Router::start(ThreadedNetConfig {
            scale: 1.0, // 250 µs intra-DC: worth modelling
            ..ThreadedNetConfig::fast(2)
        });
        let a = ClientId::new(DcId(0), 0);
        let b = ServerId::new(DcId(0), PartitionId(0));
        let rx = router.register(b);
        let start = Instant::now();
        router.handle().send(Envelope::new(
            a,
            b,
            Msg::StartTxReq {
                client_ust: Timestamp::ZERO,
            },
        ));
        assert!(rx.try_recv().is_err(), "a slow link is not inline");
        rx.recv_timeout(Duration::from_secs(2)).expect("delivered");
        assert!(
            start.elapsed() >= Duration::from_micros(250),
            "latency applied"
        );
    }

    #[test]
    fn inline_deliveries_reach_the_read_and_write_tap_lanes() {
        let router = Router::start(ThreadedNetConfig::fast(2));
        let client = ClientId::new(DcId(0), 3);
        let coord = ServerId::new(DcId(0), PartitionId(0));
        let cohort = ServerId::new(DcId(0), PartitionId(1));
        let inbox = router.register(cohort);
        let (r_tx, r_lane) = std::sync::mpsc::channel();
        let (w_tx, w_lane) = std::sync::mpsc::channel();
        router.set_read_tap(vec![r_tx]);
        router.set_write_tap(vec![w_tx]);
        let h = router.handle();
        h.send(Envelope::new(
            client,
            cohort,
            Msg::StartTxReq {
                client_ust: Timestamp::ZERO,
            },
        ));
        h.send(Envelope::new(
            coord,
            cohort,
            Msg::PrepareReq {
                tx: paris_types::TxId::new(coord, 1),
                snapshot: Timestamp::ZERO,
                ht: Timestamp::ZERO,
                writes: Vec::new(),
                reply_to: coord,
                src_dc: DcId(0),
            },
        ));
        let got = r_lane.try_recv().expect("start-tx tapped inline");
        assert!(matches!(got.msg, Msg::StartTxReq { .. }));
        let got = w_lane.try_recv().expect("prepare tapped inline");
        assert!(matches!(got.msg, Msg::PrepareReq { .. }));
        assert!(inbox.recv_timeout(Duration::from_millis(50)).is_err());
    }

    fn commit_req(tx_seq: u64, writes: Vec<paris_types::WriteSetEntry>) -> Msg {
        Msg::CommitReq {
            tx: paris_types::TxId::new(ServerId::new(DcId(0), PartitionId(0)), tx_seq),
            hwt: Timestamp::ZERO,
            writes,
        }
    }

    /// A read server that records what it was handed, and on which thread.
    fn recording_server(router: &Router) -> Arc<Mutex<Vec<(Msg, std::thread::ThreadId)>>> {
        let served = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&served);
        router.set_read_server(move |env: Envelope| {
            log.lock()
                .unwrap()
                .push((env.msg, std::thread::current().id()));
        });
        served
    }

    #[test]
    fn read_server_serves_inline_read_path_on_the_sender() {
        let router = Router::start(ThreadedNetConfig::fast(2));
        let client = ClientId::new(DcId(0), 3);
        let coord = ServerId::new(DcId(0), PartitionId(0));
        let cohort = ServerId::new(DcId(0), PartitionId(1));
        let inbox = router.register(coord);
        router.register(cohort);
        let (r_tx, r_lane) = std::sync::mpsc::channel();
        router.set_read_tap(vec![r_tx]);
        let served = recording_server(&router);
        let h = router.handle();
        let read_path = [
            (
                Endpoint::from(client),
                coord,
                Msg::StartTxReq {
                    client_ust: Timestamp::ZERO,
                },
            ),
            (coord.into(), cohort, read_req(1)),
            (client.into(), coord, commit_req(1, Vec::new())),
        ];
        for (i, (src, dst, msg)) in read_path.into_iter().enumerate() {
            h.send(Envelope::new(src, dst, msg.clone()));
            let served = served.lock().unwrap();
            assert_eq!(served.len(), i + 1, "served before send returned");
            assert_eq!(served[i], (msg, std::thread::current().id()));
        }
        // A commit with writes is loop work: it reaches the inbox.
        let writes = vec![paris_types::WriteSetEntry::new(
            paris_types::Key(1),
            paris_types::Value::from("x"),
        )];
        h.send(Envelope::new(client, coord, commit_req(2, writes)));
        let got = inbox
            .try_recv()
            .expect("commit with writes delivered inline");
        assert!(matches!(got.msg, Msg::CommitReq { .. }));
        assert!(r_lane.try_recv().is_err(), "no read lane was fed");
        assert_eq!(served.lock().unwrap().len(), 3);
    }

    #[test]
    fn read_server_leaves_wheel_reads_to_the_read_tap() {
        let router = Router::start(ThreadedNetConfig::fast(2));
        let a = ServerId::new(DcId(0), PartitionId(0));
        let remote = ServerId::new(DcId(1), PartitionId(0));
        let inbox = router.register(remote);
        let (r_tx, r_lane) = std::sync::mpsc::channel();
        router.set_read_tap(vec![r_tx]);
        let served = recording_server(&router);
        router.handle().send(Envelope::new(a, remote, read_req(1)));
        let got = r_lane
            .recv_timeout(Duration::from_secs(2))
            .expect("cross-DC read tapped");
        assert!(matches!(got.msg, Msg::ReadSliceReq { .. }));
        assert!(served.lock().unwrap().is_empty());
        assert!(inbox.try_recv().is_err());
    }

    #[test]
    fn read_tap_takes_inline_read_only_commits_without_a_read_server() {
        let router = Router::start(ThreadedNetConfig::fast(2));
        let client = ClientId::new(DcId(0), 3);
        let coord = ServerId::new(DcId(0), PartitionId(0));
        let inbox = router.register(coord);
        let (r_tx, r_lane) = std::sync::mpsc::channel();
        router.set_read_tap(vec![r_tx]);
        router
            .handle()
            .send(Envelope::new(client, coord, commit_req(1, Vec::new())));
        let got = r_lane.try_recv().expect("read-only commit tapped inline");
        assert!(matches!(got.msg, Msg::CommitReq { .. }));
        assert!(inbox.try_recv().is_err());
    }

    #[test]
    fn dropping_the_router_drops_the_read_server() {
        struct Sentinel(Arc<std::sync::atomic::AtomicBool>);
        impl Drop for Sentinel {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let dropped = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let router = Router::start(ThreadedNetConfig::fast(2));
        // The server holds a handle back into the router's registry, as
        // the runtime's does: only the router's drop can break the cycle.
        let sentinel = Sentinel(Arc::clone(&dropped));
        let net = router.handle();
        router.set_read_server(move |env: Envelope| {
            let _ = &sentinel;
            net.send(env);
        });
        assert!(!dropped.load(Ordering::SeqCst));
        drop(router);
        assert!(dropped.load(Ordering::SeqCst), "read server leaked");
    }

    #[test]
    fn batching_still_coalesces_intra_dc_gst_reports() {
        let router = Router::start(ThreadedNetConfig {
            batch: BatchConfig::fixed(2, 2_000_000), // force the size trigger
            ..ThreadedNetConfig::fast(2)
        });
        let a = ServerId::new(DcId(0), PartitionId(1));
        let root = ServerId::new(DcId(0), PartitionId(0));
        let rx = router.register(root);
        let h = router.handle();
        for wm in [10, 20] {
            h.send(Envelope::new(
                a,
                root,
                Msg::GstReport {
                    partition: PartitionId(1),
                    mins: vec![(DcId(0), Timestamp::from_physical_micros(wm))],
                    oldest_active: Timestamp::ZERO,
                },
            ));
        }
        let got = rx.recv_timeout(Duration::from_secs(2)).expect("delivered");
        assert!(
            matches!(got.msg, Msg::GossipDigest { frames: 2, .. }),
            "expected one digest of both reports, got {}",
            got.msg.kind()
        );
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
    }

    #[test]
    fn inline_and_wheel_count_the_same_traffic() {
        let script = |dst_dc: u16| {
            // Cross-DC links cost 0 µs, so the wheel path and the inline
            // path (2.5 µs intra-DC) carry the same script.
            let router = Router::start(ThreadedNetConfig {
                matrix: RegionMatrix::uniform(2, 0),
                jitter: 0.1,
                ..ThreadedNetConfig::fast(2)
            });
            let a = ServerId::new(DcId(0), PartitionId(0));
            let b = ServerId::new(DcId(dst_dc), PartitionId(1));
            let rx = router.register(b);
            let h = router.handle();
            let msgs = [
                hb(1),
                read_req(2),
                commit_tx(3, a),
                Msg::StartTxReq {
                    client_ust: Timestamp::ZERO,
                },
            ];
            let n = msgs.len();
            for msg in msgs {
                h.send(Envelope::new(a, b, msg));
            }
            for _ in 0..n {
                rx.recv_timeout(Duration::from_secs(2)).expect("delivered");
            }
            router.net_stats()
        };
        let inline = script(0);
        assert_eq!(inline.messages, 4);
        assert!(inline.background_bytes > 0 && inline.bytes > inline.background_bytes);
        assert_eq!(inline, script(1));
    }

    #[test]
    fn sends_after_router_drop_are_dropped() {
        let router = Router::start(ThreadedNetConfig::fast(2));
        let a = ServerId::new(DcId(0), PartitionId(0));
        let local = ServerId::new(DcId(0), PartitionId(1));
        let remote = ServerId::new(DcId(1), PartitionId(1));
        let rx_local = router.register(local);
        let rx_remote = router.register(remote);
        let h = router.handle();
        drop(router);
        h.send(Envelope::new(a, local, hb(1))); // inline path
        h.send(Envelope::new(a, remote, hb(2))); // wheel path
        for rx in [rx_local, rx_remote] {
            assert!(matches!(
                rx.recv_timeout(Duration::from_secs(1)),
                Err(RecvTimeoutError::Disconnected)
            ));
        }
    }

    #[test]
    fn shutdown_drains_cleanly() {
        let rx;
        {
            let router = Router::start(ThreadedNetConfig::fast(2));
            let a = ServerId::new(DcId(0), PartitionId(0));
            let b = ServerId::new(DcId(1), PartitionId(1));
            rx = router.register(b);
            for i in 0..10 {
                router.handle().send(Envelope::new(a, b, hb(i)));
            }
            // Router dropped here: wheel must drain pending messages first.
        }
        let mut got = 0;
        while rx.recv_timeout(Duration::from_secs(2)).is_ok() {
            got += 1;
            if got == 10 {
                break;
            }
        }
        assert_eq!(got, 10);
    }
}
