//! The PaRiS benchmark: three real-CPU workloads through the public
//! `Cluster` facade, end-to-end metrics with tracing off, and a traced
//! run that adds the per-layer ledger.
//!
//! ```text
//! perfbench --workload <ro_thread|rw_socket|rw_durable> --seed <n>
//!           --seconds <s> --trace <0|1> --scratch <dir>
//! ```
//!
//! Prints one line per metric, then the result as one JSON line. Exits
//! non-zero when an output check fails.

mod alloc;
mod deploy;
mod e2e;
mod layers;
mod procfs;
mod replay;
mod report;
mod storage;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use paris::runtime::ClusterStats;
use paris::types::Error;

use deploy::{Deployment, Workload};
use e2e::{LoadLoop, Window};
use report::{mean, quantile, ratio, Sheet};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Transactions per measured window of an untraced run: p99 then has ten
/// samples beyond it.
const WINDOW_TXS: u64 = 1_000;
/// Untimed load before the first window of a deployment.
const WARMUP: Duration = Duration::from_millis(500);

/// End-to-end metrics: every one applies to every workload.
const END_TO_END: &[&str] = &[
    "setup_s",
    "tx_per_s",
    "tx_latency_us_p50",
    "tx_latency_us_p99",
    "cpu_us_per_tx",
    "rss_mb",
];

/// Per-layer metrics (`--trace 1`), then the end-to-end figures that
/// apply to some workloads only (0 where they do not).
const PER_LAYER: &[&str] = &[
    "runtime.begin_us_p50",
    "runtime.read_us_p50",
    "runtime.commit_us_p50",
    "runtime.stage_coverage",
    "runtime.trace_overhead",
    "core.msgs_per_tx",
    "core.slice_reads_per_tx",
    "core.prepares_per_tx",
    "net.frames_per_batch",
    "core.heartbeats_per_s",
    "core.start_tx_ns",
    "core.client_ns_per_tx",
    "core.read_slice_ns",
    "core.prepare_ns",
    "core.commit_tx_ns",
    "core.replicate_apply_ns",
    "core.replicate_tick_ns",
    "core.gossip_ns",
    "core.allocs_per_tx",
    "proto.encode_ns_per_tx",
    "proto.decode_ns_per_tx",
    "proto.allocs_per_tx",
    "proto.bytes_per_tx",
    "net.coalesce_ns_per_tx",
    "net.flush_wait_us_p50",
    "storage.read_at_ns",
    "storage.apply_ns",
    "storage.gc_ns_per_version",
    "storage.versions_per_key",
    "storage.wal_append_ns",
    "storage.fsync_us_p50",
    "storage.fsyncs_per_tx",
    "staleness_ms_p50",
    "staleness_ms_p99",
    "wire_bytes_per_tx",
    "disk_bytes_per_user_byte",
    "failed_ratio",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    scratch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scratch = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--scratch" => scratch = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
        scratch: scratch.ok_or("--scratch is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(3)
        }
    }
}

/// Outcome counts and output checks of one run.
#[derive(Default)]
struct Verdict {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Verdict {
    fn window(&mut self, w: &Window) {
        self.attempted += w.attempted;
        self.failed += w.failed;
    }
}

fn run(args: &Args) -> Result<bool, Error> {
    std::fs::create_dir_all(&args.scratch)
        .map_err(|_| Error::Transport("cannot create the scratch directory"))?;
    let window = Duration::from_secs(args.seconds);
    let mut sheet = Sheet::default();
    let mut verdict = Verdict::default();
    let mut setups = Vec::new();
    let mut windows = Vec::new();
    let mut counts = Counts::default();
    let mut traced = None;

    if args.trace {
        let (mut dep, secs) = deploy::set_up(args.workload, args.seed, &args.scratch)?;
        setups.push(secs);
        let mut load = LoadLoop::new(args.workload, args.seed, dep.sessions.len());
        verdict.window(&load.run(&mut dep, WARMUP, u64::MAX, false));
        // `stats()` costs control round trips on socket: outside windows only.
        let before = dep.cluster.stats()?;
        let untraced = load.run(&mut dep, window / 2, u64::MAX, false);
        counts.add(&before, &dep.cluster.stats()?);
        let spans = load.run(&mut dep, window / 2, u64::MAX, true);
        verdict.window(&untraced);
        verdict.window(&spans);
        windows.push(untraced);
        traced = Some(spans);
        finish(&mut dep, &load, &mut verdict)?;
    } else {
        // Several deployments, each measured in windows of `WINDOW_TXS`
        // transactions, so a slow spell of the host or of one deployment
        // moves a median, not the result.
        let share = window / SETUPS as u32;
        for _ in 0..SETUPS {
            let (mut dep, secs) = deploy::set_up(args.workload, args.seed, &args.scratch)?;
            setups.push(secs);
            let mut load = LoadLoop::new(args.workload, args.seed, dep.sessions.len());
            verdict.window(&load.run(&mut dep, WARMUP, u64::MAX, false));
            let before = dep.cluster.stats()?;
            let start = Instant::now();
            while let Some(left) = share.checked_sub(start.elapsed()) {
                let w = load.run(&mut dep, left, WINDOW_TXS, false);
                verdict.window(&w);
                if w.attempted > 0 {
                    windows.push(w);
                }
            }
            counts.add(&before, &dep.cluster.stats()?);
            finish(&mut dep, &load, &mut verdict)?;
        }
    }
    end_to_end(&mut sheet, &setups, &windows);
    let pooled = Window::pool(&windows);
    workload_specific(&mut sheet, args.workload, &pooled, &counts);
    if let Some(traced) = &traced {
        runtime_spans(&mut sheet, &windows[0], traced, &mut verdict);
        counters(&mut sheet, &counts, &pooled);
        layer_ledger(&mut sheet, args, &mut verdict);
    }

    let title = format!(
        "{} seed {} ({} s measured, trace {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    sheet.print_table(&title);
    for p in &verdict.problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = verdict.problems.is_empty();
    let keep = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{}",
        sheet.json_line(correct, verdict.attempted, verdict.failed, keep)
    );
    Ok(correct)
}

/// `Cluster::stats()` counter differences, summed over deployments.
#[derive(Default)]
struct Counts {
    net_bytes: u64,
    msgs: u64,
    slice_reads: u64,
    prepares: u64,
    coalesced_frames: u64,
    replicate_batches: u64,
    heartbeats: u64,
}

impl Counts {
    fn add(&mut self, before: &ClusterStats, after: &ClusterStats) {
        self.net_bytes += after.net_bytes - before.net_bytes;
        self.msgs += after.msgs_handled - before.msgs_handled;
        self.slice_reads += after.slice_reads - before.slice_reads;
        self.prepares += after.prepares - before.prepares;
        self.coalesced_frames += after.coalesced_frames - before.coalesced_frames;
        self.replicate_batches += after.replicate_batches - before.replicate_batches;
        self.heartbeats += after.heartbeats - before.heartbeats;
    }
}

/// After the load: let replication settle, then the replica-agreement and
/// per-read checks.
fn finish(dep: &mut Deployment, load: &LoadLoop, verdict: &mut Verdict) -> Result<(), Error> {
    dep.cluster.stabilize(deploy::STABILIZE_ROUNDS);
    let violations = dep.cluster.check_convergence()?;
    if !violations.is_empty() {
        verdict.problems.push(format!(
            "{} replica convergence violations, first: {:?}",
            violations.len(),
            violations[0]
        ));
    }
    if load.oracle.missing_reads > 0 {
        verdict.problems.push(format!(
            "{} reads of preloaded keys returned nothing",
            load.oracle.missing_reads
        ));
    }
    if load.oracle.ryw_violations > 0 {
        verdict.problems.push(format!(
            "{} reads missed the session's own write",
            load.oracle.ryw_violations
        ));
    }
    verdict.failed += violations.len() as u64;
    Ok(())
}

/// The end-to-end metrics: medians over the complete measured windows
/// that lost the least CPU time to the hypervisor, and CPU time per
/// transaction over the same windows. Kept are the windows whose steal is
/// at most that of the least-stolen quarter: every quiet window when at
/// least a quarter were quiet. With no complete window, every window.
fn end_to_end(sheet: &mut Sheet, setups: &[f64], windows: &[Window]) {
    let complete: Vec<&Window> = windows
        .iter()
        .filter(|w| w.attempted == WINDOW_TXS)
        .collect();
    let mut steals: Vec<u64> = complete.iter().map(|w| w.steal_ticks).collect();
    steals.sort_unstable();
    let used: Vec<&Window> = match steals.get(steals.len().div_ceil(4).saturating_sub(1)) {
        Some(&cut) => complete
            .into_iter()
            .filter(|w| w.steal_ticks <= cut)
            .collect(),
        None => windows.iter().collect(),
    };
    let per = |f: &dyn Fn(&Window) -> f64| -> f64 {
        let v: Vec<f64> = used.iter().map(|w| f(w)).collect();
        quantile(&v, 0.5)
    };
    let k = used.len();
    let n = per(&|w| w.latencies_us.len() as f64) as usize;
    sheet.add(
        "setup_s",
        quantile(setups, 0.5),
        "s",
        format!(
            "median of {} set-ups (build + bulk load + stabilize)",
            setups.len()
        ),
    );
    let all = Window::pool(windows);
    sheet.add(
        "tx_per_s",
        per(&|w| w.committed as f64 / w.secs),
        "1/s",
        format!(
            "median of {k} of {} windows (the rest lost more CPU to the hypervisor \
             or were cut short); {} committed in {:.1} s",
            windows.len(),
            all.committed,
            all.secs
        ),
    );
    sheet.add(
        "tx_latency_us_p50",
        per(&|w| quantile(&w.latencies_us, 0.5)),
        "us",
        format!("median of {k} windows of {n} samples"),
    );
    sheet.add(
        "tx_latency_us_p99",
        per(&|w| quantile(&w.latencies_us, 0.99)),
        "us",
        format!(
            "median of {k} windows of {n} samples, {} beyond each",
            n / 100
        ),
    );
    let cpu: u64 = used.iter().map(|w| w.cpu_micros).sum();
    let committed: u64 = used.iter().map(|w| w.committed).sum();
    sheet.add(
        "cpu_us_per_tx",
        ratio(cpu as f64, committed as f64),
        "us",
        "utime+stime of the benchmark and its server processes per committed tx, same windows",
    );
    sheet.add(
        "rss_mb",
        per(&|w| w.rss_mb),
        "MB",
        "benchmark + server processes at window end",
    );
}

/// End-to-end figures that apply to some workloads only (0 elsewhere),
/// over all windows pooled.
fn workload_specific(sheet: &mut Sheet, workload: Workload, w: &Window, counts: &Counts) {
    let s = w.staleness_us.len();
    sheet.add(
        "staleness_ms_p50",
        quantile(&w.staleness_us, 0.5) / 1e3,
        "ms",
        format!("n={s}; newest acked commit minus next snapshot (0: read-only mix)"),
    );
    sheet.add(
        "staleness_ms_p99",
        quantile(&w.staleness_us, 0.99) / 1e3,
        "ms",
        format!("n={s}"),
    );
    let wire = if workload == Workload::RwSocket {
        ratio(counts.net_bytes as f64, w.committed as f64)
    } else {
        0.0
    };
    sheet.add(
        "wire_bytes_per_tx",
        wire,
        "B",
        "socket only: stats() folds no router bytes in-process",
    );
    let disk = if workload.fsync().is_some() {
        ratio(w.wchar as f64, w.user_bytes as f64)
    } else {
        0.0
    };
    sheet.add(
        "disk_bytes_per_user_byte",
        disk,
        "ratio",
        "bytes written / key+value bytes committed (0: no durability)",
    );
    sheet.add(
        "failed_ratio",
        ratio(w.failed as f64, w.attempted as f64),
        "ratio",
        format!("{} failed of {} attempted", w.failed, w.attempted),
    );
}

fn counters(sheet: &mut Sheet, c: &Counts, w: &Window) {
    let tx = w.committed as f64;
    sheet.add(
        "core.msgs_per_tx",
        ratio(c.msgs as f64, tx),
        "count",
        "Cluster::stats() diff",
    );
    sheet.add(
        "core.slice_reads_per_tx",
        ratio(c.slice_reads as f64, tx),
        "count",
        "",
    );
    sheet.add(
        "core.prepares_per_tx",
        ratio(c.prepares as f64, tx),
        "count",
        "",
    );
    sheet.add(
        "net.frames_per_batch",
        ratio(c.coalesced_frames as f64, c.replicate_batches as f64),
        "count",
        "coalesced frames / replicate batches",
    );
    sheet.add(
        "core.heartbeats_per_s",
        ratio(c.heartbeats as f64, w.secs),
        "1/s",
        "",
    );
}

/// Stage spans of the traced window against the untraced one.
fn runtime_spans(sheet: &mut Sheet, untraced: &Window, traced: &Window, verdict: &mut Verdict) {
    let pick = |f: fn(&e2e::Stages) -> f64| -> Vec<f64> { traced.stages.iter().map(f).collect() };
    let (begin, read, commit, total) = (
        pick(|s| s.begin),
        pick(|s| s.read),
        pick(|s| s.commit),
        pick(|s| s.total),
    );
    let n = traced.stages.len();
    sheet.add(
        "runtime.begin_us_p50",
        quantile(&begin, 0.5),
        "us",
        format!("Cluster::begin, n={n}"),
    );
    sheet.add(
        "runtime.read_us_p50",
        quantile(&read, 0.5),
        "us",
        "Txn::read",
    );
    sheet.add(
        "runtime.commit_us_p50",
        quantile(&commit, 0.5),
        "us",
        "Txn::commit (write buffering + commit)",
    );
    let coverage = ratio(mean(&begin) + mean(&read) + mean(&commit), mean(&total));
    sheet.add(
        "runtime.stage_coverage",
        coverage,
        "ratio",
        "sum of stage means / mean tx latency",
    );
    let overhead = quantile(&traced.latencies_us, 0.5) - quantile(&untraced.latencies_us, 0.5);
    sheet.add(
        "runtime.trace_overhead",
        overhead,
        "us",
        "traced minus untraced tx_latency_us_p50",
    );
    if coverage < 0.9 {
        verdict
            .problems
            .push(format!("stage coverage {coverage:.3} below 0.9"));
    }
}

/// The layer replay, twice for the determinism self-test, then the
/// storage harness on its streams.
fn layer_ledger(sheet: &mut Sheet, args: &Args, verdict: &mut Verdict) {
    let first = replay::replay(args.workload, args.seed);
    let second = replay::replay(args.workload, args.seed);
    if first.ledger.counts() != second.ledger.counts() {
        verdict
            .problems
            .push("two same-seed replays gave different counts".into());
    }
    for out in [&first, &second] {
        verdict.problems.extend(out.problems.iter().cloned());
        if out.oracle.missing_reads + out.oracle.ryw_violations > 0 {
            verdict.problems.push(format!(
                "replay: {} missing reads, {} read-your-writes violations",
                out.oracle.missing_reads, out.oracle.ryw_violations
            ));
        }
    }
    let l = &second.ledger;
    let tx = l.txs as f64;
    let per_call = |span| {
        let c = l.cost(span);
        ratio(c.ns as f64, c.calls as f64)
    };
    use replay::Span;
    sheet.add(
        "core.start_tx_ns",
        per_call(Span::StartTx),
        "ns",
        "Server::handle(StartTxReq), per call",
    );
    let client = l.cost(Span::Client);
    sheet.add(
        "core.client_ns_per_tx",
        ratio(client.ns as f64, tx),
        "ns",
        "ClientSession calls, per tx",
    );
    sheet.add(
        "core.read_slice_ns",
        per_call(Span::ReadSlice),
        "ns",
        "Server::handle(ReadSliceReq), per call",
    );
    sheet.add(
        "core.prepare_ns",
        per_call(Span::Prepare),
        "ns",
        "Server::handle(PrepareReq), per call",
    );
    sheet.add(
        "core.commit_tx_ns",
        per_call(Span::CommitTx),
        "ns",
        "Server::handle(CommitTx), per call",
    );
    sheet.add(
        "core.replicate_apply_ns",
        per_call(Span::ReplicateApply),
        "ns",
        "Server::handle(replication frame), per call",
    );
    sheet.add(
        "core.replicate_tick_ns",
        per_call(Span::ReplicateTick),
        "ns",
        "Server::on_replicate_tick, per call",
    );
    sheet.add(
        "core.gossip_ns",
        per_call(Span::Gossip),
        "ns",
        "Server::handle(stabilization gossip), per call",
    );
    let core = l.total(Span::is_core);
    sheet.add(
        "core.allocs_per_tx",
        ratio(core.allocs as f64, tx),
        "count",
        format!("{} txs replayed", l.txs),
    );
    let (enc, dec) = (l.cost(Span::Encode), l.cost(Span::Decode));
    sheet.add(
        "proto.encode_ns_per_tx",
        ratio(enc.ns as f64, tx),
        "ns",
        format!("{} messages", l.messages),
    );
    sheet.add("proto.decode_ns_per_tx", ratio(dec.ns as f64, tx), "ns", "");
    sheet.add(
        "proto.allocs_per_tx",
        ratio((enc.allocs + dec.allocs) as f64, tx),
        "count",
        "encode + decode",
    );
    sheet.add(
        "proto.bytes_per_tx",
        ratio(l.bytes as f64, tx),
        "B",
        "default wire codec",
    );
    sheet.add(
        "net.coalesce_ns_per_tx",
        ratio(l.cost(Span::Coalesce).ns as f64, tx),
        "ns",
        "Coalescer offer + poll",
    );
    let waits: Vec<f64> = l.flush_waits.iter().map(|&w| w as f64).collect();
    sheet.add(
        "net.flush_wait_us_p50",
        quantile(&waits, 0.5),
        "us",
        format!("virtual time, n={}", waits.len()),
    );

    let st = storage::run(
        args.workload,
        &second.load_ops,
        &second.window_ops,
        &args.scratch,
    );
    if st.missing_reads > 0 {
        verdict.problems.push(format!(
            "storage harness: {} reads found no version",
            st.missing_reads
        ));
    }
    sheet.add(
        "storage.read_at_ns",
        st.read_at_ns,
        "ns",
        "PartitionStore::read_at over the replay's reads",
    );
    sheet.add(
        "storage.apply_ns",
        st.apply_ns,
        "ns",
        "PartitionStore::apply over the replay's writes (set-up + window)",
    );
    sheet.add(
        "storage.gc_ns_per_version",
        st.gc_ns_per_version,
        "ns",
        "gc time / versions removed (0: nothing to remove)",
    );
    sheet.add("storage.versions_per_key", st.versions_per_key, "count", "");
    sheet.add(
        "storage.wal_append_ns",
        st.wal_append_ns,
        "ns",
        "SegmentWriter::append, no sync",
    );
    sheet.add(
        "storage.fsync_us_p50",
        st.fsync_us_p50,
        "us",
        "SegmentWriter::sync after one append",
    );
    sheet.add(
        "storage.fsyncs_per_tx",
        st.fsyncs_per_tx,
        "count",
        "DurableEngine with the workload's policy (0: no WAL)",
    );
}
