//! Loopback serving benchmark for fidr.
//!
//! One process starts the server in-process with
//! [`fidr::server::Server::spawn`] at its defaults and drives it over
//! loopback with [`fidr::client::StorageClient`] in a closed loop: each
//! connection sends its next request when the previous one is answered.
//! Every read is verified byte for byte. In-process matters: only here do
//! the server's wall-clock histograms (`hash.batch.ns`,
//! `compress.chunk.ns`, `system.*.ns`, ...) carry their sums and
//! percentiles, which the per-layer attribution reads through
//! [`fidr::server::ServerHandle::metrics`].
//!
//! A run is: build inputs from the seed; set up (spawn, then a prefill
//! over two connections); the timed phase; an epilogue of
//! verified reads with, where the timed mix has none, deletes; drain. See
//! the package README for the metrics and workloads.

pub mod inputs;
pub mod layers;
pub mod stats;

use bytes::Bytes;
use fidr::chunk::Lba;
use fidr::client::StorageClient;
use fidr::metrics::MetricsSnapshot;
use fidr::nic::protocol::ShardMapAction;
use fidr::server::{CorruptFault, Server, ServerConfig, ServerHandle};
use inputs::{Inputs, Kind, Mix, Op};
use stats::Sample;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// What one run does.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Traffic mix.
    pub mix: Mix,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Inputs per connection for the timed phase; the phase ends early
    /// if a connection runs out.
    pub timed_cap: usize,
    /// Set-ups whose median is `setup_s`: the one the timed phase runs
    /// on, plus `setup_reps - 1` more after the run.
    pub setup_reps: usize,
    /// Read-reply corruption hook, for proving the correctness gate.
    pub corrupt: Option<CorruptFault>,
}

impl RunConfig {
    /// The configuration the command line runs: inputs sized from the
    /// mix's rate cap, several set-ups.
    pub fn new(mix: Mix, seed: u64, seconds: f64) -> RunConfig {
        RunConfig {
            mix,
            seed,
            seconds,
            timed_cap: (seconds * mix.rate_cap() as f64).ceil() as usize,
            setup_reps: 3,
            corrupt: None,
        }
    }

    /// The server configuration: `fidr serve`'s defaults, except the GC
    /// cadence the churn mix needs.
    pub fn server(&self) -> ServerConfig {
        ServerConfig {
            gc_every: self.mix.gc_every(),
            corrupt: self.corrupt,
            ..ServerConfig::default()
        }
    }
}

/// Outcome of one phase on all connections.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Every completed call, by connection, then issue order.
    pub samples: Vec<Sample>,
    /// From the phase start to its deadline or, if the inputs ran out
    /// first, to its last reply.
    pub elapsed_ns: u64,
    /// Inputs completed per connection.
    pub done: Vec<usize>,
    /// Operations the phase tried, including those a closed connection
    /// could not run.
    pub attempted: u64,
    /// Calls that failed plus the inputs their connection could not run.
    pub failed: u64,
    /// Reads whose bytes differed from the expected ones.
    pub mismatched: u64,
}

impl Phase {
    /// Completed calls of `kind`.
    pub fn count(&self, kind: Kind) -> u64 {
        self.samples.iter().filter(|s| s.kind == kind).count() as u64
    }

    /// Adds the outcome counts of another phase (used for set-ups beyond
    /// the first).
    fn absorb_counts(&mut self, other: &Phase) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
    }
}

struct ConnRun {
    samples: Vec<Sample>,
    done: usize,
    attempted: u64,
    failed: u64,
    mismatched: u64,
}

/// Connects and waits until the server has accepted the connection (a
/// shard-map fetch round trip), so no measured call pays for the accept.
fn connect(addr: SocketAddr) -> Option<StorageClient> {
    let mut client = StorageClient::connect(addr).ok()?;
    client.shard_map(ShardMapAction::Get, "").ok()?;
    Some(client)
}

/// Runs `ops` in a closed loop until they run out or `deadline` passes.
/// A failed call ends the loop: it and every input left count as failed,
/// as do all inputs when the connection could not be made.
fn drive(
    client: Option<StorageClient>,
    conn: u8,
    ops: &[Op],
    origin: Instant,
    deadline: Option<Instant>,
) -> ConnRun {
    let mut run = ConnRun {
        samples: Vec::with_capacity(ops.len()),
        done: 0,
        attempted: 0,
        failed: 0,
        mismatched: 0,
    };
    let Some(mut client) = client else {
        run.attempted = ops.len() as u64;
        run.failed = ops.len() as u64;
        return run;
    };
    for (seq, op) in ops.iter().enumerate() {
        let start = Instant::now();
        if deadline.is_some_and(|d| start >= d) {
            break;
        }
        let outcome = match op {
            Op::Write { lba, data } => client.write(Lba(*lba), data.clone()).map(|()| true),
            Op::Read { lba, expect } => client.read(Lba(*lba)).map(|got| got[..] == expect[..]),
            Op::Delete { lba } => client.delete(Lba(*lba)).map(|()| true),
        };
        let end = Instant::now();
        match outcome {
            Ok(matched) => {
                run.attempted += 1;
                run.done += 1;
                run.mismatched += u64::from(!matched);
                run.samples.push(Sample {
                    kind: op.kind(),
                    conn,
                    seq: seq as u32,
                    start_ns: (start - origin).as_nanos() as u64,
                    end_ns: (end - origin).as_nanos() as u64,
                });
            }
            Err(_) => {
                // The server closed the connection: this op and every op
                // left on it fail.
                let left = (ops.len() - seq) as u64;
                run.attempted += left;
                run.failed += left;
                break;
            }
        }
    }
    run
}

/// Runs one input list per connection, concurrently, each on its own
/// connection and thread, until the lists run out or `limit` passes.
pub fn run_phase(addr: SocketAddr, lists: &[Vec<Op>], limit: Option<Duration>) -> Phase {
    let clients: Vec<Option<StorageClient>> = lists.iter().map(|_| connect(addr)).collect();
    let origin = Instant::now();
    let deadline = limit.map(|l| origin + l);
    let runs: Vec<ConnRun> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(lists)
            .enumerate()
            .map(|(conn, (client, ops))| {
                s.spawn(move || drive(client, conn as u8, ops, origin, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut phase = Phase::default();
    for run in runs {
        phase.samples.extend(run.samples);
        phase.done.push(run.done);
        phase.attempted += run.attempted;
        phase.failed += run.failed;
        phase.mismatched += run.mismatched;
    }
    let last = phase.samples.iter().map(|s| s.end_ns).max().unwrap_or(0);
    phase.elapsed_ns = limit.map_or(last, |l| last.min(l.as_nanos() as u64));
    phase
}

/// Everything one served run measured.
#[derive(Debug, Clone)]
pub struct Served {
    /// Wall time of each set-up; the first is the one that served.
    pub setup_s: Vec<f64>,
    /// Prefill writes of every set-up.
    pub prefill: Phase,
    /// The timed closed loop.
    pub timed: Phase,
    /// Verified reads after the timed phase, with deletes where the timed
    /// mix has none.
    pub epilogue: Phase,
    /// Live blocks when the timed phase ended.
    pub live_blocks: u64,
    /// Server metrics when the timed phase started.
    pub at_start: MetricsSnapshot,
    /// ... when it ended.
    pub at_end: MetricsSnapshot,
    /// ... when the epilogue ended.
    pub after_epilogue: MetricsSnapshot,
    /// ... after the drain (NIC buffer flushed, open container sealed).
    pub drained: MetricsSnapshot,
    /// Growth of the process's peak resident set (`VmHWM`), in KiB, from
    /// just before the first spawn to the drain.
    pub peak_rss_growth_kib: u64,
}

impl Served {
    fn phases(&self) -> [&Phase; 3] {
        [&self.prefill, &self.timed, &self.epilogue]
    }

    /// Operations attempted in every phase.
    pub fn attempted(&self) -> u64 {
        self.phases().iter().map(|p| p.attempted).sum()
    }

    /// Failed plus mismatched operations in every phase.
    pub fn failed(&self) -> u64 {
        self.phases().iter().map(|p| p.failed + p.mismatched).sum()
    }

    /// Reads that returned wrong bytes, in every phase.
    pub fn mismatched(&self) -> u64 {
        self.phases().iter().map(|p| p.mismatched).sum()
    }

    /// Whether every operation succeeded and every read matched.
    pub fn correct(&self) -> bool {
        self.failed() == 0
    }

    /// Failed plus mismatched operations over attempted ones.
    pub fn error_rate(&self) -> f64 {
        self.failed() as f64 / self.attempted().max(1) as f64
    }

    /// The phase whose samples give `kind`'s latencies: the timed phase
    /// when its mix has that kind, else the epilogue.
    pub fn source(&self, mix: Mix, kind: Kind) -> &Phase {
        if mix.timed_has(kind) {
            &self.timed
        } else {
            &self.epilogue
        }
    }

    /// The server metrics bracketing [`Served::source`]`(mix, kind)`.
    pub fn bracket(&self, mix: Mix, kind: Kind) -> (&MetricsSnapshot, &MetricsSnapshot) {
        if mix.timed_has(kind) {
            (&self.at_start, &self.at_end)
        } else {
            (&self.at_end, &self.after_epilogue)
        }
    }
}

/// Peak resident set of this process in KiB (`VmHWM`); 0 where procfs
/// does not provide it.
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Spawns the server and runs the prefill; returns the handle, the
/// prefill's outcome and the wall time of both.
fn set_up(cfg: &RunConfig, inputs: &Inputs) -> (ServerHandle, Phase, f64) {
    let started = Instant::now();
    let handle = Server::spawn(cfg.server()).expect("bind a loopback port");
    let prefill = run_phase(handle.local_addr(), &inputs.prefill, None);
    (handle, prefill, started.elapsed().as_secs_f64())
}

/// One served run of `inputs`: set-up, timed phase, epilogue, drain, then
/// the extra set-ups that only time themselves.
pub fn serve(cfg: &RunConfig, inputs: &Inputs) -> Served {
    let rss_before = peak_rss_kib();
    let (handle, mut prefill, first_setup) = set_up(cfg, inputs);
    let addr = handle.local_addr();
    let at_start = handle.metrics();
    let timed = run_phase(
        addr,
        &inputs.timed,
        Some(Duration::from_secs_f64(cfg.seconds)),
    );
    let at_end = handle.metrics();

    let live = inputs::live_blocks(inputs, &timed.done);
    let epilogue = run_phase(addr, &[inputs::epilogue(cfg.mix, cfg.seed, &live)], None);
    let after_epilogue = handle.metrics();
    let drained = handle.shutdown().expect("server drain");
    let peak_rss_growth_kib = peak_rss_kib().saturating_sub(rss_before);

    let mut setup_s = vec![first_setup];
    for _ in 1..cfg.setup_reps {
        let (extra, extra_prefill, seconds) = set_up(cfg, inputs);
        extra.shutdown().expect("server drain");
        setup_s.push(seconds);
        prefill.absorb_counts(&extra_prefill);
    }
    Served {
        setup_s,
        prefill,
        timed,
        epilogue,
        live_blocks: live.len() as u64,
        at_start,
        at_end,
        after_epilogue,
        drained,
        peak_rss_growth_kib,
    }
}

/// `ssd.data.stored.bytes` after the drain over the bytes of the blocks
/// live when the timed phase ended. Epilogue deletes happen only where
/// the server runs no GC, so they free no stored bytes before the drain.
pub fn space_per_live_byte(served: &Served) -> f64 {
    let stored = served.drained.counter("ssd.data.stored.bytes").unwrap_or(0);
    stored as f64 / (served.live_blocks.max(1) * inputs::BLOCK as u64) as f64
}

/// Sample payloads for kernel timing: distinct write payloads from the
/// inputs.
pub fn kernel_payloads(inputs: &Inputs, n: usize) -> Vec<Bytes> {
    let mut seen = std::collections::HashSet::new();
    inputs
        .timed
        .iter()
        .flatten()
        .filter_map(|op| match op {
            Op::Write { data, .. } if seen.insert(data.as_ptr() as usize) => Some(data.clone()),
            _ => None,
        })
        .take(n)
        .collect()
}
