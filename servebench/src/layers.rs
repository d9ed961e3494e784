//! Metric computation: the end-to-end metrics a client sees, the
//! properties of the inputs a run actually exercised, and the per-layer
//! attribution of the traced run.
//!
//! Per-layer sums and counts are deltas of the server's metrics over the
//! phase that produced the matching client latency (the timed phase, or
//! the epilogue for an op kind the timed mix lacks). Histogram
//! percentiles cannot be differenced, so `core.*_p*_us` cover the
//! server's whole life up to the end of the epilogue.

use crate::inputs::Kind;
use crate::stats::{Sample, Stat, Windows};
use crate::{space_per_live_byte, RunConfig, Served};
use bytes::Bytes;
use fidr::chunk::Lba;
use fidr::metrics::MetricsSnapshot;
use fidr::nic::protocol::Message;
use fidr::nic::FramedCodec;
use std::hint::black_box;
use std::time::Instant;

/// Window length of the timed phase.
pub const WINDOW_NS: u64 = 1_000_000_000;

/// Epilogue operations per window: over 1 010 reads, enough for a
/// per-window p99, and where the epilogue deletes, about 170 deletes.
pub const EPILOGUE_WINDOW: usize = 1200;

/// The timed phase's windows.
pub fn timed_windows(served: &Served) -> Windows {
    Windows::by_time(&served.timed.samples, served.timed.elapsed_ns, WINDOW_NS)
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples or events behind the value.
    pub samples: u64,
    /// How the value was reduced.
    pub basis: String,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str, samples: u64, basis: &str) -> Self {
        Metric {
            name,
            value,
            unit,
            samples,
            basis: basis.to_string(),
        }
    }

    fn from_stat(name: &'static str, stat: Stat, unit: &'static str, phase: &str) -> Self {
        let basis = if stat.windows > 0 {
            format!("{phase}, met by 9 in 10 of {} windows", stat.windows)
        } else {
            format!("{phase}, pooled")
        };
        Metric::new(name, stat.value, unit, stat.samples, &basis)
    }
}

/// Metrics that are printed but left out of the result line, so they
/// carry no regression bound. The error rate is 0 whenever the run is
/// correct (the result line's `failed` carries it). The other end-to-end
/// ones moved too much between consecutive runs of one build on a shared
/// 2-CPU host: before the benchmark pinned itself to one CPU, the
/// single-connection median latencies switched between two levels about
/// 2 times apart for minutes at a time and the read p99 moved by up to a
/// factor of 20; pinned, sets of ten runs still spread the read and
/// delete medians by up to 0.31 and 0.20 of their median. The peak-RSS
/// growth follows how many operations a time-bounded run completes and
/// when GC passes ran, and spread by up to 0.28. The `pool.*` layer times
/// read 0 on every run while the server keeps its default single worker,
/// which never starts the pool.
pub const PRINTED_ONLY: [&str; 8] = [
    "write_p50_us",
    "read_p50_us",
    "read_p99_us",
    "delete_p50_us",
    "error_rate",
    "peak_rss_mb",
    "pool.busy_ms",
    "pool.idle_ms",
];

/// The end-to-end metrics of one served run, in `BENCHMARK.json` order,
/// then the printed-only ones.
///
/// # Errors
///
/// Names the first percentile the run has too few samples for.
pub fn end_to_end(cfg: &RunConfig, served: &Served) -> Result<Vec<Metric>, String> {
    let timed = timed_windows(served);
    let ops = timed
        .ops_per_s()
        .ok_or("ops_per_s: no completed operations")?;
    let mut out = vec![Metric::from_stat("ops_per_s", ops, "1/s", "timed")];
    for (name, kind, q) in [
        ("write_p50_us", Kind::Write, 0.5),
        ("write_p99_us", Kind::Write, 0.99),
        ("read_p50_us", Kind::Read, 0.5),
        ("read_p99_us", Kind::Read, 0.99),
        ("delete_p50_us", Kind::Delete, 0.5),
    ] {
        let (windows, phase) = if cfg.mix.timed_has(kind) {
            (timed.clone(), "timed")
        } else {
            let epilogue = &served.epilogue.samples;
            (Windows::by_count(epilogue, EPILOGUE_WINDOW), "epilogue")
        };
        let stat = windows
            .latency_us(kind, q)
            .ok_or_else(|| format!("{name}: too few {} samples", kind.name()))?;
        out.push(Metric::from_stat(name, stat, "us", phase));
    }
    out.push(Metric::new(
        "error_rate",
        served.error_rate(),
        "ratio",
        served.attempted(),
        "failed + mismatched over attempted, all phases",
    ));
    out.push(Metric::new(
        "space_per_live_byte",
        space_per_live_byte(served),
        "ratio",
        served.live_blocks,
        "after drain, per live block",
    ));
    out.push(Metric::new(
        "peak_rss_mb",
        served.peak_rss_growth_kib as f64 / 1024.0,
        "MB",
        1,
        "VmHWM growth from spawn to drain",
    ));
    out.push(Metric::new(
        "setup_s",
        crate::stats::median(&served.setup_s),
        "s",
        served.setup_s.len() as u64,
        &format!("median of {} set-ups", served.setup_s.len()),
    ));
    Ok(out)
}

fn counter(m: &MetricsSnapshot, name: &str) -> u64 {
    m.counter(name).unwrap_or(0)
}

/// Counter growth from `a` to `b`.
fn delta(a: &MetricsSnapshot, b: &MetricsSnapshot, name: &str) -> u64 {
    counter(b, name).saturating_sub(counter(a, name))
}

/// Growth of a histogram's (count, sum) from `a` to `b`.
fn hist_delta(a: &MetricsSnapshot, b: &MetricsSnapshot, name: &str) -> (u64, u64) {
    let get = |m: &MetricsSnapshot| m.histogram(name).map_or((0, 0), |h| (h.count, h.sum));
    let (ca, sa) = get(a);
    let (cb, sb) = get(b);
    (cb.saturating_sub(ca), sb.saturating_sub(sa))
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Measured properties of the inputs a run exercised: duplicate share,
/// stored ÷ raw bytes of unique chunks, table-cache hit ratio, data-SSD
/// reads per client read, and GC reclaimed ÷ copied bytes. Every run
/// prints them beside its metrics, so a reader can tell a workload change
/// from a program change; they are also the per-layer ratio metrics.
pub fn properties(cfg: &RunConfig, served: &Served) -> Vec<Metric> {
    let (a, b) = (&served.at_start, &served.at_end);
    let (ra, rb) = served.bracket(cfg.mix, Kind::Read);
    let reads = served.source(cfg.mix, Kind::Read).count(Kind::Read);
    let writes = delta(a, b, "reduction.write_chunks.count");
    let uniques = delta(a, b, "reduction.unique_chunks.count");
    let accesses = delta(a, b, "cache.accesses.count");
    let share = |name, num, den, samples| Metric::new(name, ratio(num, den), "ratio", samples, "");
    vec![
        share(
            "core.dedup_share",
            delta(a, b, "reduction.duplicate_chunks.count"),
            writes,
            writes,
        ),
        share(
            "compress.stored_share",
            delta(a, b, "reduction.stored.bytes"),
            uniques * crate::inputs::BLOCK as u64,
            uniques,
        ),
        share(
            "cache.hit_ratio",
            delta(a, b, "cache.hits.count"),
            accesses,
            accesses,
        ),
        share(
            "ssd.reads_per_client_read",
            delta(ra, rb, "ssd.data.read.ios"),
            reads,
            reads,
        ),
        share(
            "core.gc_reclaimed_per_copied",
            delta(a, b, "gc.reclaimed_bytes"),
            delta(a, b, "gc.copied_bytes"),
            delta(a, b, "gc.runs.count"),
        ),
    ]
}

/// Benchmark-timed calls into the layers' public functions, made on the
/// workload's own chunks and frames after the served phase.
#[derive(Debug, Clone, Default)]
pub struct Kernels {
    /// `(name, start_ns, end_ns)` of every timed call.
    pub spans: Vec<(&'static str, u64, u64)>,
}

/// Kernel spans and their names, in the order they are timed.
pub const KERNELS: [&str; 5] = [
    "nic.encode",
    "nic.decode",
    "hash.fingerprint",
    "compress.compress",
    "compress.decompress",
];

impl Kernels {
    /// Times `Message::encode`, `FramedCodec::feed` + `next_frame`,
    /// `Fingerprint::of`, `compress` and `decompress` on each payload.
    pub fn time(payloads: &[Bytes]) -> Kernels {
        let origin = Instant::now();
        let mut spans = Vec::with_capacity(payloads.len() * KERNELS.len());
        let mut span = |name, start: Instant| {
            let end = Instant::now();
            spans.push((
                name,
                (start - origin).as_nanos() as u64,
                (end - origin).as_nanos() as u64,
            ));
        };
        let mut codec = FramedCodec::new();
        for (i, data) in payloads.iter().enumerate() {
            let msg = Message::Write {
                lba: Lba(i as u64),
                data: data.clone(),
            };
            let t = Instant::now();
            let frame = black_box(msg.encode().expect("4-KiB frame encodes"));
            span(KERNELS[0], t);
            let t = Instant::now();
            codec.feed(&frame);
            let decoded = black_box(codec.next_frame().expect("frame decodes"));
            span(KERNELS[1], t);
            assert!(decoded.is_some(), "whole frame decodes");
            let t = Instant::now();
            black_box(fidr::hash::Fingerprint::of(black_box(data)));
            span(KERNELS[2], t);
            let t = Instant::now();
            let packed = black_box(fidr::compress::compress(black_box(data)));
            span(KERNELS[3], t);
            let t = Instant::now();
            let unpacked = black_box(fidr::compress::decompress(&packed, data.len()));
            span(KERNELS[4], t);
            assert_eq!(unpacked.as_deref().ok(), Some(&data[..]), "LZSS round trip");
        }
        Kernels { spans }
    }

    /// Median nanoseconds per call of kernel `name`.
    pub fn median_ns(&self, name: &str) -> f64 {
        let ns: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.0 == name)
            .map(|s| (s.2 - s.1) as f64)
            .collect();
        if ns.is_empty() {
            0.0
        } else {
            crate::stats::median(&ns)
        }
    }
}

fn client_ns(samples: &[Sample], kind: Kind) -> u64 {
    samples
        .iter()
        .filter(|s| s.kind == kind)
        .map(Sample::ns)
        .sum()
}

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order,
/// then the printed-only `pool.*`.
pub fn per_layer(cfg: &RunConfig, served: &Served, kernels: &Kernels) -> Vec<Metric> {
    let (a, b) = (&served.at_start, &served.at_end);
    let end = &served.after_epilogue;
    let mut out = Vec::new();
    let mut push = |name, value, unit, samples| {
        out.push(Metric::new(name, value, unit, samples, ""));
    };

    // Serving overhead: client time not spent inside the system calls,
    // over every kind's source phase.
    let mut client_total = 0u64;
    let mut system_total = 0u64;
    let mut ops = 0u64;
    let mut core = Vec::new();
    for kind in [Kind::Write, Kind::Read, Kind::Delete] {
        let phase = served.source(cfg.mix, kind);
        let (pa, pb) = served.bracket(cfg.mix, kind);
        let (count, sum) = hist_delta(pa, pb, &format!("system.{}.ns", kind.name()));
        client_total += client_ns(&phase.samples, kind);
        system_total += sum;
        ops += phase.count(kind);
        core.push((kind, count, sum));
    }
    push(
        "server.overhead_us_per_op",
        client_total.saturating_sub(system_total) as f64 / 1e3 / ops.max(1) as f64,
        "us",
        ops,
    );
    let queue_waits = delta(a, b, "server.queue.waits.count");
    push(
        "server.queue_waits",
        queue_waits as f64,
        "count",
        queue_waits,
    );
    let gc_passes = delta(a, b, "server.gc.passes.count");
    push("server.gc_passes", gc_passes as f64, "count", gc_passes);

    let n_kernel = (kernels.spans.len() / KERNELS.len()) as u64;
    push(
        "nic.codec_encode_ns",
        kernels.median_ns("nic.encode"),
        "ns",
        n_kernel,
    );
    push(
        "nic.codec_decode_ns",
        kernels.median_ns("nic.decode"),
        "ns",
        n_kernel,
    );
    let (ingests, ingest_ns) = hist_delta(a, b, "nic.ingest.ns");
    push("nic.ingest_ms", ingest_ns as f64 / 1e6, "ms", ingests);
    let (ra, rb) = served.bracket(cfg.mix, Kind::Read);
    let hits = delta(ra, rb, "nic.read_buffer_hits.chunks");
    push("nic.buffer_read_hits", hits as f64, "count", hits);

    for (kind, count, sum) in &core {
        let name = match kind {
            Kind::Write => "core.write_ms",
            Kind::Read => "core.read_ms",
            Kind::Delete => "core.delete_ms",
        };
        push(name, *sum as f64 / 1e6, "ms", *count);
    }
    let pct = |name: &str, q: fn(&fidr::metrics::HistogramSnapshot) -> u64| {
        end.histogram(name)
            .map_or((0.0, 0), |h| (q(h) as f64 / 1e3, h.count))
    };
    let (v, n) = pct("system.write.ns", |h| h.p99);
    push("core.write_p99_us", v, "us", n);
    let (v, n) = pct("system.read.ns", |h| h.p50);
    push("core.read_p50_us", v, "us", n);
    let (v, n) = pct("system.read.ns", |h| h.p99);
    push("core.read_p99_us", v, "us", n);
    let (batches, batch_ns) = hist_delta(a, b, "hash.batch.ns");
    push("core.batches", batches as f64, "count", batches);

    push("hash.batch_ms", batch_ns as f64 / 1e6, "ms", batches);
    push(
        "hash.ns_per_chunk",
        kernels.median_ns("hash.fingerprint"),
        "ns",
        n_kernel,
    );
    push("hash.lanes", fidr::hash::lane_count() as f64, "count", 1);

    let (chunks, compress_ns) = hist_delta(a, b, "compress.chunk.ns");
    push("compress.ms", compress_ns as f64 / 1e6, "ms", chunks);
    push(
        "compress.ns_per_chunk",
        kernels.median_ns("compress.compress"),
        "ns",
        n_kernel,
    );
    push(
        "compress.decompress_ns_per_chunk",
        kernels.median_ns("compress.decompress"),
        "ns",
        n_kernel,
    );

    let (lookups, lookup_ns) = hist_delta(a, b, "cache.lookup.ns");
    push("cache.lookup_ms", lookup_ns as f64 / 1e6, "ms", lookups);
    for (name, key) in [
        ("cache.misses", "cache.misses.count"),
        ("cache.evictions", "cache.evictions.count"),
        ("ssd.table_reads", "ssd.table.read.ios"),
    ] {
        let v = delta(a, b, key);
        push(name, v as f64, "count", v);
    }
    let data_reads = delta(ra, rb, "ssd.data.read.ios");
    push("ssd.data_reads", data_reads as f64, "count", data_reads);
    let written = delta(a, b, "ssd.data.write.bytes");
    push("ssd.data_write_bytes", written as f64, "bytes", written);
    for (name, key, unit) in [
        ("core.gc_runs", "gc.runs.count", "count"),
        ("core.gc_moved_chunks", "gc.moved_chunks.count", "count"),
        ("core.gc_copied_bytes", "gc.copied_bytes", "bytes"),
        ("core.gc_reclaimed_bytes", "gc.reclaimed_bytes", "bytes"),
    ] {
        let v = delta(a, b, key);
        push(name, v as f64, unit, v);
    }

    for m in properties(cfg, served) {
        push(m.name, m.value, m.unit, m.samples);
    }

    // Present only once the server runs its worker pool; 0 otherwise.
    // Printed only (see `PRINTED_ONLY`).
    for (name, key) in [
        ("pool.busy_ms", "pool.busy.ns"),
        ("pool.idle_ms", "pool.idle.ns"),
    ] {
        let v = delta(a, b, key);
        push(
            name,
            v as f64 / 1e6,
            "ms",
            u64::from(b.counter(key).is_some()),
        );
    }
    out
}
