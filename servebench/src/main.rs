//! `fidr-servebench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints one line per metric (value, unit, samples, basis), the measured
//! input properties and the host, then, as the last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Exits 1 when
//! any operation failed or any read returned wrong bytes, 2 on bad
//! arguments or too few samples for a reported percentile.

use fidr_servebench::inputs::{Inputs, Mix};
use fidr_servebench::layers::{
    end_to_end, per_layer, properties, timed_windows, Kernels, Metric, KERNELS, PRINTED_ONLY,
};
use fidr_servebench::{kernel_payloads, serve, RunConfig, Served};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// Distinct workload payloads the traced run times each kernel on.
const KERNEL_PAYLOADS: usize = 2000;

struct Args {
    mix: Mix,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut mix, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                mix = Some(Mix::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Mix::ALL.iter().map(|m| m.name()).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        mix: mix.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

fn host_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    #[cfg(target_arch = "x86_64")]
    let flags = format!(
        "sha_ni={} avx2={} avx512f={}",
        u8::from(std::arch::is_x86_feature_detected!("sha")),
        u8::from(std::arch::is_x86_feature_detected!("avx2")),
        u8::from(std::arch::is_x86_feature_detected!("avx512f")),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let flags = String::from("x86_flags=n/a");
    format!(
        "# host: nproc={nproc} {flags} hash_lanes={}",
        fidr::hash::lane_count()
    )
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pins this thread, and so every thread it starts later (the load
/// generator's and the in-process server's), to the highest-numbered CPU
/// it may run on; returns that CPU. A closed loop hands every request
/// from a client thread to a server thread and back. Left to the
/// scheduler on a 2-CPU guest, those hand-offs sometimes stayed on one
/// CPU and sometimes crossed CPUs, and a whole run went about 2 times
/// faster or slower with it; on one CPU every run pays the same.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes, the cpu_set_t
    // layout the call expects; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..mask.len() * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above, reading `size` bytes from `one`.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Option<usize> {
    None
}

fn print_metric(kind: &str, m: &Metric) {
    println!(
        "{kind} {} = {} {} (n={}{}{})",
        m.name,
        m.value,
        m.unit,
        m.samples,
        if m.basis.is_empty() { "" } else { ", " },
        m.basis
    );
}

fn print_run(label: &str, cfg: &RunConfig, served: &Served) {
    println!(
        "# {label}: attempted={} failed={} mismatched={} error_rate={}",
        served.attempted(),
        served.failed() - served.mismatched(),
        served.mismatched(),
        served.error_rate()
    );
    for m in properties(cfg, served) {
        print_metric("property", &m);
    }
    println!("property live_blocks = {}", served.live_blocks);
    println!(
        "property timed_s = {}",
        served.timed.elapsed_ns as f64 / 1e9
    );
    let rates: Vec<String> = timed_windows(served)
        .rates()
        .iter()
        .map(|r| format!("{r:.0}"))
        .collect();
    println!("# ops/s by window: {}", rates.join(" "));
}

fn json_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        assert!(m.value.is_finite(), "{} is not finite", m.name);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

/// Chrome-trace JSON (loadable in Perfetto) of the traced run's client
/// calls (pid 1: timed phase, pid 2: epilogue; tid = connection) and
/// kernel calls (pid 3).
fn spans_json(served: &Served, kernels: &Kernels, per_layer: &[Metric]) -> String {
    let mut s = String::from("{\"traceEvents\": [");
    let mut first = true;
    let mut event =
        |s: &mut String, name: &str, pid: u8, tid: u8, start: u64, end: u64, seq: u64| {
            let sep = if first { "" } else { ",\n" };
            first = false;
            let _ = write!(
                s,
                "{sep}{{\"name\": \"{name}\", \"ph\": \"X\", \"pid\": {pid}, \"tid\": {tid}, \
             \"ts\": {}, \"dur\": {}, \"args\": {{\"seq\": {seq}}}}}",
                start as f64 / 1e3,
                (end - start) as f64 / 1e3
            );
        };
    for (pid, phase) in [(1, &served.timed), (2, &served.epilogue)] {
        for x in &phase.samples {
            event(
                &mut s,
                x.kind.name(),
                pid,
                x.conn,
                x.start_ns,
                x.end_ns,
                u64::from(x.seq),
            );
        }
    }
    for (i, (name, start, end)) in kernels.spans.iter().enumerate() {
        event(&mut s, name, 3, 0, *start, *end, (i / KERNELS.len()) as u64);
    }
    s.push_str("],\n\"perLayer\": {");
    for (i, m) in per_layer.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}\"{}\": {}", m.name, m.value);
    }
    s.push_str("}}\n");
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: fidr-servebench --workload NAME --seed N [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let mut cfg = RunConfig::new(args.mix, args.seed, args.seconds);
    if args.trace {
        // Both traced-mode runs time one set-up each; set-up time is an
        // untraced-run metric.
        cfg.setup_reps = 1;
    }
    println!(
        "# fidr-servebench workload={} seed={} seconds={} trace={} conns={}",
        args.mix.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.mix.conns()
    );
    println!("{}", host_line());
    match pin_to_one_cpu() {
        Some(cpu) => println!("# pinned: every thread of the run on cpu {cpu}"),
        None => println!("# pinned: no (threads float over all CPUs)"),
    }
    let built = Instant::now();
    let inputs = Inputs::build(args.mix, args.seed, cfg.timed_cap);
    println!(
        "# inputs: {} prefill + {} timed ops built in {:.3} s",
        inputs.prefill.iter().map(Vec::len).sum::<usize>(),
        inputs.timed.iter().map(Vec::len).sum::<usize>(),
        built.elapsed().as_secs_f64()
    );

    let untraced = serve(&cfg, &inputs);
    print_run("untraced run", &cfg, &untraced);
    let e2e = match end_to_end(&cfg, &untraced) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    for m in &e2e {
        print_metric("metric", m);
    }
    let (mut attempted, mut failed) = (untraced.attempted(), untraced.failed());

    let reported = if args.trace {
        let traced = serve(&cfg, &inputs);
        print_run("traced run", &cfg, &traced);
        attempted += traced.attempted();
        failed += traced.failed();
        match end_to_end(&cfg, &traced) {
            Ok(t) => {
                // The traced run's peak RSS is bounded by the untraced
                // run's, which came first in this process.
                for (u, t) in e2e.iter().zip(&t).filter(|(u, _)| u.name != "peak_rss_mb") {
                    let share = if u.value == 0.0 {
                        String::from("n/a")
                    } else {
                        format!("{:+.2}%", (t.value - u.value) / u.value * 100.0)
                    };
                    println!(
                        "overhead {} = {} {} ({share}: traced {} vs untraced {})",
                        u.name,
                        t.value - u.value,
                        u.unit,
                        t.value,
                        u.value
                    );
                }
            }
            Err(e) => println!("# traced run: {e}"),
        }
        let kernels = Kernels::time(&kernel_payloads(&inputs, KERNEL_PAYLOADS));
        let layers = per_layer(&cfg, &traced, &kernels);
        for m in &layers {
            print_metric("layer", m);
        }
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        // One file per workload (the latest run's), so repeated runs do
        // not fill the disk.
        let path = dir.join(format!("{}.trace.json", args.mix.name()));
        match std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, spans_json(&traced, &kernels, &layers)))
        {
            Ok(()) => println!("# spans: {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
        layers
    } else {
        e2e
    };

    let correct = failed == 0;
    let reported: Vec<Metric> = reported
        .into_iter()
        .filter(|m| !PRINTED_ONLY.contains(&m.name))
        .collect();
    println!("{}", json_result(correct, attempted, failed, &reported));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
