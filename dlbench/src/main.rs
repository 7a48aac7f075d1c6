//! `dlbench` — dlflow's benchmark: one command, four named workloads,
//! end-to-end host time and schedule quality, and per-layer attribution
//! measured from outside the library.
//!
//! ```text
//! cargo run --release --manifest-path dlbench/Cargo.toml -- \
//!     --workload stream-swrpt --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` alternates
//! untraced and traced passes and prints the per-layer metrics. The last
//! line of standard output is one JSON object; the line before it holds
//! the host metadata. Workloads, metrics and seeds are described in
//! `dlbench/METRICS.md`.

mod trace;
mod workloads;

use std::fmt::Write as _;
use std::time::{Duration, Instant};
use trace::Recorder;
use workloads::{Counters, PassOut, Sizes, Timings, Workload, NAMES};

#[global_allocator]
static ALLOC: trace::SwitchedMeter = trace::SwitchedMeter;

/// A run sets up at least `SETUPS.0` and at most `SETUPS.1` times, and
/// until its set-ups have taken `SETUP_MIN_S` seconds; `setup_s` is the
/// median of their rescaled times. One set-up's time varied by ±20%
/// within a run on the reference host, and five did not give a steady
/// median on workloads whose set-up takes under a second.
const SETUPS: (usize, usize) = (5, 25);

/// Set-up time a run spends at least, in seconds (see [`SETUPS`]).
const SETUP_MIN_S: f64 = 6.0;

/// Calibration kernels timed after each set-up; the set-up is rescaled by
/// their median.
const SETUP_KERNELS: usize = 3;

/// Words the calibration kernel fills and sorts (8 MiB).
const CALIBRATION_WORDS: usize = 1 << 20;

/// The calibration kernel's median time on the reference host (a shared
/// 2-core x86-64 machine). Reported times are in that host's seconds.
const CALIBRATION_REF_S: f64 = 0.04;

/// Times a fixed kernel that never calls the library: fill `buf` with
/// xorshift words, sort it, sum a sample. The reference host's speed
/// drifted by up to ±30% from minute to minute; this kernel's time
/// drifts with it, so a pass time divided by the next kernel time
/// cancels most of the drift (over five seeds, the spread of the median
/// pass time fell from 0.10 to 0.05 on `stream-swrpt` and from 0.14 to
/// 0.06 on `ola-online`).
fn calibrate(buf: &mut [u64]) -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for v in buf.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *v = x;
    }
    buf.sort_unstable();
    std::hint::black_box(
        buf.iter()
            .step_by(4096)
            .fold(0u64, |a, &b| a.wrapping_add(b)),
    );
    t0.elapsed().as_secs_f64()
}

const USAGE: &str =
    "usage: dlbench --workload <stream-swrpt|ola-online|tournament|federation-faults> \
                     --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    let workload = get("--workload")?.to_string();
    if !NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1),
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dlbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("dlbench: {e}");
        std::process::exit(1);
    }
}

/// Pass bookkeeping: attempted and failed passes, with the reason for
/// each failure on standard error.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, what: &str, got: &Result<PassOut, String>, want: &PassOut) {
        self.attempted += 1;
        let why = match got {
            Err(e) => e.clone(),
            Ok(out) if !out.problems.is_empty() => out.problems.join("; "),
            Ok(out) if out.output != want.output => "report differs from the first pass".into(),
            Ok(out) if out.max_stretch.to_bits() != want.max_stretch.to_bits() => {
                "max stretch differs from the first pass".into()
            }
            Ok(_) => return,
        };
        self.failed += 1;
        eprintln!("dlbench: {what} pass {} failed: {why}", self.attempted);
    }
}

fn run(args: &Args) -> Result<(), String> {
    // Set up several times: inputs from the seed, then one warm-up pass
    // whose output every later pass must reproduce. Each set-up is timed
    // and rescaled by the calibration kernels run right after it.
    let mut tally = Tally::default();
    let (mut setup_s, mut setup_calibration, mut setup_scaled) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut kernel = Vec::new();
    let mut peak_rss = 0.0;
    let mut reference: Option<PassOut> = None;
    let mut prepared: Option<Workload> = None;
    for k in 0..SETUPS.1 {
        if k >= SETUPS.0 && setup_s.iter().sum::<f64>() >= SETUP_MIN_S {
            break;
        }
        // Only one set-up's inputs are alive at a time.
        drop(prepared.take());
        let t0 = Instant::now();
        let w = Workload::setup(&args.workload, args.seed, &Sizes::FULL)?;
        let got = w.pass();
        let setup = t0.elapsed().as_secs_f64();
        let want = match reference.take() {
            Some(first) => first,
            None => got.clone()?,
        };
        tally.check("warm-up", &got, &want);
        reference = Some(want);
        if k == 0 {
            // The first warm-up pass reached the passes' peak; read it
            // before the calibration kernel's buffer exists.
            peak_rss = peak_rss_mb()?;
            kernel = vec![0u64; CALIBRATION_WORDS];
        }
        let kernels: Vec<f64> = (0..SETUP_KERNELS).map(|_| calibrate(&mut kernel)).collect();
        let c = median(&kernels);
        setup_s.push(setup);
        setup_calibration.push(c);
        setup_scaled.push(setup / c * CALIBRATION_REF_S);
        prepared = Some(w);
    }
    let w = prepared.expect("at least one set-up");
    let reference = reference.expect("at least one set-up");
    let deadline = Instant::now() + Duration::from_secs(args.seconds);

    let host = host_meta();
    let (metrics, samples) = if args.trace {
        traced_run(args, &w, &reference, deadline, &mut tally, &host)?
    } else {
        let (mut walls, mut calibration, mut scaled) = (Vec::new(), Vec::new(), Vec::new());
        while walls.is_empty() || Instant::now() < deadline {
            let t0 = Instant::now();
            let got = std::hint::black_box(w.pass());
            let wall = t0.elapsed().as_secs_f64();
            tally.check("measured", &got, &reference);
            let c = calibrate(&mut kernel);
            walls.push(wall);
            calibration.push(c);
            scaled.push(wall / c * CALIBRATION_REF_S);
        }
        let metrics = vec![
            ("setup_s", median(&setup_scaled), "s"),
            ("wall_s", median(&scaled), "s"),
            ("stretch_ratio_mean", reference.ratio_mean, "1"),
            ("peak_rss_mb", peak_rss, "MB"),
        ];
        let samples = vec![
            ("setup_s", setup_s),
            ("setup_calibration_s", setup_calibration),
            ("wall_s", walls),
            ("calibration_s", calibration),
        ];
        (metrics, samples)
    };

    // Host metadata and the timing samples' quartiles, then the result.
    let mut info = format!("{{\"host\": {host}");
    for (name, v) in &samples {
        let (q1, med, q3) = quartiles(v);
        write!(
            info,
            ", \"{name}\": {{\"q1\": {q1}, \"median\": {med}, \"q3\": {q3}, \"n\": {}}}",
            v.len()
        )
        .expect("writing to a String cannot fail");
    }
    println!("{info}}}");
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    json.push_str("}}");
    println!("{json}");
    Ok(())
}

/// One traced pass's record.
struct Traced {
    rec: Recorder,
    counters: Counters,
    timings: Timings,
}

/// A result's metrics: name, value, unit.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Named timing samples, in seconds.
type Samples = Vec<(&'static str, Vec<f64>)>;

/// Alternates untraced and traced passes until `deadline`, then derives
/// the per-layer metrics from the traced ones and writes their spans.
fn traced_run(
    args: &Args,
    w: &Workload,
    reference: &PassOut,
    deadline: Instant,
    tally: &mut Tally,
    host: &str,
) -> Result<(Metrics, Samples), String> {
    let wrapper_ns = trace::wrapper_ns_per_call();
    let epoch = Instant::now();
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut passes: Vec<Traced> = Vec::new();
    while traced_s.is_empty() || Instant::now() < deadline {
        let t0 = Instant::now();
        let got = std::hint::black_box(w.pass());
        plain_s.push(t0.elapsed().as_secs_f64());
        tally.check("untraced", &got, reference);

        let mut rec = Recorder::new(epoch);
        let root = rec.open("pass", None);
        let got = w.traced_pass(&mut rec, root);
        rec.close(root);
        traced_s.push(rec.spans[root].busy as f64 / 1e9);
        match got {
            Ok((out, counters, timings)) => {
                tally.check("traced", &Ok(out), reference);
                // Counts come from deterministic counters: every traced
                // pass must repeat the first one's.
                if passes.first().is_some_and(|p| p.counters != counters) {
                    tally.failed += 1;
                    eprintln!("dlbench: traced pass counters differ from the first traced pass");
                }
                passes.push(Traced {
                    rec,
                    counters,
                    timings,
                });
            }
            Err(e) => tally.check("traced", &Err(e), reference),
        }
    }
    if passes.is_empty() {
        return Err("every traced pass failed".into());
    }
    write_spans(args, host, &passes)?;

    // Self time per layer and the hook timings, summed over traced passes.
    let mut layer_ns = std::collections::BTreeMap::<&str, u64>::new();
    let (mut parse_ns, mut engine_allocs) = (0, 0);
    let mut timings = Timings::default();
    let (mut exact_ms, mut imbalance) = (Vec::new(), Vec::new());
    for p in &passes {
        for (name, ns) in p.rec.layer_self_ns() {
            *layer_ns.entry(name).or_insert(0) += ns;
        }
        parse_ns += p.rec.named_self_ns("workload.parse_dlt");
        engine_allocs += p.rec.layer_self_allocs("engine");
        timings.merge(&p.timings);
        exact_ms.extend(
            p.rec
                .durations("core.exact_opt")
                .iter()
                .map(|&ns| ns as f64 / 1e6),
        );
        let chunks = &p.timings.chunk_ns;
        if let Some(&max) = chunks.iter().max() {
            let mean = chunks.iter().sum::<u64>() as f64 / chunks.len() as f64;
            imbalance.push(max as f64 / mean);
        }
    }
    // Every hook runs inside an engine span; the wrapper's cost outside
    // the hook intervals is the trace's, not the engine's.
    let engine_ns = layer_ns.entry("engine").or_insert(0);
    let wrapper_total = ((timings.hook_calls as f64 * wrapper_ns) as u64).min(*engine_ns);
    *engine_ns -= wrapper_total;
    *layer_ns.entry("trace").or_insert(0) += wrapper_total;
    let n = passes.len() as f64;
    let c = &passes[0].counters;
    let total = layer_ns.values().sum::<u64>().max(1) as f64;
    let events = (c.events as f64 * n).max(1.0);
    let self_ns = |layer: &str| layer_ns.get(layer).copied().unwrap_or(0) as f64;
    let share = |layer: &str| self_ns(layer) / total;
    let rs = c.resolve.unwrap_or_default();
    let parse_s = parse_ns as f64 / 1e9;
    let shard_max = c.shard_events.iter().copied().max().unwrap_or(0) as f64;
    let shard_mean =
        c.shard_events.iter().sum::<usize>() as f64 / c.shard_events.len().max(1) as f64;
    let metrics = vec![
        ("engine.self_ns_per_event", self_ns("engine") / events, "ns"),
        (
            "engine.allocs_per_event",
            engine_allocs as f64 / events,
            "count",
        ),
        ("engine.events", c.events as f64, "count"),
        ("engine.plans", c.plans as f64, "count"),
        ("engine.peak_active", c.peak_active as f64, "count"),
        ("engine.platform_events", c.platform_events as f64, "count"),
        ("engine.max_stretch", reference.max_stretch, "1"),
        (
            "workload.parse_dlt.mb_per_s",
            if parse_s > 0.0 {
                c.parse_bytes as f64 * n / 1e6 / parse_s
            } else {
                0.0
            },
            "MB/s",
        ),
        ("workload.parse_dlt.share", share("workload"), "1"),
        (
            "schedulers.plan.p50_us",
            timings.plan.quantile(0.5) / 1e3,
            "us",
        ),
        (
            "schedulers.plan.p99_us",
            timings.plan.quantile(0.99) / 1e3,
            "us",
        ),
        ("schedulers.plan.share", timings.plan_ns as f64 / total, "1"),
        (
            "schedulers.hooks.ns_per_event",
            timings.hook_ns as f64 / events,
            "ns",
        ),
        ("schedulers.ola.replans", rs.n_resolves as f64, "count"),
        (
            "schedulers.ola.cold_replans",
            rs.cold_resolves as f64,
            "count",
        ),
        ("lp.solves", rs.lp_solves() as f64, "count"),
        (
            "lp.solves_per_replan",
            rs.mean_lp_solves_per_resolve(),
            "count",
        ),
        (
            "lp.warm_share",
            rs.warm_lp_solves as f64 / rs.lp_solves().max(1) as f64,
            "1",
        ),
        ("core.exact_opt.p50_ms", median(&exact_ms), "ms"),
        ("core.exact_opt.share", share("core"), "1"),
        ("core.probes", c.probes as f64, "count"),
        ("core.milestones", c.milestones as f64, "count"),
        ("gripps.realize.share", share("gripps"), "1"),
        ("campaign.split_imbalance", median(&imbalance), "1"),
        (
            "shard.events_max_over_mean",
            shard_max / shard_mean.max(1.0),
            "1",
        ),
        ("trace.overhead", median(&traced_s) / median(&plain_s), "1"),
        ("trace.wrapper_ns_per_call", wrapper_ns, "ns"),
        ("trace.coverage", 1.0 - share("pass"), "1"),
    ];
    Ok((
        metrics,
        vec![("untraced_s", plain_s), ("traced_s", traced_s)],
    ))
}

/// Writes every traced pass's spans as JSON lines, under the build
/// directory (`CARGO_TARGET_DIR`, else `dlbench/target`).
fn write_spans(args: &Args, host: &str, passes: &[Traced]) -> Result<(), String> {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| std::path::PathBuf::from("dlbench/target"), Into::into)
        .join("dlbench-spans");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    let mut out = format!("{{\"host\": {host}}}\n");
    for (k, p) in passes.iter().enumerate() {
        for (id, (s, (self_ns, _))) in p.rec.spans.iter().zip(p.rec.self_costs()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"pass\": {k}, \"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"thread\": {}, \"start_ns\": {}, \"end_ns\": {}, \"busy_ns\": {}, \
                 \"self_ns\": {self_ns}, \"calls\": {}, \"allocs\": {}}}",
                s.name, s.thread, s.start, s.end, s.busy, s.calls, s.allocs
            )
            .expect("writing to a String cannot fail");
        }
    }
    std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("dlbench: spans written to {}", path.display());
    Ok(())
}

/// Median of a sample (0 for an empty one).
fn median(v: &[f64]) -> f64 {
    quartiles(v).1
}

/// First quartile, median and third quartile, by the exclusive method
/// (Python's `statistics.quantiles(v, n=4)`).
fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let q = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// The process's peak resident set, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read peak RSS: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// Host metadata printed beside every result: core count, build profile
/// and git revision (`unknown` when the checkout is not a git repository).
fn host_meta() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |v| v.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    format!("{{\"nproc\": {nproc}, \"profile\": \"{profile}\", \"git_rev\": \"{rev}\"}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0, 3.0));
        assert_eq!(median(&[1.0, 2.0, 4.0]), 2.0);
    }
}
