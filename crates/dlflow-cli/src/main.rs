//! `dlflow` — command-line front end for the scheduling library.
//!
//! ```text
//! dlflow makespan  <instance.dlf>            Theorem 1: optimal divisible makespan
//! dlflow maxflow   <instance.dlf> [options]  Theorem 2 / §4.4: optimal max weighted flow
//!     --preemptive     preemption without divisibility (§4.4)
//!     --stretch        re-weight jobs by 1/W_j (max stretch)
//! dlflow deadline  <instance.dlf> <d1> <d2> … [--preemptive]
//!                                            Lemma 1: deadline feasibility
//! dlflow milestones <instance.dlf>           list the Theorem-2 milestones
//! dlflow campaign  <config> [options]        §6 scheduler tournament (a fault
//!                                            sweep if the config has a `faults` line)
//!     --out <prefix>   write <prefix>.json + <prefix>.md
//!     --serial         single-threaded (determinism oracle)
//! dlflow simulate  <instance.dlf|trace.dlt> [options]
//!                                            replay one scheduler (incremental engine)
//!     --scheduler <spec>  kind[:key=val,…], e.g. ola or edf:target=3
//!     --json              machine-readable, byte-stable report
//!     --faults <spec>     inject seeded failures: mtbf=<s>,mttr=<s>[,seed=<n>][,until=<t>]
//!     --snapshot-at <n>   snapshot the run at event n (requires --snapshot-out)
//!     --snapshot-out <p>  where to write the snapshot
//!     --resume <p>        resume a previous snapshot instead of starting at t=0
//!     --shards <k>        partition the machines into k contiguous clusters,
//!                         each with its own engine + scheduler instance
//! Common options: --gantt [width]            draw an ASCII Gantt chart
//! ```
//!
//! Instance files use the `.dlf` format, open-arrival traces the `.dlt`
//! format, and campaign files the campaign config format, all documented
//! in `docs/FORMATS.md` (and summarized in `dlflow_cli::format` /
//! `dlflow_sim::campaign` / `dlflow_sim::workload`).

use dlflow_cli::{format, parse_faults};

use dlflow_core::deadline::{deadline_feasible_divisible, deadline_feasible_preemptive};
use dlflow_core::gantt::render_gantt;
use dlflow_core::instance::Instance;
use dlflow_core::makespan::min_makespan;
use dlflow_core::maxflow::{min_max_weighted_flow_divisible, min_max_weighted_flow_preemptive};
use dlflow_core::milestones::{milestone_bound, milestones};
use dlflow_core::schedule::Schedule;
use dlflow_core::validate::validate;
use dlflow_num::Rat;
use dlflow_sim::campaign;
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  dlflow makespan   <instance.dlf> [--gantt [width]]
  dlflow maxflow    <instance.dlf> [--preemptive] [--stretch] [--gantt [width]]
  dlflow deadline   <instance.dlf> <d1> <d2> ... [--preemptive] [--gantt [width]]
  dlflow milestones <instance.dlf>
  dlflow campaign   <config> [--out <prefix>] [--serial]
  dlflow simulate   <instance.dlf|trace.dlt> [--scheduler <spec>] [--json]
                    [--faults mtbf=<s>,mttr=<s>[,seed=<n>][,until=<t>]]
                    [--snapshot-at <n> --snapshot-out <path>] [--resume <path>]
                    [--shards <k>]

instance format (.dlf):
  job <release> <weight> [name]        one line per job
  machine <c1> <c2> ... <cn>           one cost per job; 'inf' = unavailable
  numbers: integers, decimals, or exact rationals like 3/2

trace format (.dlt):
  machines <ct1> <ct2> ... <ctm>       cycle time per machine
  arrival <release> <size> <weight> <mask>   mask: 0/1 per machine, or '*'
  fail <time> <machine>                machine goes down (in-flight work is lost)
  recover <time> <machine>             machine comes back up

scheduler specs: mct fifo srpt swrpt rr wage edf[:target=k] ola
  (default: swrpt)

all formats are documented in docs/FORMATS.md";

struct Opts {
    preemptive: bool,
    stretch: bool,
    gantt: Option<usize>,
    out: Option<String>,
    serial: bool,
    json: bool,
    scheduler: Option<String>,
    faults: Option<String>,
    snapshot_at: Option<usize>,
    snapshot_out: Option<String>,
    resume: Option<String>,
    shards: usize,
    positional: Vec<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        preemptive: false,
        stretch: false,
        gantt: None,
        out: None,
        serial: false,
        json: false,
        scheduler: None,
        faults: None,
        snapshot_at: None,
        snapshot_out: None,
        resume: None,
        shards: 0,
        positional: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--preemptive" => o.preemptive = true,
            "--stretch" => o.stretch = true,
            "--serial" => o.serial = true,
            "--json" => o.json = true,
            "--out" => {
                let Some(prefix) = args.get(i + 1) else {
                    return Err("--out expects an output prefix".into());
                };
                o.out = Some(prefix.clone());
                i += 1;
            }
            "--scheduler" => {
                let Some(spec) = args.get(i + 1) else {
                    return Err("--scheduler expects a spec like ola or edf:target=3".into());
                };
                o.scheduler = Some(spec.clone());
                i += 1;
            }
            "--faults" => {
                let Some(spec) = args.get(i + 1) else {
                    return Err("--faults expects mtbf=<s>,mttr=<s>[,seed=<n>][,until=<t>]".into());
                };
                o.faults = Some(spec.clone());
                i += 1;
            }
            "--snapshot-at" => {
                let Some(n) = args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) else {
                    return Err("--snapshot-at expects an event count".into());
                };
                o.snapshot_at = Some(n);
                i += 1;
            }
            "--snapshot-out" => {
                let Some(path) = args.get(i + 1) else {
                    return Err("--snapshot-out expects a file path".into());
                };
                o.snapshot_out = Some(path.clone());
                i += 1;
            }
            "--resume" => {
                let Some(path) = args.get(i + 1) else {
                    return Err("--resume expects a snapshot file path".into());
                };
                o.resume = Some(path.clone());
                i += 1;
            }
            "--shards" => {
                let Some(k) = args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) else {
                    return Err("--shards expects a shard count".into());
                };
                if k == 0 {
                    return Err("--shards: the shard count must be at least 1".into());
                }
                o.shards = k;
                i += 1;
            }
            "--gantt" => {
                o.gantt = Some(60);
                if let Some(w) = args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) {
                    o.gantt = Some(w);
                    i += 1;
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            pos => o.positional.push(pos.to_string()),
        }
        i += 1;
    }
    Ok(o)
}

fn load(path: &str) -> Result<Instance<Rat>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    format::parse_instance(&text).map_err(|e| format!("{path}: {e}"))
}

fn show_schedule(inst: &Instance<Rat>, sched: &Schedule<Rat>, gantt: Option<usize>) {
    print!("{sched}");
    if let Some(w) = gantt {
        print!("{}", render_gantt(sched, w));
    }
    let _ = inst;
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return Err(USAGE.to_string());
    };
    let opts = parse_opts(&args[1..])?;

    match cmd.as_str() {
        "makespan" => {
            let [path] = &opts.positional[..] else {
                return Err("makespan: expected exactly one instance file".into());
            };
            let inst = load(path)?;
            let out = min_makespan(&inst);
            validate(&inst, &out.schedule).map_err(|e| e.to_string())?;
            println!(
                "optimal makespan: {} (≈ {:.6})",
                out.makespan,
                out.makespan.to_f64()
            );
            show_schedule(&inst, &out.schedule, opts.gantt);
        }
        "maxflow" => {
            let [path] = &opts.positional[..] else {
                return Err("maxflow: expected exactly one instance file".into());
            };
            let mut inst = load(path)?;
            if opts.stretch {
                inst = inst.with_stretch_weights();
            }
            let out = if opts.preemptive {
                min_max_weighted_flow_preemptive(&inst)
            } else {
                min_max_weighted_flow_divisible(&inst)
            };
            validate(&inst, &out.schedule).map_err(|e| e.to_string())?;
            let label = if opts.stretch {
                "max stretch"
            } else {
                "max weighted flow"
            };
            let model = if opts.preemptive {
                "preemptive (§4.4)"
            } else {
                "divisible (Theorem 2)"
            };
            println!(
                "optimal {label} [{model}]: {} (≈ {:.6})",
                out.optimum,
                out.optimum.to_f64()
            );
            println!(
                "milestones: {}, feasibility probes: {} ({} warm-started, {} cold)",
                out.stats.n_milestones,
                out.stats.n_probes,
                out.stats.n_warm_probes,
                out.stats.n_cold_probes
            );
            show_schedule(&inst, &out.schedule, opts.gantt);
        }
        "deadline" => {
            if opts.positional.len() < 2 {
                return Err("deadline: expected an instance file and one deadline per job".into());
            }
            let inst = load(&opts.positional[0])?;
            let deadlines: Result<Vec<Rat>, _> = opts.positional[1..]
                .iter()
                .map(|t| format::parse_rat(t, 0).map_err(|e| e.to_string()))
                .collect();
            let deadlines = deadlines?;
            if deadlines.len() != inst.n_jobs() {
                return Err(format!(
                    "deadline: got {} deadlines for {} jobs",
                    deadlines.len(),
                    inst.n_jobs()
                ));
            }
            let result = if opts.preemptive {
                deadline_feasible_preemptive(&inst, &deadlines)
            } else {
                deadline_feasible_divisible(&inst, &deadlines)
            };
            match result {
                Some(sched) => {
                    validate(&inst, &sched).map_err(|e| e.to_string())?;
                    println!("FEASIBLE");
                    show_schedule(&inst, &sched, opts.gantt);
                }
                None => {
                    println!("INFEASIBLE");
                    return Err("no schedule meets the deadline windows".into());
                }
            }
        }
        "milestones" => {
            let [path] = &opts.positional[..] else {
                return Err("milestones: expected exactly one instance file".into());
            };
            let inst = load(path)?;
            let ms = milestones(&inst);
            println!(
                "{} distinct milestones (bound n²−n = {}):",
                ms.len(),
                milestone_bound(inst.n_jobs())
            );
            for f in ms {
                println!("  F = {f}");
            }
        }
        "campaign" => {
            let [path] = &opts.positional[..] else {
                return Err("campaign: expected exactly one config file".into());
            };
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let cfg = campaign::parse_campaign(&text).map_err(|e| format!("{path}: {e}"))?;
            let levels = if opts.serial {
                campaign::run_fault_sweep_serial(&cfg)
            } else {
                campaign::run_fault_sweep(&cfg)
            }?;
            let (json, markdown) = campaign::render_campaign(&cfg, &levels);
            print!("{markdown}");
            if let Some(prefix) = &opts.out {
                let json_path = format!("{prefix}.json");
                let md_path = format!("{prefix}.md");
                std::fs::write(&json_path, json)
                    .map_err(|e| format!("cannot write {json_path}: {e}"))?;
                std::fs::write(&md_path, markdown)
                    .map_err(|e| format!("cannot write {md_path}: {e}"))?;
                println!("\nwrote {json_path} and {md_path}");
            }
        }
        "simulate" => {
            let [path] = &opts.positional[..] else {
                return Err(
                    "simulate: expected exactly one instance (.dlf) or trace (.dlt) file".into(),
                );
            };
            let spec_text = opts.scheduler.as_deref().unwrap_or("swrpt");
            let spec = campaign::SchedulerSpec::parse_compact(spec_text)
                .map_err(|e| format!("--scheduler {spec_text}: {e}"))?;
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            // `.dlt` files are open-arrival traces; everything else is
            // parsed as a closed `.dlf` instance.
            let input = if path.ends_with(".dlt") {
                let trace = dlflow_sim::workload::Trace::parse_dlt(&text)
                    .map_err(|e| format!("{path}: {e}"))?;
                dlflow_sim::service::SimInput::Open(trace)
            } else {
                let inst = format::parse_instance(&text).map_err(|e| format!("{path}: {e}"))?;
                dlflow_sim::service::SimInput::Closed(inst.map_scalar(|r| r.to_f64()))
            };
            if opts.snapshot_at.is_some() != opts.snapshot_out.is_some() {
                return Err("--snapshot-at and --snapshot-out must be given together".into());
            }
            let sim_opts = dlflow_sim::service::SimOptions {
                faults: opts.faults.as_deref().map(parse_faults).transpose()?,
                snapshot_at: opts.snapshot_at,
                resume: opts
                    .resume
                    .as_deref()
                    .map(|p| {
                        std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))
                    })
                    .transpose()?,
                shards: opts.shards,
            };
            let (report, snapshot) =
                dlflow_sim::service::run_simulation_with(&input, &spec, &sim_opts)?;
            if let Some(text) = snapshot {
                let path = opts.snapshot_out.as_deref().expect("checked above");
                std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
                eprintln!("wrote snapshot {path}");
            }
            if opts.json {
                print!("{}", report.to_json());
            } else {
                print!("{}", report.to_text());
            }
        }
        "help" | "--help" | "-h" => println!("{USAGE}"),
        other => return Err(format!("unknown command {other:?}\n\n{USAGE}")),
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
