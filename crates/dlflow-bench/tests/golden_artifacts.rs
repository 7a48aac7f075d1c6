//! Golden-byte regression wall for the PR-9 engine rework.
//!
//! Three artifacts produced by the *previous* engine generation are
//! committed at the repo root; the reworked slab/SoA engine must
//! reproduce every byte. Together with `campaign_identity.rs` (the
//! fault-free quick campaign) these pin the full observable surface:
//! scheduler decisions, float accumulation order, RNG draws, fault
//! schedules, and report rendering.

use dlflow_sim::campaign::{
    parse_campaign, render_campaign, run_fault_sweep, run_fault_sweep_serial,
};
use dlflow_sim::schedulers::Swrpt;
use dlflow_sim::workload::{generate_trace, ArrivalProcess, TraceSpec};
use std::collections::BTreeMap;
use std::path::Path;

/// Panics with a focused first-difference instead of two 100k blobs.
fn assert_same_bytes(fresh: &str, committed: &str, what: &str) {
    if fresh != committed {
        let byte = fresh
            .bytes()
            .zip(committed.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| fresh.len().min(committed.len()));
        let lo = byte.saturating_sub(80);
        panic!(
            "{what} diverged at byte {byte}:\n\
             fresh:     …{}…\n\
             committed: …{}…",
            &fresh[lo..(byte + 80).min(fresh.len())],
            &committed[lo..(byte + 80).min(committed.len())],
        );
    }
}

fn committed(name: &str) -> String {
    let artifact = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join(name);
    std::fs::read_to_string(&artifact)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", artifact.display()))
}

/// The chaos sweep of the committed `CAMPAIGN_PR8.campaign` (4 fault
/// levels × 6 schedulers × 12 seeds) renders its JSON and markdown (one
/// tournament report per level) byte-identically to the committed
/// artifacts — and the parallel and serial runners agree, so the rayon
/// fan-out adds no nondeterminism.
#[test]
fn fault_campaign_json_is_byte_identical_to_committed_artifact() {
    let cfg = parse_campaign(&committed("CAMPAIGN_PR8.campaign")).expect("config parses");
    let parallel = run_fault_sweep(&cfg).expect("chaos campaign must run");
    let (json, markdown) = render_campaign(&cfg, &parallel);
    assert_same_bytes(&json, &committed("CAMPAIGN_PR8.json"), "CAMPAIGN_PR8.json");
    assert_same_bytes(&markdown, &committed("CAMPAIGN_PR8.md"), "CAMPAIGN_PR8.md");
    let serial = run_fault_sweep_serial(&cfg).expect("serial chaos campaign must run");
    let serial = render_campaign(&cfg, &serial).0;
    assert_same_bytes(&serial, &json, "serial vs parallel chaos report");
}

/// The `"key": value` pairs of a one-line JSON object, values as written
/// (strings unquoted); `None` for any other line. Report names are
/// restricted to `[A-Za-z0-9_.-]`, so no value holds `", "`.
fn row(line: &str) -> Option<BTreeMap<String, String>> {
    let body = line.trim().trim_end_matches(',');
    let body = body.strip_prefix("{\"")?.strip_suffix('}')?;
    body.split(", \"")
        .map(|kv| {
            let (k, v) = kv.split_once("\": ")?;
            Some((k.to_string(), v.trim_matches('"').to_string()))
        })
        .collect()
}

/// Picks `keys` out of a row, in order, as one map key.
fn key(row: &BTreeMap<String, String>, keys: &[&str]) -> Vec<String> {
    keys.iter().map(|k| row[*k].clone()).collect()
}

/// `CAMPAIGN_PR8.json` was re-baselined from the sweep's own layout
/// (`tests/data/CAMPAIGN_PR8.chaos-layout.json`: one aggregate per
/// (level, scheduler), every run with its level and `n_fault_events`)
/// to one tournament report per level. No number moved: every run field
/// and every aggregate of the old file reads the same in the new one,
/// each `n_fault_events` is its scenario's count in the level's
/// `fault_events`, and each `mean_fault_events` is their mean.
#[test]
fn fault_campaign_rebaseline_moves_no_number() {
    let old = committed("crates/dlflow-bench/tests/data/CAMPAIGN_PR8.chaos-layout.json");
    let new = committed("CAMPAIGN_PR8.json");

    // The new file: rows under each level's `"level"` line, and the
    // level's per-scenario event counts.
    let (mut runs, mut aggregates) = (BTreeMap::new(), BTreeMap::new());
    let mut events: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    let mut level = String::new();
    for line in new.lines() {
        let line = line.trim();
        if let Some(name) = line.strip_prefix("\"level\": \"") {
            level = name.trim_end_matches("\",").to_string();
        } else if let Some(list) = line.strip_prefix("\"fault_events\": [") {
            let list = list.trim_end_matches("],");
            let counts = list.split(", ").map(|n| n.parse().unwrap()).collect();
            events.insert(level.clone(), counts);
        } else if let Some(mut r) = row(line) {
            r.insert("level".into(), level.clone());
            if r.contains_key("platform") {
                runs.insert(
                    key(&r, &["level", "platform", "workload", "seed", "scheduler"]),
                    r,
                );
            } else {
                aggregates.insert(key(&r, &["level", "scheduler"]), r);
            }
        }
    }
    assert_eq!(events.len(), 4, "levels of the new report");

    let (mut n_runs, mut n_aggregates) = (0, 0);
    for r in old.lines().filter_map(row) {
        if r.contains_key("platform") {
            n_runs += 1;
            let k = key(&r, &["level", "platform", "workload", "seed", "scheduler"]);
            let fresh = runs.get(&k).unwrap_or_else(|| panic!("run {k:?} is gone"));
            for (field, value) in &r {
                if field == "n_fault_events" {
                    // Runs are scenario-major: the seed is the scenario
                    // on this one-platform, one-workload config.
                    let sc: usize = r["seed"].parse().unwrap();
                    assert_eq!(value, &events[&r["level"]][sc].to_string(), "{k:?}");
                } else {
                    assert_eq!(Some(value), fresh.get(field), "{k:?} {field}");
                }
            }
        } else if r.contains_key("mean_ratio") {
            n_aggregates += 1;
            let k = key(&r, &["level", "scheduler"]);
            let fresh = &aggregates[&k];
            for (field, value) in &r {
                if field == "mean_fault_events" {
                    let counts = &events[&r["level"]];
                    let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
                    assert_eq!(value, &format!("{mean:.6}"), "{k:?}");
                } else {
                    assert_eq!(Some(value), fresh.get(field), "{k:?} {field}");
                }
            }
        }
    }
    assert_eq!((n_runs, n_aggregates), (288, 24));
    assert_eq!((runs.len(), aggregates.len()), (n_runs, n_aggregates));
}

/// The 10k-request smoke trace (Poisson seed 17, SWRPT) crosses exactly
/// the event count the pre-rework engine did — the cheapest possible
/// whole-run fingerprint of event semantics.
#[test]
fn trace_smoke_event_count_is_pinned() {
    let trace = generate_trace(&TraceSpec {
        n_requests: 10_000,
        n_machines: 3,
        process: ArrivalProcess::Poisson { rate: 2.0 },
        seed: 17,
        ..Default::default()
    });
    let stats = trace.replay(&mut Swrpt::new()).expect("replay completes");
    assert_eq!(stats.n_jobs, 10_000);
    assert_eq!(
        stats.n_events, 27_038,
        "event count drifted — the engine's event semantics changed"
    );
}
