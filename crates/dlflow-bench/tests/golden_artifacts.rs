//! Golden-byte regression wall for the PR-9 engine rework.
//!
//! Three artifacts produced by the *previous* engine generation are
//! committed at the repo root; the reworked slab/SoA engine must
//! reproduce every byte. Together with `campaign_identity.rs` (the
//! fault-free quick campaign) these pin the full observable surface:
//! scheduler decisions, float accumulation order, RNG draws, fault
//! schedules, and report rendering.

use dlflow_sim::campaign::{parse_campaign, run_fault_sweep, run_fault_sweep_serial};
use dlflow_sim::schedulers::Swrpt;
use dlflow_sim::workload::{generate_trace, ArrivalProcess, TraceSpec};
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
/// levels × 6 schedulers × 12 seeds) renders its JSON and markdown
/// byte-identically to the artifacts the pre-rework engine wrote — and
/// the parallel and serial drivers agree, so the rayon fan-out adds no
/// nondeterminism.
#[test]
fn fault_campaign_json_is_byte_identical_to_committed_artifact() {
    let cfg = parse_campaign(&committed("CAMPAIGN_PR8.campaign")).expect("config parses");
    let parallel = run_fault_sweep(&cfg).expect("chaos campaign must run");
    let json = parallel.to_json();
    assert_same_bytes(&json, &committed("CAMPAIGN_PR8.json"), "CAMPAIGN_PR8.json");
    assert_same_bytes(
        &parallel.to_markdown(),
        &committed("CAMPAIGN_PR8.md"),
        "CAMPAIGN_PR8.md",
    );
    let serial = run_fault_sweep_serial(&cfg)
        .expect("serial chaos campaign must run")
        .to_json();
    assert_same_bytes(&serial, &json, "serial vs parallel chaos report");
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
