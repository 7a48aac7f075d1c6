//! The committed quick-campaign artifact is a byte-level regression
//! oracle: any change that perturbs scheduler decisions, float
//! accumulation order, RNG draws, or report rendering shows up as a
//! diff against `CAMPAIGN_PR4.json` or its markdown twin
//! `CAMPAIGN_PR4.md`. In particular this pins the
//! `HashMap` → `BTreeMap` migration inside `Mct`/`Edf` as
//! behavior-neutral, and guards every future "surely equivalent"
//! refactor of the campaign path.

use dlflow_sim::campaign::{run_campaign, CampaignConfig};
use std::path::Path;

#[test]
fn quick_campaign_json_is_byte_identical_to_committed_artifact() {
    let report = run_campaign(&CampaignConfig::quick()).expect("quick campaign must run");
    assert_same_bytes(&report.to_json(), "CAMPAIGN_PR4.json");
    assert_same_bytes(&report.to_markdown(), "CAMPAIGN_PR4.md");
}

/// `campaign --full` without `--out` writes `CAMPAIGN_FULL.json/.md`:
/// run where copies of the quick golden lie, it leaves both untouched.
#[test]
fn full_sweep_without_out_leaves_the_quick_golden_alone() {
    let dir = std::env::temp_dir().join(format!("dlflow-campaign-full-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let golden = |name: &str| {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(name);
        std::fs::read(path).unwrap()
    };
    for name in ["CAMPAIGN_PR4.json", "CAMPAIGN_PR4.md"] {
        std::fs::write(dir.join(name), golden(name)).unwrap();
    }
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_campaign"))
        .arg("--full")
        .current_dir(&dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("the campaign bin runs");
    assert!(status.success());
    for name in ["CAMPAIGN_PR4.json", "CAMPAIGN_PR4.md"] {
        assert!(
            std::fs::read(dir.join(name)).unwrap() == golden(name),
            "`campaign --full` rewrote {name}"
        );
    }
    let full = std::fs::read_to_string(dir.join("CAMPAIGN_FULL.json")).unwrap();
    assert!(full.contains("\"campaign\": \"full\""), "{}", &full[..200]);
    assert!(dir.join("CAMPAIGN_FULL.md").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Panics with a focused first difference instead of two 100k blobs.
fn assert_same_bytes(fresh: &str, name: &str) {
    let artifact = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join(name);
    let committed = std::fs::read_to_string(&artifact)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", artifact.display()));
    if fresh != committed {
        let byte = fresh
            .bytes()
            .zip(committed.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| fresh.len().min(committed.len()));
        let lo = byte.saturating_sub(80);
        panic!(
            "quick campaign diverged from {name} at byte {byte}:\n\
             fresh:     …{}…\n\
             committed: …{}…",
            &fresh[lo..(byte + 80).min(fresh.len())],
            &committed[lo..(byte + 80).min(committed.len())],
        );
    }
}
