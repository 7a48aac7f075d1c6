//! Property: campaign runs are deterministic — the same config and seed
//! base produce **byte-identical** aggregate JSON whether scenarios run
//! in parallel (vendored-rayon workers, one per core) or strictly
//! serially, and across repeated runs. Which worker ran a scenario must
//! never leak into results.

use dlflow_sim::campaign::{parse_campaign, run_campaign, run_campaign_serial};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn campaign_json_is_chunking_invariant(
        seeds in 1u64..4,
        seed_base in 0u64..1000,
        jobs in 3usize..6,
        servers in 2usize..4,
        load_tenths in 5u32..21,
        sched_mask in 1u32..8,
    ) {
        let mut scheds = String::new();
        if sched_mask & 1 != 0 {
            scheds.push_str("scheduler mct\n");
        }
        if sched_mask & 2 != 0 {
            scheds.push_str("scheduler srpt\n");
        }
        if sched_mask & 4 != 0 {
            scheds.push_str("scheduler edf\n");
        }
        let text = format!(
            "name prop\nseeds {seeds}\nseed-base {seed_base}\nsigbits 10\n\
             platform p servers={servers} banks=3 heterogeneity=2\n\
             workload w jobs={jobs} load={}\n{scheds}",
            load_tenths as f64 / 10.0,
        );
        let cfg = parse_campaign(&text).unwrap();

        let parallel = run_campaign(&cfg).unwrap().to_json();
        let serial = run_campaign_serial(&cfg).unwrap().to_json();
        prop_assert_eq!(&parallel, &serial, "parallel vs serial diverged");

        let again = run_campaign(&cfg).unwrap().to_json();
        prop_assert_eq!(&parallel, &again, "repeated run diverged");
    }
}

/// The shipped quick-mode tournament itself is worker-invariant (the
/// config the `campaign` bin and CI artifacts are built from) — checked
/// on a scaled-down seed count to stay fast in debug builds.
#[test]
fn quick_config_scaled_down_is_deterministic() {
    let text = dlflow_sim::campaign::QUICK_CONFIG.replace("seeds 20", "seeds 2");
    let cfg = parse_campaign(&text).unwrap();
    let a = run_campaign(&cfg).unwrap().to_json();
    let b = run_campaign_serial(&cfg).unwrap().to_json();
    assert_eq!(a, b);
}
