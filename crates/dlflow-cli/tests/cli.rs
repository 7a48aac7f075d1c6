//! End-to-end tests of the `dlflow` binary via `std::process`.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_dlflow");

fn write_instance(content: &str) -> tempfile_path::TempPath {
    tempfile_path::TempPath::new(content)
}

/// Minimal self-cleaning temp-file helper (no tempfile crate offline).
mod tempfile_path {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static COUNTER: AtomicU64 = AtomicU64::new(0);

    pub struct TempPath(pub PathBuf);

    impl TempPath {
        pub fn new(content: &str) -> TempPath {
            Self::with_ext(content, "dlf")
        }
        pub fn with_ext(content: &str, ext: &str) -> TempPath {
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir().join(format!(
                "dlflow-cli-test-{}-{}.{ext}",
                std::process::id(),
                n
            ));
            let mut f = std::fs::File::create(&path).unwrap();
            use std::io::Write as _;
            f.write_all(content.as_bytes()).unwrap();
            TempPath(path)
        }
        pub fn as_str(&self) -> &str {
            self.0.to_str().unwrap()
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }
}

const DEMO: &str = "\
job 0 1 q1
job 1 4 q2
job 2 1 q3
machine 6 2 4
machine 9 inf 8
";

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(BIN).args(args).output().expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn maxflow_divisible_and_preemptive() {
    let f = write_instance(DEMO);
    let (ok, stdout, _) = run(&["maxflow", f.as_str()]);
    assert!(ok);
    assert!(stdout.contains("optimal max weighted flow"), "{stdout}");
    assert!(stdout.contains(": 8 "), "expected F* = 8 in: {stdout}");

    let (ok, stdout, _) = run(&["maxflow", f.as_str(), "--preemptive"]);
    assert!(ok);
    assert!(stdout.contains("§4.4"), "{stdout}");
}

#[test]
fn makespan_exact_rational() {
    let f = write_instance(DEMO);
    let (ok, stdout, _) = run(&["makespan", f.as_str()]);
    assert!(ok);
    assert!(stdout.contains("36/5"), "expected exact 36/5 in: {stdout}");
}

#[test]
fn deadline_feasible_and_infeasible() {
    let f = write_instance(DEMO);
    let (ok, stdout, _) = run(&["deadline", f.as_str(), "10", "4", "12"]);
    assert!(ok);
    assert!(stdout.contains("FEASIBLE"), "{stdout}");

    let (ok, stdout, stderr) = run(&["deadline", f.as_str(), "1", "2", "3"]);
    assert!(!ok);
    assert!(stdout.contains("INFEASIBLE"), "{stdout} / {stderr}");
}

#[test]
fn milestones_listing() {
    let f = write_instance(DEMO);
    let (ok, stdout, _) = run(&["milestones", f.as_str()]);
    assert!(ok);
    assert!(stdout.contains("4 distinct milestones"), "{stdout}");
    assert!(stdout.contains("F = 4/3"), "{stdout}");
}

#[test]
fn gantt_flag_draws_chart() {
    let f = write_instance(DEMO);
    let (ok, stdout, _) = run(&["maxflow", f.as_str(), "--gantt", "40"]);
    assert!(ok);
    assert!(stdout.contains("M1  |"), "{stdout}");
}

#[test]
fn errors_are_reported_with_context() {
    let (ok, _, stderr) = run(&["maxflow", "/nonexistent/path.dlf"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"), "{stderr}");

    let bad = write_instance("job 0 1\nmachine 4 2\n");
    let (ok, _, stderr) = run(&["maxflow", bad.as_str()]);
    assert!(!ok);
    assert!(stderr.contains("line 2"), "{stderr}");

    let (ok, _, stderr) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"), "{stderr}");

    let (ok, _, stderr) = run(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage"), "{stderr}");
}

const CAMPAIGN_CFG: &str = "\
name clitest
seeds 2
sigbits 10
platform p servers=2 banks=3 heterogeneity=2
workload w jobs=4 load=1.0
scheduler mct
scheduler srpt
";

#[test]
fn campaign_subcommand_prints_and_writes_reports() {
    let f = write_instance(CAMPAIGN_CFG);
    let prefix = std::env::temp_dir().join(format!("dlflow-cli-camp-{}", std::process::id()));
    let prefix = prefix.to_str().unwrap().to_string();
    let (ok, stdout, stderr) = run(&["campaign", f.as_str()]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("Campaign `clitest`"), "{stdout}");
    assert!(stdout.contains("Head-to-head"), "{stdout}");

    // --serial produces byte-identical output.
    let (ok2, stdout2, _) = run(&["campaign", f.as_str(), "--serial"]);
    assert!(ok2);
    assert_eq!(stdout, stdout2);

    let (ok3, _, stderr3) = run(&["campaign", f.as_str(), "--out", &prefix]);
    assert!(ok3, "{stderr3}");
    let json = std::fs::read_to_string(format!("{prefix}.json")).unwrap();
    assert!(json.contains("\"campaign\": \"clitest\""));
    assert!(json.contains("\"stretch_ratio\""));
    let md = std::fs::read_to_string(format!("{prefix}.md")).unwrap();
    assert!(md.contains("| scheduler |"));
    let _ = std::fs::remove_file(format!("{prefix}.json"));
    let _ = std::fs::remove_file(format!("{prefix}.md"));
}

#[test]
fn campaign_with_a_faults_line_prints_and_writes_the_chaos_reports() {
    let f = write_instance(&format!("{CAMPAIGN_CFG}faults none heavy\n"));
    let prefix = std::env::temp_dir().join(format!("dlflow-cli-chaos-{}", std::process::id()));
    let prefix = prefix.to_str().unwrap().to_string();
    let (ok, stdout, stderr) = run(&["campaign", f.as_str(), "--out", &prefix]);
    assert!(ok, "{stderr}");
    // One tournament report per level, each under its level's heading.
    let none = stdout.find("# Fault level `none`").expect(&stdout);
    let heavy = stdout.find("# Fault level `heavy`").expect(&stdout);
    assert!(none < heavy, "{stdout}");
    assert_eq!(
        stdout.matches("# Campaign `clitest`").count(),
        2,
        "{stdout}"
    );
    assert!(stdout.contains("Platform events injected per scenario: 0, 0."));
    let (ok2, stdout2, _) = run(&["campaign", f.as_str(), "--serial", "--out", &prefix]);
    assert!(ok2);
    assert_eq!(stdout, stdout2);
    let json = std::fs::read_to_string(format!("{prefix}.json")).unwrap();
    assert!(json.starts_with("{\n  \"levels\": [\n"), "{json}");
    assert_eq!(
        json.matches("\"campaign\": \"clitest\"").count(),
        2,
        "{json}"
    );
    assert!(json.contains("\"level\": \"none\",\n      \"fault_events\": [0, 0],"));
    assert!(json.contains("\"level\": \"heavy\","), "{json}");
    assert_eq!(json.matches("\"n_runs\": 4,").count(), 2, "{json}");
    let md = std::fs::read_to_string(format!("{prefix}.md")).unwrap();
    assert!(stdout.starts_with(&md), "{md}");
    let _ = std::fs::remove_file(format!("{prefix}.json"));
    let _ = std::fs::remove_file(format!("{prefix}.md"));
}

#[test]
fn campaign_config_errors_have_context() {
    let bad = write_instance("name x\nfrob 1\n");
    let (ok, _, stderr) = run(&["campaign", bad.as_str()]);
    assert!(!ok);
    assert!(stderr.contains("line 2"), "{stderr}");
    assert!(stderr.contains("frob"), "{stderr}");
}

#[test]
fn stretch_flag_reweights() {
    let f = write_instance(DEMO);
    let (ok, stdout, _) = run(&["maxflow", f.as_str(), "--stretch"]);
    assert!(ok);
    assert!(stdout.contains("max stretch"), "{stdout}");
}

const TRACE: &str = "\
# two servers, three requests
machines 1 2
arrival 0 4 1 *
arrival 1 2 2 10
arrival 3 1 1 01
";

#[test]
fn simulate_replays_instances_and_traces() {
    // Closed .dlf instance: per-job completions in the JSON.
    let f = write_instance(DEMO);
    let (ok, stdout, _) = run(&["simulate", f.as_str(), "--scheduler", "srpt"]);
    assert!(ok);
    assert!(stdout.contains("SRPT over instance"), "{stdout}");
    assert!(stdout.contains("makespan"), "{stdout}");

    let (ok, json, _) = run(&["simulate", f.as_str(), "--scheduler", "srpt", "--json"]);
    assert!(ok);
    assert!(json.contains("\"scheduler\": \"SRPT\""), "{json}");
    assert!(json.contains("\"completions\": ["), "{json}");

    // Open .dlt trace: streamed, no completion vector, byte-stable.
    let t = tempfile_path::TempPath::with_ext(TRACE, "dlt");
    let (ok, j1, _) = run(&["simulate", t.as_str(), "--json"]); // default scheduler
    assert!(ok, "{j1}");
    assert!(j1.contains("\"input\": \"trace\""), "{j1}");
    assert!(j1.contains("\"scheduler\": \"SWRPT\""), "{j1}");
    assert!(j1.contains("\"n_jobs\": 3"), "{j1}");
    assert!(!j1.contains("completions"), "{j1}");
    let (ok, j2, _) = run(&["simulate", t.as_str(), "--json"]);
    assert!(ok);
    assert_eq!(j1, j2, "simulate reports must be replayable byte-for-byte");

    // Scheduler options ride along in the compact spec.
    let (ok, stdout, _) = run(&["simulate", t.as_str(), "--scheduler", "edf:target=3"]);
    assert!(ok);
    assert!(stdout.contains("EDF(k=3)"), "{stdout}");
}

#[test]
fn simulate_errors_have_context() {
    let (ok, _, stderr) = run(&["simulate", "/nonexistent/trace.dlt"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"), "{stderr}");

    let t = tempfile_path::TempPath::with_ext("machines 1\narrival 0 1 1 0\n", "dlt");
    let (ok, _, stderr) = run(&["simulate", t.as_str()]);
    assert!(!ok);
    assert!(stderr.contains("line 2"), "{stderr}");

    let f = write_instance(DEMO);
    let (ok, _, stderr) = run(&["simulate", f.as_str(), "--scheduler", "zorp"]);
    assert!(!ok);
    assert!(stderr.contains("zorp"), "{stderr}");
}

#[test]
fn simulate_refusals_exit_1_with_a_typed_message() {
    let code_of = |args: &[&str]| {
        let out = Command::new(BIN).args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        (out.status.code(), stderr)
    };
    let t = tempfile_path::TempPath::with_ext(TRACE, "dlt");

    // OLA re-plans at every event; its re-solve throttle is gone.
    let (code, stderr) = code_of(&["simulate", t.as_str(), "--scheduler", "ola:throttle=30"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("unknown option \"throttle\""), "{stderr}");

    // A repeated option is refused, not silently first-wins.
    let repeated = [
        "simulate",
        t.as_str(),
        "--scheduler",
        "edf:target=3,target=-1",
    ];
    let (code, stderr) = code_of(&repeated);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("option \"target\" given twice"), "{stderr}");

    // A snapshot header claiming more machines than its rows hold is
    // malformed at the `busy` row, not an allocation that aborts.
    let snap = tempfile_path::TempPath::with_ext("", "snap");
    let (ok, _, stderr) = run(&[
        "simulate",
        t.as_str(),
        "--scheduler",
        "ola",
        "--snapshot-at",
        "2",
        "--snapshot-out",
        snap.as_str(),
    ]);
    assert!(ok, "{stderr}");
    let text = std::fs::read_to_string(&snap.0).unwrap();
    let bad = text.replace("n_machines 2\n", "n_machines 100000000000000000\n");
    assert_ne!(bad, text);
    let bad = tempfile_path::TempPath::with_ext(&bad, "snap");
    let resume = [
        "simulate",
        t.as_str(),
        "--scheduler",
        "ola",
        "--resume",
        bad.as_str(),
    ];
    let (code, stderr) = code_of(&resume);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("malformed snapshot at line 11: busy: too few values"),
        "{stderr}"
    );
}

#[test]
fn resume_refuses_an_id_the_snapshot_cannot_back() {
    // Job 0 completes at t = 1, before request 1 is released at t = 5:
    // the snapshot after two events holds request 1 as a pending arrival
    // and says `next_id 2`. An id of 2⁶² once panicked with `capacity
    // overflow` (exit 101) as restore sized its id map by it.
    let t = tempfile_path::TempPath::with_ext(
        "machines 1 2\narrival 0 1 1 *\narrival 5 2 2 *\n",
        "dlt",
    );
    let snap = tempfile_path::TempPath::with_ext("", "snap");
    let (ok, _, stderr) = run(&[
        "simulate",
        t.as_str(),
        "--snapshot-at",
        "2",
        "--snapshot-out",
        snap.as_str(),
    ]);
    assert!(ok, "{stderr}");
    let text = std::fs::read_to_string(&snap.0).unwrap();
    assert!(text.contains("\nnext_id 2\n"), "{text}");
    let line = 1 + text
        .lines()
        .position(|l| l.starts_with("arrival 1 "))
        .expect("request 1 pending");
    let bad = text.replace("\narrival 1 ", "\narrival 4611686018427387904 ");
    let bad = tempfile_path::TempPath::with_ext(&bad, "snap");
    let out = Command::new(BIN)
        .args(["simulate", t.as_str(), "--resume", bad.as_str()])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!(
            "malformed snapshot at line {line}: arrival: id 4611686018427387904 is not below \
             next_id 2"
        )),
        "{stderr}"
    );
}

#[test]
fn resume_refuses_a_trace_snapshot_on_an_instance_it_does_not_cover() {
    // A trace's snapshot holds only the requests the feed has pushed:
    // here 2 (`next_id 2`). A closed run pushes every job before it
    // steps, so on a 3-job instance of two machines this snapshot would
    // finish only the 2 pushed jobs and report a truncated run.
    let t = tempfile_path::TempPath::with_ext(
        "machines 1 3\narrival 0 1 1 *\narrival 5 2 2 *\narrival 6 1 1 *\n",
        "dlt",
    );
    let snap = tempfile_path::TempPath::with_ext("", "snap");
    let (ok, _, stderr) = run(&[
        "simulate",
        t.as_str(),
        "--snapshot-at",
        "2",
        "--snapshot-out",
        snap.as_str(),
    ]);
    assert!(ok, "{stderr}");
    let text = std::fs::read_to_string(&snap.0).unwrap();
    assert!(text.contains("\nnext_id 2\n"), "{text}");
    for (dlf, want) in [
        (
            "job 0 1 a\njob 5 2 b\njob 6 1 c\nmachine 1 2 1\nmachine 2 4 2\n",
            "--resume: snapshot has pushed 2 of the instance's 3 jobs, not all",
        ),
        // Fewer jobs than the cursor: refused at the `next_id` line.
        (
            "job 0 1 a\nmachine 1\nmachine 2\n",
            "--resume: malformed snapshot at line 4: next_id 2 passes the input's 1 requests",
        ),
    ] {
        let dlf = write_instance(dlf);
        let out = Command::new(BIN)
            .args(["simulate", dlf.as_str(), "--resume", snap.as_str()])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(stderr.contains(want), "{stderr}");
    }
}

#[test]
fn every_simulate_path_words_an_engine_error_the_same_way() {
    // Both requests run only on machine 0, which fails at t = 2 and never
    // recovers: every path stalls. (Shards keep their own clocks, so the
    // time is not asserted.)
    let stall = "machines 1 2\narrival 0 4 1 10\narrival 1 2 2 10\nfail 2 0\n";
    let t = tempfile_path::TempPath::with_ext(stall, "dlt");
    // A snapshot to resume from, before the failure: taken on a twin
    // trace whose machine recovers, with the recovery cut out.
    let twin = tempfile_path::TempPath::with_ext(&format!("{stall}recover 100 0\n"), "dlt");
    let snap = tempfile_path::TempPath::with_ext("", "snap");
    let (ok, _, stderr) = run(&[
        "simulate",
        twin.as_str(),
        "--snapshot-at",
        "1",
        "--snapshot-out",
        snap.as_str(),
    ]);
    assert!(ok, "{stderr}");
    let text = std::fs::read_to_string(&snap.0).unwrap();
    let cut: String = text
        .replace("\nplatform 2\n", "\nplatform 1\n")
        .lines()
        .filter(|l| !(l.starts_with("event ") && l.ends_with(" up")))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(cut.lines().count() + 1, text.lines().count(), "{text}");
    let cut = tempfile_path::TempPath::with_ext(&cut, "snap");

    let t = t.as_str();
    for extra in [
        &[][..],
        &["--faults", "mtbf=1000000000,mttr=1"],
        &["--shards", "2"],
        &["--snapshot-at", "1", "--snapshot-out", snap.as_str()],
        &["--resume", cut.as_str()],
    ] {
        let out = Command::new(BIN)
            .args(["simulate", t])
            .args(extra)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{extra:?}: {stderr}");
        assert!(
            stderr.starts_with("SWRPT: simulation stalled at t = "),
            "{extra:?}: {stderr}"
        );
    }
}

#[test]
fn a_repeated_faults_key_is_refused_not_overwritten() {
    // `--scheduler` and campaign configs already refuse a repeat; the
    // second `mtbf` here once silently replaced the first.
    let f = write_instance(DEMO);
    let (ok, _, stderr) = run(&[
        "simulate",
        f.as_str(),
        "--faults",
        "mtbf=5,mtbf=1000000,mttr=1",
    ]);
    assert!(!ok);
    assert_eq!(stderr.trim_end(), "--faults: key \"mtbf\" given twice");
}

#[test]
fn faults_values_out_of_range_are_refused_by_the_service() {
    // The service checks the values where it samples the schedule, on
    // the flat and the sharded path alike; the CLI prints its message.
    let t = tempfile_path::TempPath::with_ext(TRACE, "dlt");
    for (spec, why) in [
        (
            "mtbf=-1,mttr=20",
            "mtbf and mttr must be positive and finite",
        ),
        (
            "mtbf=300,mttr=-1",
            "mtbf and mttr must be positive and finite",
        ),
        (
            "mtbf=300,mttr=0",
            "mtbf and mttr must be positive and finite",
        ),
        (
            "mtbf=300,mttr=nan",
            "mtbf and mttr must be positive and finite",
        ),
        (
            "mtbf=300,mttr=20,until=inf",
            "until must be positive and finite",
        ),
    ] {
        for shards in ["1", "2"] {
            let args = ["simulate", t.as_str(), "--faults", spec, "--shards", shards];
            let out = Command::new(BIN).args(args).output().expect("binary runs");
            assert_eq!(out.status.code(), Some(1), "{spec}");
            assert!(out.stdout.is_empty(), "{spec}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(stderr, format!("--faults: {why}\n"), "{spec}");
        }
    }
}
