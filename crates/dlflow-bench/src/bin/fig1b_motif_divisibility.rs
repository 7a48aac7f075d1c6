//! **Figure 1(b)** — Motif set divisibility.
//!
//! Paper setup: the full databank is fixed; the ≈300-motif set is
//! partitioned into subsets of varying size; each subset is compared
//! against the whole databank. Expected shape: linear in the motif-subset
//! size but with a *large* fixed overhead (the paper's regression:
//! ≈10.5 s vs 1.1 s for sequence partitioning) — splitting along motifs
//! pays a per-invocation cost because every sub-invocation must process
//! the entire databank once.
//!
//! Here the overhead is reproduced mechanically: each invocation
//! re-parses the full databank from FASTA before scanning (measured
//! series), and the calibrated model reproduces the paper-scale numbers.

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "an experiment bin: the wall-clock time it reports is what it measures"
)]

use dlflow_bench::{f3, render_csv, render_table};
use dlflow_gripps::cost_model::{linear_regression, CostModel};
use dlflow_gripps::databank::{Databank, DatabankSpec};
use dlflow_gripps::motif::Motif;
use dlflow_gripps::scan::invoke;
use std::time::Instant;

fn main() {
    println!("=== Figure 1(b): motif set divisibility ===\n");

    // ---------- Measured series (scaled-down, real invocations) ----------
    let spec = DatabankSpec {
        n_sequences: 1500,
        mean_len: 350,
        min_len: 40,
        seed: 2005,
    };
    let bank = Databank::generate(&spec);
    let fasta = bank.to_fasta(); // the "databank on disk"
    let motifs = Motif::random_set(40, 6, 1987);
    let sources: Vec<String> = motifs.iter().map(|m| m.source.clone()).collect();
    let iters = 3;

    let mut rows = Vec::new();
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for k in 1..=10 {
        let size = motifs.len() * k / 10;
        let subset: Vec<&str> = sources[..size].iter().map(String::as_str).collect();
        let mut total = 0.0;
        for _ in 0..iters {
            let t0 = Instant::now();
            let rep = invoke(&fasta, &subset).expect("invocation succeeds");
            total += t0.elapsed().as_secs_f64();
            std::hint::black_box(rep.matches.len());
        }
        let mean = total / iters as f64;
        xs.push(size as f64);
        ys.push(mean);
        rows.push(vec![size.to_string(), f3(mean * 1e3)]);
    }
    let (slope, intercept, r2) = linear_regression(&xs, &ys);
    println!(
        "measured (scaled: {} seqs re-parsed per invocation, up to {} motifs, {} iters/point):",
        bank.n_sequences(),
        motifs.len(),
        iters
    );
    println!(
        "{}",
        render_table(&["motif subset", "mean time (ms)"], &rows)
    );
    println!(
        "linear fit: time = {:.3}ms/motif · n + {:.3}ms overhead (r² = {:.4})",
        slope * 1e3,
        intercept * 1e3,
        r2
    );
    let full_scan = ys.last().unwrap();
    println!(
        "overhead is {:.0}% of a full-subset invocation — the motif axis is NOT freely divisible.\n",
        intercept / full_scan * 100.0
    );

    // ---------- Model series (paper scale) ----------
    let model = CostModel::paper_scale();
    let bank_residues = 38_000.0 * 350.0;
    let mut mrows = Vec::new();
    let mut mxs = Vec::new();
    let mut mys = Vec::new();
    for k in 1..=20 {
        let subset = 300.0 * k as f64 / 20.0;
        let t = model.motif_partition_time(subset, bank_residues);
        mxs.push(subset);
        mys.push(t);
        mrows.push(vec![format!("{:.0}", subset), f3(t)]);
    }
    let (ms, mi, mr2) = linear_regression(&mxs, &mys);
    println!("model at paper scale (full bank re-parsed per invocation):");
    println!("{}", render_table(&["motifs", "time (s)"], &mrows));
    println!(
        "linear fit: slope {:.4} s/motif, intercept {:.2} s, r² = {:.6}",
        ms, mi, mr2
    );
    println!("paper reports: linear, intercept ≈ 10.5 s (vs 1.1 s along the sequence axis).");

    println!(
        "\nCSV (model series):\n{}",
        render_csv(&["motifs", "seconds"], &mrows)
    );
}
