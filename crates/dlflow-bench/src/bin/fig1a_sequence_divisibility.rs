//! **Figure 1(a)** — Sequence databank divisibility.
//!
//! Paper setup: a fixed set of ≈300 motifs; a databank of ≈38 000 protein
//! sequences; block sizes from 1/20 of the databank to the full set; ten
//! iterations per size with randomly drawn subsets; plot block execution
//! time vs block size. Expected shape: near-perfectly linear, with a
//! small intercept (the paper's regression: ≈1.1 s).
//!
//! Here: (1) *measured* series — wall-clock of the real scanner on a
//! scaled-down synthetic databank (full size would take hours on one
//! laptop core; scaling down preserves linearity, which is the claim);
//! (2) *model* series — the calibrated cost model at the paper's full
//! scale, reproducing the 1.1 s intercept and ~100 s full-scan time.

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "an experiment bin: the wall-clock time it reports is what it measures"
)]

use dlflow_bench::{f3, render_csv, render_table};
use dlflow_gripps::cost_model::{linear_regression, CostModel};
use dlflow_gripps::databank::{Databank, DatabankSpec};
use dlflow_gripps::motif::Motif;
use dlflow_gripps::scan::scan_databank;
use std::time::Instant;

fn main() {
    println!("=== Figure 1(a): sequence databank divisibility ===\n");

    // ---------- Measured series (scaled-down, real scanning) ----------
    let spec = DatabankSpec {
        n_sequences: 1900,
        mean_len: 350,
        min_len: 40,
        seed: 2005,
    };
    let bank = Databank::generate(&spec);
    let motifs = Motif::random_set(30, 6, 1987);
    let iters = 3;

    let mut rows = Vec::new();
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for k in 1..=10 {
        let size = bank.n_sequences() * k / 10;
        let mut total = 0.0f64;
        let mut residues = 0usize;
        for it in 0..iters {
            let subset = bank.random_subset(size, (k * 100 + it) as u64);
            residues = subset.total_residues();
            let t0 = Instant::now();
            let rep = scan_databank(&subset, &motifs);
            total += t0.elapsed().as_secs_f64();
            std::hint::black_box(rep.matches.len());
        }
        let mean = total / iters as f64;
        xs.push(residues as f64);
        ys.push(mean);
        rows.push(vec![size.to_string(), residues.to_string(), f3(mean * 1e3)]);
    }
    let (slope, intercept, r2) = linear_regression(&xs, &ys);
    println!(
        "measured (scaled: {} seqs, {} motifs, {} iters/point):",
        bank.n_sequences(),
        motifs.len(),
        iters
    );
    println!(
        "{}",
        render_table(&["block (seqs)", "residues", "mean time (ms)"], &rows)
    );
    println!(
        "linear fit: time = {:.3e}·residues + {:.4}s   (r² = {:.6})",
        slope, intercept, r2
    );
    println!("→ divisibility confirmed: r² ≈ 1 and intercept ≈ 0 relative to full-scan time.\n");

    // ---------- Model series (paper scale) ----------
    let model = CostModel::paper_scale();
    let full_residues = 38_000.0 * 350.0;
    let n_motifs = 300.0;
    let mut mrows = Vec::new();
    let mut mxs = Vec::new();
    let mut mys = Vec::new();
    for k in 1..=20 {
        let blk = full_residues * k as f64 / 20.0;
        let t = model.sequence_partition_time(blk, n_motifs);
        mxs.push(blk);
        mys.push(t);
        mrows.push(vec![format!("{}/20", k), format!("{:.0}", blk), f3(t)]);
    }
    let (ms, mi, mr2) = linear_regression(&mxs, &mys);
    println!("model at paper scale (38 000 seqs × 350 aa, 300 motifs):");
    println!(
        "{}",
        render_table(&["block", "residues", "time (s)"], &mrows)
    );
    println!(
        "linear fit: slope {:.3e} s/residue, intercept {:.2} s, r² = {:.6}",
        ms, mi, mr2
    );
    println!("paper reports: linear, intercept ≈ 1.1 s, full scan ≈ 100–120 s.");

    println!(
        "\nCSV (model series):\n{}",
        render_csv(
            &["residues", "seconds"],
            &mrows
                .iter()
                .map(|r| vec![r[1].clone(), r[2].clone()])
                .collect::<Vec<_>>()
        )
    );
}
