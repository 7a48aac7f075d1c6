//! Affine cost model and regression — the analysis behind Figure 1.
//!
//! The paper fits `time = slope · size + overhead` to both partitioning
//! experiments and reads off the overheads (1.1 s for sequence-set
//! partitioning, 10.5 s for motif-set partitioning). We provide the same
//! least-squares machinery plus a calibrated analytic model that lets the
//! scheduling experiments work with deterministic costs.

/// Ordinary least squares for `y ≈ slope·x + intercept`.
///
/// Returns `(slope, intercept, r²)`. Requires at least two distinct `x`.
pub fn linear_regression(xs: &[f64], ys: &[f64]) -> (f64, f64, f64) {
    assert_eq!(xs.len(), ys.len());
    let n = xs.len() as f64;
    assert!(xs.len() >= 2, "regression needs at least two points");
    let mean_x = xs.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxx += (x - mean_x) * (x - mean_x);
        sxy += (x - mean_x) * (y - mean_y);
        syy += (y - mean_y) * (y - mean_y);
    }
    assert!(sxx > 0.0, "regression needs at least two distinct x values");
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    // dlflint:allow(float-eq, "syy is exactly 0.0 iff every y is identical (degenerate fit)")
    let r2 = if syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    (slope, intercept, r2)
}

/// Calibrated affine cost model of a GriPPS invocation on one server.
///
/// `time(work, bank_residues) = invocation_overhead
///                            + bank_parse_per_residue · bank_residues
///                            + seconds_per_unit · work`
///
/// * `work` = scanned residues × motifs (the divisible quantity),
/// * `bank_residues` = size of the databank parsed at invocation start —
///   the term that makes *motif partitioning* pay a large fixed cost
///   (the full bank is re-parsed by every sub-invocation) while *sequence
///   partitioning* does not (each sub-invocation parses only its block).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Fixed startup (process launch, motif compilation), seconds.
    pub invocation_overhead: f64,
    /// Databank parse/index cost per residue, seconds.
    pub bank_parse_per_residue: f64,
    /// Scan cost per work unit (residue × motif), seconds.
    pub seconds_per_unit: f64,
}

impl CostModel {
    /// A model calibrated so that the paper's full-size experiment
    /// (≈38 000 sequences ≈ 13.3 M residues, ≈300 motifs) lands in the
    /// same range as Figure 1: full-bank scans ≈ 100–120 s, sequence-
    /// partitioning intercept ≈ 1.1 s, motif-partitioning intercept
    /// ≈ 10.5 s.
    pub fn paper_scale() -> CostModel {
        CostModel {
            invocation_overhead: 1.1,
            // 13.3 M residues × 7e-7 ≈ 9.3 s: bank parse ⇒ 1.1 + 9.3 ≈ 10.5 s
            // intercept for motif partitioning.
            bank_parse_per_residue: 7.0e-7,
            // 13.3 M residues × 300 motifs ≈ 4.0e9 work units; × 2.5e-8
            // ≈ 100 s at full size, matching Figure 1's vertical scale.
            seconds_per_unit: 2.5e-8,
        }
    }

    /// Predicted wall-clock of one invocation.
    pub fn invocation_time(&self, work_units: f64, bank_residues: f64) -> f64 {
        self.invocation_overhead
            + self.bank_parse_per_residue * bank_residues
            + self.seconds_per_unit * work_units
    }

    /// Sequence-partitioning series (Figure 1a): the motif set is fixed at
    /// `n_motifs`; each point scans a block of `block_residues`. The block
    /// itself is what gets parsed.
    pub fn sequence_partition_time(&self, block_residues: f64, n_motifs: f64) -> f64 {
        self.invocation_time(block_residues * n_motifs, block_residues)
    }

    /// Motif-partitioning series (Figure 1b): the databank is fixed at
    /// `bank_residues`; each point scans `motif_subset` motifs, but the
    /// *entire* bank must be parsed first.
    pub fn motif_partition_time(&self, motif_subset: f64, bank_residues: f64) -> f64 {
        self.invocation_time(bank_residues * motif_subset, bank_residues)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regression_exact_line() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [1.0, 3.0, 5.0, 7.0];
        let (m, b, r2) = linear_regression(&xs, &ys);
        assert!((m - 2.0).abs() < 1e-12);
        assert!((b - 1.0).abs() < 1e-12);
        assert!((r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn regression_with_noise_keeps_high_r2() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| {
                3.0 * x
                    + 10.0
                    + if (x as u64).is_multiple_of(2) {
                        0.5
                    } else {
                        -0.5
                    }
            })
            .collect::<Vec<_>>();
        let (m, b, r2) = linear_regression(&xs, &ys);
        assert!((m - 3.0).abs() < 0.01);
        assert!((b - 10.0).abs() < 0.5);
        assert!(r2 > 0.999);
    }

    #[test]
    #[should_panic(expected = "distinct x")]
    fn regression_rejects_constant_x() {
        let _ = linear_regression(&[1.0, 1.0], &[2.0, 3.0]);
    }

    #[test]
    fn paper_scale_reproduces_figure1_intercepts() {
        let m = CostModel::paper_scale();
        let bank = 38_000.0 * 350.0; // ≈ 13.3 M residues
        let motifs = 300.0;

        // Figure 1(a): sweep block size, fixed motif set; regress on residues.
        let blocks: Vec<f64> = (1..=20).map(|k| bank * k as f64 / 20.0).collect();
        let times: Vec<f64> = blocks
            .iter()
            .map(|&b| m.sequence_partition_time(b, motifs))
            .collect();
        let (_, intercept_a, r2a) = linear_regression(&blocks, &times);
        assert!(
            (intercept_a - 1.1).abs() < 0.2,
            "seq intercept {intercept_a}"
        );
        assert!(r2a > 0.9999);

        // Figure 1(b): sweep motif subset, fixed full bank.
        let subsets: Vec<f64> = (1..=20).map(|k| motifs * k as f64 / 20.0).collect();
        let times: Vec<f64> = subsets
            .iter()
            .map(|&s| m.motif_partition_time(s, bank))
            .collect();
        let (_, intercept_b, r2b) = linear_regression(&subsets, &times);
        assert!(
            (intercept_b - 10.5).abs() < 0.5,
            "motif intercept {intercept_b}"
        );
        assert!(r2b > 0.9999);

        // Full-size scan lands near the figure's ~100 s scale.
        let full = m.sequence_partition_time(bank, motifs);
        assert!(full > 80.0 && full < 130.0, "full scan {full}");
    }

    #[test]
    fn intercept_asymmetry_matches_paper() {
        // The motif-partitioning overhead must dominate the sequence-
        // partitioning overhead by roughly an order of magnitude (10.5 vs 1.1).
        let m = CostModel::paper_scale();
        let bank = 38_000.0 * 350.0;
        let seq_overhead = m.invocation_overhead; // block → 0 limit
        let motif_overhead = m.invocation_time(0.0, bank);
        assert!(motif_overhead / seq_overhead > 5.0);
    }

    #[test]
    fn fit_recovers_model() {
        let m = CostModel::paper_scale();
        let bank = 1e6;
        let motifs: Vec<f64> = (1..=10).map(|k| 30.0 * k as f64).collect();
        let times: Vec<f64> = motifs
            .iter()
            .map(|&x| m.motif_partition_time(x, bank))
            .collect();
        let (slope, overhead, r2) = linear_regression(&motifs, &times);
        assert!((slope - m.seconds_per_unit * bank).abs() / slope < 1e-9);
        assert!(
            (overhead - (m.invocation_overhead + m.bank_parse_per_residue * bank)).abs() < 1e-9
        );
        assert!((r2 - 1.0).abs() < 1e-12);
    }
}
