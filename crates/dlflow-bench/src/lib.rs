//! # dlflow-bench — experiment harness
//!
//! One binary per artefact of the paper's evaluation (see the experiment
//! index in `EXPERIMENTS.md`), plus Criterion microbenches:
//!
//! | binary | reproduces |
//! |--------|-----------|
//! | `fig1a_sequence_divisibility` | Figure 1(a): block time vs sequence block size |
//! | `fig1b_motif_divisibility` | Figure 1(b): block time vs motif subset size |
//! | `online_vs_mct` | the conclusion's online simulation claim |
//! | `thm1_makespan` | Theorem 1 validation + polynomial scaling |
//! | `thm2_maxflow` | Theorem 2 validation, milestones, optimality chain |
//! | `sec44_preemptive` | §4.4 reconstruction statistics |
//! | `campaign` | the §6 tournament → `CAMPAIGN_PR4.json` / `.md` |
//! | `bench-report` | quick-mode perf medians → `BENCH_PR10.json` |
//!
//! This library holds the small table/CSV rendering helpers they share.
//!
//! ## Example
//!
//! ```
//! use dlflow_bench::{f3, render_table};
//!
//! let table = render_table(
//!     &["policy", "mean ratio"],
//!     &[
//!         vec!["MCT".into(), f3(5.646)],
//!         vec!["OLA".into(), f3(1.003)],
//!     ],
//! );
//! assert!(table.lines().count() == 4 && table.contains("OLA"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Renders an aligned text table: a header row then data rows.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let ncol = header.len();
    let mut width: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (k, cell) in row.iter().enumerate().take(ncol) {
            width[k] = width[k].max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |cells: &[String], width: &[usize], out: &mut String| {
        for (k, c) in cells.iter().enumerate() {
            if k > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{:>w$}", c, w = width[k]));
        }
        out.push('\n');
    };
    line(
        &header.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        &width,
        &mut out,
    );
    let total: usize = width.iter().sum::<usize>() + 2 * (ncol - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        line(row, &width, &mut out);
    }
    out
}

/// Renders rows as CSV (for plotting).
pub fn render_csv(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = header.join(",");
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

/// Formats a float with 3 decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = render_table(
            &["a", "bb"],
            &[
                vec!["1".into(), "2".into()],
                vec!["10".into(), "200".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains('a') && lines[0].contains("bb"));
        assert!(lines[1].starts_with('-'));
    }

    #[test]
    fn fixed_width_float_rendering() {
        assert_eq!(f3(0.12349), "0.123");
        assert_eq!(f3(7.0), "7.000");
    }

    #[test]
    fn csv_rendering() {
        let c = render_csv(&["x", "y"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(c, "x,y\n1,2\n");
    }
}
