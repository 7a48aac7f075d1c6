//! ASCII Gantt-chart rendering of schedules, for examples and experiment
//! binaries (a textual stand-in for the paper's figures).

use crate::schedule::Schedule;
use dlflow_num::Scalar;

/// Glyph for job `j`: `1`–`9`, then `a`–`z`, then `#`.
fn glyph(job: usize) -> char {
    match job {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "match arm bounds job to 0..=8"
        )]
        0..=8 => (b'1' + job as u8) as char,
        #[expect(
            clippy::cast_possible_truncation,
            reason = "match arm bounds job - 9 to 0..=25"
        )]
        9..=34 => (b'a' + (job - 9) as u8) as char,
        _ => '#',
    }
}

/// Renders the schedule as one row of `width` columns per machine,
/// `·` for idle time, digits/letters identifying jobs. The time axis
/// spans `[0, makespan]`.
pub fn render_gantt<S: Scalar>(sched: &Schedule<S>, width: usize) -> String {
    let width = width.max(10);
    let horizon = sched.makespan().to_f64().max(1e-12);
    let mut out = String::new();
    for (i, tl) in sched.machines.iter().enumerate() {
        let mut row = vec!['.'; width];
        for s in tl {
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "start/horizon is in [0, 1]; product is in [0, width]"
            )]
            let a = (s.start.to_f64() / horizon * width as f64).round() as usize;
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "end/horizon is in [0, 1]; product is in [0, width]"
            )]
            let b = (s.end.to_f64() / horizon * width as f64).round() as usize;
            let b = b.max(a + 1).min(width);
            for cell in row.iter_mut().take(b).skip(a.min(width - 1)) {
                *cell = glyph(s.job);
            }
        }
        out.push_str(&format!("M{:<2} |", i + 1));
        out.extend(row);
        out.push_str("|\n");
    }
    out.push_str(&format!(
        "     0{}{:.3}\n",
        " ".repeat(width.saturating_sub(6)),
        horizon
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{ScheduleKind, Slice};

    #[test]
    fn renders_rows_and_axis() {
        let mut s = Schedule::<f64>::empty(2, ScheduleKind::Divisible);
        s.push(
            0,
            Slice {
                job: 0,
                start: 0.0,
                end: 5.0,
            },
        );
        s.push(
            1,
            Slice {
                job: 1,
                start: 5.0,
                end: 10.0,
            },
        );
        let g = render_gantt(&s, 20);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("M1"));
        assert!(lines[0].contains('1'));
        assert!(lines[1].contains('2'));
        // M1 idle in the second half, M2 idle in the first half.
        assert!(lines[0].contains('.'));
        assert!(lines[1].starts_with("M2  |."));
        assert!(lines[2].contains("10.000"));
    }

    #[test]
    fn glyphs_cover_many_jobs() {
        assert_eq!(glyph(0), '1');
        assert_eq!(glyph(8), '9');
        assert_eq!(glyph(9), 'a');
        assert_eq!(glyph(34), 'z');
        assert_eq!(glyph(35), '#');
    }

    #[test]
    fn empty_schedule_is_all_idle() {
        let s = Schedule::<f64>::empty(1, ScheduleKind::Divisible);
        let g = render_gantt(&s, 12);
        assert!(g.lines().next().unwrap().contains("............"));
    }
}
