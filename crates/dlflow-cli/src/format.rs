//! Parser for the `.dlf` instance file format.
//!
//! The format itself — grammar, number syntax, availability markers,
//! semantics — is documented in `docs/FORMATS.md`, side by side with the
//! campaign config format. In one line: `job <release> <weight> [name]`
//! per job, then `machine <c1> … <cn>` per machine with `inf` marking an
//! absent databank; numbers parse as exact rationals.

use dlflow_core::instance::{Cost, Instance, Job};
use dlflow_num::Rat;

/// Parse error with 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line where parsing failed (0 = structural error).
    pub line: usize,
    /// Message.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.msg)
        } else {
            write!(f, "line {}: {}", self.line, self.msg)
        }
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, msg: impl Into<String>) -> ParseError {
    ParseError {
        line,
        msg: msg.into(),
    }
}

/// Parses one numeric token as an exact rational (`"3/2"`, `"0.25"`, `"7"`).
pub fn parse_rat(tok: &str, line: usize) -> Result<Rat, ParseError> {
    if let Ok(r) = Rat::from_str_ratio(tok) {
        return Ok(r);
    }
    // Decimal form a.b → a + b/10^k.
    if let Some((int, frac)) = tok.split_once('.') {
        let sign = if int.starts_with('-') { -1i64 } else { 1 };
        let whole =
            Rat::from_str_ratio(int).map_err(|_| err(line, format!("bad number {tok:?}")))?;
        if frac.is_empty() || !frac.bytes().all(|b| b.is_ascii_digit()) {
            return Err(err(line, format!("bad number {tok:?}")));
        }
        let num: i64 = frac
            .parse()
            .map_err(|_| err(line, format!("bad number {tok:?}")))?;
        let den = 10i64
            .checked_pow(frac.len() as u32)
            .ok_or_else(|| err(line, format!("too many decimals in {tok:?}")))?;
        let frac_part = Rat::from_ratio(sign * num, den);
        return Ok(whole + frac_part);
    }
    Err(err(line, format!("bad number {tok:?}")))
}

/// Parses a cost token (`parse_rat` or `inf`/`-`/`x` for unavailable).
pub(crate) fn parse_cost(tok: &str, line: usize) -> Result<Cost<Rat>, ParseError> {
    match tok {
        "inf" | "INF" | "-" | "x" | "X" => Ok(Cost::Infinite),
        _ => Ok(Cost::Finite(parse_rat(tok, line)?)),
    }
}

/// Parses a full `.dlf` document into an exact instance.
pub fn parse_instance(text: &str) -> Result<Instance<Rat>, ParseError> {
    let mut jobs: Vec<Job<Rat>> = Vec::new();
    let mut machines: Vec<(usize, Vec<Cost<Rat>>)> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut toks = line.split_whitespace();
        match toks.next() {
            Some("job") => {
                let release = parse_rat(
                    toks.next()
                        .ok_or_else(|| err(lineno, "job: missing release"))?,
                    lineno,
                )?;
                let weight = parse_rat(
                    toks.next()
                        .ok_or_else(|| err(lineno, "job: missing weight"))?,
                    lineno,
                )?;
                let name = toks
                    .next()
                    .map(str::to_string)
                    .unwrap_or_else(|| format!("J{}", jobs.len() + 1));
                if toks.next().is_some() {
                    return Err(err(lineno, "job: trailing tokens"));
                }
                jobs.push(Job {
                    release,
                    weight,
                    name,
                });
            }
            Some("machine") => {
                let costs: Result<Vec<_>, _> = toks.map(|t| parse_cost(t, lineno)).collect();
                machines.push((lineno, costs?));
            }
            Some(other) => return Err(err(lineno, format!("unknown directive {other:?}"))),
            None => unreachable!("empty line filtered"),
        }
    }

    if jobs.is_empty() {
        return Err(err(0, "no `job` lines"));
    }
    let n = jobs.len();
    let mut rows = Vec::with_capacity(machines.len());
    for (lineno, row) in machines {
        if row.len() != n {
            return Err(err(
                lineno,
                format!(
                    "machine has {} costs, expected {n} (one per job)",
                    row.len()
                ),
            ));
        }
        rows.push(row);
    }
    Instance::new(jobs, rows).map_err(|e| err(0, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    const SAMPLE: &str = "\
# two databank servers, two requests
job 0 1 q1
job 1 2 q2
machine 4 2
machine 8 inf   # second databank absent here
";

    #[test]
    fn parses_sample() {
        let inst = parse_instance(SAMPLE).unwrap();
        assert_eq!(inst.n_jobs(), 2);
        assert_eq!(inst.n_machines(), 2);
        assert_eq!(inst.job(0).name, "q1");
        assert_eq!(inst.job(1).weight, Rat::from_i64(2));
        assert_eq!(inst.cost(0, 1).finite().unwrap(), &Rat::from_i64(2));
        assert!(!inst.cost(1, 1).is_finite());
    }

    #[test]
    fn rational_and_decimal_numbers() {
        assert_eq!(parse_rat("3/2", 1).unwrap(), Rat::from_ratio(3, 2));
        assert_eq!(parse_rat("0.25", 1).unwrap(), Rat::from_ratio(1, 4));
        assert_eq!(parse_rat("7", 1).unwrap(), Rat::from_i64(7));
        assert_eq!(parse_rat("-1.5", 1).unwrap(), Rat::from_ratio(-3, 2));
        assert!(parse_rat("abc", 1).is_err());
        assert!(parse_rat("1.x", 1).is_err());
    }

    #[test]
    fn parse_cost_accepts_all_unavailable_spellings() {
        for tok in ["inf", "INF", "-", "x", "X"] {
            assert_eq!(parse_cost(tok, 1).unwrap(), Cost::Infinite);
        }
        assert_eq!(
            parse_cost("2.5", 1).unwrap(),
            Cost::Finite(Rat::from_ratio(5, 2))
        );
    }

    #[test]
    fn error_reporting_with_line_numbers() {
        let e = parse_instance("job 0 1\nmachine 4 2\n").unwrap_err();
        assert_eq!(e.line, 2); // machine row length mismatch
        let e = parse_instance("frob 1 2\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.msg.contains("frob"));
        let e = parse_instance("machine 1\n").unwrap_err();
        assert!(e.msg.contains("no `job`"));
    }

    #[test]
    fn validation_errors_surface() {
        // Unplaceable job.
        let e = parse_instance("job 0 1\nmachine inf\n").unwrap_err();
        assert!(e.msg.contains("no machine"), "{}", e.msg);
    }

    #[test]
    fn whole_pipeline_on_parsed_instance() {
        let inst = parse_instance(SAMPLE).unwrap();
        let out = dlflow_core::maxflow::min_max_weighted_flow_divisible(&inst);
        dlflow_core::validate::validate(&inst, &out.schedule).unwrap();
        assert!(out.optimum.is_positive());
    }
}
