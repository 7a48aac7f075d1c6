//! Parser for the `.dlf` instance file format.
//!
//! The format itself — grammar, number syntax, availability markers,
//! semantics — is documented in `docs/FORMATS.md`, side by side with the
//! campaign config format. In one line: `job <release> <weight> [name]`
//! per job, then `machine <c1> … <cn>` per machine with `inf` marking an
//! absent databank; numbers parse as exact rationals.

use dlflow_core::instance::{Cost, Instance, InstanceError, Job};
use dlflow_num::{ParseRatError, Rat};

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
    match Rat::from_str_ratio(tok) {
        Ok(r) => return Ok(r),
        Err(ParseRatError::ZeroDenominator) => {
            return Err(err(line, format!("zero denominator in {tok:?}")));
        }
        Err(ParseRatError::Digits(_)) => {}
    }
    // Decimal form a.b → a + b/10^k, with an integer `a`.
    if let Some((int, frac)) = tok.split_once('.').filter(|(int, _)| !int.contains('/')) {
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
    let mut job_lines: Vec<usize> = Vec::new();
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
                job_lines.push(lineno);
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
    let mut machine_lines = Vec::with_capacity(machines.len());
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
        machine_lines.push(lineno);
    }
    // A refused value is reported at the line that holds it: its job's,
    // or for a cost its machine's.
    Instance::new(jobs, rows).map_err(|e| {
        let line = match e {
            InstanceError::NegativeRelease(j)
            | InstanceError::NonPositiveWeight(j)
            | InstanceError::Unplaceable(j) => job_lines[j],
            InstanceError::NegativeCost(i, _) => machine_lines[i],
            InstanceError::NoJobs | InstanceError::NoMachines | InstanceError::BadMatrixShape => 0,
        };
        err(line, e.to_string())
    })
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
        // Each refusal names the line that holds the refused value.
        for (text, line, needle) in [
            (
                "job 0 1\n\njob 0 0\nmachine 1 1\n",
                3,
                "non-positive weight",
            ),
            ("job 0 1\njob -1 1\nmachine 1 1\n", 2, "negative release"),
            ("job 0 1\nmachine 1\nmachine -2\n", 3, "negative"),
            ("job 0 1\njob 0 1\nmachine 1 x\n", 2, "no machine"),
        ] {
            let e = parse_instance(text).unwrap_err();
            assert_eq!(e.line, line, "{text:?}: {e}");
            assert!(e.msg.contains(needle), "{text:?}: {e}");
        }
        let e = parse_instance("job 0 1\n").unwrap_err();
        assert_eq!((e.line, e.msg.as_str()), (0, "instance has no machines"));
    }

    #[test]
    fn zero_denominators_are_line_numbered_errors() {
        for (text, line) in [
            ("job 0 1/0\nmachine 1\n", 1),
            ("job 0 1\nmachine 1/0\n", 2),
            ("job 0/0 1\nmachine 1\n", 1),
            ("job 0 1\nmachine 1/0.5\n", 2),
        ] {
            let e = parse_instance(text).unwrap_err();
            assert_eq!(e.line, line, "{text:?}: {e}");
        }
        let e = parse_rat("1/0", 0).unwrap_err();
        assert_eq!(e.to_string(), "zero denominator in \"1/0\"");
        assert!(
            parse_rat("1/2.5", 1).is_err(),
            "a decimal needs an integer part"
        );
    }

    #[test]
    fn whole_pipeline_on_parsed_instance() {
        let inst = parse_instance(SAMPLE).unwrap();
        let out = dlflow_core::maxflow::min_max_weighted_flow_divisible(&inst);
        dlflow_core::validate::validate(&inst, &out.schedule).unwrap();
        assert!(out.optimum.is_positive());
    }
}

/// Mutation fuzz of the `.dlf` parser, in the manner of the `.dlt` and
/// compact-spec fuzzes: valid documents, mutated, parse or fail with an
/// error at one of their lines, and never panic.
#[cfg(test)]
mod fuzz {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const DOCUMENTS: [&str; 3] = [
        "# two databank servers, two requests\njob 0 1 q1\njob 1 2 q2\n\
         machine 4 2\nmachine 8 inf   # second databank absent here\n",
        "job 0 1/3\njob 5/2 0.75\njob 1.5 2 big\nmachine 3/2 x 7\nmachine - 1/4 2.125\n\
         machine 9 9 INF\n",
        "job 0 1\nmachine 0\nmachine 2\n",
    ];

    /// Byte spans of the whitespace-separated tokens of `text`.
    fn token_spans(text: &str) -> Vec<(usize, usize)> {
        let mut spans = Vec::new();
        let mut start = None;
        for (k, c) in text.char_indices() {
            match (c.is_whitespace(), start) {
                (true, Some(a)) => {
                    spans.push((a, k));
                    start = None;
                }
                (false, None) => start = Some(k),
                _ => {}
            }
        }
        if let Some(a) = start {
            spans.push((a, text.len()));
        }
        spans
    }

    /// One mutation: truncation, token splice or deletion, a perturbed
    /// number, duplicated or swapped lines, or an extra machine line.
    fn mutate(text: &str, rng: &mut SmallRng) -> String {
        let toks = token_spans(text);
        let mut lines: Vec<String> = text.lines().map(|l| format!("{l}\n")).collect();
        match rng.gen_range(0..7) {
            0 => {
                let mut cut = rng.gen_range(0..=text.len());
                while !text.is_char_boundary(cut) {
                    cut -= 1;
                }
                return text[..cut].to_string();
            }
            1 if !toks.is_empty() => {
                let ((a, b), (at, _)) = (
                    toks[rng.gen_range(0..toks.len())],
                    toks[rng.gen_range(0..toks.len())],
                );
                return format!("{} {} {}", &text[..at], &text[a..b], &text[at..]);
            }
            2 if !toks.is_empty() => {
                let (a, b) = toks[rng.gen_range(0..toks.len())];
                return format!("{}{}", &text[..a], &text[b..]);
            }
            3 if !toks.is_empty() => {
                let (a, b) = toks[rng.gen_range(0..toks.len())];
                let numbers = [
                    "1/0",
                    "0/0",
                    "-3/0",
                    "1/0.5",
                    "-1",
                    "-0",
                    "0",
                    "-1/2",
                    "3/-4",
                    "nan",
                    "inf",
                    "1e3",
                    ".5",
                    "5.",
                    "0.x",
                    "1/2.5",
                    "99999999999999999999999",
                    "1/99999999999999999999999",
                    "0.0000000000000000000001",
                    "",
                ];
                let bad = numbers[rng.gen_range(0..numbers.len())];
                return format!("{}{bad}{}", &text[..a], &text[b..]);
            }
            4 if !lines.is_empty() => {
                let line = lines[rng.gen_range(0..lines.len())].clone();
                lines.insert(rng.gen_range(0..=lines.len()), line);
            }
            5 if !lines.is_empty() => {
                let (i, j) = (rng.gen_range(0..lines.len()), rng.gen_range(0..lines.len()));
                lines.swap(i, j);
            }
            _ => lines.insert(rng.gen_range(0..=lines.len()), "machine 1 1/0 2\n".into()),
        }
        lines.concat()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// A mutated document parses, or fails at one of its lines; only
        /// a document without `job` lines or `machine` lines fails at none.
        #[test]
        fn mutated_documents_parse_or_name_their_line(
            seed in any::<u64>(),
            n_mutations in 1usize..4,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut text = DOCUMENTS[rng.gen_range(0..DOCUMENTS.len())].to_string();
            for _ in 0..n_mutations {
                text = mutate(&text, &mut rng);
            }
            match parse_instance(&text) {
                Ok(inst) => prop_assert!(inst.n_jobs() > 0 && inst.n_machines() > 0),
                Err(e) if e.line == 0 => prop_assert!(
                    e.msg == "no `job` lines" || e.msg == "instance has no machines",
                    "{text:?}: {e}"
                ),
                Err(e) => prop_assert!(e.line <= text.lines().count(), "{text:?}: {e}"),
            }
        }
    }
}
