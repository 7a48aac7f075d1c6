//! # dlflow-cli — the `dlflow` command-line front end
//!
//! One binary, six subcommands, mapping one-to-one onto the library's
//! entry points:
//!
//! | subcommand | library entry point | paper artefact |
//! |---|---|---|
//! | `makespan` | `dlflow_core::makespan::min_makespan` | Theorem 1 |
//! | `maxflow` (`--preemptive`, `--stretch`) | `dlflow_core::maxflow` | Theorem 2 / §4.4 |
//! | `deadline` | `dlflow_core::deadline` | Lemma 1 |
//! | `milestones` | `dlflow_core::milestones` | the Theorem-2 breakpoints |
//! | `campaign` (`--out`, `--serial`) | `dlflow_sim::campaign` | the §6 tournament, or its fault sweep (one tournament report per level) when the config has a `faults` line |
//! | `simulate` (`--scheduler`, `--json`) | `dlflow_sim::service` | the §5 online model, streamed |
//!
//! Instances are read from `.dlf` text files (parsed by [`mod@format`]
//! into exact-rational `Instance<Rat>` values), open-arrival traces from
//! `.dlt` files (replayed through the incremental engine with memory
//! bound by the in-flight request count), and campaigns from campaign
//! config files; all three formats are documented in `docs/FORMATS.md`.
//! `--gantt [width]` renders ASCII charts for any schedule-producing
//! subcommand; `simulate --json` emits a byte-stable, replayable report.
//!
//! This crate's library target exists for the parsers (`.dlf` files and
//! `--faults` specs) and for end-to-end tests; the binary (`src/main.rs`)
//! is a thin argument-handling shell over it.
//!
//! ## Example
//!
//! ```
//! use dlflow_cli::format::parse_instance;
//! use dlflow_core::maxflow::min_max_weighted_flow_divisible;
//!
//! let inst = parse_instance("
//!     job 0 1 blast-query
//!     job 1 2 prosite-scan
//!     machine 4 2
//!     machine 8 inf     # second databank absent here
//! ").unwrap();
//! let out = min_max_weighted_flow_divisible(&inst);
//! dlflow_core::validate::validate(&inst, &out.schedule).unwrap();
//! assert_eq!(out.schedule.max_weighted_flow(&inst), out.optimum);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod format;

use dlflow_sim::service::FaultInjection;

/// Parses a `--faults` spec: `mtbf=<s>,mttr=<s>[,seed=<n>][,until=<t>]`,
/// each key once. The values are checked where the schedule is sampled,
/// by `dlflow_sim::service::run_simulation_with`.
pub fn parse_faults(spec: &str) -> Result<FaultInjection, String> {
    let mut mtbf = None;
    let mut mttr = None;
    let mut seed = 0xFA017u64;
    let mut until = None;
    let mut seen: Vec<&str> = Vec::new();
    for part in spec.split(',') {
        let Some((k, v)) = part.split_once('=') else {
            return Err(format!("--faults: expected key=value, got {part:?}"));
        };
        if seen.contains(&k) {
            return Err(format!("--faults: key {k:?} given twice"));
        }
        seen.push(k);
        match k {
            "mtbf" => {
                mtbf = Some(
                    v.parse::<f64>()
                        .map_err(|e| format!("--faults mtbf: {e}"))?,
                )
            }
            "mttr" => {
                mttr = Some(
                    v.parse::<f64>()
                        .map_err(|e| format!("--faults mttr: {e}"))?,
                )
            }
            "seed" => {
                seed = v
                    .parse::<u64>()
                    .map_err(|e| format!("--faults seed: {e}"))?
            }
            "until" => {
                until = Some(
                    v.parse::<f64>()
                        .map_err(|e| format!("--faults until: {e}"))?,
                )
            }
            other => return Err(format!("--faults: unknown key {other:?}")),
        }
    }
    Ok(FaultInjection {
        mtbf: mtbf.ok_or("--faults needs mtbf=<secs>")?,
        mttr: mttr.ok_or("--faults needs mttr=<secs>")?,
        seed,
        until,
    })
}

#[cfg(test)]
mod tests {
    use super::parse_faults;

    #[test]
    fn a_repeated_faults_key_is_refused() {
        let err = parse_faults("mtbf=5,mtbf=1000000,mttr=1").unwrap_err();
        assert_eq!(err, "--faults: key \"mtbf\" given twice");
        for spec in ["mtbf=5,mttr=1,mttr=2", "seed=1,mtbf=5,mttr=1,seed=1"] {
            assert!(
                parse_faults(spec).unwrap_err().contains("given twice"),
                "{spec}"
            );
        }
        let f = parse_faults("mttr=1,until=40,mtbf=5,seed=3").unwrap();
        assert_eq!((f.mtbf, f.mttr, f.seed, f.until), (5.0, 1.0, 3, Some(40.0)));
    }
}

/// Mutation fuzz of the two compact specs, `--faults` and `--scheduler`
/// (`SchedulerSpec::parse_compact`): each mutated spec parses, or fails
/// with an error that names a key or token, and a spec that repeats a
/// key never parses.
#[cfg(test)]
mod fuzz {
    use super::parse_faults;
    use dlflow_sim::campaign::SchedulerSpec;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const FAULTS: [&str; 4] = [
        "mtbf=300,mttr=20",
        "mtbf=50,mttr=5,seed=3",
        "mtbf=6,mttr=1.5,seed=4,until=15",
        "until=1e3,mttr=1,mtbf=1000000000",
    ];
    const SCHEDULERS: [&str; 5] = ["swrpt", "edf:target=3", "edf:target=0.5", "ola", "mct"];

    /// One mutation: truncation, token splice or deletion, a perturbed
    /// number, a key repeated with another value, or two tokens swapped.
    fn mutate(spec: &str, rng: &mut SmallRng) -> String {
        let mut toks: Vec<String> = spec.split(',').map(String::from).collect();
        let n = toks.len();
        let numbers = ["nan", "inf", "-inf", "1e-320", "1e308", "0", "-1", "", "x"];
        match rng.gen_range(0..6) {
            0 => {
                let mut cut = rng.gen_range(0..=spec.len());
                while !spec.is_char_boundary(cut) {
                    cut -= 1;
                }
                return spec[..cut].to_string();
            }
            1 => {
                let tok = toks[rng.gen_range(0..n)].clone();
                toks.insert(rng.gen_range(0..=n), tok);
            }
            2 if n > 1 => {
                toks.remove(rng.gen_range(0..n));
            }
            3 => {
                let i = rng.gen_range(0..n);
                if let Some((k, _)) = toks[i].split_once('=') {
                    toks[i] = format!("{k}={}", numbers[rng.gen_range(0..numbers.len())]);
                }
            }
            4 => {
                let i = rng.gen_range(0..n);
                if let Some((k, _)) = toks[i].split_once('=') {
                    // A bare key: the spec's kind prefix stays behind.
                    let k = k.rsplit(':').next().unwrap_or(k);
                    let tok = format!("{k}={}", ["2", "7.5", "1e-3"][rng.gen_range(0..3usize)]);
                    toks.insert(rng.gen_range(1.max(i)..=n), tok);
                }
            }
            _ => toks.swap(rng.gen_range(0..n), rng.gen_range(0..n)),
        }
        toks.join(",")
    }

    /// The keys of `key=value` options, in order.
    fn keys(options: &str) -> Vec<&str> {
        options
            .split(',')
            .filter_map(|t| t.split_once('=').map(|(k, _)| k))
            .collect()
    }

    /// `Ok`, or an error naming one of `grammar`'s keys or quoting a
    /// token or key of `spec`; never `Ok` when `options` repeat a key.
    fn assert_parsed_or_named<T: std::fmt::Debug>(
        spec: &str,
        options: &str,
        grammar: &[&str],
        parsed: Result<T, String>,
    ) -> Result<(), TestCaseError> {
        let keys = keys(options);
        let repeated = (0..keys.len()).any(|i| keys[..i].contains(&keys[i]));
        match parsed {
            Ok(v) => prop_assert!(!repeated, "{spec:?} repeats a key, parsed to {v:?}"),
            Err(err) => {
                // Tokens between commas, colons, or both: a scheduler's
                // kind is everything before its first colon.
                let pieces = || {
                    let by_both = spec.split([',', ':']);
                    spec.split(',').chain(spec.split(':')).chain(by_both)
                };
                let quoted = |p: &str| err.contains(&format!("{p:?}"));
                let named = grammar.iter().any(|k| err.contains(k))
                    || pieces().any(quoted)
                    || pieces()
                        .filter_map(|p| p.split_once('='))
                        .any(|(k, _)| quoted(k));
                prop_assert!(named, "{spec:?}: {err}");
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn mutated_faults_specs_parse_or_name_their_key(
            seed in any::<u64>(),
            n_mutations in 1usize..4,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut spec = FAULTS[rng.gen_range(0..FAULTS.len())].to_string();
            for _ in 0..n_mutations {
                spec = mutate(&spec, &mut rng);
            }
            let grammar = ["mtbf", "mttr", "seed", "until"];
            assert_parsed_or_named(&spec, &spec, &grammar, parse_faults(&spec))?;
        }

        #[test]
        fn mutated_scheduler_specs_parse_or_name_their_key(
            seed in any::<u64>(),
            n_mutations in 1usize..4,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut spec = SCHEDULERS[rng.gen_range(0..SCHEDULERS.len())].to_string();
            for _ in 0..n_mutations {
                spec = mutate(&spec, &mut rng);
            }
            let options = spec.split_once(':').map_or("", |(_, o)| o);
            let parsed = SchedulerSpec::parse_compact(&spec);
            assert_parsed_or_named(&spec, options, &["target"], parsed)?;
        }
    }
}
