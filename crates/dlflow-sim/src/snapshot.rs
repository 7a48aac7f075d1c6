//! Engine snapshot/restore: a versioned, byte-stable text format.
//!
//! A snapshot captures the *entire* observable state of a streaming
//! simulation — clock, event queues, active set, accumulated metrics,
//! platform availability, and the scheduler's private state — so a
//! long-running replay can be stopped and resumed with **bit-identical**
//! results: every f64 is serialized as the lowercase hex of its IEEE-754
//! bit pattern, and both heaps are written in their canonical pop order,
//! so `snapshot → restore → continue` takes exactly the float operations
//! the uninterrupted run takes. Of a streamed trace the pending queue
//! holds only the arrivals the feed has pushed: `next_id` counts them,
//! and the trace supplies the rest when the run resumes.
//!
//! The format is line-oriented UTF-8 text with a `dlflow-snapshot v1`
//! header (see `docs/FORMATS.md` for the grammar). It is deliberately
//! *not* a general serialization: only the engine writes it and only the
//! engine reads it back, which is what keeps it byte-stable across
//! sessions without a serde dependency.
//!
//! Scheduler state rides along: [`Engine::snapshot`] embeds
//! [`OnlineScheduler::snapshot_state`] under the policy's `name()`, and
//! [`Engine::restore`] refuses to feed that state to a policy whose name
//! differs ([`SnapshotError::SchedulerMismatch`]) — restoring an MCT
//! queue into an EDF policy is a logic error, not a best-effort merge.

use crate::engine::{
    check_job, CompletedJob, Engine, MetricsAccumulator, OnlineScheduler, PlatformChange,
    PlatformEvent,
};
use crate::workload::MAX_AVAIL_CELLS;
use std::collections::BTreeSet;
use std::fmt;

/// Errors surfaced when parsing or applying a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The header names a format version this build does not read.
    UnsupportedVersion {
        /// The header line as found.
        found: String,
    },
    /// A line failed to parse.
    Malformed {
        /// 1-based line number within the snapshot text.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// The snapshot was taken under a different scheduler than the one
    /// offered for restore.
    SchedulerMismatch {
        /// Scheduler name recorded in the snapshot.
        expected: String,
        /// `name()` of the policy offered for restore.
        found: String,
    },
    /// The scheduler rejected its embedded state.
    SchedulerState {
        /// The policy's error message.
        reason: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::UnsupportedVersion { found } => {
                write!(f, "unsupported snapshot header: {found:?}")
            }
            SnapshotError::Malformed { line, reason } => {
                write!(f, "malformed snapshot at line {line}: {reason}")
            }
            SnapshotError::SchedulerMismatch { expected, found } => {
                write!(
                    f,
                    "snapshot was taken under scheduler {expected:?}, cannot restore into {found:?}"
                )
            }
            SnapshotError::SchedulerState { reason } => {
                write!(f, "scheduler state rejected: {reason}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

const HEADER: &str = "dlflow-snapshot v1";

fn hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn push_hex(s: &mut String, v: f64) {
    use fmt::Write as _;
    let _ = write!(s, " {:016x}", v.to_bits());
}

/// Line-by-line reader with 1-based positions for error reporting.
struct Reader<'a> {
    lines: std::str::Lines<'a>,
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(text: &'a str) -> Self {
        Reader {
            lines: text.lines(),
            pos: 0,
        }
    }

    fn bad(&self, reason: impl Into<String>) -> SnapshotError {
        SnapshotError::Malformed {
            line: self.pos,
            reason: reason.into(),
        }
    }

    fn next(&mut self) -> Result<&'a str, SnapshotError> {
        self.pos += 1;
        self.lines.next().ok_or(SnapshotError::Malformed {
            line: self.pos,
            reason: "unexpected end of snapshot".into(),
        })
    }

    /// Next line, stripped of `key `; errors if the key does not match.
    fn field(&mut self, key: &str) -> Result<&'a str, SnapshotError> {
        let line = self.next()?;
        line.strip_prefix(key)
            .and_then(|rest| {
                rest.strip_prefix(' ')
                    .or(Some(rest).filter(|r| r.is_empty()))
            })
            .ok_or_else(|| self.bad(format!("expected `{key}` line, got {line:?}")))
    }

    fn usize_field(&mut self, key: &str) -> Result<usize, SnapshotError> {
        let v = self.field(key)?;
        v.parse()
            .map_err(|_| self.bad(format!("bad `{key}` value {v:?}")))
    }

    fn f64_field(&mut self, key: &str) -> Result<f64, SnapshotError> {
        let v = self.field(key)?;
        parse_hex(v).ok_or_else(|| self.bad(format!("bad `{key}` value {v:?}")))
    }

    fn bool_field(&mut self, key: &str) -> Result<bool, SnapshotError> {
        match self.field(key)? {
            "0" => Ok(false),
            "1" => Ok(true),
            v => Err(self.bad(format!("bad `{key}` value {v:?} (want 0 or 1)"))),
        }
    }
}

fn parse_hex(tok: &str) -> Option<f64> {
    (tok.len() == 16)
        .then(|| u64::from_str_radix(tok, 16).ok())
        .flatten()
        .map(f64::from_bits)
}

fn parse_hex_row(
    r: &Reader<'_>,
    toks: &mut dyn Iterator<Item = &str>,
    n: usize,
    what: &str,
) -> Result<Vec<f64>, SnapshotError> {
    // `n` comes from the document: grow with the values it supplies.
    let mut out = Vec::new();
    for _ in 0..n {
        let tok = toks
            .next()
            .ok_or_else(|| r.bad(format!("{what}: too few values")))?;
        out.push(parse_hex(tok).ok_or_else(|| r.bad(format!("{what}: bad value {tok:?}")))?);
    }
    if toks.next().is_some() {
        return Err(r.bad(format!("{what}: too many values")));
    }
    Ok(out)
}

impl Engine {
    /// Serializes the engine *and* the policy driving it to the
    /// byte-stable `dlflow-snapshot v1` text format. The engine is not
    /// consumed; snapshotting mid-run is the intended use.
    pub fn snapshot(&self, policy: &dyn OnlineScheduler) -> String {
        let mut s = String::new();
        s.push_str(HEADER);
        s.push('\n');
        s.push_str(&format!("n_machines {}\n", self.n_machines));
        s.push_str(&format!("now {}\n", hex(self.now)));
        s.push_str(&format!("next_id {}\n", self.next_id));
        s.push_str(&format!("n_events {}\n", self.n_events));
        s.push_str(&format!("n_plans {}\n", self.n_plans));
        s.push_str(&format!("n_completed {}\n", self.n_completed));
        s.push_str(&format!(
            "record_completions {}\n",
            self.record_completions as u8
        ));
        s.push_str(&format!("faulty {}\n", self.faulty as u8));
        s.push_str(&format!("n_platform_pushed {}\n", self.n_platform_pushed));
        s.push_str("busy");
        for b in &self.busy {
            push_hex(&mut s, *b);
        }
        s.push('\n');
        s.push_str("up");
        for u in &self.up {
            s.push_str(if *u { " 1" } else { " 0" });
        }
        s.push('\n');
        s.push_str("metrics");
        let m = &self.metrics;
        for v in [m.max_wf, m.max_f, m.max_s, m.sum_s, m.sum_f, m.mk] {
            push_hex(&mut s, v);
        }
        match m.first_release {
            Some(r) => push_hex(&mut s, r),
            None => s.push_str(" -"),
        }
        s.push_str(&format!(" {}\n", m.n));

        // Heaps are written in canonical order so the text is a pure
        // function of the simulation state, not of heap internals.
        let mut pending: Vec<(usize, f64, f64, &[f64])> = self.pending_entries().collect();
        pending.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        s.push_str(&format!("pending {}\n", pending.len()));
        for (id, release, weight, costs) in pending {
            s.push_str(&format!("arrival {id}"));
            push_hex(&mut s, release);
            push_hex(&mut s, weight);
            for c in costs {
                push_hex(&mut s, *c);
            }
            s.push('\n');
        }

        s.push_str(&format!("active {}\n", self.active().len()));
        for (id, remaining, release, weight, costs, volatile) in self.active_entries() {
            s.push_str(&format!("job {id}"));
            push_hex(&mut s, remaining);
            push_hex(&mut s, release);
            push_hex(&mut s, weight);
            for c in costs {
                push_hex(&mut s, *c);
            }
            s.push('\n');
            if let Some(row) = volatile {
                s.push_str("volatile");
                for v in row {
                    push_hex(&mut s, *v);
                }
                s.push('\n');
            }
        }

        let mut platform: Vec<(f64, usize, PlatformEvent)> = self.platform_entries().collect();
        platform.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        s.push_str(&format!("platform {}\n", platform.len()));
        for (time, seq, event) in platform {
            s.push_str(&format!("event {} {} {} ", hex(time), seq, event.machine));
            s.push_str(match event.change {
                PlatformChange::Down => "down",
                PlatformChange::Up => "up",
            });
            s.push('\n');
        }

        s.push_str(&format!("completed {}\n", self.completed.len()));
        for c in &self.completed {
            s.push_str(&format!("done {}", c.id));
            push_hex(&mut s, c.release);
            push_hex(&mut s, c.weight);
            push_hex(&mut s, c.fastest_cost);
            push_hex(&mut s, c.completion);
            s.push('\n');
        }

        s.push_str(&format!("scheduler {}\n", policy.name()));
        let state = policy.snapshot_state();
        let state_lines: Vec<&str> = state.lines().collect();
        s.push_str(&format!("state {}\n", state_lines.len()));
        for line in state_lines {
            s.push_str(line);
            s.push('\n');
        }
        s
    }

    /// Rebuilds an engine (and re-arms `policy`) from snapshot `text`,
    /// taken of a run over an input of `n_requests` requests: a
    /// `next_id` past them is refused at its line, before it sizes
    /// anything.
    ///
    /// The policy must be the same *kind* (same `name()`, which encodes
    /// tuning knobs) as the one snapshotted; it is `reset`, then handed
    /// its embedded state. Continuing the returned engine with that
    /// policy reproduces the uninterrupted run bit for bit.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on an unreadable header, any malformed line
    /// (with its line number), a scheduler kind mismatch, or state the
    /// scheduler rejects.
    pub fn restore(
        text: &str,
        policy: &mut dyn OnlineScheduler,
        n_requests: usize,
    ) -> Result<Engine, SnapshotError> {
        let mut r = Reader::new(text);
        let header = r.next()?;
        if header != HEADER {
            return Err(SnapshotError::UnsupportedVersion {
                found: header.to_string(),
            });
        }
        let n_machines = r.usize_field("n_machines")?;
        if n_machines == 0 {
            return Err(r.bad("n_machines must be positive"));
        }
        let now = r.f64_field("now")?;
        let next_id = r.usize_field("next_id")?;
        if next_id > n_requests {
            return Err(r.bad(format!(
                "next_id {next_id} passes the input's {n_requests} requests"
            )));
        }
        let next_id_line = r.pos;
        let n_events = r.usize_field("n_events")?;
        let n_plans = r.usize_field("n_plans")?;
        let n_completed = r.usize_field("n_completed")?;
        let record_completions = r.bool_field("record_completions")?;
        let faulty = r.bool_field("faulty")?;
        let n_platform_pushed = r.usize_field("n_platform_pushed")?;

        let row = r.field("busy")?;
        let busy = parse_hex_row(&r, &mut row.split_whitespace(), n_machines, "busy")?;
        // The `busy` row vouches for `n_machines`; ids below `next_id`
        // size the engine's id map.
        if next_id.saturating_mul(n_machines) > MAX_AVAIL_CELLS {
            return Err(SnapshotError::Malformed {
                line: next_id_line,
                reason: format!(
                    "next_id {next_id} on {n_machines} machines passes the {MAX_AVAIL_CELLS} \
                     cells a trace may hold"
                ),
            });
        }

        let row = r.field("up")?;
        let mut up = Vec::new();
        let mut toks = row.split_whitespace();
        for _ in 0..n_machines {
            match toks.next() {
                Some("1") => up.push(true),
                Some("0") => up.push(false),
                _ => return Err(r.bad("up: want one 0/1 per machine")),
            }
        }
        if toks.next().is_some() {
            return Err(r.bad("up: too many values"));
        }
        // Only a platform event takes a machine down, and the first one
        // pushed makes the engine faulty; policies plan from this row.
        if !faulty && up.contains(&false) {
            return Err(r.bad("up: a machine is down but faulty is 0"));
        }

        let row = r.field("metrics")?;
        let mut toks = row.split_whitespace();
        let mut metrics = MetricsAccumulator::new();
        {
            let mut metric = |what: &str, r: &Reader<'_>| -> Result<f64, SnapshotError> {
                toks.next()
                    .and_then(parse_hex)
                    .ok_or_else(|| r.bad(format!("metrics: bad {what}")))
            };
            metrics.max_wf = metric("max_wf", &r)?;
            metrics.max_f = metric("max_f", &r)?;
            metrics.max_s = metric("max_s", &r)?;
            metrics.sum_s = metric("sum_s", &r)?;
            metrics.sum_f = metric("sum_f", &r)?;
            metrics.mk = metric("mk", &r)?;
        }
        metrics.first_release = match toks.next() {
            Some("-") => None,
            Some(tok) => Some(parse_hex(tok).ok_or_else(|| r.bad("metrics: bad first_release"))?),
            None => return Err(r.bad("metrics: missing first_release")),
        };
        metrics.n = toks
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| r.bad("metrics: bad n"))?;
        if toks.next().is_some() {
            return Err(r.bad("metrics: too many values"));
        }

        let mut engine = Engine::new(n_machines);
        engine.now = now;
        engine.next_id = next_id;
        engine.n_events = n_events;
        engine.n_plans = n_plans;
        engine.n_completed = n_completed;
        engine.record_completions = record_completions;
        if faulty {
            engine.enter_faulty_mode();
        }
        engine.n_platform_pushed = n_platform_pushed;
        engine.busy = busy;
        engine.up = up;
        engine.metrics = metrics;

        // A job id must be below `next_id` and held once.
        let job_id = |r: &Reader<'_>, engine: &Engine, what: &str, tok: Option<&str>| {
            let id: usize = tok
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| r.bad(format!("{what}: bad id")))?;
            if id >= next_id {
                return Err(r.bad(format!("{what}: id {id} is not below next_id {next_id}")));
            }
            if engine.holds(id) {
                return Err(r.bad(format!("{what}: id {id} is already pending or active")));
            }
            Ok(id)
        };
        let n_pending = r.usize_field("pending")?;
        for _ in 0..n_pending {
            let row = r.field("arrival")?;
            let mut toks = row.split_whitespace();
            let id = job_id(&r, &engine, "arrival", toks.next())?;
            let vals = parse_hex_row(&r, &mut toks, 2 + n_machines, "arrival")?;
            check_job(n_machines, vals[0], vals[1], &vals[2..])
                .map_err(|e| r.bad(format!("arrival: {e}")))?;
            engine.restore_pending(id, vals[0], vals[1], &vals[2..]);
        }

        let n_active = r.usize_field("active")?;
        for _ in 0..n_active {
            let row = r.field("job")?;
            let mut toks = row.split_whitespace();
            let id = job_id(&r, &engine, "job", toks.next())?;
            let vals = parse_hex_row(&r, &mut toks, 3 + n_machines, "job")?;
            if !(vals[0] > 0.0 && vals[0] <= 1.0) {
                return Err(r.bad(format!("job: remaining {} is outside (0, 1]", vals[0])));
            }
            check_job(n_machines, vals[1], vals[2], &vals[3..])
                .map_err(|e| r.bad(format!("job: {e}")))?;
            let volatile = if faulty {
                let row = r.field("volatile")?;
                Some(parse_hex_row(
                    &r,
                    &mut row.split_whitespace(),
                    n_machines,
                    "volatile",
                )?)
            } else {
                None
            };
            engine.restore_active(
                id,
                vals[0],
                vals[1],
                vals[2],
                &vals[3..],
                volatile.as_deref(),
            );
        }

        let n_platform = r.usize_field("platform")?;
        let mut seqs = BTreeSet::new();
        for _ in 0..n_platform {
            let row = r.field("event")?;
            let mut toks = row.split_whitespace();
            let time = toks
                .next()
                .and_then(parse_hex)
                .ok_or_else(|| r.bad("event: bad time"))?;
            let seq: usize = toks
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| r.bad("event: bad seq"))?;
            let machine: usize = toks
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| r.bad("event: bad machine"))?;
            let change = match toks.next() {
                Some("down") => PlatformChange::Down,
                Some("up") => PlatformChange::Up,
                _ => return Err(r.bad("event: want down or up")),
            };
            if toks.next().is_some() {
                return Err(r.bad("event: too many values"));
            }
            if seq >= n_platform_pushed {
                return Err(r.bad(format!(
                    "event: seq {seq} is not below n_platform_pushed {n_platform_pushed}"
                )));
            }
            // Distinct seqs keep the queue's `(time, seq)` order total.
            if !seqs.insert(seq) {
                return Err(r.bad(format!("event: seq {seq} repeats")));
            }
            if machine >= n_machines {
                return Err(r.bad(format!("event: machine {machine} out of range")));
            }
            engine.restore_platform(
                time,
                seq,
                PlatformEvent {
                    time,
                    machine,
                    change,
                },
            );
        }

        let n_done = r.usize_field("completed")?;
        for _ in 0..n_done {
            let row = r.field("done")?;
            let mut toks = row.split_whitespace();
            let id: usize = toks
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| r.bad("done: bad id"))?;
            if id >= next_id {
                return Err(r.bad(format!("done: id {id} is not below next_id {next_id}")));
            }
            let vals = parse_hex_row(&r, &mut toks, 4, "done")?;
            engine.completed.push(CompletedJob {
                id,
                release: vals[0],
                weight: vals[1],
                fastest_cost: vals[2],
                completion: vals[3],
            });
        }

        let expected = r.field("scheduler")?;
        let found = policy.name();
        if expected != found {
            return Err(SnapshotError::SchedulerMismatch {
                expected: expected.to_string(),
                found,
            });
        }
        let n_state = r.usize_field("state")?;
        let mut state = String::new();
        for _ in 0..n_state {
            state.push_str(r.next()?);
            state.push('\n');
        }
        if r.lines.next().is_some() {
            return Err(SnapshotError::Malformed {
                line: r.pos + 1,
                reason: "trailing content after scheduler state".into(),
            });
        }

        // Re-arm the policy: clean slate, then its embedded state. It
        // reads the platform mask off the engine when it plans.
        policy.reset();
        policy
            .restore_state(&state)
            .map_err(|reason| SnapshotError::SchedulerState { reason })?;
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, JobSpec};
    use crate::schedulers::edf::Edf;
    use crate::schedulers::mct::Mct;
    use dlflow_core::instance::InstanceBuilder;

    fn spec(release: f64, weight: f64, costs: &[f64]) -> JobSpec {
        JobSpec {
            release,
            weight,
            costs: costs.to_vec(),
        }
    }

    #[test]
    fn snapshot_is_byte_stable() {
        let mut eng = Engine::new(2);
        let mut pol = Mct::new();
        eng.push_arrival(spec(0.0, 1.0, &[2.0, 3.0])).unwrap();
        eng.push_arrival(spec(1.0, 2.0, &[4.0, f64::INFINITY]))
            .unwrap();
        eng.step(&mut pol).unwrap();
        let a = eng.snapshot(&pol);
        let b = eng.snapshot(&pol);
        assert_eq!(a, b);
        // Restore → snapshot reproduces the text exactly.
        let mut pol2 = Mct::new();
        let eng2 = Engine::restore(&a, &mut pol2, 2).unwrap();
        assert_eq!(eng2.snapshot(&pol2), a);
    }

    #[test]
    fn restore_rejects_wrong_version_and_garbage() {
        let mut pol = Mct::new();
        match Engine::restore("dlflow-snapshot v99\n", &mut pol, 0) {
            Err(SnapshotError::UnsupportedVersion { found }) => {
                assert!(found.contains("v99"));
            }
            other => panic!("want UnsupportedVersion, got {other:?}"),
        }
        let err =
            Engine::restore("dlflow-snapshot v1\nn_machines zero\n", &mut pol, 0).unwrap_err();
        match err {
            SnapshotError::Malformed { line, .. } => assert_eq!(line, 2),
            other => panic!("want Malformed, got {other:?}"),
        }
    }

    #[test]
    fn machine_counts_the_rows_do_not_hold_are_malformed() {
        // A row sized from the header alone aborts the process on 10¹⁷
        // machines (an 8·10¹⁷-byte allocation) and panics on
        // `usize::MAX`; the `busy` row (line 11) holds three values.
        let snap = Engine::new(3).snapshot(&Mct::new());
        for n in [100_000_000_000_000_000, usize::MAX] {
            let bad = snap.replace("n_machines 3\n", &format!("n_machines {n}\n"));
            match Engine::restore(&bad, &mut Mct::new(), 0) {
                Err(SnapshotError::Malformed { line, reason }) => {
                    assert_eq!(line, 11, "{n}: {reason}");
                    assert!(reason.contains("busy"), "{n}: {reason}");
                }
                other => panic!("{n}: want Malformed, got {other:?}"),
            }
        }
    }

    /// A snapshot under MCT on two machines holding one job of each
    /// kind: job 0 done, job 1 active, job 2 pending (`next_id 3`), and
    /// the second of two platform events queued (`n_platform_pushed 2`).
    fn busy_snapshot() -> String {
        let mut eng = Engine::new(2);
        let mut pol = Mct::new();
        for (time, change) in [(0.5, PlatformChange::Down), (9.0, PlatformChange::Up)] {
            let event = PlatformEvent {
                time,
                machine: 1,
                change,
            };
            eng.push_platform_event(event).unwrap();
        }
        eng.push_arrival(spec(0.0, 1.0, &[1.0, 1.0])).unwrap();
        eng.push_arrival(spec(0.2, 1.0, &[4.0, 4.0])).unwrap();
        eng.push_arrival(spec(20.0, 1.0, &[1.0, 1.0])).unwrap();
        while eng.n_completed() == 0 {
            eng.step(&mut pol).unwrap();
        }
        let snap = eng.snapshot(&pol);
        for line in [
            "next_id 3\n",
            "n_platform_pushed 2\n",
            "\narrival 2 ",
            "\njob 1 ",
        ] {
            assert!(snap.contains(line), "{line:?} in {snap}");
        }
        assert!(
            snap.contains("\ndone 0 ") && snap.contains(" 1 1 up\n"),
            "{snap}"
        );
        snap
    }

    /// Restores [`busy_snapshot`] with its first `from` replaced by `to`,
    /// as a snapshot of an input of `n_requests` requests, and asserts a
    /// [`SnapshotError::Malformed`] at the first line that starts with
    /// `at`, naming `why`.
    fn refused_within(n_requests: usize, from: &str, to: &str, at: &str, why: &str) {
        let bad = busy_snapshot().replacen(from, to, 1);
        let want = bad.lines().position(|l| l.starts_with(at)).unwrap() + 1;
        match Engine::restore(&bad, &mut Mct::new(), n_requests) {
            Err(SnapshotError::Malformed { line, reason }) => {
                assert_eq!(line, want, "{reason}");
                assert!(reason.contains(why), "{reason}");
            }
            other => panic!("{to:?}: want Malformed, got {other:?}"),
        }
    }

    /// [`refused_within`] the three requests [`busy_snapshot`] was taken of.
    fn refused(from: &str, to: &str, at: &str, why: &str) {
        refused_within(3, from, to, at, why);
    }

    /// The row of [`busy_snapshot`] that starts with `at`, and that row
    /// with each value `(k, v)` set (`k` counted after the id).
    fn with_values(at: &str, values: &[(usize, f64)]) -> (String, String) {
        let snap = busy_snapshot();
        let row = snap.lines().find(|l| l.starts_with(at)).unwrap();
        let mut toks: Vec<String> = row.split(' ').map(String::from).collect();
        for &(k, v) in values {
            toks[2 + k] = hex(v);
        }
        (row.to_string(), toks.join(" "))
    }

    /// [`refused`], with [`with_values`]' row.
    fn refused_values(at: &str, values: &[(usize, f64)], why: &str) {
        let (from, to) = with_values(at, values);
        refused(&from, &to, at, why);
    }

    // Row values: an `arrival` holds release, weight, then one cost per
    // machine; a `job` holds remaining first. Each refusal below is one
    // of the checks a push makes; before restore made them, a −∞ release
    // or ∞ weight resumed to a report of `inf`, and a −1 cost silently.

    #[test]
    fn restore_refuses_a_release_a_push_would_refuse() {
        let why = "job release must be finite and non-negative";
        for v in [f64::NEG_INFINITY, f64::INFINITY, f64::NAN, -1.0] {
            refused_values("arrival 2 ", &[(0, v)], &format!("arrival: {why}"));
        }
        refused_values("job 1 ", &[(1, f64::NAN)], &format!("job: {why}"));
    }

    #[test]
    fn restore_refuses_a_weight_a_push_would_refuse() {
        let why = "job weight must be finite and non-negative";
        for v in [f64::INFINITY, f64::NAN, -1.0] {
            refused_values("arrival 2 ", &[(1, v)], &format!("arrival: {why}"));
        }
        refused_values("job 1 ", &[(2, f64::INFINITY)], &format!("job: {why}"));
    }

    #[test]
    fn restore_refuses_a_cost_a_push_would_refuse() {
        let why = "job has a negative or NaN cost";
        for v in [-1.0, f64::NAN, f64::NEG_INFINITY] {
            refused_values("arrival 2 ", &[(2, v)], &format!("arrival: {why}"));
        }
        refused_values("job 1 ", &[(4, -1.0)], &format!("job: {why}"));
    }

    #[test]
    fn restore_refuses_a_job_that_can_run_on_no_machine() {
        let inf = f64::INFINITY;
        let why = "job can run on no machine";
        refused_values("arrival 2 ", &[(2, inf), (3, inf)], why);
        refused_values("job 1 ", &[(3, inf), (4, inf)], why);
    }

    #[test]
    fn restore_refuses_a_remaining_outside_zero_to_one() {
        for v in [0.0, -0.0, -0.5, 1.5, f64::INFINITY, f64::NAN] {
            refused_values("job 1 ", &[(0, v)], "is outside (0, 1]");
        }
        // A job not yet served holds all of its work.
        let (from, to) = with_values("job 1 ", &[(0, 1.0)]);
        let whole = busy_snapshot().replacen(&from, &to, 1);
        let mut pol = Mct::new();
        let eng = Engine::restore(&whole, &mut pol, 3).unwrap();
        assert_eq!(eng.snapshot(&pol), whole);
    }

    #[test]
    fn restore_refuses_an_arrival_id_at_or_past_next_id() {
        // 2⁶² once made the id map's resize overflow its capacity.
        for id in ["3", "4611686018427387904", "18446744073709551615"] {
            let to = format!("\narrival {id} ");
            refused("\narrival 2 ", &to, &to[1..], "not below next_id 3");
        }
    }

    #[test]
    fn restore_refuses_a_job_id_at_or_past_next_id() {
        refused("\njob 1 ", "\njob 3 ", "job 3 ", "not below next_id 3");
    }

    #[test]
    fn restore_refuses_a_done_id_at_or_past_next_id() {
        refused("\ndone 0 ", "\ndone 7 ", "done 7 ", "not below next_id 3");
    }

    #[test]
    fn restore_refuses_an_id_both_pending_and_active() {
        refused(
            "\narrival 2 ",
            "\narrival 1 ",
            "job 1 ",
            "already pending or active",
        );
    }

    #[test]
    fn restore_refuses_an_event_seq_at_or_past_n_platform_pushed() {
        refused(
            " 1 1 up\n",
            " 2 1 up\n",
            "event ",
            "not below n_platform_pushed 2",
        );
    }

    #[test]
    fn restore_refuses_a_repeated_event_seq_and_a_machine_out_of_range() {
        let snap = busy_snapshot();
        let event = snap.lines().find(|l| l.starts_with("event ")).unwrap();
        let twice = snap
            .replace("n_platform_pushed 2\n", "n_platform_pushed 3\n")
            .replace("platform 1\n", "platform 2\n")
            .replace(event, &format!("{event}\n{event}"));
        let second = twice.lines().position(|l| l == event).unwrap() + 2;
        match Engine::restore(&twice, &mut Mct::new(), 3) {
            Err(SnapshotError::Malformed { line, reason }) => {
                assert_eq!(line, second, "{reason}");
                assert!(reason.contains("seq 1 repeats"), "{reason}");
            }
            other => panic!("want Malformed, got {other:?}"),
        }
        refused(" 1 1 up\n", " 1 2 up\n", "event ", "machine 2 out of range");
    }

    #[test]
    fn restore_refuses_a_next_id_past_the_trace_bound() {
        // 2 machines: 2²⁷ ids fill the 2²⁸ cells a `.dlt` trace may hold.
        // The input is taken to hold more requests, so that bound binds.
        let snap = busy_snapshot();
        let edge = snap.replace("next_id 3\n", "next_id 134217728\n");
        let mut pol = Mct::new();
        let eng = Engine::restore(&edge, &mut pol, usize::MAX).unwrap();
        assert_eq!(eng.snapshot(&pol), edge);
        for n in ["134217729", "18446744073709551615"] {
            let to = format!("next_id {n}\n");
            let why = "passes the 268435456 cells";
            refused_within(usize::MAX, "next_id 3\n", &to, "next_id ", why);
        }
    }

    #[test]
    fn restore_refuses_a_next_id_past_the_input() {
        refused(
            "next_id 3\n",
            "next_id 4\n",
            "next_id ",
            "passes the input's 3 requests",
        );
        // One machine, `next_id` 2²⁸ and one arrival at the top id: within
        // the cell bound, it would size a 1 GiB id map.
        let mut eng = Engine::new(1);
        eng.push_arrival(spec(5.0, 1.0, &[1.0])).unwrap();
        let top = eng
            .snapshot(&Mct::new())
            .replace("next_id 1\n", "next_id 268435456\n")
            .replace("\narrival 0 ", "\narrival 268435455 ");
        match Engine::restore(&top, &mut Mct::new(), 1) {
            Err(SnapshotError::Malformed { line, reason }) => {
                assert_eq!(line, 4, "{reason}");
                assert!(reason.contains("passes the input's 1 requests"), "{reason}");
            }
            other => panic!("want Malformed, got {other:?}"),
        }
    }

    #[test]
    fn restore_refuses_a_machine_down_in_a_fault_free_engine() {
        // `up` is line 12; the engine and its policies plan from it.
        let snap = Engine::new(3).snapshot(&Mct::new());
        let bad = snap.replace("\nup 1 1 1\n", "\nup 1 0 1\n");
        match Engine::restore(&bad, &mut Mct::new(), 0) {
            Err(SnapshotError::Malformed { line, reason }) => {
                assert_eq!(line, 12, "{reason}");
                assert!(reason.contains("down but faulty is 0"), "{reason}");
            }
            other => panic!("want Malformed, got {other:?}"),
        }
        // Under `faulty 1` the same row restores.
        let faulty = bad.replace("\nfaulty 0\n", "\nfaulty 1\n");
        let mut pol = Mct::new();
        let eng = Engine::restore(&faulty, &mut pol, 0).unwrap();
        assert_eq!(eng.active().up(), &[true, false, true]);
        assert_eq!(eng.snapshot(&pol), faulty);
    }

    #[test]
    fn restore_rejects_scheduler_kind_mismatch() {
        let mut eng = Engine::new(1);
        let mut pol = Mct::new();
        eng.push_arrival(spec(0.0, 1.0, &[2.0])).unwrap();
        eng.step(&mut pol).unwrap();
        let snap = eng.snapshot(&pol);
        let mut other = Edf::new();
        match Engine::restore(&snap, &mut other, 1) {
            Err(SnapshotError::SchedulerMismatch { expected, found }) => {
                assert_eq!(expected, "MCT");
                assert_eq!(found, "EDF");
            }
            other => panic!("want SchedulerMismatch, got {other:?}"),
        }
    }

    #[test]
    fn empty_engine_round_trips() {
        let eng = Engine::new(3);
        let pol = Mct::new();
        let snap = eng.snapshot(&pol);
        let mut pol2 = Mct::new();
        let eng2 = Engine::restore(&snap, &mut pol2, 0).unwrap();
        assert_eq!(eng2.n_machines(), 3);
        assert_eq!(eng2.n_events(), 0);
        assert!(eng2.active().is_empty());
        assert_eq!(eng2.snapshot(&pol2), snap);
    }

    #[test]
    fn restored_run_matches_uninterrupted_completions() {
        let mut b = InstanceBuilder::new();
        b.job(0.0, 1.0);
        b.job(0.5, 2.0);
        b.job(1.0, 1.0);
        b.machine(vec![Some(3.0), Some(2.0), Some(4.0)]);
        b.machine(vec![Some(5.0), None, Some(1.5)]);
        let inst = b.build().unwrap();
        let reference = simulate(&inst, &mut Mct::new()).unwrap();

        // Interrupted run: snapshot after the second event, restore into
        // a fresh policy, continue to completion.
        let mut eng = Engine::new(2);
        let mut pol = Mct::new();
        for j in 0..inst.n_jobs() {
            eng.push_arrival(JobSpec {
                release: inst.job(j).release,
                weight: inst.job(j).weight,
                costs: (0..2)
                    .map(|i| inst.cost(i, j).finite().copied().unwrap_or(f64::INFINITY))
                    .collect(),
            })
            .unwrap();
        }
        eng.step(&mut pol).unwrap();
        eng.step(&mut pol).unwrap();
        let snap = eng.snapshot(&pol);

        let mut pol2 = Mct::new();
        let mut eng2 = Engine::restore(&snap, &mut pol2, inst.n_jobs()).unwrap();
        eng2.drain(&mut pol2).unwrap();
        let mut completions = vec![f64::NAN; inst.n_jobs()];
        for c in eng2.take_completed() {
            completions[c.id] = c.completion;
        }
        assert_eq!(
            completions.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
            reference
                .completions
                .iter()
                .map(|c| c.to_bits())
                .collect::<Vec<_>>()
        );
    }
}

#[cfg(test)]
mod fuzz {
    use super::*;
    use crate::campaign::SchedulerSpec;
    use crate::engine::StepOutcome;
    use crate::service::{run_simulation_with, SimInput, SimOptions};
    use crate::workload::{generate_trace, FaultProcess, TraceSpec};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::sync::OnceLock;

    /// Requests of the trace every document is taken of.
    const N_REQUESTS: usize = 30;

    /// Valid documents: a 30-request trace on 3 machines, with and
    /// without faults, under SWRPT, MCT, EDF and OLA (whose state lines
    /// ride along), snapshotted early and mid-run by the streamed service
    /// and by an engine that pushed every arrival up front.
    fn documents() -> &'static [(SchedulerSpec, String)] {
        static DOCS: OnceLock<Vec<(SchedulerSpec, String)>> = OnceLock::new();
        DOCS.get_or_init(|| {
            let mut docs = Vec::new();
            for name in ["swrpt", "mct", "edf", "ola"] {
                let spec = SchedulerSpec::parse_compact(name).unwrap();
                for faulty in [false, true] {
                    let trace = generate_trace(&TraceSpec {
                        n_requests: N_REQUESTS,
                        n_machines: 3,
                        seed: 3,
                        faults: faulty.then_some(FaultProcess {
                            mtbf: 6.0,
                            mttr: 1.5,
                            horizon: 15.0,
                            seed: 4,
                        }),
                        ..Default::default()
                    });
                    for at in [5, 40] {
                        let opts = SimOptions {
                            snapshot_at: Some(at),
                            ..Default::default()
                        };
                        let input = SimInput::Open(trace.clone());
                        let (_, snap) = run_simulation_with(&input, &spec, &opts).unwrap();
                        docs.push((spec.clone(), snap.unwrap()));

                        let mut policy = spec.build();
                        let mut eng = Engine::new(trace.n_machines());
                        for e in &trace.platform_events {
                            eng.push_platform_event(*e).unwrap();
                        }
                        for k in 0..trace.len() {
                            eng.push_arrival(trace.job_spec(k)).unwrap();
                        }
                        while eng.n_events() < at
                            && eng.step(policy.as_mut()).unwrap() == StepOutcome::Advanced
                        {
                        }
                        docs.push((spec.clone(), eng.snapshot(policy.as_ref())));
                    }
                }
            }
            docs
        })
    }

    fn pick<'a>(rng: &mut SmallRng, items: &[&'a str]) -> &'a str {
        items[rng.gen_range(0..items.len())]
    }

    /// A perturbed decimal: a neighbour of `n`, a mid-sized value (2²⁰,
    /// 2²⁸ − 1) that a parser sizing by it would turn into a large
    /// allocation, or a value no allocation can hold (2⁶², `usize::MAX`).
    fn perturb_count(n: usize, rng: &mut SmallRng) -> String {
        match rng.gen_range(0..9) {
            0 => n.saturating_add(1).to_string(),
            1 => n.saturating_sub(1).to_string(),
            2 => n.saturating_mul(2).to_string(),
            3 => "0".into(),
            4 => "-1".into(),
            5 => "1048576".into(),
            6 => "268435455".into(),
            7 => "4611686018427387904".into(),
            _ => usize::MAX.to_string(),
        }
    }

    /// A perturbed hex float: one flipped bit or a special value.
    fn perturb_hex(tok: &str, rng: &mut SmallRng) -> String {
        match (rng.gen_bool(0.5), u64::from_str_radix(tok, 16)) {
            (true, Ok(bits)) => format!("{:016x}", bits ^ (1u64 << rng.gen_range(0..64))),
            _ => pick(
                rng,
                &[
                    "7ff8000000000000",
                    "7ff0000000000000",
                    "fff0000000000000",
                    "8000000000000000",
                    "0000000000000001",
                    "ffffffffffffffff",
                    "7ff",
                ],
            )
            .into(),
        }
    }

    fn perturb(tok: &str, rng: &mut SmallRng) -> String {
        match tok.parse::<usize>() {
            Ok(n) if tok.len() < 16 => perturb_count(n, rng),
            _ => perturb_hex(tok, rng),
        }
    }

    /// One random mutation: truncation, token splice and deletion, a
    /// perturbed number (any token; a job id or event seq; a count), or
    /// a duplicated or swapped line.
    fn mutate(text: &str, rng: &mut SmallRng) -> String {
        let mut lines: Vec<Vec<String>> = text
            .lines()
            .map(|l| l.split(' ').map(String::from).collect())
            .collect();
        let n = lines.len();
        let at = |rng: &mut SmallRng, lines: &[Vec<String>]| {
            let li = rng.gen_range(0..lines.len());
            let len = lines[li].len();
            (len > 0).then(|| (li, rng.gen_range(0..len)))
        };
        match rng.gen_range(0..8) {
            0 => {
                let mut cut = rng.gen_range(0..=text.len());
                while !text.is_char_boundary(cut) {
                    cut -= 1;
                }
                return text[..cut].to_string();
            }
            1 => {
                if let (Some((a, b)), Some((c, d))) = (at(rng, &lines), at(rng, &lines)) {
                    let tok = lines[a][b].clone();
                    lines[c].insert(d, tok);
                }
            }
            2 => {
                if let Some((a, b)) = at(rng, &lines) {
                    lines[a].remove(b);
                }
            }
            3 => {
                if let Some((a, b)) = at(rng, &lines) {
                    lines[a][b] = perturb(&lines[a][b], rng);
                }
            }
            4 => {
                // The id of an arrival, job or done line, an event's seq.
                let keyed: Vec<(usize, usize)> = (0..n)
                    .filter_map(|li| match lines[li].first()?.as_str() {
                        "arrival" | "job" | "done" => Some((li, 1)),
                        "event" => Some((li, 2)),
                        _ => None,
                    })
                    .filter(|&(li, k)| k < lines[li].len())
                    .collect();
                if let Some(&(li, k)) = keyed.get(rng.gen_range(0..keyed.len().max(1))) {
                    let v = lines[li][k].parse().unwrap_or(0);
                    lines[li][k] = perturb_count(v, rng);
                }
            }
            5 => {
                let counted: Vec<usize> = (0..n)
                    .filter(|&li| lines[li].len() == 2 && lines[li][1].parse::<usize>().is_ok())
                    .collect();
                if let Some(&li) = counted.get(rng.gen_range(0..counted.len().max(1))) {
                    let v = lines[li][1].parse().unwrap_or(0);
                    lines[li][1] = perturb_count(v, rng);
                }
            }
            6 => {
                let line = lines[rng.gen_range(0..n)].clone();
                lines.insert(rng.gen_range(0..=n), line);
            }
            _ => lines.swap(rng.gen_range(0..n), rng.gen_range(0..n)),
        }
        lines.iter().map(|l| l.join(" ") + "\n").collect()
    }

    /// Restoring `text` under `spec` ends in a line-numbered
    /// `Malformed`, another typed error, or an engine whose snapshot is
    /// a fixed point of `restore → snapshot`.
    fn assert_typed_or_fixed_point(spec: &SchedulerSpec, text: &str) -> Result<(), TestCaseError> {
        let mut policy = spec.build();
        match Engine::restore(text, policy.as_mut(), N_REQUESTS) {
            Err(SnapshotError::Malformed { line, reason }) => {
                prop_assert!(
                    (1..=text.lines().count() + 1).contains(&line),
                    "line {line}: {reason} on {text:?}"
                );
            }
            Err(_) => {}
            Ok(eng) => {
                let once = eng.snapshot(policy.as_ref());
                let mut again = spec.build();
                let restored = Engine::restore(&once, again.as_mut(), N_REQUESTS);
                prop_assert!(restored.is_ok(), "{restored:?} on {once:?}");
                if let Ok(eng) = restored {
                    prop_assert_eq!(eng.snapshot(again.as_ref()), once);
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn mutated_snapshots_are_refused_by_line_or_restore_to_a_fixed_point(
            seed in any::<u64>(),
            n_mutations in 1usize..4,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let docs = documents();
            let (spec, doc) = &docs[rng.gen_range(0..docs.len())];
            let mut text = doc.clone();
            for _ in 0..n_mutations {
                if text.is_empty() {
                    break;
                }
                text = mutate(&text, &mut rng);
            }
            assert_typed_or_fixed_point(spec, &text)?;
        }
    }

    #[test]
    fn every_document_restores_to_a_fixed_point() {
        for (spec, doc) in documents() {
            let mut policy = spec.build();
            let eng = Engine::restore(doc, policy.as_mut(), N_REQUESTS).unwrap();
            assert_eq!(&eng.snapshot(policy.as_ref()), doc);
        }
    }
}
