//! JSONL workload traces: dump and replay.
//!
//! A [`Workload`] is a fully materialized job stream plus the context
//! a scheduler run needs (tenant names, the app mix, the seed it came
//! from). [`Workload::dump_jsonl`] writes it as a self-describing JSONL
//! text trace — one header line, then one line per job — and
//! [`Workload::replay`] reads such a trace back, whether we wrote it
//! or an external system did. Replay funnels everything through the
//! same semantic validation, so recorded and synthetic traffic are
//! interchangeable scheduler inputs.
//!
//! The round trip is bit-exact: the vendored JSON layer prints floats
//! with shortest-roundtrip formatting, so `dump → replay → dump`
//! reproduces the identical byte stream. Non-finite floats *survive*
//! JSON encoding here (as sentinel strings), which is exactly why
//! validation rejects them semantically rather than trusting the
//! parser to.
//!
//! ## Trace schema (version 1)
//!
//! ```text
//! {"schema":1,"kind":"fg-workload","seed":42,"apps":[...],"tenants":[...],"jobs":N}
//! {"id":0,"tenant":2,"app":"kmeans","dataset_bytes":...,"arrival":...,"deadline_slack":...}
//! ...                                          (exactly N job lines)
//! ```
//!
//! Job lines must be sorted by arrival with contiguous ids `0..N`, and
//! every declared tenant must submit at least one job (a silent tenant
//! is almost always a truncated trace). Header checks, line numbers and
//! blank lines follow `serde_json::jsonl`, as in every JSONL record here.

use crate::workload::{JobSpec, WorkloadError, WorkloadSpec};
use serde::{Deserialize, Serialize, Writer};
use serde_json::jsonl;
use std::fmt;

/// Trace schema version this module writes and accepts.
const SCHEMA: u32 = 1;

/// Magic `kind` tag distinguishing workload traces from the span and
/// checkpoint JSONL files the repo also produces.
const KIND: &str = "fg-workload";

/// Why a JSONL trace cannot be replayed. Every variant pins the line
/// (1-based, counting the header) or tenant it refutes, mirroring the
/// checkpoint corrupt-input errors in `fg-middleware`.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// The header line is missing, malformed, the wrong `kind`, or an
    /// unsupported schema version.
    Header(String),
    /// A job line failed to parse as JSON or is missing fields.
    Line {
        /// 1-based line number in the trace text.
        line: usize,
        /// The parse failure.
        reason: String,
    },
    /// The trace ended before the header's declared job count.
    Truncated {
        /// Jobs the header promised.
        expected: usize,
        /// Job lines actually present.
        got: usize,
    },
    /// Non-empty content after the declared job count.
    TrailingData {
        /// 1-based line number of the first extra line.
        line: usize,
    },
    /// A job arrived earlier than its predecessor.
    OutOfOrder {
        /// 1-based line number of the offending job.
        line: usize,
    },
    /// Job ids are not the contiguous sequence `0..jobs`.
    BadId {
        /// 1-based line number of the offending job.
        line: usize,
        /// The id the sequence required.
        expected: usize,
        /// The id found.
        got: usize,
    },
    /// A job's fields are semantically invalid (non-finite arrival,
    /// zero-byte dataset, slack below 1, unknown tenant or app).
    BadJob {
        /// 1-based line number of the offending job.
        line: usize,
        /// Which constraint failed.
        reason: &'static str,
    },
    /// A declared tenant submits no jobs — almost always a truncated
    /// or mis-spliced trace (the generator-side twin is
    /// [`WorkloadError::NoJobs`]).
    SilentTenant {
        /// The jobless tenant's name.
        tenant: String,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (line, reason) = match self {
            ReplayError::Header(reason) => return write!(f, "bad trace header: {reason}"),
            ReplayError::Truncated { expected, got } => {
                return write!(f, "trace truncated: header declares {expected} jobs, found {got}")
            }
            ReplayError::SilentTenant { tenant } => {
                return write!(
                    f,
                    "tenant {tenant:?} submits no jobs; the trace is likely truncated"
                )
            }
            ReplayError::Line { line, reason } => (*line, format!("unparseable job: {reason}")),
            ReplayError::TrailingData { line } => {
                (*line, "data past the declared job count".into())
            }
            ReplayError::OutOfOrder { line } => {
                (*line, "job arrives before its predecessor".into())
            }
            ReplayError::BadId { line, expected, got } => {
                (*line, format!("job id {got} where {expected} was required"))
            }
            ReplayError::BadJob { line, reason } => (*line, reason.to_string()),
        };
        jsonl::Error::at(line, reason).fmt(f)
    }
}

impl std::error::Error for ReplayError {}

/// The trace header line, serialized before the job lines.
#[derive(Serialize, Deserialize)]
struct Header {
    schema: u32,
    kind: String,
    seed: u64,
    apps: Vec<String>,
    tenants: Vec<String>,
    jobs: usize,
}

/// Shape statistics of a job stream, read by [`stats_of`] — the
/// quantities the `ext-workload` figure reports.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct WorkloadStats {
    /// Number of jobs.
    pub jobs: usize,
    /// Sum of dataset sizes, bytes.
    pub total_bytes: u64,
    /// Largest single dataset, bytes.
    pub max_bytes: u64,
    /// 99th-percentile dataset size (nearest-rank), bytes.
    pub p99_bytes: u64,
    /// Fraction of all bytes contributed by the single largest job —
    /// the tail-mass signature of heavy-tailed traffic (≈ 1/n under
    /// uniform sizes, order 10⁻¹ under a Pareto tail).
    pub tail_mass_top1: f64,
    /// Maximum number of arrivals inside any sliding 60-second window
    /// — burst sessions drive this far above a Poisson stream's.
    pub burst_depth_max: usize,
    /// Mean gap between consecutive arrivals, seconds (0 for fewer
    /// than two jobs).
    pub mean_gap: f64,
}

/// Arrivals within any window of this many seconds count toward
/// [`WorkloadStats::burst_depth_max`].
const BURST_WINDOW_SECS: f64 = 60.0;

/// Compute [`WorkloadStats`] over a job stream (assumed sorted by
/// arrival, as every validated stream is).
pub fn stats_of(jobs: &[JobSpec]) -> WorkloadStats {
    let total_bytes: u64 = jobs.iter().map(|j| j.dataset_bytes).sum();
    let max_bytes = jobs.iter().map(|j| j.dataset_bytes).max().unwrap_or(0);
    let p99_bytes = if jobs.is_empty() {
        0
    } else {
        let mut sizes: Vec<u64> = jobs.iter().map(|j| j.dataset_bytes).collect();
        sizes.sort_unstable();
        // Nearest-rank p99: the smallest size with at least 99% of
        // samples at or below it.
        let rank = ((sizes.len() as f64 * 0.99).ceil() as usize).clamp(1, sizes.len());
        sizes[rank - 1]
    };
    let mut burst_depth_max = 0usize;
    let mut lo = 0usize;
    for hi in 0..jobs.len() {
        while jobs[hi].arrival - jobs[lo].arrival > BURST_WINDOW_SECS {
            lo += 1;
        }
        burst_depth_max = burst_depth_max.max(hi - lo + 1);
    }
    let mean_gap = if jobs.len() > 1 {
        (jobs[jobs.len() - 1].arrival - jobs[0].arrival) / (jobs.len() - 1) as f64
    } else {
        0.0
    };
    WorkloadStats {
        jobs: jobs.len(),
        total_bytes,
        max_bytes,
        p99_bytes,
        tail_mass_top1: if total_bytes > 0 { max_bytes as f64 / total_bytes as f64 } else { 0.0 },
        burst_depth_max,
        mean_gap,
    }
}

/// A materialized workload: the generated (or replayed) job stream
/// plus the context needed to audit it — tenant names, the app mix,
/// and the seed it was generated from (0 for external traces that
/// don't record one).
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Tenant names; a job's `tenant` field indexes this list.
    pub tenants: Vec<String>,
    /// App names jobs may reference.
    pub apps: Vec<String>,
    /// The generator seed (informational on replay).
    pub seed: u64,
    /// The job stream, sorted by arrival with contiguous ids.
    pub jobs: Vec<JobSpec>,
}

impl Workload {
    /// Materialize a [`WorkloadSpec`]: generate its job stream and
    /// carry the tenant/app names along. Invalid specs report the same
    /// typed [`WorkloadError`] as [`WorkloadSpec::try_generate`].
    pub fn from_spec(spec: &WorkloadSpec) -> Result<Workload, WorkloadError> {
        let jobs = spec.try_generate()?;
        Ok(Workload {
            tenants: spec.tenants.iter().map(|t| t.name.clone()).collect(),
            apps: spec.apps.clone(),
            seed: spec.seed,
            jobs,
        })
    }

    /// Serialize as a JSONL trace: one header line, one line per job.
    /// The output replays to a bit-identical [`Workload`], and dumping
    /// that replay reproduces the identical text.
    pub fn dump_jsonl(&self) -> String {
        let mut out = Writer::new();
        let header = Header {
            schema: SCHEMA,
            kind: KIND.to_string(),
            seed: self.seed,
            apps: self.apps.clone(),
            tenants: self.tenants.clone(),
            jobs: self.jobs.len(),
        };
        jsonl::line(&mut out, &header);
        for job in &self.jobs {
            jsonl::line(&mut out, job);
        }
        out.into_string()
    }

    /// Parse and validate a JSONL trace. Every malformed input —
    /// bad header, unparseable line, truncation, trailing data,
    /// out-of-order or mis-numbered jobs, semantically invalid fields,
    /// silent tenants — is a typed [`ReplayError`] naming the line.
    pub fn replay(text: &str) -> Result<Workload, ReplayError> {
        let (header, lines): (Header, _) = jsonl::read(text, KIND, ("schema", SCHEMA))
            .map_err(|e| ReplayError::Header(e.reason))?;
        // The header's job count is a claim: reserve no more bytes than
        // the text holds (a job's line is longer than a `JobSpec`, so an
        // honest count is reserved exactly).
        let fits = text.len() / std::mem::size_of::<JobSpec>();
        let mut jobs: Vec<JobSpec> = Vec::with_capacity(header.jobs.min(fits));
        for (lineno, line) in lines {
            if jobs.len() == header.jobs {
                return Err(ReplayError::TrailingData { line: lineno });
            }
            let job: JobSpec = jsonl::parse(lineno, line)
                .map_err(|e| ReplayError::Line { line: lineno, reason: e.reason })?;
            if job.id != jobs.len() {
                return Err(ReplayError::BadId { line: lineno, expected: jobs.len(), got: job.id });
            }
            let bad = |reason: &'static str| ReplayError::BadJob { line: lineno, reason };
            job.validate().map_err(bad)?;
            if let Some(prev) = jobs.last() {
                if job.arrival < prev.arrival {
                    return Err(ReplayError::OutOfOrder { line: lineno });
                }
            }
            if job.tenant >= header.tenants.len() {
                return Err(bad("tenant index out of range"));
            }
            if !header.apps.contains(&job.app) {
                return Err(bad("app not in the trace's app mix"));
            }
            jobs.push(job);
        }
        if jobs.len() < header.jobs {
            return Err(ReplayError::Truncated { expected: header.jobs, got: jobs.len() });
        }
        for (ti, tenant) in header.tenants.iter().enumerate() {
            if !jobs.iter().any(|j| j.tenant == ti) {
                return Err(ReplayError::SilentTenant { tenant: tenant.clone() });
            }
        }
        Ok(Workload { tenants: header.tenants, apps: header.apps, seed: header.seed, jobs })
    }

    /// Shape statistics of this workload's job stream.
    pub fn stats(&self) -> WorkloadStats {
        stats_of(&self.jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{LoadLevel, WorkloadShape};

    fn workload() -> Workload {
        let spec =
            WorkloadSpec::shaped(WorkloadShape::Bursty, LoadLevel::Medium, &["kmeans", "em"], 7);
        Workload::from_spec(&spec).expect("valid spec")
    }

    #[test]
    fn dump_then_replay_is_bit_identical() {
        let w = workload();
        let text = w.dump_jsonl();
        let r = Workload::replay(&text).expect("replay own dump");
        assert_eq!(w, r);
        // And the replayed workload dumps to the identical bytes — the
        // trace text is a fixpoint.
        assert_eq!(text, r.dump_jsonl());
    }

    #[test]
    fn replay_rejects_a_missing_or_foreign_header() {
        assert!(matches!(Workload::replay(""), Err(ReplayError::Header(_))));
        assert!(matches!(Workload::replay("not json\n"), Err(ReplayError::Header(_))));
        let wrong_kind =
            r#"{"schema":1,"kind":"fg-span","seed":0,"apps":[],"tenants":[],"jobs":0}"#;
        assert!(matches!(Workload::replay(wrong_kind), Err(ReplayError::Header(_))));
        let wrong_schema =
            r#"{"schema":9,"kind":"fg-workload","seed":0,"apps":[],"tenants":[],"jobs":0}"#;
        assert!(matches!(Workload::replay(wrong_schema), Err(ReplayError::Header(_))));
    }

    #[test]
    fn replay_pins_truncation_and_trailing_data() {
        let text = workload().dump_jsonl();
        let mut lines: Vec<&str> = text.lines().collect();
        let dropped = lines.pop().unwrap();
        let truncated = lines.join("\n");
        match Workload::replay(&truncated) {
            Err(ReplayError::Truncated { expected, got }) => assert_eq!(expected, got + 1),
            other => panic!("expected Truncated, got {other:?}"),
        }
        let trailing = format!("{text}{dropped}\n");
        assert!(matches!(Workload::replay(&trailing), Err(ReplayError::TrailingData { .. })));
    }

    #[test]
    fn replay_rejects_out_of_order_and_misnumbered_jobs() {
        let w = workload();
        let mut swapped = w.clone();
        swapped.jobs.swap(3, 4);
        // Swapping arrivals breaks ordering before ids are checked…
        let mut by_arrival = swapped.clone();
        by_arrival.jobs[3].id = 3;
        by_arrival.jobs[4].id = 4;
        assert!(matches!(
            Workload::replay(&by_arrival.dump_jsonl()),
            Err(ReplayError::OutOfOrder { .. })
        ));
        // …while a pure renumbering (arrivals intact) trips BadId.
        let mut renumbered = w.clone();
        renumbered.jobs[5].id = 17;
        assert!(matches!(
            Workload::replay(&renumbered.dump_jsonl()),
            Err(ReplayError::BadId { expected: 5, got: 17, .. })
        ));
    }

    #[test]
    fn replay_rejects_semantically_bad_fields_the_parser_accepts() {
        // The JSON layer round-trips NaN as a sentinel, so the parser
        // cannot be trusted to reject it — validation must.
        let mut w = workload();
        w.jobs[2].arrival = f64::NAN;
        w.jobs[2].id = 2;
        let err = Workload::replay(&w.dump_jsonl()).unwrap_err();
        assert!(
            matches!(err, ReplayError::BadJob { reason, .. } if reason.contains("arrival")),
            "{err}"
        );

        let mut w = workload();
        w.jobs[0].dataset_bytes = 0;
        assert!(matches!(
            Workload::replay(&w.dump_jsonl()),
            Err(ReplayError::BadJob { reason: "dataset must be non-empty", .. })
        ));

        let mut w = workload();
        w.jobs[0].deadline_slack = 0.5;
        assert!(matches!(
            Workload::replay(&w.dump_jsonl()),
            Err(ReplayError::BadJob { reason, .. }) if reason.contains("slack")
        ));

        let mut w = workload();
        w.jobs[0].tenant = 99;
        assert!(matches!(
            Workload::replay(&w.dump_jsonl()),
            Err(ReplayError::BadJob { reason, .. }) if reason.contains("tenant")
        ));

        let mut w = workload();
        w.jobs[0].app = "not-an-app".into();
        assert!(matches!(
            Workload::replay(&w.dump_jsonl()),
            Err(ReplayError::BadJob { reason, .. }) if reason.contains("app")
        ));
    }

    #[test]
    fn replay_rejects_unparseable_job_lines_by_number() {
        let text = workload().dump_jsonl();
        let mut lines: Vec<String> = text.lines().map(|s| s.to_string()).collect();
        lines[3] = "{\"id\": garbage".into();
        match Workload::replay(&lines.join("\n")) {
            Err(ReplayError::Line { line, .. }) => assert_eq!(line, 4),
            other => panic!("expected Line, got {other:?}"),
        }
    }

    #[test]
    fn replay_names_silent_tenants() {
        let mut w = workload();
        w.tenants.push("tenant-ghost".into());
        assert_eq!(
            Workload::replay(&w.dump_jsonl()).unwrap_err(),
            ReplayError::SilentTenant { tenant: "tenant-ghost".into() }
        );
    }

    #[test]
    fn stats_capture_tail_mass_and_burst_depth() {
        let mk = |arrival: f64, bytes: u64, id: usize| JobSpec {
            id,
            tenant: 0,
            app: "kmeans".into(),
            dataset_bytes: bytes,
            arrival,
            deadline_slack: 2.0,
        };
        // Nine small jobs in one burst plus a giant straggler.
        let mut jobs: Vec<JobSpec> = (0..9).map(|i| mk(10.0 + i as f64, 1_000_000, i)).collect();
        jobs.push(mk(500.0, 91_000_000, 9));
        let s = stats_of(&jobs);
        assert_eq!(s.jobs, 10);
        assert_eq!(s.total_bytes, 100_000_000);
        assert_eq!(s.max_bytes, 91_000_000);
        assert!((s.tail_mass_top1 - 0.91).abs() < 1e-12);
        assert_eq!(s.burst_depth_max, 9);
        assert_eq!(s.p99_bytes, 91_000_000);
        let empty = stats_of(&[]);
        assert_eq!(empty.jobs, 0);
        assert_eq!(empty.burst_depth_max, 0);
        assert_eq!(empty.tail_mass_top1, 0.0);
    }

    #[test]
    fn every_preset_round_trips_through_the_trace_format() {
        for shape in WorkloadShape::ALL {
            for load in LoadLevel::ALL {
                let spec = WorkloadSpec::shaped(shape, load, &["kmeans", "em", "apriori"], 42);
                let w = Workload::from_spec(&spec).expect("valid spec");
                let r = Workload::replay(&w.dump_jsonl()).expect("replay");
                assert_eq!(w, r, "{} {}", shape.name(), load.name());
            }
        }
    }
}
