//! Protocol-layer properties: encode→frame→decode is an identity for
//! every request, response, and event-batch variant; and no corrupted
//! or truncated byte stream is ever accepted silently — every
//! corruption surfaces as a typed [`WireError`] naming the offending
//! frame, and never as a panic or a desynchronised decode.
//!
//! Below the framing, the JSON reader is held to the same standard:
//! documents whose keys are permuted, repeated or padded with unknown
//! members decode to the canonical message; truncated or bit-flipped
//! documents and hostile nesting are errors, not panics.

use fg_sched::{
    Component, CoreEvent, CoreStats, DriftAlarm, JobOutcome, JobSpec, KeyDrift, PlacementInfo,
    PredictionQuote, SubmitOutcome, TelemetrySnapshot, TenantSlo,
};
use fg_serve::frame::{encode_frame, Frame, FrameDecoder, FrameKind, WireError, HEADER_LEN};
use fg_serve::msg::{
    decode_events, decode_metrics, decode_request, decode_response, decode_subscribe,
    encode_events, encode_metrics, encode_request, encode_response, encode_subscribe, DrainedRun,
    EventBatch, Request, Response, ServeMetrics, SubscribeMetrics,
};
use fg_serve::{ServeClient, Server};
use fg_trace::{Histogram, Metrics};
use proptest::prelude::*;
use serde_json::Value;

/// SplitMix64: a tiny deterministic value well for building message
/// fields from a single proptest-drawn seed (the vendored proptest has
/// no combinator strategies).
struct Well(u64);

impl Well {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A finite, often-awkward f64: mixes exact dyadics, decimals that
    /// don't round-trip through short literals, tiny and huge
    /// magnitudes, and signed zero.
    fn f64(&mut self) -> f64 {
        match self.next() % 6 {
            0 => 0.0,
            1 => -0.0,
            2 => (self.next() % 1_000_000) as f64 / 97.0,
            // Random mantissa under a fixed finite exponent: a value
            // in [1, 2) with all 52 fraction bits exercised.
            3 => f64::from_bits((self.next() & 0x000f_ffff_ffff_ffff) | 0x3ff0_0000_0000_0000),
            4 => (self.next() % 1000) as f64 * 1e-300,
            _ => (self.next() % 1000) as f64 * 1e250,
        }
        .abs()
            * if self.next().is_multiple_of(2) { 1.0 } else { -1.0 }
    }

    fn string(&mut self) -> String {
        let choices = ["kmeans", "απόστολος", "a\"b\\c", "", "repo-0\nline", "🦀 serve", "x"];
        choices[(self.next() % choices.len() as u64) as usize].to_string()
    }

    fn opt_f64(&mut self) -> Option<f64> {
        (self.next().is_multiple_of(2)).then(|| self.f64())
    }

    fn opt_string(&mut self) -> Option<String> {
        (self.next().is_multiple_of(2)).then(|| self.string())
    }

    fn job_spec(&mut self) -> JobSpec {
        JobSpec {
            id: (self.next() % 10_000) as usize,
            tenant: (self.next() % 16) as usize,
            app: self.string(),
            dataset_bytes: self.next(),
            arrival: self.f64(),
            deadline_slack: self.f64(),
        }
    }

    fn component(&mut self) -> Component {
        Component::ALL[(self.next() % 3) as usize]
    }

    fn drift_alarm(&mut self) -> DriftAlarm {
        DriftAlarm {
            app: self.string(),
            repo: self.string(),
            component: self.component(),
            at: self.f64(),
            job_id: (self.next() % 10_000) as usize,
            residual: self.f64(),
            z: self.f64(),
            mean: self.f64(),
            samples: self.next() % 10_000,
        }
    }

    fn telemetry_snapshot(&mut self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            now: self.f64(),
            epoch: self.next(),
            samples: self.next() % 100_000,
            tenants: (0..self.next() % 3)
                .map(|t| TenantSlo {
                    tenant: t as usize,
                    completed: self.next() % 100_000,
                    deadline_violations: self.next() % 100_000,
                    violation_rate: self.f64(),
                    mean_quote_error: self.f64(),
                    queue_wait_p99: self.opt_f64(),
                })
                .collect(),
            keys: (0..self.next() % 3)
                .map(|_| KeyDrift {
                    app: self.string(),
                    repo: self.string(),
                    total: self.next() % 100_000,
                    mean: [self.f64(), self.f64(), self.f64()],
                    var: [self.f64(), self.f64(), self.f64()],
                })
                .collect(),
            alarms: (0..self.next() % 3).map(|_| self.drift_alarm()).collect(),
        }
    }

    fn serve_metrics(&mut self) -> ServeMetrics {
        ServeMetrics {
            epoch: self.next(),
            stats: self.core_stats(),
            telemetry: self.telemetry_snapshot(),
        }
    }

    fn core_stats(&mut self) -> CoreStats {
        CoreStats {
            now: self.f64(),
            makespan: self.f64(),
            submitted: self.next() % 100_000,
            admitted: self.next() % 100_000,
            rejected: self.next() % 100_000,
            completed: self.next() % 100_000,
            queued: (self.next() % 1000) as usize,
            running: (self.next() % 1000) as usize,
            suspended: (self.next() % 1000) as usize,
        }
    }

    fn core_event(&mut self) -> CoreEvent {
        match self.next() % 7 {
            0 => CoreEvent::Submitted {
                id: (self.next() % 10_000) as usize,
                tenant: (self.next() % 16) as usize,
                admitted: self.next().is_multiple_of(2),
                reject_reason: self.opt_string(),
                estimate: self.opt_f64(),
            },
            1 => CoreEvent::Placed {
                id: (self.next() % 10_000) as usize,
                at: self.f64(),
                repo: self.string().into(),
                site: self.string().into(),
                config: self.string().into(),
                predicted: self.f64(),
            },
            2 => CoreEvent::Completed {
                id: (self.next() % 10_000) as usize,
                at: self.f64(),
                met_deadline: (self.next().is_multiple_of(2))
                    .then(|| self.next().is_multiple_of(2)),
            },
            3 => CoreEvent::Preempted { id: (self.next() % 10_000) as usize, at: self.f64() },
            4 => CoreEvent::Resumed { id: (self.next() % 10_000) as usize, at: self.f64() },
            5 => CoreEvent::Migrated {
                id: (self.next() % 10_000) as usize,
                at: self.f64(),
                from_repo: self.string().into(),
                to_repo: self.string().into(),
            },
            _ => CoreEvent::DriftAlarm { alarm: self.drift_alarm() },
        }
    }

    fn outcome(&mut self) -> JobOutcome {
        JobOutcome {
            id: (self.next() % 10_000) as usize,
            tenant: (self.next() % 16) as usize,
            app: self.string().into(),
            arrival: self.f64(),
            dataset_bytes: self.next(),
            admitted: self.next().is_multiple_of(2),
            reject_reason: self.opt_string(),
            standalone: self.opt_f64(),
            deadline: self.opt_f64(),
            admission_estimate: self.opt_f64(),
            placement: (self.next().is_multiple_of(2)).then(|| PlacementInfo {
                repo: (self.next() % 8) as usize,
                site: (self.next() % 8) as usize,
                repo_name: self.string().into(),
                site_name: self.string().into(),
                config: self.string().into(),
                data_nodes: (self.next() % 32) as usize,
                compute_nodes: (self.next() % 32) as usize,
            }),
            placed_at: self.opt_f64(),
            predicted: self.opt_f64(),
            disk_end: self.opt_f64(),
            network_end: self.opt_f64(),
            finish: self.opt_f64(),
            preemptions: Vec::new(),
            migration: None,
        }
    }

    /// A complete wire frame of any kind, for corruption and
    /// truncation sweeps over mixed-kind streams.
    fn any_frame(&mut self, seq: u32) -> bytes::Bytes {
        match self.next() % 5 {
            0 => encode_frame(FrameKind::Request, seq, &encode_request(&self.request())),
            1 => encode_frame(FrameKind::Response, seq, &encode_response(&self.response())),
            2 => {
                let batch = EventBatch {
                    events: (0..self.next() % 4).map(|_| self.core_event()).collect(),
                };
                encode_frame(FrameKind::Event, seq, &encode_events(&batch))
            }
            3 => encode_frame(
                FrameKind::SubscribeMetrics,
                seq,
                &encode_subscribe(&SubscribeMetrics { min_epoch: self.next() }),
            ),
            _ => {
                let m = self.serve_metrics();
                encode_frame(FrameKind::MetricsSnapshot, seq, &encode_metrics(&m))
            }
        }
    }

    fn request(&mut self) -> Request {
        match self.next() % 4 {
            0 => Request::Submit { job: self.job_spec() },
            1 => Request::Quote {
                app: self.string(),
                dataset_bytes: self.next(),
                deadline_slack: self.f64(),
            },
            2 => Request::Stats,
            _ => Request::Drain,
        }
    }

    fn response(&mut self) -> Response {
        match self.next() % 6 {
            0 => Response::Submitted {
                outcome: SubmitOutcome {
                    id: (self.next() % 10_000) as usize,
                    admitted: self.next().is_multiple_of(2),
                    reject_reason: self.opt_string(),
                    standalone: self.opt_f64(),
                    deadline: self.opt_f64(),
                    admission_estimate: self.opt_f64(),
                },
            },
            1 => Response::SubmitFailed { reason: self.string() },
            2 => Response::Quoted {
                quote: (self.next().is_multiple_of(2)).then(|| PredictionQuote {
                    standalone: self.f64(),
                    corrected: self.f64(),
                    estimate: self.f64(),
                    would_admit: (self.next().is_multiple_of(2))
                        .then(|| self.next().is_multiple_of(2)),
                }),
            },
            3 => Response::Stats { stats: self.core_stats() },
            4 => Response::Drained {
                result: DrainedRun {
                    outcomes: (0..self.next() % 4).map(|_| self.outcome()).collect(),
                    metrics: self.metrics(),
                    makespan: self.f64(),
                    violations: (0..self.next() % 3).map(|_| self.string()).collect(),
                },
            },
            _ => Response::Error { reason: self.string() },
        }
    }
}

impl Well {
    /// Metrics some run could have recorded: built through the
    /// recorders, so names stay sorted and every histogram is well
    /// formed.
    fn metrics(&mut self) -> Metrics {
        let mut m = Metrics::default();
        for _ in 0..self.next() % 6 {
            let name = self.string();
            match self.next() % 3 {
                0 => m.add(&name, self.next() % 1000),
                1 => m.set(&name, self.f64()),
                _ => m.observe(&name, &[-1.0, 0.5, 1e6], self.f64()),
            }
        }
        m
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// An arbitrary JSON tree at most `depth` containers deep. Integers
    /// are spelled the way the reader classifies them (a non-negative
    /// one is `UInt`), so `parse(print(v)) == v` holds variant for
    /// variant.
    fn value(&mut self, depth: usize) -> Value {
        match self.below(if depth == 0 { 6 } else { 8 }) {
            0 => Value::Null,
            1 => Value::Bool(self.next().is_multiple_of(2)),
            2 => Value::UInt(self.next()),
            3 => Value::Int(-1 - (self.next() >> 1) as i64),
            4 => Value::Float(self.f64()),
            5 => Value::Str(self.junk_string()),
            6 => Value::Array((0..self.below(4)).map(|_| self.value(depth - 1)).collect()),
            _ => Value::Object(
                (0..self.below(4)).map(|_| (self.junk_string(), self.value(depth - 1))).collect(),
            ),
        }
    }

    /// Strings chosen to confuse a reader that skips by counting
    /// brackets or quotes instead of tokenizing.
    fn junk_string(&mut self) -> String {
        let choices = ["}", "]}", "\"", "a\"}b", "\\", "{\"k\":[", "é\n", "", "plain"];
        choices[self.below(choices.len())].to_string()
    }

    /// Rewrite every struct-shaped object of a canonical document into
    /// an equivalent one: members shuffled, unknown members injected,
    /// known keys repeated *after* their first occurrence with junk
    /// values. Enum wrappers — single-member objects tagged with a
    /// CamelCase variant name — keep their one member.
    fn disguise(&mut self, v: &mut Value) {
        match v {
            Value::Array(items) => items.iter_mut().for_each(|x| self.disguise(x)),
            Value::Object(members) => {
                members.iter_mut().for_each(|(_, x)| self.disguise(x));
                let is_variant = members.len() == 1
                    && members[0].0.starts_with(|c: char| c.is_ascii_uppercase());
                if is_variant {
                    return;
                }
                for i in (1..members.len()).rev() {
                    members.swap(i, self.below(i + 1));
                }
                for n in 0..self.below(3) {
                    let at = self.below(members.len() + 1);
                    let key = format!("unknown_{n}{}", self.junk_string());
                    members.insert(at, (key, self.value(3)));
                }
                for _ in 0..self.below(3).min(members.len()) {
                    let first = self.below(members.len());
                    let key = members[first].0.clone();
                    if members[..first].iter().any(|(k, _)| *k == key) {
                        continue; // `first` is itself a repeat
                    }
                    let at = first + 1 + self.below(members.len() - first);
                    members.insert(at, (key, self.value(2)));
                }
            }
            _ => {}
        }
    }

    /// Any wire document, with the decoder for its kind.
    fn any_document(&mut self) -> (FrameKind, Vec<u8>) {
        match self.below(4) {
            0 => (FrameKind::Request, encode_request(&self.request())),
            1 => (FrameKind::Response, encode_response(&self.response())),
            2 => {
                let events = (0..self.below(4)).map(|_| self.core_event()).collect();
                (FrameKind::Event, encode_events(&EventBatch { events }))
            }
            _ => (FrameKind::MetricsSnapshot, encode_metrics(&self.serve_metrics())),
        }
    }
}

/// Decode `payload` as the message type `kind` carries and re-encode
/// it: `Ok(canonical bytes)` or the decode error.
fn recode(kind: FrameKind, payload: &[u8]) -> Result<Vec<u8>, WireError> {
    let frame = Frame { kind, seq: 0, payload: payload.to_vec().into() };
    Ok(match kind {
        FrameKind::Request => encode_request(&decode_request(&frame, 0)?),
        FrameKind::Response => encode_response(&decode_response(&frame, 0)?),
        FrameKind::Event => encode_events(&decode_events(&frame, 0)?),
        FrameKind::MetricsSnapshot => encode_metrics(&decode_metrics(&frame, 0)?),
        FrameKind::SubscribeMetrics => encode_subscribe(&decode_subscribe(&frame, 0)?),
    })
}

/// Run one payload through the real wire: frame it, push it through a
/// fresh decoder in awkward chunks, return the decoded frame.
fn wire_trip(kind: FrameKind, seq: u32, payload: &[u8]) -> Frame {
    let wire = encode_frame(kind, seq, payload);
    let mut dec = FrameDecoder::new();
    // Split at an arbitrary interior point to exercise partial reads.
    let cut = wire.len() / 3;
    dec.push(&wire[..cut]);
    assert!(matches!(dec.next_frame(), Ok(None)), "a partial frame must not decode");
    dec.push(&wire[cut..]);
    let frame = dec.next_frame().expect("framing").expect("complete");
    dec.finish().expect("no trailing bytes");
    frame
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_request_variant_round_trips(seed in any::<u64>(), seq in any::<u32>()) {
        let mut w = Well(seed);
        let req = w.request();
        let frame = wire_trip(FrameKind::Request, seq, &encode_request(&req));
        prop_assert_eq!(frame.seq, seq);
        prop_assert_eq!(decode_request(&frame, 0).unwrap(), req);
    }

    #[test]
    fn every_response_variant_round_trips(seed in any::<u64>(), seq in any::<u32>()) {
        let mut w = Well(seed);
        let resp = w.response();
        let frame = wire_trip(FrameKind::Response, seq, &encode_response(&resp));
        prop_assert_eq!(decode_response(&frame, 0).unwrap(), resp);
    }

    #[test]
    fn streamed_event_batches_round_trip(seed in any::<u64>(), seq in any::<u32>()) {
        let mut w = Well(seed);
        let batch = EventBatch { events: (0..w.next() % 8).map(|_| w.core_event()).collect() };
        let frame = wire_trip(FrameKind::Event, seq, &encode_events(&batch));
        prop_assert_eq!(decode_events(&frame, 0).unwrap(), batch);
    }

    #[test]
    fn metrics_subscriptions_round_trip(seed in any::<u64>(), seq in any::<u32>()) {
        let mut w = Well(seed);
        let sub = SubscribeMetrics { min_epoch: w.next() };
        let frame = wire_trip(FrameKind::SubscribeMetrics, seq, &encode_subscribe(&sub));
        prop_assert_eq!(frame.seq, seq);
        prop_assert_eq!(decode_subscribe(&frame, 0).unwrap(), sub);
    }

    /// The full telemetry plane — counters, per-tenant SLO gauges,
    /// per-key drift statistics, standing alarms — survives the wire
    /// bit for bit.
    #[test]
    fn metrics_snapshots_round_trip(seed in any::<u64>(), seq in any::<u32>()) {
        let mut w = Well(seed);
        let m = w.serve_metrics();
        let frame = wire_trip(FrameKind::MetricsSnapshot, seq, &encode_metrics(&m));
        prop_assert_eq!(decode_metrics(&frame, 0).unwrap(), m);
    }

    /// `Value` is a data type like any other: arbitrary trees survive
    /// the compact and the pretty text form, variant for variant.
    #[test]
    fn arbitrary_value_trees_round_trip_through_text(seed in any::<u64>()) {
        let v = Well(seed).value(5);
        let text = serde_json::to_string(&v).unwrap();
        let back = serde_json::value_from_str(&text).unwrap();
        prop_assert_eq!(&back, &v);
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), text);
        let pretty = serde_json::to_string_pretty(&v).unwrap();
        prop_assert_eq!(serde_json::value_from_str(&pretty).unwrap(), v);
    }

    /// Field order, unknown members and repeated keys are the sender's
    /// business: any disguise of a canonical document decodes to the
    /// same message, compact or pretty-printed.
    #[test]
    fn disguised_documents_decode_to_the_canonical_message(seed in any::<u64>()) {
        let mut w = Well(seed);
        let (kind, canonical) = w.any_document();
        let mut tree = serde_json::value_from_str(std::str::from_utf8(&canonical).unwrap()).unwrap();
        w.disguise(&mut tree);
        let compact = serde_json::to_string(&tree).unwrap();
        prop_assert_eq!(recode(kind, compact.as_bytes()).unwrap(), canonical.clone());
        let pretty = serde_json::to_string_pretty(&tree).unwrap();
        prop_assert_eq!(recode(kind, pretty.as_bytes()).unwrap(), canonical);
    }

    /// Every wire document ends in `}` or `"`, so no strict prefix of
    /// one is a document: each must be refused (and none may panic).
    #[test]
    fn every_strict_prefix_of_a_document_is_refused(seed in any::<u64>()) {
        let (kind, doc) = Well(seed).any_document();
        for cut in 0..doc.len() {
            prop_assert!(
                matches!(recode(kind, &doc[..cut]), Err(WireError::BadPayload { .. })),
                "a {}-byte prefix of {:?} decoded", cut, String::from_utf8_lossy(&doc)
            );
        }
    }

    /// One flipped byte (under the checksum's radar, say) never panics
    /// the reader. It usually fails to decode; when it does decode — a
    /// digit became another digit, a letter inside a string changed —
    /// what it decodes to is a well-formed message.
    #[test]
    fn a_flipped_byte_never_panics_the_reader(
        seed in any::<u64>(),
        pos_pick in any::<u64>(),
        mask_pick in any::<u8>(),
    ) {
        let (kind, mut doc) = Well(seed).any_document();
        let pos = (pos_pick % doc.len() as u64) as usize;
        doc[pos] ^= if mask_pick == 0 { 1 } else { mask_pick };
        match recode(kind, &doc) {
            Err(e) => prop_assert!(matches!(e, WireError::BadPayload { .. }), "{}", e),
            Ok(canonical) => prop_assert_eq!(recode(kind, &canonical).unwrap(), canonical),
        }
    }

    /// Corruption sweep: flip any byte of a valid multi-frame stream
    /// with any non-zero mask. Decoding must fail with a typed error
    /// attributing a frame at or before the corruption — never panic,
    /// never accept the stream.
    #[test]
    fn any_single_byte_corruption_is_rejected(
        seed in any::<u64>(),
        pos_pick in any::<u64>(),
        mask_pick in any::<u8>(),
    ) {
        let mask = if mask_pick == 0 { 1 } else { mask_pick };
        let mut w = Well(seed);
        let mut wire = Vec::new();
        for seq in 0..3u32 {
            wire.extend(w.any_frame(seq).iter());
        }
        let pos = (pos_pick % wire.len() as u64) as usize;
        wire[pos] ^= mask;

        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        let mut decoded = 0u64;
        let err = loop {
            match dec.next_frame() {
                Ok(Some(_)) => decoded += 1,
                // A length corruption can leave the decoder waiting for
                // bytes that never come; finish() must then report it.
                Ok(None) => break dec.finish().expect_err("corruption must not decode cleanly"),
                Err(e) => break e,
            }
        };
        // The error names a frame at or after the ones that decoded
        // cleanly, and corruption never rewrites history: every frame
        // reported decoded started before the flipped byte... or the
        // flip landed in its payload's JSON and was caught by checksum
        // first, so a decoded frame is always byte-identical to what
        // was sent.
        match err {
            WireError::BadMagic { frame, .. }
            | WireError::BadVersion { frame, .. }
            | WireError::BadKind { frame, .. }
            | WireError::Oversized { frame, .. }
            | WireError::BadChecksum { frame, .. }
            | WireError::Truncated { frame, .. } => prop_assert_eq!(frame, decoded),
            WireError::BadPayload { .. } | WireError::Poisoned => {
                prop_assert!(false, "framing layer reported a message-layer error")
            }
        }
    }

    /// Truncation sweep: cutting the stream at any point either ends
    /// cleanly on a frame boundary (fewer frames decoded) or reports
    /// `Truncated` with the exact byte counts — never a panic, never a
    /// partial frame accepted.
    #[test]
    fn any_truncation_is_detected_or_falls_on_a_boundary(
        seed in any::<u64>(),
        cut_pick in any::<u64>(),
    ) {
        let mut w = Well(seed);
        let mut wire = Vec::new();
        let mut boundaries = vec![0usize];
        for seq in 0..3u32 {
            wire.extend(w.any_frame(seq).iter());
            boundaries.push(wire.len());
        }
        let cut = (cut_pick % wire.len() as u64) as usize;

        let mut dec = FrameDecoder::new();
        dec.push(&wire[..cut]);
        while let Ok(Some(_)) = dec.next_frame() {}
        if boundaries.contains(&cut) {
            prop_assert_eq!(dec.finish(), Ok(()));
        } else {
            let err = dec.finish().expect_err("mid-frame cut must be reported");
            match err {
                WireError::Truncated { offset, got, .. } => {
                    let frame_start = *boundaries.iter().filter(|&&b| b <= cut).max().unwrap();
                    prop_assert_eq!(offset, frame_start as u64);
                    prop_assert_eq!(got, cut - frame_start);
                }
                other => prop_assert!(false, "expected Truncated, got {}", other),
            }
        }
    }
}

/// A server session answers a corrupt client stream with a typed
/// error response naming the byte offset, then hangs up — it never
/// panics and never guesses at resynchronisation.
#[test]
fn a_live_session_reports_corruption_and_hangs_up() {
    use fg_bench::figures::sched_models;
    use fg_sched::{GridSpec, Policy, Scheduler};

    let server = Server::start(Scheduler::new(GridSpec::demo(sched_models()), Policy::Fcfs));
    let conn = server.connect();
    // A valid stats request first, so the corruption lands mid-stream.
    conn.send(&encode_frame(FrameKind::Request, 0, &encode_request(&Request::Stats)));
    let mut garbage =
        encode_frame(FrameKind::Request, 1, &encode_request(&Request::Drain)).to_vec();
    garbage[HEADER_LEN] ^= 0x40; // corrupt the payload
    conn.send(&garbage);

    let mut dec = FrameDecoder::new();
    let mut responses = Vec::new();
    while let Some(chunk) = conn.recv() {
        dec.push(&chunk);
        while let Some(frame) = dec.next_frame().expect("server output stays well-framed") {
            responses.push(decode_response(&frame, dec.frames() - 1).expect("decodes"));
        }
        if responses.len() == 2 {
            break;
        }
    }
    assert!(matches!(responses[0], Response::Stats { .. }));
    match &responses[1] {
        Response::Error { reason } => {
            assert!(
                reason.contains("frame 1") && reason.contains("checksum"),
                "error must name the offending frame: {reason}"
            );
        }
        other => panic!("expected a typed error response, got {other:?}"),
    }
    drop(conn);
    server.shutdown();
}

/// Payloads that nest far past anything the service writes: a mebibyte
/// of `[`, the same in objects, and *well-formed* deep arrays and
/// objects hidden under a key a `Quote` does not have (so they are
/// skipped, not read). The typed reader refuses the first two at the
/// first token; the hidden ones are where the nesting limit bites.
fn hostile_nests() -> Vec<(&'static str, Vec<u8>, &'static str)> {
    let hidden = |open: &str, inner: &str, close: &str, n: usize| {
        format!(
            "{{\"Quote\":{{\"app\":\"kmeans\",\"extra\":{}{inner}{},\"dataset_bytes\":1,\
             \"deadline_slack\":2.0}}}}",
            open.repeat(n),
            close.repeat(n),
        )
        .into_bytes()
    };
    // (case, payload, what the error must say)
    vec![
        ("arrays", vec![b'['; 1 << 20], "for Request"),
        ("objects", "{\"a\":".repeat((1 << 20) / 5).into_bytes(), "unknown variant"),
        ("skipped arrays", hidden("[", "", "]", 1 << 19), "nests deeper"),
        ("skipped objects", hidden("{\"a\":", "1", "}", 1 << 17), "nests deeper"),
    ]
}

/// A correctly framed, correctly checksummed request whose JSON nests
/// a million levels deep is a bad payload — not a stack overflow that
/// takes the process down.
#[test]
fn hostile_nesting_is_a_bad_payload_not_a_stack_overflow() {
    for (what, payload, must_say) in hostile_nests() {
        let frame = wire_trip(FrameKind::Request, 9, &payload);
        match decode_request(&frame, 0) {
            Err(WireError::BadPayload { seq: 9, reason, .. }) => {
                assert!(reason.contains(must_say), "{what}: {reason}")
            }
            other => panic!("{what}: expected BadPayload, got {other:?}"),
        }
    }
    // The limit is far above real documents: a hundred levels of junk
    // under an unknown key are skipped and the quote still decodes.
    let tame = format!(
        "{{\"Quote\":{{\"extra\":{}{},\"app\":\"kmeans\",\"dataset_bytes\":1,\"deadline_slack\":2.0}}}}",
        "[".repeat(100),
        "]".repeat(100),
    );
    let frame = wire_trip(FrameKind::Request, 0, tame.as_bytes());
    assert_eq!(
        decode_request(&frame, 0).unwrap(),
        Request::Quote { app: "kmeans".into(), dataset_bytes: 1, deadline_slack: 2.0 }
    );
}

/// A live session sent such a frame is answered with the typed error
/// and hung up on, like any other undecodable request; the server and
/// its other sessions carry on quoting.
#[test]
fn a_live_server_survives_hostile_nesting() {
    use fg_bench::figures::sched_models;
    use fg_sched::{GridSpec, Policy, Scheduler};

    let server = Server::start(Scheduler::new(GridSpec::demo(sched_models()), Policy::Fcfs));
    let mut bystander = ServeClient::connect(&server);
    let before = bystander.quote("kmeans", 1 << 28, 2.0).expect("quote before");
    assert!(before.is_some());

    for (what, payload, _) in hostile_nests() {
        let conn = server.connect();
        conn.send(&encode_frame(FrameKind::Request, 3, &payload));
        let mut dec = FrameDecoder::new();
        let mut responses = Vec::new();
        while let Some(chunk) = conn.recv() {
            dec.push(&chunk);
            while let Some(frame) = dec.next_frame().expect("server output stays well-framed") {
                assert_eq!(frame.seq, u32::MAX, "{what}: the error uses the sentinel sequence");
                responses.push(decode_response(&frame, dec.frames() - 1).expect("decodes"));
            }
        }
        // `recv` returned `None`: the server hung up after its final word.
        match responses.as_slice() {
            [Response::Error { reason }] => assert!(reason.contains("frame 0"), "{reason}"),
            other => panic!("{what}: expected one typed error, got {other:?}"),
        }
        assert_eq!(bystander.quote("kmeans", 1 << 28, 2.0).expect("quote after"), before);
    }
    drop(bystander);
    server.shutdown();
}

/// Nothing else bounds a wire `Submit`'s tenant index, and the core
/// sizes its per-tenant vectors by it: `1 << 44` used to abort the
/// process inside an allocation and `usize::MAX` to overflow `tenant +
/// 1`, either one taking the core thread with it. Both are refused like
/// any other bad field, and the session carries on.
#[test]
fn an_absurd_tenant_index_is_a_failed_submit_not_a_dead_server() {
    use fg_bench::figures::sched_models;
    use fg_sched::{GridSpec, Policy, Scheduler};
    use fg_serve::ClientError;

    let server = Server::start(Scheduler::new(GridSpec::demo(sched_models()), Policy::Fcfs));
    let mut client = ServeClient::connect(&server);
    let job = |id, tenant| JobSpec {
        id,
        tenant,
        app: "kmeans".into(),
        dataset_bytes: 1 << 28,
        arrival: 0.0,
        deadline_slack: 2.0,
    };
    for tenant in [1usize << 44, usize::MAX] {
        match client.submit(job(0, tenant)) {
            Err(ClientError::Server(reason)) => {
                assert!(reason.contains("rejected: tenant index"), "{reason}")
            }
            other => panic!("tenant {tenant}: expected SubmitFailed, got {other:?}"),
        }
    }
    let admitted = client.submit(job(0, 0)).expect("the session is still served");
    assert!(admitted.admitted, "{admitted:?}");
    assert_eq!(client.stats().expect("stats").submitted, 1);
    drop(client);
    server.shutdown();
}

#[test]
fn a_drain_moves_its_rows_and_carries_the_direct_runs_metrics() {
    use fg_bench::figures::sched_models;
    use fg_sched::{GridSpec, LoadLevel, Policy, Scheduler, WorkloadShape, WorkloadSpec};

    let apps = ["kmeans", "em"];
    let jobs =
        WorkloadSpec::shaped_scaled(WorkloadShape::HeavyTail, LoadLevel::Heavy, &apps, 7, 12, 20)
            .generate();
    let scheduler = Scheduler::new(GridSpec::demo(sched_models()), Policy::EdfAdmit);
    let reference = scheduler.run(&jobs);
    let result = scheduler.run(&jobs);
    // The drain hands out the core's own table: the rows move, they
    // are not copied.
    let table = result.outcomes.as_ptr();
    let drained = DrainedRun::from_result(result);
    assert_eq!(drained.outcomes.as_ptr(), table, "the drain copied the job table");
    // The span tree is a pure function of these three inputs, so equal
    // inputs pin the same tree.
    assert_eq!(drained.outcomes, *reference.outcomes);
    assert_eq!(drained.metrics, reference.trace.metrics);
    assert_eq!(drained.makespan.to_bits(), reference.makespan.to_bits());
}

/// A metrics record no recorder could write is refused where the wire
/// decodes it: a bad payload, never a drained run whose histogram
/// panics a later `quantile`.
#[test]
fn a_drained_run_with_impossible_metrics_is_a_bad_payload() {
    let counters = |names: &[&str]| Metrics {
        counters: names.iter().map(|&n| (n.to_string(), 1)).collect(),
        ..Metrics::default()
    };
    let hist = |name: &str, bounds: &[f64], counts: usize| Histogram {
        name: name.into(),
        bounds: bounds.to_vec(),
        counts: vec![0; counts],
        sum: 0.0,
    };
    let histograms = |histograms| Metrics { histograms, ..Metrics::default() };
    let bad = [
        counters(&["z", "a"]),
        counters(&["a", "a"]),
        Metrics { gauges: vec![("b".into(), 1.0), ("a".into(), 2.0)], ..Metrics::default() },
        histograms(vec![hist("h", &[1.0], 2), hist("h", &[1.0], 2)]),
        histograms(vec![hist("h", &[2.0, 1.0], 3)]),
        histograms(vec![hist("h", &[1.0, 1.0], 3)]),
        histograms(vec![hist("h", &[1.0, f64::INFINITY], 3)]),
        histograms(vec![hist("h", &[1.0, 2.0], 1)]),
    ];
    for metrics in bad {
        let what = format!("{metrics:?}");
        let result = DrainedRun { outcomes: vec![], metrics, makespan: 1.0, violations: vec![] };
        let payload = encode_response(&Response::Drained { result });
        let frame = wire_trip(FrameKind::Response, 4, &payload);
        match decode_response(&frame, 0) {
            Err(WireError::BadPayload { seq: 4, reason, .. }) => {
                let named = ["counter ", "gauge ", "histogram "].iter().any(|w| reason.contains(w));
                assert!(named, "{what}: refused for another reason: {reason}");
            }
            other => panic!("{what}: expected BadPayload, got {other:?}"),
        }
    }
}
