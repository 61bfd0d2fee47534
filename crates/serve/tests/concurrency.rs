//! Concurrent sessions: one writer submitting a workload in order
//! while several readers, each on its own connection and thread, keep
//! asking for stats and quotes. Checked against a direct
//! [`ServerEngine`] fed the same jobs, with the quote and the
//! `submitted` counter recorded after every prefix `k`:
//!
//! * every served quote is bit-equal to the direct quote at some
//!   prefix, and the prefixes a reader sees never go backwards
//!   (monotone reads) — nor ahead of what the writer has sent, nor
//!   behind what it had been acknowledged when the read began;
//! * after its `k`-th ack the writer's own `stats().submitted` is `k`
//!   (read-your-writes: the core publishes before it acknowledges);
//! * after the drain every reader is *answered* "session already
//!   drained" — twice, so the connection is still open — and
//!   `shutdown` joins every session.
//!
//! The interleaving is forced, not hoped for: the writer stops every
//! few submissions until each reader has completed another read, and
//! every rendezvous is a flag the threads poll, never a sleep.

use fg_bench::figures::sched_models;
use fg_sched::{GridSpec, JobSpec, LoadLevel, Policy, Scheduler, WorkloadShape, WorkloadSpec};
use fg_serve::msg::encode_response;
use fg_serve::{ClientError, Request, Response, ServeClient, Server, ServerEngine};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::thread;

const READERS: usize = 4;
/// The writer waits for every reader to advance once per this many
/// submissions.
const STRIDE: usize = 8;

fn sched() -> Scheduler {
    Scheduler::new(GridSpec::demo(sched_models()), Policy::EdfAdmit)
}

/// The direct plane: `quotes[k]` is the probe's quote after the first
/// `k` jobs — as its canonical wire bytes: equal bytes, equal bits —
/// and `submitted` after `k` jobs is `k`.
fn direct_quotes(jobs: &[JobSpec], probe: &Request) -> Vec<Vec<u8>> {
    let mut engine = ServerEngine::new(sched());
    let mut quotes = Vec::with_capacity(jobs.len() + 1);
    for k in 0..=jobs.len() {
        quotes.push(encode_response(&engine.handle(probe.clone()).0));
        match engine.handle(Request::Stats).0 {
            Response::Stats { stats } => assert_eq!(stats.submitted, k as u64),
            other => panic!("direct stats after {k} jobs: {other:?}"),
        }
        if let Some(job) = jobs.get(k) {
            let (resp, _) = engine.handle(Request::Submit { job: job.clone() });
            assert!(matches!(resp, Response::Submitted { .. }), "direct submit {k}: {resp:?}");
        }
    }
    quotes
}

/// What the writer has sent and been acknowledged, how far each
/// reader has got, and where the run is: 0 while the writer submits, 1
/// once it has stopped, 2 once it has drained.
#[derive(Default)]
struct Progress {
    sent: AtomicUsize,
    acked: AtomicUsize,
    phase: AtomicUsize,
    parked: AtomicUsize,
    reads: [AtomicUsize; READERS],
    failed: AtomicBool,
}

impl Progress {
    /// Yield until `ready` — or fail with whichever thread failed
    /// first, so a broken assertion ends the test instead of hanging it.
    fn wait(&self, ready: impl Fn() -> bool) {
        while !ready() {
            assert!(!self.failed.load(SeqCst), "another thread failed first");
            thread::yield_now();
        }
    }
}

/// Raises `failed` when its thread unwinds.
struct FailFast<'a>(&'a AtomicBool);

impl Drop for FailFast<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.store(true, SeqCst);
        }
    }
}

#[test]
fn concurrent_readers_see_monotone_prefixes_of_one_writer() {
    let grid = GridSpec::demo(sched_models());
    let apps: Vec<&str> = grid.apps.iter().map(|(n, _)| n.as_str()).collect();
    // 12 tenants x 20 jobs: 30 forced rendezvous with the readers.
    let jobs =
        WorkloadSpec::shaped_scaled(WorkloadShape::HeavyTail, LoadLevel::Light, &apps, 42, 12, 20)
            .generate();
    let (app, bytes, slack) = (jobs[0].app.clone(), jobs[0].dataset_bytes, 2.0);
    let probe = Request::Quote { app: app.clone(), dataset_bytes: bytes, deadline_slack: slack };
    let direct = direct_quotes(&jobs, &probe);

    let server = Server::start(sched());
    let mut writer = ServeClient::connect(&server);
    let readers: Vec<ServeClient> = (0..READERS).map(|_| ServeClient::connect(&server)).collect();
    let progress = Progress::default();
    let drained = Err(ClientError::Server("session already drained".into()));

    thread::scope(|s| {
        for (r, mut client) in readers.into_iter().enumerate() {
            let (progress, direct, app, drained) = (&progress, &direct, &app, &drained);
            s.spawn(move || {
                let _guard = FailFast(&progress.failed);
                // The smallest prefix consistent with everything this
                // reader has been told so far.
                let mut at = 0usize;
                let mut turn = 0usize;
                while progress.phase.load(SeqCst) == 0 {
                    let floor = at.max(progress.acked.load(SeqCst));
                    if turn.is_multiple_of(2) {
                        let stats = client.stats().expect("stats while live");
                        at = stats.submitted as usize;
                        assert!(at >= floor, "reader {r}: submitted fell from {floor} to {at}");
                    } else {
                        let quote = client.quote(app, bytes, slack).expect("quote while live");
                        let got = encode_response(&Response::Quoted { quote });
                        at = (floor..direct.len()).find(|&k| direct[k] == got).unwrap_or_else(|| {
                            panic!("reader {r}: quote matches no direct prefix at or after {floor}")
                        });
                    }
                    let sent = progress.sent.load(SeqCst);
                    assert!(at <= sent, "reader {r}: read prefix {at}, only {sent} sent");
                    turn += 1;
                    progress.reads[r].store(turn, SeqCst);
                }
                progress.parked.fetch_add(1, SeqCst);
                progress.wait(|| progress.phase.load(SeqCst) == 2);
                for _ in 0..2 {
                    assert_eq!(client.quote(app, bytes, slack).map(|_| ()), drained.clone());
                    assert_eq!(client.stats().map(|_| ()), drained.clone());
                }
            });
        }

        let _guard = FailFast(&progress.failed);
        let mut seen = [0usize; READERS];
        for (k, job) in jobs.iter().enumerate() {
            if k.is_multiple_of(STRIDE) {
                // Hold the write stream until every reader has
                // finished another read against the current prefix.
                for (r, seen) in seen.iter_mut().enumerate() {
                    progress.wait(|| progress.reads[r].load(SeqCst) > *seen);
                    *seen = progress.reads[r].load(SeqCst);
                }
            }
            progress.sent.store(k + 1, SeqCst);
            writer.submit(job.clone()).expect("submit");
            progress.acked.store(k + 1, SeqCst);
            let own = writer.stats().expect("writer stats");
            assert_eq!(own.submitted as usize, k + 1, "the writer must read its own write");
        }
        progress.phase.store(1, SeqCst);
        progress.wait(|| progress.parked.load(SeqCst) == READERS);
        writer.drain().expect("drain");
        progress.phase.store(2, SeqCst);
    });

    drop(writer);
    server.shutdown();
}

/// Compile-time: the decision core and the engine around it may cross
/// threads — their run metrics are plain owned values, not shared
/// handles. (The server still builds the engine on its core thread;
/// see `fg_serve::server`.) So may a finished run: its job table is an
/// `Arc` and its lazily built trace a `OnceLock`, which an `Rc` or a
/// `OnceCell` would break here rather than in a caller.
#[test]
fn the_core_and_the_engine_are_send() {
    fn send<T: Send>() {}
    fn sync<T: Sync>() {}
    send::<fg_sched::SchedCore>();
    send::<ServerEngine>();
    send::<fg_sched::SchedResult>();
    sync::<fg_sched::SchedTrace>();
}
