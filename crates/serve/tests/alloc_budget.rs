//! What a submission and a drain cost the serving engine in heap
//! allocations — counted, not timed, so the numbers repeat exactly and
//! a shared machine cannot move them.
//!
//! A submit that completes no job leaves the telemetry epoch where it
//! was, so it must not read the telemetry plane: a read merges every
//! tenant's wait window and copies the per-key drift table and the
//! alarm log, dozens of allocations that the next completion's read
//! would make again anyway. The ceiling below is what such a submit was
//! measured to make, plus less than one allocation, so a plane read
//! (or any new per-submit `String` or `Vec`) fails here and not in a
//! benchmark.
//!
//! A drain flattens the finished run for the wire by moving its rows
//! and its metrics: it builds no span tree and copies no row, so what
//! it makes does not grow with the job count.
//!
//! A quote through the codec makes a fixed number of allocations: the
//! buffers of its two documents, two frames and two decoded messages.
//! The JSON writer prints numbers into stack buffers, so one that
//! formatted through a temporary `String` fails here.

use fg_bench::figures::sched_models;
use fg_sched::{
    CoreEvent, GridSpec, JobSpec, LoadLevel, Policy, PredictionQuote, Scheduler, WorkloadShape,
    WorkloadSpec,
};
use fg_serve::frame::encode_frame;
use fg_serve::msg::{decode_request, decode_response, encode_request, encode_response};
use fg_serve::{DrainedRun, FrameDecoder, FrameKind, Request, Response, ServerEngine};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting per thread (tests run in parallel).
struct Counting;

thread_local! {
    /// Allocations made on this thread.
    static MADE: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a plain thread-local cell
// that neither allocates nor has a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        MADE.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc` or `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A block that grows is a call into the allocator, and still one
        // block.
        MADE.with(|c| c.set(c.get() + 1));
        // SAFETY: as for `dealloc`, with the caller's `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn made() -> u64 {
    MADE.with(Cell::get)
}

/// The heavy-tail backlog the wire benchmark replays, 1 000 jobs over
/// 20 tenants (so a plane read would merge 20 wait windows), in
/// submission order.
fn backlog(grid: &GridSpec) -> Vec<JobSpec> {
    let names: Vec<&str> = grid.apps.iter().map(|(n, _)| n.as_str()).collect();
    let spec =
        WorkloadSpec::shaped_scaled(WorkloadShape::HeavyTail, LoadLevel::Heavy, &names, 42, 20, 50);
    let mut jobs = spec.generate();
    jobs.sort_by(|a, b| a.arrival.total_cmp(&b.arrival).then(a.id.cmp(&b.id)));
    jobs
}

#[test]
fn a_submit_that_completes_nothing_reads_no_telemetry() {
    let grid = GridSpec::demo(sched_models());
    let jobs = backlog(&grid);
    let mut engine = ServerEngine::new(Scheduler::new(grid.clone(), Policy::EdfAdmit));

    let (mut quiet, mut quiet_made, mut completions) = (0u64, 0u64, 0usize);
    for job in jobs {
        let req = Request::Submit { job };
        let before = made();
        let (resp, events) = engine.handle(req);
        let cost = made() - before;
        assert!(matches!(resp, Response::Submitted { .. }), "{resp:?}");
        let completed = events.iter().filter(|e| matches!(e, CoreEvent::Completed { .. })).count();
        if completed == 0 {
            quiet += 1;
            quiet_made += cost;
        }
        completions += completed;
        // The publisher takes the plane a completion read.
        engine.metrics_if_changed();
    }
    assert!(quiet > 500 && completions > 50, "{quiet} quiet submits, {completions} completions");
    let per_submit = quiet_made as f64 / quiet as f64;
    assert!(
        per_submit <= MADE_PER_QUIET_SUBMIT,
        "a submit that completes nothing makes {per_submit} allocations"
    );
}

/// Ceiling on the allocations a submit that completes no job makes
/// inside `ServerEngine::handle`: the measured mean plus half an
/// allocation: measured 4.951, and 9.141 in a debug build. When such a
/// submit still read the plane, the debug build measured 86.1.
const MADE_PER_QUIET_SUBMIT: f64 = if cfg!(debug_assertions) { 9.6 } else { 5.4 };

#[test]
fn a_drain_makes_no_allocation_per_job() {
    let grid = GridSpec::demo(sched_models());
    let jobs = backlog(&grid);
    let result = Scheduler::new(grid, Policy::EdfAdmit).run(&jobs);
    let before = made();
    let drained = DrainedRun::from_result(result);
    let cost = made() - before;
    assert_eq!(drained.outcomes.len(), jobs.len());
    // Measured 0: a span tree built for the wire (an attribute vector
    // per `Job` span) or a copied row fails this.
    assert!(cost < jobs.len() as u64, "flattening {} jobs made {cost} allocations", jobs.len());
}

#[test]
fn a_quote_through_the_codec_makes_a_fixed_number_of_allocations() {
    let req =
        Request::Quote { app: "kmeans".into(), dataset_bytes: 268_435_456, deadline_slack: 2.5 };
    // Seventeen-digit, exponent-form and short floats.
    let resp = Response::Quoted {
        quote: Some(PredictionQuote {
            standalone: 12.000000000000002,
            corrected: 0.3333333333333333,
            estimate: 1e21,
            would_admit: Some(true),
        }),
    };
    // Client encode → frame → server decode, and back, with one
    // decoder per side kept across quotes as a session keeps them.
    let (mut server, mut client) = (FrameDecoder::new(), FrameDecoder::new());
    let mut quote = || {
        server.push(&encode_frame(FrameKind::Request, 0, &encode_request(&req)));
        let frame = server.next_frame().unwrap().expect("a whole request frame");
        assert_eq!(decode_request(&frame, server.frames() - 1).unwrap(), req);
        client.push(&encode_frame(FrameKind::Response, 0, &encode_response(&resp)));
        let frame = client.next_frame().unwrap().expect("a whole response frame");
        assert_eq!(decode_response(&frame, client.frames() - 1).unwrap(), resp);
    };
    // The first quote grows the decoders' buffers.
    quote();
    let before = made();
    quote();
    assert_eq!(made() - before, ALLOCATIONS_PER_QUOTE);
}

/// What one quote through the codec allocates, measured when numbers
/// still printed through `core::fmt` (debug and release alike).
const ALLOCATIONS_PER_QUOTE: u64 = 11;
