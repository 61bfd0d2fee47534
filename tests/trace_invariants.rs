//! Property tests for the tracing layer: on randomly sampled
//! applications, configurations, and dataset sizes, every emitted trace
//! must (a) nest spans properly, (b) keep per-node timestamps
//! monotonic, (c) reproduce the `ExecutionReport` component sums bit
//! for bit, and (d) be identical between `execute_traced` and
//! `execute_with` under an empty `FaultSchedule`.

use fg_bench::{pentium_deployment, PaperApp};
use freeride_g::middleware::ExecutionReport;
use freeride_g::predict::Profile;
use freeride_g::sim::FaultSchedule;
use freeride_g::trace::{SpanKind, Trace};
use proptest::prelude::*;

/// `(app index, data nodes, compute nodes, nominal MB, seed)`.
type Case = (usize, usize, usize, u64, u64);

/// One exclusive range per `Case` field, in order.
type CaseRanges = (
    std::ops::Range<usize>,
    std::ops::Range<usize>,
    std::ops::Range<usize>,
    std::ops::Range<u64>,
    std::ops::Range<u64>,
);

fn cases() -> CaseRanges {
    (0..PaperApp::ALL.len(), 1..5, 1..9, 4..13, 0..1_000_000)
}

fn run_case(case: Case) -> (ExecutionReport, Trace) {
    let (a, n, c, mb, seed) = case;
    let app = PaperApp::ALL[a];
    let dataset = app.generate("ti", mb as f64, 0.01, seed);
    // The middleware requires compute nodes >= data nodes.
    app.execute_traced(pentium_deployment(n, c.max(n), 1e6), &dataset)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn traces_are_well_formed_and_nested(case in cases()) {
        let (_, trace) = run_case(case);
        prop_assert!(trace.check_well_formed().is_ok(), "{:?}", trace.check_well_formed());
        // Nesting, spelled out: every non-root span lies inside its
        // parent's interval, and the root covers everything.
        let root_interval = {
            let root = trace.root().expect("run span");
            (root.start, root.end)
        };
        for s in &trace.spans {
            prop_assert!(s.start <= s.end);
            prop_assert!(s.start >= root_interval.0 && s.end <= root_interval.1);
            if let Some(p) = s.parent {
                let parent = &trace.spans[p as usize];
                prop_assert!(s.start >= parent.start && s.end <= parent.end,
                    "span {} escapes parent {}", s.id, p);
            }
        }
    }

    #[test]
    fn per_node_timestamps_are_monotonic(case in cases()) {
        let (_, trace) = run_case(case);
        let mut last: Vec<(_, _)> = Vec::new();
        for s in &trace.spans {
            let Some(node) = s.node else { continue };
            match last.iter_mut().find(|(n, _)| *n == node) {
                Some((_, t)) => {
                    prop_assert!(s.start >= *t,
                        "node {} span {} starts at {} before previous {}",
                        node, s.id, s.start, t);
                    *t = s.start;
                }
                None => last.push((node, s.start)),
            }
        }
    }

    #[test]
    fn component_sums_match_report_exactly(case in cases()) {
        let (report, trace) = run_case(case);
        prop_assert_eq!(
            trace.component_sum(SpanKind::Retrieval) + trace.component_sum(SpanKind::CacheDisk),
            report.t_disk()
        );
        prop_assert_eq!(
            trace.component_sum(SpanKind::Network) + trace.component_sum(SpanKind::CacheNetwork),
            report.t_network()
        );
        prop_assert_eq!(
            trace.component_sum(SpanKind::Compute)
                + trace.component_sum(SpanKind::Gather)
                + trace.component_sum(SpanKind::GlobalReduce),
            report.t_compute()
        );
        prop_assert_eq!(trace.component_sum(SpanKind::Gather), report.t_ro());
        prop_assert_eq!(trace.component_sum(SpanKind::GlobalReduce), report.t_g());
        prop_assert_eq!(
            trace.component_sum(SpanKind::FaultDetection)
                + trace.component_sum(SpanKind::StragglerRecovery),
            report.t_recovery()
        );
        prop_assert_eq!(trace.root().expect("run span").duration(), report.total());
        prop_assert_eq!(trace.passes().len(), report.num_passes());
        for (span, pass) in trace.passes().iter().zip(&report.passes) {
            prop_assert_eq!(span.duration(), pass.total());
        }
        // And the downstream consumers agree bit for bit.
        let rebuilt = ExecutionReport::from_trace(&trace).expect("from_trace");
        prop_assert_eq!(&rebuilt, &report);
        prop_assert_eq!(
            Profile::from_trace(&trace).expect("profile"),
            Profile::from_report(&report)
        );
    }

    #[test]
    fn empty_fault_schedule_trace_is_identical(case in cases()) {
        let (a, n, c, mb, seed) = case;
        let app = PaperApp::ALL[a];
        let dataset = app.generate("ti", mb as f64, 0.01, seed);
        let dep = pentium_deployment(n, c.max(n), 1e6);
        let (plain_report, plain_trace) = app.execute_traced(dep.clone(), &dataset);
        let (fault_report, fault_trace) =
            app.execute_with(dep, &dataset, &FaultSchedule::none(), true);
        prop_assert_eq!(plain_report, fault_report);
        prop_assert_eq!(Some(plain_trace), fault_trace);
    }
}
