//! Instrumentation stays always-in because it is free when off. On a
//! planted-community graph (h = 3, top-10) this suite checks:
//!
//! * tracing is observation only: the traced top-k equals the
//!   untraced one;
//! * disabled spans cost under 1% of the untraced wall, estimated as
//!   (spans in a real trace) × (measured ns per disabled
//!   [`obs::span`]) rather than by differencing two noisy wall times;
//! * a disarmed [`obs::fault::should_fire`] never fires, and the same
//!   estimate for it (one check per span site, an over-count) is also
//!   under 1%.
//!
//! Tracing and the fault registry are process-global, so the suite is
//! one test function in a binary of its own.

use std::hint::black_box;
use std::time::Instant;

use lhcds::core::pipeline::{top_k_lhcds, IppvConfig};
use lhcds::data::gen::planted_communities;
use lhcds::obs::{self, fault, SpanNode};

const CALLS: u32 = 1_000_000;

fn span_count(node: &SpanNode) -> usize {
    1 + node.children.iter().map(span_count).sum::<usize>()
}

/// Mean nanoseconds per call of `f` over [`CALLS`] calls.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..CALLS {
        f();
    }
    t0.elapsed().as_nanos() as f64 / f64::from(CALLS)
}

#[test]
fn disabled_instrumentation_is_free_and_tracing_changes_nothing() {
    let g = planted_communities(2000, 3, &[(18, 0.9), (14, 0.9), (10, 0.95)], 0x0B5);
    let cfg = IppvConfig::default();

    obs::set_tracing(false);
    fault::disarm();
    let t0 = Instant::now();
    let untraced = top_k_lhcds(&g, 3, 10, &cfg);
    let untraced_ns = t0.elapsed().as_nanos() as f64;

    obs::set_tracing(true);
    let traced = top_k_lhcds(&g, 3, 10, &cfg);
    obs::set_tracing(false);
    let trace = obs::take_trace().expect("a traced run leaves a trace");
    assert_eq!(
        untraced.subgraphs, traced.subgraphs,
        "tracing changed the answer"
    );
    let spans: usize = trace.roots.iter().map(span_count).sum();
    assert!(spans > 0, "the traced pipeline recorded no spans");

    let span_ns = ns_per_call(|| {
        let _guard = obs::span(black_box("disabled-span"));
    });
    let span_share = spans as f64 * span_ns / untraced_ns;
    assert!(
        span_share < 0.01,
        "disabled spans estimated at {:.3}% of wall ({spans} spans × {span_ns:.1} ns, \
         untraced wall {:.1} ms)",
        span_share * 100.0,
        untraced_ns / 1e6
    );

    let mut fired = 0u32;
    let fault_ns = ns_per_call(|| {
        // black_box keeps the optimizer from hoisting the relaxed load
        // out of the loop and measuring nothing
        fired += u32::from(fault::should_fire(black_box(fault::FaultPoint::SocketRead)));
    });
    assert_eq!(fired, 0, "a disarmed registry must never fire");
    let fault_share = spans as f64 * fault_ns / untraced_ns;
    assert!(
        fault_share < 0.01,
        "disarmed fault checks estimated at {:.3}% of wall ({fault_ns:.1} ns per check, \
         untraced wall {:.1} ms)",
        fault_share * 100.0,
        untraced_ns / 1e6
    );
}
