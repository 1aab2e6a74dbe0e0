//! Span self times partition each call's wall time.

use kappa_core::{KappaConfig, KappaPartitioner};
use kappa_gen::rgg::random_geometric_graph;
use perfbench::replay;
use perfbench::trace::{call_durations, self_time_by_name, self_times, Tracer};

#[test]
fn self_times_sum_to_the_call_span() {
    let g = random_geometric_graph(3000, 5);
    let mut tracer = Tracer::new();
    for seed in 1..=2 {
        let config = KappaConfig::fast(8).with_seed(seed).with_threads(2);
        let traced = replay::classic(&g, &config, &mut tracer);
        let driver = KappaPartitioner::new(config).partition(&g);
        assert_eq!(traced.partition.assignment(), driver.partition.assignment());
        assert_eq!(traced.reported_cut, driver.metrics.edge_cut);
    }
    let spans = tracer.spans();
    let durations = call_durations(spans);
    assert_eq!(durations.len(), 2);
    let own = self_times(spans);
    for (call, &total) in durations.iter().enumerate() {
        let sum: f64 = spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.call == call)
            .map(|(_, t)| t)
            .sum();
        assert!(
            (sum - total).abs() <= 1e-9 * total.max(1.0),
            "{sum} vs {total}"
        );
        assert!(
            own.iter().all(|&t| t >= -1e-9),
            "a child outlived its parent"
        );
    }
    let by_name = self_time_by_name(spans);
    for call in &by_name {
        for name in [
            "partition",
            "coarsen",
            "matching",
            "initial",
            "refine",
            "project",
        ] {
            assert!(call.contains_key(name), "{name} missing");
        }
    }
}

#[test]
fn nested_spans_keep_parent_and_level() {
    let mut t = Tracer::new();
    let root = t.enter("partition", None);
    let child = t.enter("refine", Some(2));
    t.exit(child);
    t.exit(root);
    let again = t.enter("partition", None);
    t.exit(again);
    let s = t.spans();
    assert_eq!(s[1].parent, Some(0));
    assert_eq!(s[1].level, Some(2));
    assert_eq!((s[0].call, s[1].call, s[2].call), (0, 0, 1));
    assert!(s.iter().all(|x| x.end_s >= x.start_s));
}
