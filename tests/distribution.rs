//! Cross-crate distribution tests: workload populations driving the
//! broadcast / demand / migration machinery.

use mmu_wdoc::dist::{
    broadcast, predict_completion, star_uniform, AdaptiveController, BroadcastTree, DemandSim,
    DocSpec,
};
use mmu_wdoc::netsim::{LinkSpec, Network};
use mmu_wdoc::workload::{build_population_with, generate_trace, LinkMix, TraceSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn broadcast_over_heterogeneous_population() {
    let mut rng = StdRng::seed_from_u64(4);
    let (mut net, ids) = build_population_with(&mut rng, 40, LinkMix::distance_cohort());
    let tree = BroadcastTree::new(ids, 3);
    let report = broadcast(&mut net, &tree, 2_000_000);
    // Everyone still receives exactly once; slow links only delay.
    assert_eq!(report.arrivals.len(), 39);
    assert_eq!(report.total_bytes, 39 * 2_000_000);
    // Heterogeneous cohort is slower than an all-LAN one.
    let mut rng2 = StdRng::seed_from_u64(4);
    let (mut lan_net, lan_ids) = build_population_with(&mut rng2, 40, LinkMix::all_lan());
    let lan_tree = BroadcastTree::new(lan_ids, 3);
    let lan_report = broadcast(&mut lan_net, &lan_tree, 2_000_000);
    assert!(report.completion > lan_report.completion);
}

#[test]
fn adaptive_controller_beats_star_on_every_population_size() {
    let link = LinkSpec::t1();
    let controller = AdaptiveController::default();
    for n in [8usize, 32, 128] {
        let m = controller.best_m(n as u64, 1_000_000, link);
        let (mut net, ids) = Network::uniform(n, link);
        let tree = BroadcastTree::new(ids, m);
        let tree_report = broadcast(&mut net, &tree, 1_000_000);
        let star_report = star_uniform(n, 1_000_000, link);
        if n > 8 {
            assert!(
                tree_report.completion < star_report.completion,
                "n={n}: tree {} vs star {}",
                tree_report.completion,
                star_report.completion
            );
        }
        // The exact predictor agrees with the measurement.
        assert_eq!(
            predict_completion(n as u64, m, 1_000_000, link),
            tree_report.completion
        );
    }
}

#[test]
fn zipf_trace_duplicates_hot_documents_first() {
    let mut rng = StdRng::seed_from_u64(11);
    let spec = TraceSpec {
        accesses: 600,
        stations: 15,
        docs: 10,
        zipf_s: 1.1,
        mean_gap_us: 3_000_000,
    };
    let trace = generate_trace(&mut rng, &spec);
    let docs: Vec<DocSpec> = (0..10)
        .map(|i| DocSpec {
            name: format!("d{i}"),
            view_bytes: 20_000,
            full_bytes: 500_000,
        })
        .collect();
    let (mut net, ids) = Network::uniform(16, LinkSpec::lan());
    let tree = BroadcastTree::new(ids, 3);
    let mut sim = DemandSim::new(tree, docs, 3);
    let report = sim.run(&mut net, &trace);
    assert!(report.duplications > 0, "hot docs must cross the watermark");
    // The most popular document (rank 0) is replicated at least as
    // widely as the least popular one.
    let replicas = |doc: &str| {
        sim.stations()
            .iter()
            .filter(|(pos, sd)| **pos != 1 && sd.has_instance(doc))
            .count()
    };
    assert!(replicas("d0") >= replicas("d9"));
    assert!(replicas("d0") > 0);
}
