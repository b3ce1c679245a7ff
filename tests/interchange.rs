//! Workspace-level interchange checks: every tracked `BENCH_*.json`
//! artifact is a valid, canonically-rendered `bfw/bench-report`
//! document, the heal-wipeout scenario report is too, and the
//! `bfw/graph` format round-trips byte-identically at scale.
//!
//! The tracked artifacts are committed from release runs; these tests
//! only *read* them (regeneration stays a release-binary affair — see
//! the CI smoke steps). The scenario report is generated in-process, so
//! no test writes a file into the checkout.

use bfw_bench::GraphSpec;
use bfw_graph::generators;
use bfw_graph::io::{export_json, import_json, GraphDoc, Provenance};
use bfw_scenario::{run_bfw_scenario_traced, RunReport, ScenarioSpec};
use bfw_stats::JsonValue;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::Path;

/// The committed bench artifacts at the workspace root.
const TRACKED_REPORTS: &[&str] = &[
    "BENCH_churn.json",
    "BENCH_complexity.json",
    "BENCH_parallel.json",
    "BENCH_tick.json",
];

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn tracked_bench_reports_validate_and_are_canonical() {
    for name in TRACKED_REPORTS {
        let path = workspace_root().join(name);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{name} must be tracked at the workspace root: {e}"));

        // Schema-valid with a non-empty row set.
        let summary = bfw_bench::report::validate_bench_report(&text)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!summary.experiment.is_empty(), "{name}");
        assert!(summary.rows > 0, "{name}: no rows");

        // Parse → render → parse fixpoint, and the committed bytes ARE
        // the canonical rendering (so regenerating diffs cleanly).
        let value = JsonValue::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let rendered = value.render_pretty();
        assert_eq!(
            JsonValue::parse(&rendered).unwrap(),
            value,
            "{name}: parse–render–parse is not a fixpoint"
        );
        assert_eq!(rendered, text, "{name}: committed bytes are not canonical");
    }
}

#[test]
fn heal_wipeout_report_validates_and_is_canonical() {
    // The scenario artifact the `[trace]` section of
    // `examples/scenarios/heal_wipeout.toml` writes at seed 2, generated
    // in-process the way `bfw scenario run` builds it: the scenario
    // runner with tracing on, then the `bfw/scenario-report` document.
    let name = "heal_report.json";
    let seed = 2;
    let toml =
        std::fs::read_to_string(workspace_root().join("examples/scenarios/heal_wipeout.toml"))
            .expect("the example scenario is tracked");
    let spec = ScenarioSpec::parse(&toml).expect("the example scenario parses");
    let workload: GraphSpec = spec.graph.parse().expect("the example graph parses");
    let graph = workload.build();
    let capacity = spec.trace.as_ref().map(|t| t.last);
    let (outcome, trace) = run_bfw_scenario_traced(&spec, &graph, seed, capacity)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let report = RunReport::new(
        &spec,
        workload.to_string(),
        graph.node_count(),
        seed,
        outcome,
        trace,
    );
    let text = report.to_json_value().render_pretty();

    let summary =
        bfw_scenario::validate_run_report(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(summary.scenario, "heal wipeout, survived", "{name}");
    assert!(
        summary.traced,
        "{name}: the [trace] section must be present"
    );

    let value = JsonValue::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
    let rendered = value.render_pretty();
    assert_eq!(
        JsonValue::parse(&rendered).unwrap(),
        value,
        "{name}: parse–render–parse is not a fixpoint"
    );
    assert_eq!(rendered, text, "{name}: rendered bytes are not canonical");
}

#[test]
fn hundred_thousand_node_graph_round_trips_byte_identically() {
    let n = 100_000;
    let doc = GraphDoc {
        graph: generators::cycle(n),
        provenance: Some(Provenance::new("cycle", [("n", n as u64)], None)),
        delta: None,
    };
    let exported = export_json(&doc);
    let imported = import_json(&exported).expect("canonical export imports");
    assert_eq!(imported, doc);
    assert_eq!(
        export_json(&imported),
        exported,
        "re-export must be a byte fixpoint"
    );
}

#[test]
fn generator_family_documents_round_trip_with_provenance() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let doc = GraphDoc {
        graph: generators::preferential_attachment(5_000, 3, &mut rng),
        provenance: Some(Provenance::new("ba", [("n", 5_000), ("m", 3)], Some(7))),
        delta: None,
    };
    let exported = export_json(&doc);
    let imported = import_json(&exported).expect("ba export imports");
    assert_eq!(imported, doc);
    assert_eq!(export_json(&imported), exported);
    // The document validates and reports its family.
    let summary = bfw_graph::io::validate_json(&exported).unwrap();
    assert_eq!(summary.nodes, 5_000);
    assert_eq!(summary.family.as_deref(), Some("ba"));
}
