//! **E19 (extension) — complexity faceoff: beeps, bits, messages and
//! state across protocols and topologies.**
//!
//! The paper's Table 1 compares leader-election algorithms by their
//! *assumptions* and asymptotic round counts. This experiment measures
//! the other axes of the minimalism argument empirically: how much
//! information actually crosses the channel. For each workload it runs
//! BFW, BFW wrapped in the self-healing recovery layer, FloodMax (the
//! strong-model reference) and — on the clique — Knockout, all with the
//! complexity instrumentation of [`bfw_sim::instrument`] (FloodMax's
//! counters are analytic: its flooding schedule is deterministic), and
//! reports rounds × beeps × bits × messages × per-node state.
//!
//! Expected shape: FloodMax converges in `D` rounds but moves
//! `Θ(m · D · log n)` bits with `Ω(n)`-bit nodes, while BFW needs more
//! rounds yet each round carries at most one bit per node and the node
//! state stays a single byte — the diameter-two "message chasm" of the
//! related-work discussion, now with measured columns.
//!
//! Besides the stdout table the experiment **commits its numbers**: it
//! writes the versioned `BENCH_complexity.json` into the working
//! directory — the tracked copy when run from the repository root, like
//! `BENCH_churn.json` (the CI smoke step asserts it is emitted and
//! parses).

use crate::{ExpConfig, ExperimentResult, GraphSpec};
use bfw_baselines::suite::{
    BfwUniform, CandidateAlgorithm, FloodMaxAlgorithm, KnockoutCliqueAlgorithm,
};
use bfw_baselines::ComplexityStats;
use bfw_core::{RecoveringNetwork, RecoveringProtocol, RecoveryConfig};
use bfw_graph::{algo, Graph};
use bfw_stats::Table;

/// Round budget per cell — generous: every stack converges far below
/// it on these sizes.
const MAX_ROUNDS: u64 = 10_000_000;

/// One measured cell of the faceoff.
struct Row {
    graph: String,
    diameter: u32,
    protocol: &'static str,
    /// `None` = not applicable on this topology (clique-only).
    outcome: Option<(u64, ComplexityStats)>,
}

/// The workloads: two cycle diameters, a torus, a random graph and the
/// clique (diameter-diverse, and the clique admits Knockout).
fn workloads(quick: bool) -> Vec<GraphSpec> {
    if quick {
        vec![
            GraphSpec::Cycle(16),
            GraphSpec::Cycle(48),
            GraphSpec::Torus(4, 4),
            GraphSpec::ErdosRenyi(24, 250, 7),
            GraphSpec::Clique(16),
        ]
    } else {
        vec![
            GraphSpec::Cycle(64),
            GraphSpec::Cycle(160),
            GraphSpec::Torus(8, 8),
            GraphSpec::ErdosRenyi(96, 80, 7),
            GraphSpec::Clique(64),
        ]
    }
}

/// Runs BFW under the self-healing recovery layer with instrumentation
/// until a unique leader emerges, returning the convergence round and
/// the measured channel complexity (`None` when the budget runs out).
fn run_recovering_measured(graph: &Graph, seed: u64) -> Option<(u64, ComplexityStats)> {
    let d = algo::diameter(graph)
        .expect("workloads are connected")
        .max(1);
    let config = RecoveryConfig::for_diameter(d);
    let protocol = RecoveringProtocol::bfw(0.5, config);
    let mut net = RecoveringNetwork::new(protocol, graph.clone().into(), seed);
    net.enable_instrumentation(None);
    let mut converged = None;
    for _ in 0..MAX_ROUNDS {
        net.step();
        if net.leader_count() == 1 {
            converged = Some(net.round());
            break;
        }
    }
    let round = converged?;
    let ledger = net.complexity_ledger().expect("instrumentation was on");
    Some((
        round,
        ComplexityStats {
            beeps_sent: ledger.beeps_sent(),
            beeps_heard: ledger.beeps_heard(),
            bits: ledger.bits(),
            messages: ledger.messages(),
            state_bytes: ledger.state_bytes_per_node(),
        },
    ))
}

fn measure(spec: &GraphSpec, graph: &Graph, diameter: u32, seed: u64) -> Vec<Row> {
    let is_clique = matches!(spec, GraphSpec::Clique(_));
    let cell = |protocol, outcome| Row {
        graph: spec.to_string(),
        diameter,
        protocol,
        outcome,
    };
    let beeping = |algo: &dyn CandidateAlgorithm| {
        algo.run_measured(graph, seed, MAX_ROUNDS)
            .ok()
            .and_then(|(stats, c)| c.map(|c| (stats.converged_round, c)))
    };
    vec![
        cell("BFW (p=0.5)", beeping(&BfwUniform { p: 0.5 })),
        cell("BFW + recovery", run_recovering_measured(graph, seed)),
        cell("FloodMax", beeping(&FloodMaxAlgorithm::default())),
        cell(
            "Knockout",
            if is_clique {
                beeping(&KnockoutCliqueAlgorithm::default())
            } else {
                None
            },
        ),
    ]
}

/// Assembles the `bfw/bench-report` document (see [`crate::report`]);
/// key-sorted deterministic rendering means re-runs diff cleanly, and
/// `bfw report validate` checks it back.
fn render_report(rows: &[Row], cfg: &ExpConfig) -> bfw_stats::JsonValue {
    use bfw_stats::JsonValue;
    crate::report::bench_report(
        "E19-complexity",
        cfg.quick,
        cfg.seed,
        [],
        rows.iter().map(|row| {
            let mut fields = vec![
                ("graph", JsonValue::from(row.graph.as_str())),
                ("diameter", JsonValue::from(row.diameter)),
                ("protocol", JsonValue::from(row.protocol)),
            ];
            match &row.outcome {
                Some((rounds, c)) => fields.extend([
                    ("rounds", JsonValue::from(*rounds)),
                    ("beeps_sent", JsonValue::from(c.beeps_sent)),
                    ("beeps_heard", JsonValue::from(c.beeps_heard)),
                    ("bits", JsonValue::from(c.bits)),
                    ("messages", JsonValue::from(c.messages)),
                    ("state_bytes", JsonValue::from(c.state_bytes)),
                ]),
                None => fields.push(("rounds", JsonValue::Null)),
            }
            JsonValue::object(fields)
        }),
    )
}

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> ExperimentResult {
    let mut table = Table::with_columns(&[
        "graph",
        "D",
        "protocol",
        "rounds",
        "beeps sent",
        "beeps heard",
        "bits",
        "messages",
        "state B/node",
    ]);
    let mut rows = Vec::new();
    for spec in workloads(cfg.quick) {
        let graph = spec.build();
        let diameter = algo::diameter(&graph).expect("workloads are connected");
        rows.extend(measure(&spec, &graph, diameter, cfg.seed));
    }
    for row in &rows {
        let cells = match &row.outcome {
            Some((rounds, c)) => vec![
                rounds.to_string(),
                c.beeps_sent.to_string(),
                c.beeps_heard.to_string(),
                c.bits.to_string(),
                c.messages.to_string(),
                c.state_bytes.to_string(),
            ],
            None => vec!["n/a (clique-only)".to_owned(); 6],
        };
        let mut full = vec![
            row.graph.clone(),
            row.diameter.to_string(),
            row.protocol.to_owned(),
        ];
        full.extend(cells);
        table.push_row(full);
    }

    let report = render_report(&rows, cfg);
    let path =
        crate::report::write_bench_report(cfg.report_root(), "BENCH_complexity.json", &report);

    let mut notes = vec![format!("wrote {}", path.display())];
    // The headline: on the largest cycle, compare BFW's channel usage
    // against FloodMax's.
    let largest = rows
        .iter()
        .filter(|r| r.graph.starts_with("cycle"))
        .filter_map(|r| {
            r.outcome
                .as_ref()
                .map(|(rounds, c)| (r.graph.clone(), r.protocol, *rounds, *c))
        })
        .collect::<Vec<_>>();
    if let (Some(bfw), Some(flood)) = (
        largest.iter().rfind(|(_, p, ..)| *p == "BFW (p=0.5)"),
        largest.iter().rfind(|(_, p, ..)| *p == "FloodMax"),
    ) {
        notes.push(format!(
            "{}: FloodMax converges in {} rounds to BFW's {}, but loads the channel with \
             {} bits/round to BFW's {} and needs {}B of state per node to BFW's {}B — \
             the message chasm, measured",
            bfw.0,
            flood.2,
            bfw.2,
            flood.3.bits / flood.2.max(1),
            bfw.3.bits / bfw.2.max(1),
            flood.3.state_bytes,
            bfw.3.state_bytes
        ));
    }
    notes.push(
        "beeps_heard counts post-noise perception events (beeping stacks only); FloodMax's \
         counters are the exact closed form messages = rounds x 2m, bits = messages x ceil(log2 n)"
            .to_owned(),
    );

    ExperimentResult {
        id: "E19-complexity",
        reproduces: "extension beyond the paper: empirical channel-complexity faceoff \
                     (rounds / beeps / bits / messages / state) across protocols and topologies",
        tables: vec![("complexity faceoff".to_owned(), table)],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfw_stats::JsonValue;

    #[test]
    fn quick_run_produces_faceoff_and_json() {
        // Keep the tracked workspace-root BENCH_complexity.json
        // untouched: write into a scratch directory instead.
        let scratch = std::env::temp_dir().join(format!("bfw-complexity-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).unwrap();
        let mut cfg = ExpConfig::quick();
        cfg.trials = 1;
        cfg.report_dir = Some(scratch.clone());
        let result = run(&cfg);
        let table = &result.tables[0].1;
        // 5 workloads x 4 protocols.
        assert_eq!(table.row_count(), 20, "{}", table.to_markdown());
        let md = table.to_markdown();
        assert!(md.contains("BFW + recovery"), "{md}");
        assert!(md.contains("FloodMax"), "{md}");
        assert!(md.contains("n/a (clique-only)"), "{md}");
        // Knockout measures on the clique.
        let knockout_clique = table
            .rows()
            .iter()
            .find(|r| r[0].starts_with("clique") && r[2] == "Knockout")
            .unwrap();
        assert_ne!(knockout_clique[3], "n/a (clique-only)");

        // The JSON report exists, carries the envelope, and validates.
        let json = std::fs::read_to_string(scratch.join("BENCH_complexity.json")).unwrap();
        let summary = crate::report::validate_bench_report(&json).unwrap();
        assert_eq!(summary.experiment, "E19-complexity");
        assert_eq!(summary.rows, 20);
        let value = JsonValue::parse(&json).unwrap();
        assert_eq!(
            value.get("version").and_then(JsonValue::as_number),
            Some(1.0)
        );
        assert_eq!(
            value.get("format").and_then(JsonValue::as_str),
            Some("bfw/bench-report")
        );
        let rows = value.get("rows").and_then(JsonValue::as_array).unwrap();
        assert_eq!(rows.len(), 20);
        assert!(rows
            .iter()
            .any(|r| r.get("rounds") == Some(&JsonValue::Null)));
        let _ = std::fs::remove_dir_all(&scratch);
    }

    #[test]
    fn bfw_beats_floodmax_on_bits_at_diameter() {
        // The message-chasm shape on the larger quick cycle: FloodMax
        // is faster in rounds but moves more bits than BFW, with far
        // larger per-node state.
        let spec = GraphSpec::Cycle(48);
        let graph = spec.build();
        let rows = measure(&spec, &graph, 24, 0xBF_2025);
        let get = |name: &str| {
            *rows
                .iter()
                .find(|r| r.protocol == name)
                .and_then(|r| r.outcome.as_ref())
                .unwrap()
        };
        let (bfw_rounds, bfw) = get("BFW (p=0.5)");
        let (flood_rounds, flood) = get("FloodMax");
        assert!(flood_rounds < bfw_rounds);
        // Per-round channel load: FloodMax saturates every edge with a
        // log n-bit message each round, BFW's nodes emit at most one
        // bit each. (Totals can go either way on sparse graphs — BFW
        // runs for Theta(D^2 log n) rounds — which is exactly why the
        // faceoff reports both.)
        let flood_per_round = flood.bits / flood_rounds;
        let bfw_per_round = bfw.bits / bfw_rounds;
        assert!(
            flood_per_round > bfw_per_round,
            "{flood_per_round} vs {bfw_per_round}"
        );
        assert!(flood.state_bytes > bfw.state_bytes);
        assert_eq!(bfw.state_bytes, 1, "BFW state is one byte");
        assert_eq!(flood.beeps_sent, 0);
        assert!(bfw.beeps_sent > 0);
    }
}
