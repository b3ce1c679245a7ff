//! The four workloads: their op mixes, the ops themselves, and the
//! oracles that check every op's output.
//!
//! An op is one user verb, from spec text to report bytes, driven
//! through the entry points the `bfw` CLI uses. The workload seed only
//! picks scenario seeds (RNG streams and random event targets); graph
//! sizes, horizons, event counts and the op mix are fixed.

use crate::spans::Tracer;
use bfw_bench::GraphSpec;
use bfw_graph::Graph;
use bfw_scenario::{
    resume_run_bfw_scenario, resume_step_bfw_scenario, run_bfw_scenario_traced, shrink_wipeout,
    step_bfw_scenario, EngineSnapshot, KernelKind, RunReport, RuntimeKind, ScenarioEvent,
    ScenarioSpec,
};

/// Workload names, in the order the doc lists them.
pub const WORKLOADS: [&str; 4] = ["geo-large", "pool-default", "fleet-mix", "lifecycle-chain"];

/// How an op's output is checked against a second execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Oracle {
    /// A repeat run of the same path gives the same bytes.
    Repeat,
    /// The run with `threads = 1` gives the same bytes.
    OneThread,
    /// The bit kernel at one thread gives the same bytes.
    BitOneThread,
}

/// What an op does.
#[derive(Debug, Clone)]
pub enum OpKind {
    /// `bfw scenario run`.
    Run(Oracle),
    /// `bfw scenario step` in `segments` pieces, each snapshot rendered
    /// to `bfw/engine-snapshot` text and parsed back, `scenario run
    /// --resume-from` to the horizon, then `bfw scenario shrink --quick`
    /// of `shrink_text`.
    Lifecycle {
        /// Step segments before the final resume.
        segments: u64,
        /// The wipeout spec to shrink.
        shrink_text: String,
    },
}

/// One op of a workload's mix.
#[derive(Debug, Clone)]
pub struct Op {
    /// Short name for reports.
    pub label: &'static str,
    /// The spec text the op starts from.
    pub text: String,
    /// The effective seed (the CLI's `--seed`).
    pub seed: u64,
    /// What the op does.
    pub kind: OpKind,
}

/// A workload: a fixed op mix, run as whole cycles.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// The op mix of one cycle.
    pub ops: Vec<Op>,
    /// How many times one set-up interval sets up the whole mix, so no
    /// timed interval is a few microseconds long.
    pub setup_batch: usize,
    /// Index of the op whose spec the per-layer probes use.
    pub probe_op: usize,
    /// Wipeout spec the shrink probe uses when no op shrinks.
    pub probe_wipeout: Option<String>,
}

/// What an op produced.
#[derive(Debug, Clone)]
pub struct OpOutput {
    /// The bytes the oracle compares: the report text (and, for the
    /// lifecycle op, the shrink report).
    pub bytes: String,
    /// Simulated node-rounds (node-activations on async) of the
    /// reported runs.
    pub node_rounds: u64,
    /// Shrink facts, when the op shrinks.
    pub shrink: Option<ShrinkFacts>,
}

/// What one shrink did.
#[derive(Debug, Clone)]
pub struct ShrinkFacts {
    /// The kept events, rendered.
    pub kept: Vec<String>,
    /// The minimized spec.
    pub minimal: ScenarioSpec,
}

/// SplitMix64: derives independent scenario seeds from the workload
/// seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % 1_000_000_007
}

const RING_CHURN: &str = include_str!("../../examples/scenarios/ring_churn.toml");
const HEAL_WIPEOUT: &str = include_str!("../../examples/scenarios/heal_wipeout.toml");
const ASYNC_STORM: &str = include_str!("../../examples/scenarios/async_storm.toml");
const WIPEOUT_E17: &str = include_str!("../../examples/scenarios/wipeout_e17.toml");

/// A synchronous plain-BFW spec with periodic crash/recover churn.
fn churn_spec(name: &str, graph: &str, rounds: u64, seed: u64, extra: &str) -> String {
    let period = rounds / 4;
    format!(
        "[scenario]\nname = \"{name}\"\ngraph = \"{graph}\"\np = 0.5\nrounds = {rounds}\n\
         stability = 20\nseed = {seed}\n{extra}\n\
         [[event]]\nevery = {period}\nstart = {}\ncount = 3\nkind = \"crash-random\"\n\n\
         [[event]]\nevery = {period}\nstart = {}\ncount = 3\nkind = \"recover-random\"\n",
        period / 2,
        period / 2 + period / 4,
    )
}

/// The shrink input: a wipeout that happens at every seed. A cycle of
/// 16 elects its leader long before round 2000, `crash-leader` then
/// removes it with no rejoin, and plain BFW has no transition that
/// creates a leader. The distractors come after the crash because
/// none of them can bring a leader back (a crash/recover pair before
/// it can end in a wipeout of its own at some seeds); the shrinker
/// must drop them all.
fn wipeout_spec(seed: u64) -> String {
    let mut text = format!(
        "[scenario]\nname = \"crash-leader wipeout\"\ngraph = \"cycle:16\"\np = 0.5\n\
         rounds = 3000\nstability = 20\nseed = {seed}\n"
    );
    for (at, event) in [
        (2000, "kind = \"crash-leader\""),
        (2200, "kind = \"crash-random\""),
        (2400, "kind = \"partition\"\ncut = [0, 1, 2, 3, 4, 5, 6, 7]"),
        (2600, "kind = \"heal\""),
        (
            2700,
            "kind = \"noise-burst\"\nfn = 0.05\nfp = 0.005\nrounds = 100",
        ),
        (2800, "kind = \"crash-random\""),
    ] {
        text.push_str(&format!("\n[[event]]\nat = {at}\n{event}\n"));
    }
    text
}

/// The example's `[trace] file` line would make a run write
/// `heal_report.json` into the working directory; the benchmark keeps
/// the trace but never the file.
fn without_trace_file(text: &str) -> String {
    text.lines()
        .filter(|line| !line.trim_start().starts_with("file ="))
        .map(|line| format!("{line}\n"))
        .collect()
}

impl Workload {
    /// The workload called `name` at workload seed `seed`.
    ///
    /// # Errors
    ///
    /// An unknown workload name.
    pub fn new(name: &str, seed: u64) -> Result<Workload, String> {
        let s = |stream| derive_seed(seed, stream);
        let run = |label, text: String, stream, oracle| Op {
            label,
            text,
            seed: s(stream),
            kind: OpKind::Run(oracle),
        };
        Ok(match name {
            "geo-large" => {
                let mut text =
                    churn_spec("geo large", "geo:32768:14:1", 200, s(0), "threads = 1\n");
                text.push_str(
                    "\n[[event]]\nat = 100\nkind = \"noise-burst\"\nfn = 0.0\nfp = 0.0001\n\
                     rounds = 20\n",
                );
                Workload {
                    name: "geo-large",
                    ops: vec![run("geo-large", text.clone(), 0, Oracle::Repeat)],
                    setup_batch: 1,
                    probe_op: 0,
                    probe_wipeout: Some(probe_wipeout(&text, 20)),
                }
            }
            "pool-default" => {
                let text = churn_spec("pool default", "cycle:8192", 1000, s(0), "");
                Workload {
                    name: "pool-default",
                    ops: vec![run("pool-default", text.clone(), 0, Oracle::OneThread)],
                    setup_batch: 20,
                    probe_op: 0,
                    probe_wipeout: Some(probe_wipeout(&text, 400)),
                }
            }
            "fleet-mix" => Workload {
                name: "fleet-mix",
                ops: vec![
                    run("ring_churn", RING_CHURN.to_owned(), 0, Oracle::BitOneThread),
                    run(
                        "heal_wipeout",
                        without_trace_file(HEAL_WIPEOUT),
                        1,
                        Oracle::Repeat,
                    ),
                    run("async_storm", ASYNC_STORM.to_owned(), 2, Oracle::Repeat),
                    run(
                        "wipeout_e17",
                        WIPEOUT_E17.to_owned(),
                        3,
                        Oracle::BitOneThread,
                    ),
                    run(
                        "gen-cycle",
                        churn_spec("fleet cycle", "cycle:64", 14800, s(4), ""),
                        4,
                        Oracle::BitOneThread,
                    ),
                    run(
                        "gen-torus",
                        churn_spec("fleet torus", "torus:16x16", 4850, s(5), ""),
                        5,
                        Oracle::BitOneThread,
                    ),
                    run(
                        "gen-ba",
                        churn_spec("fleet ba", "ba:512:2:7", 1450, s(6), ""),
                        6,
                        Oracle::BitOneThread,
                    ),
                ],
                setup_batch: 50,
                probe_op: 5,
                probe_wipeout: Some(WIPEOUT_E17.to_owned()),
            },
            "lifecycle-chain" => Workload {
                name: "lifecycle-chain",
                ops: vec![Op {
                    label: "lifecycle-chain",
                    text: churn_spec("lifecycle torus", "torus:64x64", 800, s(0), "threads = 1\n"),
                    seed: s(0),
                    kind: OpKind::Lifecycle {
                        segments: 4,
                        shrink_text: wipeout_spec(s(1)),
                    },
                }],
                setup_batch: 10,
                probe_op: 0,
                probe_wipeout: None,
            },
            other => {
                return Err(format!(
                    "unknown workload `{other}` (expected one of: {})",
                    WORKLOADS.join(", ")
                ))
            }
        })
    }

    /// The spec texts set-up covers: every op's, plus the shrink input.
    pub fn setup_texts(&self) -> Vec<(&str, u64)> {
        let mut texts = Vec::new();
        for op in &self.ops {
            texts.push((op.text.as_str(), op.seed));
            if let OpKind::Lifecycle { shrink_text, .. } = &op.kind {
                texts.push((shrink_text.as_str(), op.seed));
            }
        }
        texts
    }
}

/// A spec's wipeout variant for the shrink probe: the horizon cut to
/// `rounds` and a dead configuration injected after the last rejoin
/// inside it, which leaves plain BFW leaderless for good.
fn probe_wipeout(text: &str, rounds: u64) -> String {
    // Only the `[scenario]` horizon: event tables have `rounds` keys too.
    let mut out = text.replacen(
        &format!("rounds = {}\n", parse(text).rounds),
        &format!("rounds = {rounds}\n"),
        1,
    );
    out.push_str(&format!(
        "\n[[event]]\nat = {}\nkind = \"inject-dead\"\n",
        rounds * 3 / 4
    ));
    out
}

/// Parses spec text the way `bfw scenario` does.
pub fn parse(text: &str) -> ScenarioSpec {
    ScenarioSpec::parse(text).expect("benchmark specs are valid")
}

/// Builds a spec's graph through the CLI's `GraphSpec` syntax.
pub fn build_graph(spec: &ScenarioSpec) -> (GraphSpec, Graph) {
    let workload: GraphSpec = spec.graph.parse().expect("benchmark graphs are valid");
    let graph = workload.build();
    (workload, graph)
}

/// A finished `bfw scenario run`.
pub struct Ran {
    /// The report, as the CLI assembles it.
    pub report: RunReport,
    /// Nodes in the run's graph.
    pub nodes: usize,
    /// The report's text view: the CLI's stdout.
    pub text: String,
}

impl Ran {
    /// Simulated node-rounds (node-activations on async).
    pub fn node_rounds(&self) -> u64 {
        let rounds = self.report.outcome.rounds_run;
        match self.report.runtime {
            RuntimeKind::Async => rounds,
            RuntimeKind::Sync => rounds * self.nodes as u64,
        }
    }
}

/// `bfw scenario run` in-process: spec text to report bytes. `exec`
/// may change how the run executes (kernel, threads) but never the
/// report header. The `[trace]` section is honoured as the CLI honours
/// it, minus the file.
pub fn scenario_run(
    t: &mut Tracer,
    text: &str,
    seed: u64,
    exec: impl Fn(&mut ScenarioSpec),
) -> Ran {
    let mut spec = t.span("spec.parse", |_| parse(text));
    let header = spec.clone();
    exec(&mut spec);
    let (workload, graph) = t.span("graph.build", |_| build_graph(&spec));
    let capacity = spec.trace.as_ref().map(|tr| tr.last);
    let (outcome, trace) = t.span("scenario.run", |_| {
        run_bfw_scenario_traced(&spec, &graph, seed, capacity).expect("benchmark specs run")
    });
    let nodes = graph.node_count();
    let report = RunReport::new(&header, workload.to_string(), nodes, seed, outcome, trace);
    let text = t.span("report.text", |_| report.to_text());
    t.count("report.bytes", text.len() as f64);
    Ran {
        report,
        nodes,
        text,
    }
}

/// Runs one op and returns its output. Everything inside is the timed
/// user work; checks happen in [`check`].
pub fn run_op(t: &mut Tracer, op: &Op) -> OpOutput {
    t.span("op", |t| match &op.kind {
        OpKind::Run(_) => {
            let ran = scenario_run(t, &op.text, op.seed, |_| {});
            OpOutput {
                node_rounds: ran.node_rounds(),
                bytes: ran.text,
                shrink: None,
            }
        }
        OpKind::Lifecycle {
            segments,
            shrink_text,
        } => {
            let ran = lifecycle_chain(t, &op.text, op.seed, *segments);
            let (facts, shrunk) = shrink(t, shrink_text, op.seed);
            OpOutput {
                node_rounds: ran.node_rounds(),
                bytes: ran.text + &shrunk,
                shrink: Some(facts),
            }
        }
    })
}

/// `scenario step` × `segments`, each snapshot rendered and parsed
/// back, then `scenario run --resume-from` to the horizon.
pub fn lifecycle_chain(t: &mut Tracer, text: &str, seed: u64, segments: u64) -> Ran {
    let spec = t.span("spec.parse", |_| parse(text));
    let (workload, graph) = t.span("graph.build", |_| build_graph(&spec));
    let n = graph.node_count();
    let stride = spec.rounds / (segments + 1);
    let mut snap = t.span("lifecycle.step", |_| {
        step_bfw_scenario(&spec, &graph, seed, stride, None, None).expect("plain bfw steps")
    });
    for k in 0..segments {
        let doc = t.span("snapshot.encode", |_| snap.to_json_value().render_pretty());
        t.count("snapshot.bytes", doc.len() as f64);
        let back = t.span("snapshot.decode", |_| {
            EngineSnapshot::from_json(&doc).expect("snapshots round-trip")
        });
        snap = if k + 1 < segments {
            t.span("lifecycle.step", |_| {
                resume_step_bfw_scenario(&back, stride, None, None).expect("plain bfw steps")
            })
        } else {
            back
        };
    }
    let outcome = t.span("lifecycle.resume", |_| {
        resume_run_bfw_scenario(&snap, None, None).expect("plain bfw resumes")
    });
    let report = RunReport::new(&spec, workload.to_string(), n, seed, outcome, None);
    let text = t.span("report.text", |_| report.to_text());
    t.count("report.bytes", text.len() as f64);
    Ran {
        report,
        nodes: n,
        text,
    }
}

/// `bfw scenario shrink --quick`: the shrink report's text and facts.
pub fn shrink(t: &mut Tracer, text: &str, seed: u64) -> (ShrinkFacts, String) {
    let spec = t.span("spec.parse", |_| parse(text));
    let (_, graph) = t.span("graph.build", |_| build_graph(&spec));
    let report = t.span("shrink", |_| {
        shrink_wipeout(&spec, &graph, seed, true).expect("the shrink input wipes out")
    });
    let text = report.to_text();
    t.count("shrink.replays", report.replays as f64);
    t.count("shrink.events_kept", report.events.len() as f64);
    let facts = ShrinkFacts {
        kept: report.events.iter().map(|e| e.event.to_string()).collect(),
        minimal: report.spec,
    };
    (facts, text)
}

/// The reference bytes for every op of the mix, each from a second
/// execution path, computed once in set-up.
pub fn references(w: &Workload) -> Vec<OpOutput> {
    let mut off = Tracer::new(false);
    w.ops
        .iter()
        .map(|op| match &op.kind {
            OpKind::Run(oracle) => {
                let ran = scenario_run(&mut off, &op.text, op.seed, |spec| match oracle {
                    Oracle::Repeat => {}
                    Oracle::OneThread => spec.threads = Some(1),
                    Oracle::BitOneThread => {
                        spec.kernel = KernelKind::Bit;
                        spec.threads = Some(1);
                    }
                });
                OpOutput {
                    node_rounds: ran.node_rounds(),
                    bytes: ran.text,
                    shrink: None,
                }
            }
            OpKind::Lifecycle { shrink_text, .. } => {
                // The straight run the chain must reproduce, then one
                // shrink whose bytes every later shrink must repeat.
                let ran = scenario_run(&mut off, &op.text, op.seed, |_| {});
                let (facts, shrunk) = shrink(&mut off, shrink_text, op.seed);
                OpOutput {
                    node_rounds: ran.node_rounds(),
                    bytes: ran.text + &shrunk,
                    shrink: Some(facts),
                }
            }
        })
        .collect()
}

/// Checks an op's output against its reference. The lifecycle op must
/// also keep exactly the `crash-leader`, and its minimized spec must
/// still wipe out.
pub fn check(op: &Op, out: &OpOutput, reference: &OpOutput) -> bool {
    if out.bytes != reference.bytes || out.node_rounds != reference.node_rounds {
        return false;
    }
    match (&op.kind, &out.shrink) {
        (OpKind::Run(_), None) => true,
        (OpKind::Lifecycle { .. }, Some(facts)) => {
            facts.kept == [ScenarioEvent::CrashLeader.to_string()] && still_wipes(facts, op.seed)
        }
        _ => false,
    }
}

/// Re-runs the minimized spec and checks that it still ends leaderless.
fn still_wipes(facts: &ShrinkFacts, seed: u64) -> bool {
    let (_, graph) = build_graph(&facts.minimal);
    let outcome =
        run_bfw_scenario_traced(&facts.minimal, &graph, seed, None).expect("minimal spec runs");
    outcome.0.final_leaders.is_empty()
}

/// Set-up of one spec: text to a host ready to step round 1 (parse,
/// graph build, `WordGraph` plan and RCM, host construction), timed as
/// the same run at horizon 0. Returns the node count.
pub fn setup_once(text: &str, seed: u64) -> usize {
    let mut spec = parse(text);
    spec.rounds = 0;
    let (_, graph) = build_graph(&spec);
    run_bfw_scenario_traced(&spec, &graph, seed, None).expect("benchmark specs run");
    graph.node_count()
}
