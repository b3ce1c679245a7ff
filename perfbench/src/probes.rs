//! Per-layer probes: timed calls into each layer's public functions on
//! the workload's own inputs, recorded as spans, run once after the
//! traced op loop.

use crate::spans::Tracer;
use crate::workload::{build_graph, lifecycle_chain, parse, scenario_run, shrink, Workload};
use crate::Metric;
use bfw_core::{Bfw, BitNetwork, RecoveringNetwork, RecoveringProtocol, RecoveryConfig};
use bfw_graph::{Graph, WordGraph};
use bfw_scenario::{
    resolved_kernel, resolved_threads, DynamicHost, ElectionMonitor, Engine, KernelKind,
    ScenarioSpec, Timeline,
};
use bfw_sim::stone_age::{AsyncStoneAgeNetwork, BeepingAsStoneAge};
use bfw_sim::{Network, ShardPool};
use std::hint::black_box;
use std::time::Instant;

/// Node-steps each stepping probe simulates, so every probe does about
/// the same work whatever the graph size.
const PROBE_WORK: u64 = 1 << 23;

/// Steps a stepping probe takes on `n` nodes.
fn steps_for(n: usize, work: u64) -> u64 {
    (work / n as u64).clamp(8, 4096)
}

/// Runs `f` in span `name` and returns its wall seconds.
fn timed(t: &mut Tracer, name: &'static str, f: impl FnOnce()) -> f64 {
    t.span(name, |_| {
        let start = Instant::now();
        f();
        start.elapsed().as_secs_f64()
    })
}

/// Median of `reps` timed calls of `f`, each in span `name`.
fn median_of<T>(t: &mut Tracer, name: &'static str, reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| timed(t, name, || drop(black_box(f()))))
        .collect();
    crate::median(&mut times)
}

/// Runs every probe for workload `w` and appends its metrics. Layers
/// the op mix already traced (lifecycle, shrink) are not probed again.
pub fn run(t: &mut Tracer, w: &Workload, out: &mut Vec<Metric>) {
    let op = &w.ops[w.probe_op];
    let spec = parse(&op.text);
    let seed = op.seed;
    let (workload, graph) = build_graph(&spec);
    let n = graph.node_count();
    let mut push = |name, value, unit| out.push(Metric { name, value, unit });

    push(
        "graph.build_s",
        median_of(t, "graph.build", 3, || workload.build()),
        "s",
    );
    push("graph.edges", graph.edge_count() as f64, "count");

    // WordGraph: plan + RCM, and the propagate kernel alone.
    let wg = WordGraph::build(&graph);
    push(
        "wordgraph.build_s",
        median_of(t, "wordgraph.build", 3, || WordGraph::build(&graph)),
        "s",
    );
    let stream = if wg.uses_edge_stream() {
        2 * graph.edge_count()
    } else {
        0
    };
    push("wordgraph.edge_stream", stream as f64, "count");
    let words = wg.words();
    let src: Vec<u64> = (0..words as u64)
        .map(|i| crate::workload::derive_seed(seed, i) & 0x5555_5555_5555_5555)
        .collect();
    let mut dst = vec![0u64; words];
    let iters = steps_for(n, PROBE_WORK);
    let s = timed(t, "wordgraph.propagate", || {
        for _ in 0..iters {
            wg.propagate_or(black_box(&src), &mut dst);
        }
    });
    black_box(&dst);
    push(
        "wordgraph.propagate_ns_per_word",
        s * 1e9 / (iters as f64 * words as f64),
        "ns",
    );

    // Bit kernel at one thread, quiet and noisy.
    let bit = |threads: usize| {
        let mut h = BitNetwork::new(Bfw::new(spec.p), graph.clone().into(), seed);
        h.set_threads(threads);
        h
    };
    push(
        "bitkernel.new_s",
        median_of(t, "bitkernel.new", 3, || bit(1)),
        "s",
    );
    let steps = steps_for(n, PROBE_WORK);
    let per_node = |s: f64, steps: u64| s * 1e9 / (steps as f64 * n as f64);
    let mut h = bit(1);
    let one = per_node(timed(t, "bitkernel.step", || h.run(steps)), steps);
    push("bitkernel.step_ns_per_node", one, "ns");
    let mut h = bit(1);
    h.set_noise(0.02, 0.002);
    let noisy = per_node(timed(t, "bitkernel.noisy_step", || h.run(steps)), steps);
    push("bitkernel.noisy_step_ns_per_node", noisy, "ns");

    // ShardPool at the CLI's default thread count.
    let mut unset = spec.clone();
    unset.threads = None;
    let threads = resolved_threads(&unset);
    push("pool.threads", threads as f64, "count");
    let pool = ShardPool::new(threads);
    let calls = 2000;
    let s = timed(t, "pool.fanout", || {
        for _ in 0..calls {
            pool.run(|k| {
                black_box(k);
            });
        }
    });
    push("pool.fanout_us", s * 1e6 / calls as f64, "us");
    let mut h = bit(threads);
    let pooled = per_node(timed(t, "pool.step", || h.run(steps)), steps);
    push("pool.step_ns_per_node", pooled, "ns");
    push("pool.speedup", one / pooled, "ratio");

    // The generic engines.
    let tick_steps = steps_for(n, PROBE_WORK / 8);
    let mut h = Network::new(Bfw::new(spec.p), graph.clone().into(), seed);
    let s = timed(t, "tick.step", || h.run(tick_steps));
    push("tick.step_ns_per_node", per_node(s, tick_steps), "ns");
    let activations = PROBE_WORK / 8;
    let mut h = AsyncStoneAgeNetwork::new(
        BeepingAsStoneAge::new(Bfw::new(spec.p)),
        graph.clone().into(),
        seed,
    );
    let s = timed(t, "activation.activate", || {
        for _ in 0..activations {
            black_box(h.activate_next());
        }
    });
    push(
        "activation.ns_per_activation",
        s * 1e9 / activations as f64,
        "ns",
    );
    // Timing is sized for a fixed eccentricity bound: the per-round cost
    // does not depend on it, and the exact diameter is all-pairs work.
    let protocol = RecoveringProtocol::bfw(spec.p, RecoveryConfig::for_diameter(64));
    let mut h = RecoveringNetwork::new(protocol, graph.clone().into(), seed);
    let s = timed(t, "recovering.step", || h.run(tick_steps));
    push("recovering.step_ns_per_node", per_node(s, tick_steps), "ns");

    // The scenario engine's own per-round work over the resolved host.
    let (overhead, leaders_ns) = if resolved_kernel(&spec, n) == KernelKind::Bit {
        let threads = resolved_threads(&spec);
        engine_probe(t, || bit(threads), &graph, &spec, steps)
    } else {
        let make = || Network::new(Bfw::new(spec.p), graph.clone().into(), seed);
        engine_probe(t, make, &graph, &spec, tick_steps)
    };
    push("engine.overhead_frac", overhead, "ratio");
    push("monitor.leaders_ns", leaders_ns, "ns");

    // Report rendering of the workload's own report.
    let ran = scenario_run(t, &op.text, seed, |_| {});
    push(
        "report.json_s",
        median_of(t, "report.json", 3, || {
            ran.report.to_json_value().render_pretty()
        }),
        "s",
    );

    // Lifecycle and shrink, where no op of the mix exercises them.
    if let Some(text) = &w.probe_wipeout {
        lifecycle_chain(t, &op.text, seed, 1);
        shrink(t, text, seed);
    }
}

/// Engine-driven rounds against bare `host.step()` rounds on twin
/// hosts, and the per-round leader scan plus monitor update.
fn engine_probe<H: DynamicHost>(
    t: &mut Tracer,
    make: impl Fn() -> H,
    graph: &Graph,
    spec: &ScenarioSpec,
    steps: u64,
) -> (f64, f64) {
    let mut bare = make();
    let bare_s = timed(t, "engine.bare", || {
        for _ in 0..steps {
            bare.step();
        }
    });
    let engine = Engine::new(
        make(),
        graph,
        &Timeline::new(),
        steps,
        spec.seed,
        spec.stability,
    );
    let engine_s = timed(t, "engine.run", || drop(black_box(engine.run())));
    let mut monitor = ElectionMonitor::new(spec.stability);
    let round = bare.round();
    let calls = steps.min(256);
    let s = timed(t, "monitor.leaders", || {
        for i in 0..calls {
            let leaders = bare.leaders();
            monitor.observe(round + i, &leaders);
        }
    });
    (engine_s / bare_s - 1.0, s * 1e9 / calls as f64)
}
