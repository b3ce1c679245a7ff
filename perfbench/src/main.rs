//! `perfbench`: one closed-loop client driving `bfw scenario` verbs.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Set-up (references, set-up samples) is untimed; then whole cycles of
//! the workload's op mix run back to back for `S` seconds, every op
//! checked against its reference. The last stdout line is the JSON
//! result; `--trace 1` reports the per-layer metrics instead of the
//! end-to-end ones and writes its spans under `perfbench/out/`.

use perfbench::spans::Tracer;
use perfbench::workload::{self, Workload};
use perfbench::{host, median, probes, quantile, Metric};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Share of the run spent on set-up intervals.
const SETUP_SHARE: f64 = 0.125;

/// Fewest set-up intervals a run takes.
const MIN_SETUP_SAMPLES: usize = 10;

/// Where the benchmark writes, relative to the checkout root.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let w = match Workload::new(&args.workload, args.seed) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    std::process::exit(run(&args, &w));
}

/// One op's timing.
struct Sample {
    seconds: f64,
    traced: bool,
}

fn run(args: &Args, w: &Workload) -> i32 {
    // References through the second execution path; they also warm
    // the caches and the allocator before anything is timed.
    let refs = workload::references(w);
    let texts = w.setup_texts();
    let setup_interval = || {
        let start = Instant::now();
        for _ in 0..w.setup_batch {
            for &(text, seed) in &texts {
                std::hint::black_box(workload::setup_once(text, seed));
            }
        }
        start.elapsed().as_secs_f64()
    };
    let mut setup: Vec<f64> = Vec::new();
    let mut setup_spent = 0.0;

    // The closed loop: whole cycles until the time is up. A traced run
    // alternates traced and untraced cycles, so both see the same host.
    let mut tracer = Tracer::new(false);
    let mut ops: Vec<Sample> = Vec::new();
    let mut cycles: Vec<Sample> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut digest = perfbench::FNV_OFFSET;
    let cpu_start = host::cpu_times();
    let wait_start = host::runq_wait_ns();
    let start = Instant::now();
    let mut op_id = 0u64;
    loop {
        let traced = args.trace && cycles.len().is_multiple_of(2);
        tracer.set_on(traced);
        let mut cycle_s = 0.0;
        for (i, op) in w.ops.iter().enumerate() {
            tracer.set_op(op_id);
            op_id += 1;
            let t0 = Instant::now();
            let out = workload::run_op(&mut tracer, op);
            let seconds = t0.elapsed().as_secs_f64();
            cycle_s += seconds;
            ops.push(Sample { seconds, traced });
            attempted += 1;
            if !workload::check(op, &out, &refs[i]) {
                failed += 1;
                eprintln!("op {} ({}) failed its oracle", op_id - 1, op.label);
            }
            if cycles.is_empty() {
                digest = perfbench::fnv1a(digest, out.bytes.as_bytes());
            }
        }
        cycles.push(Sample {
            seconds: cycle_s,
            traced,
        });
        // Set-up intervals are spread over the run, so they see the
        // same host phases as the ops.
        if setup_spent < SETUP_SHARE * start.elapsed().as_secs_f64() {
            let interval = setup_interval();
            setup_spent += interval;
            setup.push(interval / w.setup_batch as f64);
        }
        let done = start.elapsed().as_secs_f64() >= args.seconds;
        if done && (!args.trace || cycles.len() >= 2) {
            break;
        }
    }
    while setup.len() < MIN_SETUP_SAMPLES {
        setup.push(setup_interval() / w.setup_batch as f64);
    }
    // The gated times are the run's fastest set-up interval and fastest
    // cycle. The host's core runs 1.5 to 1.8 times slower while other
    // tenants load it, in phases of seconds to over a minute, so how
    // much of a run fell in a slow phase sets its medians and low
    // percentiles; the fastest of tens to hundreds of samples moves
    // least between runs (see README.md).
    let setup_p50 = median(&mut setup);
    let setup_s = quantile(&mut setup, 0.0);
    let wall = start.elapsed().as_secs_f64();
    let steal = host::steal_frac(cpu_start, host::cpu_times());
    let runq = match (wait_start, host::runq_wait_ns()) {
        (Some(a), Some(b)) => (b - a) as f64 * 1e-9 / wall,
        _ => 0.0,
    };

    let untraced =
        |v: &[Sample]| -> Vec<f64> { v.iter().filter(|s| !s.traced).map(|s| s.seconds).collect() };
    let mut op_times = untraced(&ops);
    let mut cycle_times = untraced(&cycles);
    let cycle_node_rounds = refs.iter().map(|r| r.node_rounds).sum::<u64>() as f64;
    let p50 = median(&mut op_times);
    let p90 = quantile(&mut op_times, 0.9);
    let beyond_p90 = op_times.iter().filter(|&&s| s > p90).count();
    let cycle_min = quantile(&mut cycle_times, 0.0);
    let whole_run = cycle_node_rounds * cycle_times.len() as f64 / cycle_times.iter().sum::<f64>();
    let end_to_end = vec![
        Metric {
            name: "cycle_s_min",
            value: cycle_min,
            unit: "s",
        },
        Metric {
            name: "setup_s",
            value: setup_s,
            unit: "s",
        },
        Metric {
            name: "node_rounds_per_s",
            value: cycle_node_rounds / cycle_min,
            unit: "1/s",
        },
        Metric {
            name: "peak_rss_mb",
            value: host::peak_rss_mb(),
            unit: "MiB",
        },
        Metric {
            name: "ok_frac",
            value: (attempted - failed) as f64 / attempted as f64,
            unit: "ratio",
        },
    ];

    let mut text = String::new();
    let _ = writeln!(text, "workload:          {}", w.name);
    let _ = writeln!(
        text,
        "op mix:            {}",
        w.ops.iter().map(|o| o.label).collect::<Vec<_>>().join(", ")
    );
    let _ = writeln!(
        text,
        "seed {} | run {:.3} s measured ({} requested) | {} cycles, {} ops, {} set-up intervals",
        args.seed,
        wall,
        args.seconds,
        cycles.len(),
        ops.len(),
        setup.len()
    );
    let threads = w.ops.iter().map(resolved_threads).collect::<Vec<_>>();
    let _ = writeln!(
        text,
        "host cores {} | threads per op {:?} | build {} | {} | commit {}",
        host::cores(),
        threads,
        host::build_profile(),
        host::RUSTC,
        host::commit(Path::new("."))
    );
    let _ = writeln!(
        text,
        "host noise: steal_frac {steal:.4}, runq_wait_frac {runq:.4}"
    );
    let _ = writeln!(text, "outcome_digest:    {digest:016x}");
    for m in &end_to_end {
        let _ = writeln!(text, "  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let _ = writeln!(
        text,
        "  {:<28} {:>16.6} s ({} ops)",
        "run_s_p50",
        p50,
        op_times.len()
    );
    let _ = writeln!(
        text,
        "  {:<28} {:>16.6} s ({} intervals)",
        "setup_s_p50",
        setup_p50,
        setup.len()
    );
    let _ = writeln!(
        text,
        "  {:<28} {:>16.6} 1/s (whole run)",
        "node_rounds_per_s_mean", whole_run
    );
    let _ = writeln!(
        text,
        "  op seconds min/q1/q3/max       {:.6} {:.6} {:.6} {:.6}",
        quantile(&mut op_times, 0.0),
        quantile(&mut op_times, 0.25),
        quantile(&mut op_times, 0.75),
        quantile(&mut op_times, 1.0)
    );
    if beyond_p90 >= 10 {
        let _ = writeln!(
            text,
            "  {:<28} {:>16.6} s ({beyond_p90} samples beyond it)",
            "run_s_p90", p90
        );
    } else {
        let _ = writeln!(
            text,
            "  run_s_p90 not reported: only {beyond_p90} samples beyond it"
        );
    }

    let metrics = if args.trace {
        let mut traced_cycles: Vec<f64> = cycles
            .iter()
            .filter(|s| s.traced)
            .map(|s| s.seconds)
            .collect();
        let overhead = median(&mut traced_cycles) / median(&mut cycle_times) - 1.0;
        let per_layer = per_layer(&mut tracer, w, steal, runq, overhead);
        for m in &per_layer {
            let _ = writeln!(text, "  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let dir = Path::new(OUT_DIR);
        let path = dir.join(format!("spans-{}-seed{}.jsonl", w.name, args.seed));
        match std::fs::create_dir_all(dir).and_then(|()| tracer.write_jsonl(&path)) {
            Ok(()) => {
                let _ = writeln!(text, "spans written to {}", path.display());
            }
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", path.display());
                return 1;
            }
        }
        per_layer
    } else {
        end_to_end
    };
    print!("{text}");
    println!("{}", result_json(failed == 0, attempted, failed, &metrics));
    0
}

/// The thread count an op's runs resolve to: the bit kernel's, or one
/// for the single-threaded engines.
fn resolved_threads(op: &workload::Op) -> usize {
    let spec = workload::parse(&op.text);
    let (_, graph) = workload::build_graph(&spec);
    match bfw_scenario::resolved_kernel(&spec, graph.node_count()) {
        bfw_scenario::KernelKind::Bit => bfw_scenario::resolved_threads(&spec),
        _ => 1,
    }
}

/// Per-layer metrics: self times from the traced ops' spans, then the
/// probes, then the harness's own.
fn per_layer(t: &mut Tracer, w: &Workload, steal: f64, runq: f64, overhead: f64) -> Vec<Metric> {
    t.set_on(true);
    let med = |t: &Tracer, name: &str| median(&mut t.self_seconds(name));
    let mut out = vec![
        Metric {
            name: "spec.parse_s",
            value: med(t, "spec.parse"),
            unit: "s",
        },
        Metric {
            name: "report.text_s",
            value: med(t, "report.text"),
            unit: "s",
        },
        Metric {
            name: "report.bytes",
            value: median(&mut t.counts("report.bytes")),
            unit: "bytes",
        },
    ];
    probes::run(t, w, &mut out);
    let replays = t.counts("shrink.replays");
    let mut per_replay: Vec<f64> = t
        .self_seconds("shrink")
        .iter()
        .zip(&replays)
        .map(|(s, r)| s / r)
        .collect();
    for (name, value, unit) in [
        ("lifecycle.step_s", med(t, "lifecycle.step"), "s"),
        ("lifecycle.resume_s", med(t, "lifecycle.resume"), "s"),
        ("snapshot.encode_s", med(t, "snapshot.encode"), "s"),
        ("snapshot.decode_s", med(t, "snapshot.decode"), "s"),
        (
            "snapshot.bytes",
            median(&mut t.counts("snapshot.bytes")),
            "bytes",
        ),
        ("shrink.replays", median(&mut replays.clone()), "count"),
        (
            "shrink.events_kept",
            median(&mut t.counts("shrink.events_kept")),
            "count",
        ),
        ("shrink.s_per_replay", median(&mut per_replay), "s"),
        ("host.steal_frac", steal, "ratio"),
        ("host.runq_wait_frac", runq, "ratio"),
        ("trace.overhead_frac", overhead, "ratio"),
    ] {
        out.push(Metric { name, value, unit });
    }
    out
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, every value with all its digits.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
