//! Drives the `bfw` CLI end to end through its library interface
//! (parse → execute), covering the user-facing workflows.

use bfw_cli::{execute, parse, Command};

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(str::to_owned).collect()
}

fn run_cli(line: &str) -> Result<String, String> {
    parse(&argv(line)).and_then(execute)
}

#[test]
fn run_workflow_on_cycle() {
    let out = run_cli("run --graph cycle:12 --seed 5 --stability 500").expect("run succeeds");
    assert!(out.contains("graph:            cycle:12"), "{out}");
    assert!(out.contains("leader:"), "{out}");
    assert!(out.contains("unchanged for 500 extra rounds"), "{out}");
}

#[test]
fn run_workflow_known_d_on_path() {
    let out = run_cli("run --graph path:17 --known-d --seed 2").expect("run succeeds");
    // D = 16 ⇒ p = 1/17 ≈ 0.0588...
    assert!(out.contains("p:                0.058"), "{out}");
}

#[test]
fn trace_workflow_renders_waves() {
    let out = run_cli("trace --graph path:12 --rounds 25 --seed 1").expect("trace succeeds");
    // All nodes start as leaders.
    assert!(out.contains("LLLLLLLLLLLL"), "{out}");
    // Legend present.
    assert!(out.contains("W•"), "{out}");
    assert!(out.contains("leaders remaining"), "{out}");
}

#[test]
fn duel_trace_starts_with_two_leaders() {
    let out = run_cli("trace --graph path:8 --duel --rounds 5").expect("trace succeeds");
    assert!(out.contains("L......L"), "{out}");
}

#[test]
fn graph_workflow_reports_diameter() {
    let out = run_cli("graph torus:4x4").expect("graph succeeds");
    assert!(out.contains("nodes:     16"), "{out}");
    assert!(out.contains("diameter:  4"), "{out}");
    assert!(out.contains("degrees:"), "{out}");
}

#[test]
fn experiment_workflow_runs_single_experiment() {
    let out = run_cli("experiment flow --quick --trials 2").expect("experiment runs");
    assert!(out.contains("E12-flow-audit"), "{out}");
    assert!(out.contains("| graph"), "{out}");
}

#[test]
fn error_paths_are_user_friendly() {
    assert!(run_cli("run").unwrap_err().contains("--graph"));
    assert!(run_cli("run --graph bogus:1")
        .unwrap_err()
        .contains("unknown graph kind"));
    assert!(run_cli("experiment not-an-experiment --quick")
        .unwrap_err()
        .contains("unknown experiment"));
    assert!(run_cli("run --graph cycle:8 --p 1.5")
        .unwrap_err()
        .contains("(0, 1)"));
}

#[test]
fn help_covers_all_subcommands() {
    let help = execute(Command::Help).expect("help renders");
    for cmd in ["bfw run", "bfw trace", "bfw graph", "bfw experiment"] {
        assert!(help.contains(cmd), "missing {cmd}");
    }
}

#[test]
fn scenario_spec_documents_replay_through_every_verb() {
    // Whatever `scenario export --out` and `scenario shrink --out`
    // write, `scenario run|validate|step` read back.
    let examples = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/scenarios");
    let dir = std::env::temp_dir().join(format!("bfw_cli_spec_replay_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let min = dir.join("min.json");
    let min = min.display();
    run_cli(&format!(
        "scenario shrink {examples}/wipeout_e17.toml --quick --out {min}"
    ))
    .expect("the E17 corpus shrinks");
    let replay = run_cli(&format!("scenario run {min}")).expect("the reproducer runs");
    assert!(replay.contains("final leaders:     []"), "{replay}");
    let validated = run_cli(&format!("scenario validate {min}")).expect("it validates");
    assert!(validated.contains("1 timeline entries"), "{validated}");
    let stepped = run_cli(&format!("scenario step {min} --rounds 100")).expect("it steps");
    assert!(stepped.contains("bfw/engine-snapshot"), "{stepped}");

    let spec = dir.join("spec.json");
    let spec = spec.display();
    let toml = format!("{examples}/ring_churn.toml");
    run_cli(&format!("scenario export {toml} --seed 42 --out {spec}")).expect("export");
    let from_toml = run_cli(&format!("scenario run {toml} --seed 42")).expect("the TOML runs");
    let from_json = run_cli(&format!("scenario run {spec}")).expect("the export runs");
    assert_eq!(from_json, from_toml);

    // A JSON document of another kind is refused by its envelope, not
    // misread as TOML.
    let snapshot = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/wipeout_e17_round600.snapshot.json"
    );
    let err = run_cli(&format!("scenario run {snapshot}")).unwrap_err();
    assert!(err.contains("scenario-spec"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}
