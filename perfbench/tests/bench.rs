//! The benchmark's own checks: the work a run does does not depend on
//! the seed, tracing does not change outputs, and a run writes nothing
//! outside its output directory.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (the geo-large workload is slow in a debug build).

use perfbench::spans::Tracer;
use perfbench::workload::{self, references, run_op, Workload, WORKLOADS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Spec text with its `seed = ` line removed.
fn without_seed(text: &str) -> String {
    text.lines()
        .filter(|l| !l.starts_with("seed = "))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn two_seeds_do_the_same_work() {
    for name in WORKLOADS {
        let a = Workload::new(name, 1).unwrap();
        let b = Workload::new(name, 2).unwrap();
        let mix = |w: &Workload| w.ops.iter().map(|o| o.label).collect::<Vec<_>>();
        assert_eq!(mix(&a), mix(&b), "{name}: op mix");
        assert_eq!(a.setup_batch, b.setup_batch);
        for (x, y) in a.ops.iter().zip(&b.ops) {
            assert_ne!(x.seed, y.seed, "{name}/{}: the seed must matter", x.label);
            assert_eq!(
                without_seed(&x.text),
                without_seed(&y.text),
                "{name}/{}",
                x.label
            );
        }
        let (ra, rb) = (references(&a), references(&b));
        for ((op, x), y) in a.ops.iter().zip(&ra).zip(&rb) {
            assert_eq!(
                x.node_rounds, y.node_rounds,
                "{name}/{}: node-rounds",
                op.label
            );
            let kept = |o: &workload::OpOutput| o.shrink.as_ref().map(|s| s.kept.clone());
            assert_eq!(kept(x), kept(y), "{name}/{}: events kept", op.label);
        }
    }
}

#[test]
fn lifecycle_shrink_keeps_exactly_the_crash_leader() {
    for seed in 1..=30 {
        let w = Workload::new("lifecycle-chain", seed).unwrap();
        let refs = references(&w);
        let facts = refs[0].shrink.as_ref().unwrap();
        assert_eq!(facts.kept, ["crash-leader"], "seed {seed}");
        let out = run_op(&mut Tracer::new(false), &w.ops[0]);
        assert!(workload::check(&w.ops[0], &out, &refs[0]), "seed {seed}");
    }
}

#[test]
fn tracing_does_not_change_outputs() {
    for name in WORKLOADS {
        let w = Workload::new(name, 3).unwrap();
        let refs = references(&w);
        for (op, reference) in w.ops.iter().zip(&refs) {
            let plain = run_op(&mut Tracer::new(false), op);
            let mut on = Tracer::new(true);
            let traced = run_op(&mut on, op);
            assert_eq!(plain.bytes, traced.bytes, "{name}/{}", op.label);
            assert!(!on.spans().is_empty());
            assert!(
                workload::check(op, &traced, reference),
                "{name}/{}",
                op.label
            );
        }
    }
}

/// Every file under `root` with its bytes, skipping build output, git
/// metadata and the benchmark's own output directory.
fn tree(root: &Path, skip: &[PathBuf]) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut files = BTreeMap::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy();
            if skip.contains(&path) || name == "target" || name == ".git" {
                continue;
            }
            if path.is_dir() {
                stack.push(path);
            } else {
                files.insert(path.clone(), std::fs::read(&path).unwrap());
            }
        }
    }
    files
}

#[test]
fn a_run_writes_only_its_output_directory() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let mut skip = vec![root.join("perfbench/out"), root.join(".bench_build")];
    if let Some(dir) = std::env::var_os("CARGO_TARGET_DIR") {
        skip.push(root.join(dir));
    }
    let before = tree(root, &skip);
    for trace in ["0", "1"] {
        let status = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(["--workload", "fleet-mix", "--seed", "5", "--seconds", "1"])
            .args(["--trace", trace])
            .current_dir(root)
            .output()
            .unwrap();
        assert!(status.status.success(), "{status:?}");
        let stdout = String::from_utf8(status.stdout).unwrap();
        let last = stdout.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\": true"), "{last}");
    }
    let after = tree(root, &skip);
    assert_eq!(
        before.keys().collect::<Vec<_>>(),
        after.keys().collect::<Vec<_>>(),
        "files appeared or vanished"
    );
    for (path, bytes) in &before {
        assert!(after[path] == *bytes, "{} changed", path.display());
    }
}
