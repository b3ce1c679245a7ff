//! Scenario lifecycle: `step`, snapshot, `resume` — a run as a value.
//!
//! `bfw scenario run` executes a spec start to finish. The lifecycle
//! verbs split that run at any round: [`step_bfw_scenario`] advances a
//! fresh scenario N rounds and captures an [`EngineSnapshot`];
//! [`resume_step_bfw_scenario`] picks a snapshot up and advances it
//! further; [`resume_run_bfw_scenario`] drives one to the horizon and
//! hands back the [`ScenarioOutcome`]. The contract is byte-exactness:
//! stepping N then M rounds produces the *identical* outcome — event
//! log, recoveries, flap counts, leaders — as one straight run of
//! N + M rounds at the same seed, on every kernel and at every thread
//! count.
//!
//! A snapshot is everything the run is: the normalized spec (compiled
//! all-`at` timeline, pinned seed), the **current** topology (events
//! may have rewired it), per-node protocol states, the fault layer's
//! crash mask and noise channels, every per-node ChaCha stream
//! position, the async scheduler half when there is one, and the
//! engine's own cursor (timeline index, partition backlog, noise
//! expiry, scenario-RNG position, event log, election-monitor state).
//! Serialized as a versioned `bfw/engine-snapshot` document
//! ([`EngineSnapshot::to_json_value`] / [`EngineSnapshot::from_json`],
//! checked by [`validate_engine_snapshot`]).
//!
//! Snapshots are **kernel- and thread-invariant**: the embedded spec
//! keeps the file's own `kernel`/`threads` keys (execution overrides
//! apply only to the run, never to the artifact), the bit kernel
//! translates its checkpoint back to original node labels, and edges
//! are emitted sorted — so the generic engine at 1 thread and the bit
//! kernel at 8 write byte-identical snapshot documents, and either can
//! resume the other's.

use crate::bfw_run::{build_stack, Driven};
use crate::spec_io::{config_to_json, event_to_json, normalized_spec, spec_from_doc};
use crate::{
    EngineCursor, KernelKind, MonitorState, Recovery, RuntimeKind, ScenarioOutcome, ScenarioSpec,
    SpecError,
};
use bfw_core::BfwState;
use bfw_graph::{Graph, NodeId};
use bfw_sim::{EngineCheckpoint, SchedulerCheckpoint};
use bfw_stats::{Doc, Envelope, JsonValue, SchemaError};

/// A paused scenario run: everything needed to continue it — or to
/// reproduce its remainder on a different kernel or thread count.
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    /// The normalized run configuration: compiled all-`at` timeline,
    /// effective seed pinned, no trace request, and the *file's* kernel
    /// and threads keys (execution overrides are never embedded).
    pub spec: ScenarioSpec,
    /// The run's effective seed (duplicates `spec.seed` for cheap
    /// access).
    pub seed: u64,
    /// Rounds completed when the snapshot was taken; round `round`'s
    /// due events are applied and its leader set observed.
    pub round: u64,
    /// The topology **at the snapshot round** (timeline events may have
    /// rewired the initial graph).
    pub graph: Graph,
    /// Per-node protocol states, in original node-label order.
    pub states: Vec<BfwState>,
    /// The host engine's checkpoint: crash mask, noise channels,
    /// per-node RNG stream positions, async scheduler half.
    pub checkpoint: EngineCheckpoint,
    /// The scenario engine's cursor: timeline index, partition backlog,
    /// noise expiry, scenario-RNG position, event log, monitor state.
    pub cursor: EngineCursor,
}

/// What [`validate_engine_snapshot`] reports about a well-formed
/// document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotSummary {
    /// Scenario name from the embedded spec.
    pub name: String,
    /// Rounds completed at the snapshot.
    pub round: u64,
    /// The embedded spec's horizon.
    pub rounds: u64,
    /// Nodes in the snapshot topology.
    pub nodes: usize,
    /// Crashed nodes at the snapshot.
    pub crashed: usize,
}

/// Advances a fresh scenario `rounds` rounds (clamped to the spec's
/// horizon) and captures the resulting [`EngineSnapshot`]. `seed` is
/// the run's effective seed; `kernel`/`threads` override the spec's
/// keys **for execution only** — the snapshot embeds the spec's own
/// values, keeping the artifact kernel- and thread-invariant.
///
/// # Errors
///
/// A [`SpecError`] for stack-invariant violations, or for
/// `protocol = "bfw+recovery"` — the recovery layer's epoch-tagged
/// states have no snapshot encoding (run it with `scenario run`).
pub fn step_bfw_scenario(
    spec: &ScenarioSpec,
    graph: &Graph,
    seed: u64,
    rounds: u64,
    kernel: Option<KernelKind>,
    threads: Option<usize>,
) -> Result<EngineSnapshot, SpecError> {
    let embed = normalized_spec(spec, seed);
    let target = rounds.min(embed.rounds);
    drive_embedded(&embed, graph, None, Some(target), kernel, threads).map(Driven::paused)
}

/// Advances a snapshot `rounds` further rounds (clamped to its horizon)
/// and captures the new snapshot. The execution kernel and thread count
/// are free choices — any combination resumes any snapshot and the
/// bytes come out the same.
///
/// # Errors
///
/// Same as [`step_bfw_scenario`].
pub fn resume_step_bfw_scenario(
    snap: &EngineSnapshot,
    rounds: u64,
    kernel: Option<KernelKind>,
    threads: Option<usize>,
) -> Result<EngineSnapshot, SpecError> {
    let target = snap.round.saturating_add(rounds).min(snap.spec.rounds);
    drive_embedded(
        &snap.spec,
        &snap.graph,
        Some(snap),
        Some(target),
        kernel,
        threads,
    )
    .map(Driven::paused)
}

/// Drives a snapshot to its horizon and assembles the full
/// [`ScenarioOutcome`] — byte-identical to what a straight
/// `scenario run` of the embedded spec would have produced.
///
/// # Errors
///
/// Same as [`step_bfw_scenario`].
pub fn resume_run_bfw_scenario(
    snap: &EngineSnapshot,
    kernel: Option<KernelKind>,
    threads: Option<usize>,
) -> Result<ScenarioOutcome, SpecError> {
    drive_embedded(&snap.spec, &snap.graph, Some(snap), None, kernel, threads)
        .map(|driven| driven.finished().0)
}

/// Builds the untraced stack for `embed` at its pinned seed and drives
/// it (see [`Stack::drive`](crate::bfw_run::Stack::drive)). The
/// kernel/threads overrides go to a scratch copy of the spec that only
/// picks the host; the embedded spec — and therefore the snapshot
/// bytes — never see them.
fn drive_embedded(
    embed: &ScenarioSpec,
    graph: &Graph,
    from: Option<&EngineSnapshot>,
    pause_at: Option<u64>,
    kernel: Option<KernelKind>,
    threads: Option<usize>,
) -> Result<Driven, SpecError> {
    let exec = ScenarioSpec {
        kernel: kernel.unwrap_or(embed.kernel),
        threads: threads.or(embed.threads),
        ..embed.clone()
    };
    build_stack(&exec, graph, embed.seed, None)?.drive(embed, graph, embed.seed, from, pause_at)
}

fn state_index(state: BfwState) -> u64 {
    BfwState::ALL
        .iter()
        .position(|&s| s == state)
        .expect("ALL lists every state") as u64
}

fn position_json(pos: (u64, usize)) -> JsonValue {
    JsonValue::array([JsonValue::from(pos.0), JsonValue::from(pos.1 as u64)])
}

fn position_from_doc(doc: &Doc<'_>) -> Result<(u64, usize), SchemaError> {
    let items = doc.items()?;
    if items.len() != 2 {
        return Err(doc.error("an RNG position is a [counter, cursor] pair"));
    }
    Ok((items[0].u64()?, items[1].u64()? as usize))
}

fn edge_json(u: NodeId, v: NodeId) -> JsonValue {
    let (a, b) = if u.index() <= v.index() {
        (u, v)
    } else {
        (v, u)
    };
    JsonValue::array([JsonValue::from(a.index()), JsonValue::from(b.index())])
}

fn node_from_doc(doc: &Doc<'_>) -> Result<NodeId, SchemaError> {
    let id = doc.u64()?;
    u32::try_from(id)
        .map(NodeId::from_u32)
        .map_err(|_| doc.error(format!("node id {id} exceeds u32::MAX")))
}

fn edge_from_doc(doc: &Doc<'_>) -> Result<(NodeId, NodeId), SchemaError> {
    let items = doc.items()?;
    if items.len() != 2 {
        return Err(doc.error("an edge is a [u, v] pair"));
    }
    Ok((node_from_doc(&items[0])?, node_from_doc(&items[1])?))
}

impl EngineSnapshot {
    /// Renders the snapshot as a versioned `bfw/engine-snapshot`
    /// document. Deterministic and kernel-invariant: states in label
    /// order, edges sorted, and only the embedded (file) spec — the
    /// same paused run always renders byte-identically, whichever
    /// kernel or thread count produced it.
    pub fn to_json_value(&self) -> JsonValue {
        let mut fields: Vec<(String, JsonValue)> = Envelope::entries("engine-snapshot").into();
        fields.push((
            "spec".to_owned(),
            JsonValue::object([
                ("config", config_to_json(&self.spec, self.seed)),
                (
                    "events",
                    JsonValue::array(
                        self.spec
                            .timeline
                            .compile(self.spec.rounds, self.seed)
                            .iter()
                            .map(event_to_json),
                    ),
                ),
            ]),
        ));
        fields.push(("round".to_owned(), JsonValue::from(self.round)));
        let mut edges: Vec<(NodeId, NodeId)> = self.graph.edges().collect();
        edges.sort_by_key(|&(u, v)| (u.index().min(v.index()), u.index().max(v.index())));
        fields.push((
            "graph".to_owned(),
            JsonValue::object([
                ("nodes", JsonValue::from(self.graph.node_count())),
                (
                    "edges",
                    JsonValue::array(edges.into_iter().map(|(u, v)| edge_json(u, v))),
                ),
            ]),
        ));
        fields.push((
            "states".to_owned(),
            JsonValue::array(self.states.iter().map(|&s| JsonValue::from(state_index(s)))),
        ));
        let cp = &self.checkpoint;
        fields.push((
            "engine".to_owned(),
            JsonValue::object([
                ("steps", JsonValue::from(cp.steps)),
                (
                    "crashed",
                    JsonValue::array(
                        cp.crashed
                            .iter()
                            .enumerate()
                            .filter(|&(_, &c)| c)
                            .map(|(i, _)| JsonValue::from(i)),
                    ),
                ),
                (
                    "noise",
                    JsonValue::object([
                        ("fn", JsonValue::from(cp.false_negative)),
                        ("fp", JsonValue::from(cp.false_positive)),
                    ]),
                ),
                (
                    "rng",
                    JsonValue::array(cp.rng_positions.iter().map(|&p| position_json(p))),
                ),
                (
                    "scheduler",
                    match &cp.scheduler {
                        None => JsonValue::Null,
                        Some(s) => JsonValue::object([
                            ("rng", position_json(s.rng_position)),
                            ("replay_cursor", JsonValue::from(s.replay_cursor)),
                        ]),
                    },
                ),
            ]),
        ));
        let cur = &self.cursor;
        let m = &cur.monitor;
        fields.push((
            "cursor".to_owned(),
            JsonValue::object([
                ("next_event", JsonValue::from(cur.next_event)),
                (
                    "partition_backlog",
                    JsonValue::array(cur.partition_backlog.iter().map(|&(u, v)| edge_json(u, v))),
                ),
                ("noise_off_at", JsonValue::from(cur.noise_off_at)),
                ("rng", position_json(cur.rng_position)),
                (
                    "log",
                    JsonValue::array(cur.log.iter().map(|l| JsonValue::from(l.as_str()))),
                ),
                (
                    "monitor",
                    JsonValue::object([
                        ("stability_window", JsonValue::from(m.stability_window)),
                        (
                            "open_disruptions",
                            JsonValue::array(
                                m.open_disruptions.iter().map(|&r| JsonValue::from(r)),
                            ),
                        ),
                        (
                            "streak_leader",
                            JsonValue::from(m.streak_leader.map(|u| u.index())),
                        ),
                        ("streak_len", JsonValue::from(m.streak_len)),
                        (
                            "last_unique",
                            JsonValue::from(m.last_unique.map(|u| u.index())),
                        ),
                        ("flaps", JsonValue::from(m.flaps)),
                        (
                            "recoveries",
                            JsonValue::array(m.recoveries.iter().map(|r| {
                                JsonValue::object([
                                    ("disrupted_at", JsonValue::from(r.disrupted_at)),
                                    ("recovered_at", JsonValue::from(r.recovered_at)),
                                    ("leader", JsonValue::from(r.leader.index())),
                                ])
                            })),
                        ),
                    ]),
                ),
                ("observed_through", JsonValue::from(cur.observed_through)),
            ]),
        ));
        JsonValue::object(fields)
    }

    /// Parses a `bfw/engine-snapshot` document.
    ///
    /// # Errors
    ///
    /// A [`SchemaError`] naming the first offending path, including
    /// cross-field inconsistencies (state/RNG/crash arrays must all be
    /// node-sized; the engine's step counter must equal the round).
    pub fn from_json(text: &str) -> Result<EngineSnapshot, SchemaError> {
        let value = JsonValue::parse(text).map_err(|e| SchemaError::root(e.to_string()))?;
        let doc = Doc::root(&value);
        Envelope::expect(&doc, "engine-snapshot")?;

        let spec = spec_from_doc(&doc.field("spec")?)?;
        let round = doc.field("round")?.u64()?;

        let graph_doc = doc.field("graph")?;
        let nodes = graph_doc.field("nodes")?.u64()? as usize;
        let edges_doc = graph_doc.field("edges")?;
        let mut edges = Vec::new();
        for item in edges_doc.items()? {
            let (u, v) = edge_from_doc(&item)?;
            edges.push((u.as_u32(), v.as_u32()));
        }
        let graph = Graph::from_edges(nodes, edges)
            .map_err(|e| edges_doc.error(format!("invalid edge set: {e}")))?;

        let states_doc = doc.field("states")?;
        let mut states = Vec::new();
        for item in states_doc.items()? {
            let idx = item.u64()? as usize;
            states.push(
                BfwState::ALL
                    .get(idx)
                    .copied()
                    .ok_or_else(|| item.error(format!("state index {idx} out of range (0..6)")))?,
            );
        }
        if states.len() != nodes {
            return Err(states_doc.error(format!(
                "expected {nodes} states (one per node), got {}",
                states.len()
            )));
        }

        let engine = doc.field("engine")?;
        let steps = engine.field("steps")?.u64()?;
        if steps != round {
            return Err(engine.error(format!(
                "engine steps {steps} disagree with snapshot round {round}"
            )));
        }
        let mut crashed = vec![false; nodes];
        for item in engine.field("crashed")?.items()? {
            let i = item.u64()? as usize;
            if i >= nodes {
                return Err(item.error(format!("crashed node {i} out of range ({nodes} nodes)")));
            }
            crashed[i] = true;
        }
        let noise = engine.field("noise")?;
        let false_negative = noise.field("fn")?.f64()?;
        let false_positive = noise.field("fp")?.f64()?;
        let rng_doc = engine.field("rng")?;
        let mut rng_positions = Vec::new();
        for item in rng_doc.items()? {
            rng_positions.push(position_from_doc(&item)?);
        }
        if rng_positions.len() != nodes {
            return Err(rng_doc.error(format!(
                "expected {nodes} RNG positions (one per node), got {}",
                rng_positions.len()
            )));
        }
        let scheduler = match engine.opt_field("scheduler")? {
            None => None,
            Some(s) => Some(SchedulerCheckpoint {
                rng_position: position_from_doc(&s.field("rng")?)?,
                replay_cursor: s.field("replay_cursor")?.u64()? as usize,
            }),
        };
        if (spec.runtime == RuntimeKind::Async) != scheduler.is_some() {
            return Err(engine.error(
                "scheduler state must be present exactly for runtime = \"async\" snapshots",
            ));
        }
        let checkpoint = EngineCheckpoint {
            steps,
            crashed,
            false_negative,
            false_positive,
            rng_positions,
            scheduler,
        };

        let cur = doc.field("cursor")?;
        let mut partition_backlog = Vec::new();
        for item in cur.field("partition_backlog")?.items()? {
            partition_backlog.push(edge_from_doc(&item)?);
        }
        let noise_off_at = match cur.opt_field("noise_off_at")? {
            None => None,
            Some(f) => Some(f.u64()?),
        };
        let mut log = Vec::new();
        for item in cur.field("log")?.items()? {
            log.push(item.str()?.to_owned());
        }
        let mon = cur.field("monitor")?;
        let opt_node = |key: &str| -> Result<Option<NodeId>, SchemaError> {
            match mon.opt_field(key)? {
                None => Ok(None),
                Some(f) => node_from_doc(&f).map(Some),
            }
        };
        let mut open_disruptions = Vec::new();
        for item in mon.field("open_disruptions")?.items()? {
            open_disruptions.push(item.u64()?);
        }
        let mut recoveries = Vec::new();
        for item in mon.field("recoveries")?.items()? {
            recoveries.push(Recovery {
                disrupted_at: item.field("disrupted_at")?.u64()?,
                recovered_at: item.field("recovered_at")?.u64()?,
                leader: node_from_doc(&item.field("leader")?)?,
            });
        }
        let monitor = MonitorState {
            stability_window: mon.field("stability_window")?.u64()?,
            open_disruptions,
            streak_leader: opt_node("streak_leader")?,
            streak_len: mon.field("streak_len")?.u64()?,
            last_unique: opt_node("last_unique")?,
            flaps: mon.field("flaps")?.u64()?,
            recoveries,
        };
        let observed_through = match cur.opt_field("observed_through")? {
            None => None,
            Some(f) => Some(f.u64()?),
        };
        let cursor = EngineCursor {
            next_event: cur.field("next_event")?.u64()? as usize,
            partition_backlog,
            noise_off_at,
            rng_position: position_from_doc(&cur.field("rng")?)?,
            log,
            monitor,
            observed_through,
        };

        let seed = spec.seed;
        Ok(EngineSnapshot {
            spec,
            seed,
            round,
            graph,
            states,
            checkpoint,
            cursor,
        })
    }
}

/// Validates a `bfw/engine-snapshot` document (the `bfw report
/// validate` entry point for this kind): a full decode, so every state
/// index, RNG position and monitor field is checked.
///
/// # Errors
///
/// A [`SchemaError`] naming the first offending path.
pub fn validate_engine_snapshot(text: &str) -> Result<SnapshotSummary, SchemaError> {
    let snap = EngineSnapshot::from_json(text)?;
    Ok(SnapshotSummary {
        name: snap.spec.name.clone(),
        round: snap.round,
        rounds: snap.spec.rounds,
        nodes: snap.graph.node_count(),
        crashed: snap.checkpoint.crashed.iter().filter(|&&c| c).count(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_bfw_scenario;
    use bfw_graph::generators;

    const CHURN: &str = r#"
[scenario]
name = "lifecycle churn"
graph = "cycle:12"
rounds = 6000
stability = 20
seed = 42

[[event]]
at = 1500
kind = "crash-leader"

[[event]]
at = 1700
kind = "recover-all"

[[event]]
at = 2000
kind = "partition"
cut = [0, 1, 2]

[[event]]
at = 2400
kind = "heal"

[[event]]
rate = 0.001
kind = "crash-random"

[[event]]
rate = 0.002
kind = "recover-random"
"#;

    fn spec() -> ScenarioSpec {
        ScenarioSpec::parse(CHURN).unwrap()
    }

    #[test]
    fn step_then_resume_equals_straight_run() {
        let spec = spec();
        let g = generators::cycle(12);
        for seed in [7u64, 42] {
            let straight = run_bfw_scenario(&spec, &g, seed).unwrap();
            let snap = step_bfw_scenario(&spec, &g, seed, 1_800, None, None).unwrap();
            assert_eq!(snap.round, 1_800);
            let resumed = resume_run_bfw_scenario(&snap, None, None).unwrap();
            assert_eq!(straight, resumed, "seed {seed}");
            assert_eq!(straight.to_text(), resumed.to_text(), "seed {seed}");
        }
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let spec = spec();
        let g = generators::cycle(12);
        let snap = step_bfw_scenario(&spec, &g, 42, 2_100, None, None).unwrap();
        let rendered = snap.to_json_value().render_pretty();
        let summary = validate_engine_snapshot(&rendered).unwrap();
        assert_eq!(summary.name, "lifecycle churn");
        assert_eq!(summary.round, 2_100);
        assert_eq!(summary.nodes, 12);

        let back = EngineSnapshot::from_json(&rendered).unwrap();
        assert_eq!(back.to_json_value().render_pretty(), rendered);
        // A deserialized snapshot resumes to the same outcome.
        assert_eq!(
            resume_run_bfw_scenario(&back, None, None).unwrap(),
            resume_run_bfw_scenario(&snap, None, None).unwrap()
        );
    }

    #[test]
    fn snapshots_are_kernel_and_thread_invariant() {
        let spec = spec();
        let g = generators::cycle(12);
        let generic = step_bfw_scenario(&spec, &g, 42, 2_100, Some(KernelKind::Generic), None)
            .unwrap()
            .to_json_value()
            .render_pretty();
        for threads in [1usize, 4] {
            let bit = step_bfw_scenario(&spec, &g, 42, 2_100, Some(KernelKind::Bit), Some(threads))
                .unwrap()
                .to_json_value()
                .render_pretty();
            assert_eq!(generic, bit, "threads {threads}");
        }
    }

    #[test]
    fn cross_kernel_resume_is_byte_identical() {
        let spec = spec();
        let g = generators::cycle(12);
        let straight = run_bfw_scenario(&spec, &g, 42).unwrap();
        let snap =
            step_bfw_scenario(&spec, &g, 42, 2_100, Some(KernelKind::Generic), None).unwrap();
        // Resume the generic snapshot on the bit kernel, sharded.
        let resumed = resume_run_bfw_scenario(&snap, Some(KernelKind::Bit), Some(4)).unwrap();
        assert_eq!(straight, resumed);
    }

    #[test]
    fn chained_steps_compose() {
        let spec = spec();
        let g = generators::cycle(12);
        let one = step_bfw_scenario(&spec, &g, 42, 3_000, None, None).unwrap();
        let a = step_bfw_scenario(&spec, &g, 42, 1_000, None, None).unwrap();
        let b = resume_step_bfw_scenario(&a, 1_000, None, None).unwrap();
        let c = resume_step_bfw_scenario(&b, 1_000, None, None).unwrap();
        assert_eq!(c.round, 3_000);
        assert_eq!(
            one.to_json_value().render_pretty(),
            c.to_json_value().render_pretty()
        );
    }

    #[test]
    fn async_snapshots_carry_the_scheduler_half_and_resume() {
        let text = CHURN.replace(
            "seed = 42",
            "seed = 42\nruntime = \"async\"\nscheduler = \"uniform\"",
        );
        let spec = ScenarioSpec::parse(&text).unwrap();
        let g = generators::cycle(12);
        let straight = run_bfw_scenario(&spec, &g, 42).unwrap();
        let snap = step_bfw_scenario(&spec, &g, 42, 2_500, None, None).unwrap();
        assert!(snap.checkpoint.scheduler.is_some());
        let rendered = snap.to_json_value().render_pretty();
        let back = EngineSnapshot::from_json(&rendered).unwrap();
        let resumed = resume_run_bfw_scenario(&back, None, None).unwrap();
        assert_eq!(straight, resumed);
    }

    #[test]
    fn step_past_horizon_clamps() {
        let spec = spec();
        let g = generators::cycle(12);
        let snap = step_bfw_scenario(&spec, &g, 42, 1_000_000, None, None).unwrap();
        assert_eq!(snap.round, 6_000);
        // Resuming a horizon snapshot produces the straight outcome.
        let outcome = resume_run_bfw_scenario(&snap, None, None).unwrap();
        assert_eq!(outcome, run_bfw_scenario(&spec, &g, 42).unwrap());
    }

    #[test]
    fn recovery_protocol_is_rejected() {
        let text = CHURN.replace("seed = 42", "seed = 42\nprotocol = \"bfw+recovery\"");
        let spec = ScenarioSpec::parse(&text).unwrap();
        let err =
            step_bfw_scenario(&spec, &generators::cycle(12), 42, 100, None, None).unwrap_err();
        assert!(err.to_string().contains("no snapshot encoding"), "{err}");
    }

    #[test]
    fn corrupt_documents_are_rejected_with_pointers() {
        let spec = spec();
        let g = generators::cycle(12);
        let snap = step_bfw_scenario(&spec, &g, 42, 500, None, None).unwrap();
        let good = snap.to_json_value().render_pretty();

        let wrong_kind = good.replace("engine-snapshot", "snapshot");
        assert!(validate_engine_snapshot(&wrong_kind).is_err());

        let bad_round = good.replace("\"round\": 500", "\"round\": 501");
        let err = validate_engine_snapshot(&bad_round).unwrap_err();
        assert!(err.to_string().contains("disagree"), "{err}");

        let err = validate_engine_snapshot("{}").unwrap_err();
        assert!(err.to_string().contains("format"), "{err}");
    }
}
