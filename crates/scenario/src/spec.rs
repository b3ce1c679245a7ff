//! The TOML scenario format.
//!
//! A scenario file has one `[scenario]` header and any number of
//! `[[event]]` entries:
//!
//! ```toml
//! [scenario]
//! name = "ring churn"
//! graph = "cycle:32"     # resolved by the caller (CLI: GraphSpec syntax)
//! p = 0.5                # BFW beep probability
//! rounds = 20000         # horizon
//! stability = 50         # stable rounds required to count a recovery
//! protocol = "bfw"       # or "bfw+recovery" (self-healing layer)
//!
//! [[event]]
//! at = 2000              # or: every/start/count, or: rate
//! kind = "crash-leader"
//!
//! [[event]]
//! at = 2200
//! kind = "recover-all"
//! ```
//!
//! Event kinds and their fields:
//!
//! | `kind` | fields |
//! |--------|--------|
//! | `crash` | `node` |
//! | `crash-random` | — |
//! | `crash-leader` | — |
//! | `recover` | `node` |
//! | `recover-random` | — |
//! | `recover-all` | — |
//! | `add-edge` / `remove-edge` | `u`, `v` |
//! | `partition` | `cut` (array of node ids) |
//! | `heal` | — |
//! | `noise-burst` | `fn`, `fp`, `rounds` |
//! | `inject-phantom` | `waves` |
//! | `inject-dead` | — |
//!
//! Scheduling fields (exactly one form per event): `at = N`;
//! `every = PERIOD` with optional `start = N`, `count = N`; or
//! `rate = P` with optional `start = N`.
//!
//! An optional `[trace]` section turns on complexity instrumentation
//! (see [`bfw_sim::instrument`]) for every run of the scenario:
//!
//! ```toml
//! [trace]
//! file = "trace.json"    # where the CLI writes the JSON report
//! last = 256             # flight-recorder capacity (default 256)
//! ```
//!
//! Both keys are optional (`[trace]` alone enables tracing with the
//! defaults); the CLI's `--trace` / `--trace-last` flags override them.
//!
//! `runtime = "async"` executes the scenario on the asynchronous
//! `ActivationEngine` runtime (BFW as a stone-age protocol under
//! activation-based scheduling) instead of synchronous rounds; every
//! timeline position and the `rounds` horizon are then read in
//! **activations**. The optional `scheduler` key picks the activation
//! scheduler (`uniform` | `weighted` | `replay`) and is only legal
//! under `runtime = "async"`. The recovery layer needs synchronous
//! slot multiplexing, so `runtime = "async"` with
//! `protocol = "bfw+recovery"` is a hard error.
//!
//! The optional `kernel` key (`"auto"` | `"generic"` | `"bit"`,
//! default `"auto"`) picks the execution kernel for synchronous BFW
//! rounds: the generic per-node `TickEngine` or the bitplane
//! `BitEngine` fast path. `"auto"` selects the bit kernel for plain
//! synchronous BFW on large graphs; the choice never changes outcomes
//! (the kernels are byte-identical at a fixed seed). An explicit
//! `kernel = "bit"` with `protocol = "bfw+recovery"` or
//! `runtime = "async"` is a hard error.
//!
//! The optional `threads` key (a positive integer) sets the worker
//! count for the bit kernel's word-sharded parallel step; unset leaves
//! the runner's default (the host's available parallelism, capped).
//! The thread count never changes outcomes — the sharded step is
//! byte-identical to the serial one at a fixed seed. Combining
//! `threads` with `kernel = "generic"`, `runtime = "async"` or
//! `protocol = "bfw+recovery"` is a hard error, since only the bit
//! kernel shards its step.
//!
//! With `protocol = "bfw+recovery"` the optional `[scenario]` keys
//! `heartbeat`, `timeout` and `grace` override the recovery layer's
//! diameter-derived timing (heartbeat period and detection timeout in
//! heartbeat slots, grace window in election slots); unset keys keep
//! the `RecoveryConfig::for_diameter` defaults. They are rejected under
//! plain `protocol = "bfw"`, where they would be silently meaningless.
//!
//! Every unknown section, key or event kind is a hard [`SpecError`]
//! (never silently ignored), with a "did you mean" hint when a known
//! name is close.

use crate::toml_mini::{self, Table, Value};
use crate::{InjectKind, ScenarioEvent, Schedule, Timeline};
use bfw_graph::NodeId;
use bfw_sim::Scheduler;
use std::fmt;

/// A parsed scenario file, before graph resolution.
///
/// The `graph` field stays a string: workload-spec parsing
/// (`"cycle:32"`) lives in `bfw-bench` and the CLI resolves it; tests
/// and library users may supply any graph they like alongside the
/// spec's timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Human-readable scenario name.
    pub name: String,
    /// Workload spec string (e.g. `"cycle:32"`), resolved by the caller.
    pub graph: String,
    /// BFW beep probability.
    pub p: f64,
    /// Round horizon.
    pub rounds: u64,
    /// Stable rounds required before a recovery is recorded.
    pub stability: u64,
    /// Default seed (a CLI `--seed` overrides it).
    pub seed: u64,
    /// Which protocol stack drives the run.
    pub protocol: ProtocolKind,
    /// Recovery-layer heartbeat period override, in heartbeat slots
    /// (`None` = diameter-derived; only with [`ProtocolKind::BfwRecovery`]).
    pub heartbeat: Option<u32>,
    /// Recovery-layer detection timeout override, in heartbeat slots.
    pub timeout: Option<u32>,
    /// Recovery-layer grace window override, in election slots.
    pub grace: Option<u32>,
    /// Which runtime executes the scenario (`runtime` key).
    pub runtime: RuntimeKind,
    /// Activation scheduler override (`scheduler` key; only with
    /// [`RuntimeKind::Async`], `None` = uniform). This is
    /// `bfw_sim::Scheduler` directly — the spec names map 1:1 onto the
    /// engine's schedulers.
    pub scheduler: Option<Scheduler>,
    /// Which execution kernel runs the rounds (`kernel` key).
    pub kernel: KernelKind,
    /// Worker-thread count for the bit kernel's word-sharded step
    /// (`threads` key; `None` = the runner's default, currently the
    /// host's available parallelism capped at 8). Thread count never
    /// changes outcomes — the sharded step is byte-identical to the
    /// serial one at a fixed seed. Only meaningful on the bit kernel:
    /// combining it with `kernel = "generic"`, `runtime = "async"` or
    /// `protocol = "bfw+recovery"` is a hard error.
    pub threads: Option<usize>,
    /// The declarative event schedule.
    pub timeline: Timeline,
    /// Complexity-instrumentation request (`[trace]` section), `None`
    /// when the scenario does not ask for tracing.
    pub trace: Option<TraceSpec>,
}

/// The `[trace]` section: asks every run of the scenario to enable
/// complexity instrumentation and a flight recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpec {
    /// Destination for the JSON report (`file` key). `None` leaves the
    /// destination to the caller (the CLI's `--trace` flag).
    pub file: Option<String>,
    /// Flight-recorder ring-buffer capacity (`last` key).
    pub last: usize,
}

impl Default for TraceSpec {
    fn default() -> Self {
        TraceSpec {
            file: None,
            last: 256,
        }
    }
}

/// The runtime a scenario executes on (`runtime` key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RuntimeKind {
    /// Synchronous rounds (the default): the beeping `TickEngine`
    /// runtime; timeline positions are rounds.
    #[default]
    Sync,
    /// Asynchronous activations: the stone-age `ActivationEngine`
    /// runtime (BFW through the `BeepingAsStoneAge` adapter); timeline
    /// positions — `at`, `every`, `start`, noise-burst `rounds`, and
    /// the `[scenario]` horizon — are interpreted in **activations**.
    Async,
}

impl fmt::Display for RuntimeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RuntimeKind::Sync => "sync",
            RuntimeKind::Async => "async",
        })
    }
}

/// The execution kernel a scenario's rounds run on (`kernel` key, or
/// the CLI's `--kernel` flag).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelKind {
    /// Pick automatically (the default): the bit-parallel kernel for
    /// plain synchronous BFW at large `n`, the generic engine
    /// otherwise. The choice never changes outcomes — the two kernels
    /// are byte-identical at a fixed seed (see the
    /// `bit_kernel_equivalence` workspace tests).
    #[default]
    Auto,
    /// The generic per-node [`bfw_sim::TickEngine`] path.
    Generic,
    /// The bitplane [`bfw_sim::BitEngine`] fast path. Only plain
    /// synchronous BFW supports it; requesting it with
    /// `protocol = "bfw+recovery"` or `runtime = "async"` is a hard
    /// error.
    Bit,
}

impl fmt::Display for KernelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            KernelKind::Auto => "auto",
            KernelKind::Generic => "generic",
            KernelKind::Bit => "bit",
        })
    }
}

/// The protocol stack a scenario runs (`protocol` key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProtocolKind {
    /// Plain BFW (the paper's Figure 1 protocol).
    #[default]
    Bfw,
    /// BFW wrapped in the self-healing recovery layer
    /// (`bfw_core::RecoveringProtocol`): heartbeat-based leaderless
    /// detection plus epoch-tagged restart.
    BfwRecovery,
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ProtocolKind::Bfw => "bfw",
            ProtocolKind::BfwRecovery => "bfw+recovery",
        })
    }
}

/// Error parsing a scenario file.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecError(String);

impl SpecError {
    /// Crate-internal constructor (spec parsing and recovery-timing
    /// resolution both produce these).
    pub(crate) fn new(message: impl Into<String>) -> Self {
        SpecError(message.into())
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

impl From<toml_mini::ParseError> for SpecError {
    fn from(e: toml_mini::ParseError) -> Self {
        SpecError(e.to_string())
    }
}

fn err(message: impl Into<String>) -> SpecError {
    SpecError(message.into())
}

/// Levenshtein distance (iterative two-row DP) — small inputs only.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Returns ` (did you mean 'x'?)` when a known name is within edit
/// distance 2 of `given` (ties resolved toward the closest, then the
/// first listed), or an empty string otherwise. The hint every
/// misspelled name gets, from TOML keys to CLI verbs.
pub fn did_you_mean(given: &str, known: &[&str]) -> String {
    known
        .iter()
        .map(|k| (edit_distance(given, k), *k))
        .filter(|&(d, _)| d <= 2)
        .min_by_key(|&(d, _)| d)
        .map(|(_, k)| format!(" (did you mean '{k}'?)"))
        .unwrap_or_default()
}

/// The stack rules: which `protocol`, `runtime`, `kernel`, `threads`,
/// `scheduler` and recovery-timing keys combine. The one copy of them,
/// enforced by the parser, by every runner before it builds a host,
/// and by `validate` — so a spec built in code fails exactly like the
/// TOML that spells it, instead of silently running the wrong stack or
/// dropping a key.
pub(crate) fn check_stack_invariants(spec: &ScenarioSpec) -> Result<(), SpecError> {
    if spec.protocol == ProtocolKind::Bfw {
        for (key, value) in [
            ("heartbeat", spec.heartbeat),
            ("timeout", spec.timeout),
            ("grace", spec.grace),
        ] {
            if value.is_some() {
                return Err(err(format!(
                    "{key} requires protocol = \"bfw+recovery\" (heartbeat, timeout and grace \
                     all require protocol = \"bfw+recovery\"; plain bfw has no recovery layer)"
                )));
            }
        }
    }
    if spec.runtime == RuntimeKind::Async && spec.protocol == ProtocolKind::BfwRecovery {
        return Err(err(
            "runtime = \"async\" cannot execute protocol = \"bfw+recovery\": the recovery \
             layer multiplexes election and heartbeat slots over round parity, which only \
             exists under synchronous rounds (did you mean protocol = \"bfw\"?)",
        ));
    }
    if spec.runtime == RuntimeKind::Sync && spec.scheduler.is_some() {
        return Err(err(
            "scheduler requires runtime = \"async\" (synchronous rounds have no activation \
             scheduler)",
        ));
    }
    if spec.kernel == KernelKind::Bit {
        if spec.protocol == ProtocolKind::BfwRecovery {
            return Err(err(
                "kernel = \"bit\" cannot execute protocol = \"bfw+recovery\": the bitplane \
                 kernel packs the six plain BFW states; the recovery layer's epoch-tagged \
                 states do not fit (did you mean kernel = \"generic\"?)",
            ));
        }
        if spec.runtime == RuntimeKind::Async {
            return Err(err(
                "kernel = \"bit\" requires synchronous rounds: the bitplane kernel advances \
                 whole words per round, which has no meaning under activation-based \
                 scheduling (did you mean runtime = \"sync\"?)",
            ));
        }
    }
    if spec.threads.is_some() {
        if spec.kernel == KernelKind::Generic {
            return Err(err(
                "threads requires the bit kernel: the generic engine steps nodes one at a \
                 time; only the bitplane kernel's word-sharded step fans out across worker \
                 threads (did you mean kernel = \"bit\"?)",
            ));
        }
        if spec.runtime == RuntimeKind::Async {
            return Err(err(
                "threads requires synchronous rounds: only the bitplane kernel's \
                 word-sharded step fans out across worker threads, and it has no meaning \
                 under activation-based scheduling (did you mean runtime = \"sync\"?)",
            ));
        }
        if spec.protocol == ProtocolKind::BfwRecovery {
            return Err(err(
                "threads requires protocol = \"bfw\": the recovery layer runs on the \
                 generic engine, which steps nodes one at a time (only the bitplane \
                 kernel's word-sharded step fans out across worker threads)",
            ));
        }
    }
    Ok(())
}

impl ScenarioSpec {
    /// Parses a scenario from TOML text.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] for syntax errors, missing required
    /// fields (`graph`), out-of-range probabilities, or unknown event
    /// kinds/fields.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let sections = toml_mini::parse(text)?;
        let mut spec = ScenarioSpec {
            name: "unnamed scenario".to_owned(),
            graph: String::new(),
            p: 0.5,
            rounds: 10_000,
            stability: 50,
            seed: 0,
            protocol: ProtocolKind::Bfw,
            heartbeat: None,
            timeout: None,
            grace: None,
            runtime: RuntimeKind::Sync,
            scheduler: None,
            kernel: KernelKind::Auto,
            threads: None,
            timeline: Timeline::new(),
            trace: None,
        };
        let mut saw_scenario = false;
        for section in &sections {
            match section.name.as_str() {
                "scenario" => {
                    if saw_scenario {
                        return Err(err("duplicate [scenario] section"));
                    }
                    saw_scenario = true;
                    spec.read_scenario_table(&section.table)?;
                }
                "event" => {
                    let (schedule, event) = parse_event(&section.table)?;
                    spec.timeline = spec.timeline.schedule(schedule, event);
                }
                "trace" => {
                    if spec.trace.is_some() {
                        return Err(err("duplicate [trace] section"));
                    }
                    spec.trace = Some(read_trace_table(&section.table)?);
                }
                "" => return Err(err("keys are only allowed inside sections")),
                other => {
                    let hint = did_you_mean(other, &["scenario", "event", "trace"]);
                    return Err(err(format!("unknown section [{other}]{hint}")));
                }
            }
        }
        if !saw_scenario {
            return Err(err("missing [scenario] section"));
        }
        if spec.graph.is_empty() {
            return Err(err("[scenario] must set graph = \"<spec>\""));
        }
        if !(spec.p > 0.0 && spec.p < 1.0) {
            return Err(err(format!("p must be in (0, 1), got {}", spec.p)));
        }
        check_stack_invariants(&spec)?;
        Ok(spec)
    }

    fn read_scenario_table(&mut self, table: &Table) -> Result<(), SpecError> {
        for (key, value) in table.entries() {
            match key.as_str() {
                "name" => {
                    self.name = value
                        .as_str()
                        .ok_or_else(|| err("name must be a string"))?
                        .to_owned();
                }
                "graph" => {
                    self.graph = value
                        .as_str()
                        .ok_or_else(|| err("graph must be a string"))?
                        .to_owned();
                }
                "p" => {
                    self.p = value.as_float().ok_or_else(|| err("p must be a number"))?;
                }
                "rounds" => self.rounds = read_u64(value, "rounds")?,
                "stability" => self.stability = read_u64(value, "stability")?,
                "seed" => self.seed = read_u64(value, "seed")?,
                "protocol" => {
                    let name = value
                        .as_str()
                        .ok_or_else(|| err("protocol must be a string"))?;
                    self.protocol = match name {
                        "bfw" => ProtocolKind::Bfw,
                        "bfw+recovery" => ProtocolKind::BfwRecovery,
                        other => {
                            let hint = did_you_mean(other, &["bfw", "bfw+recovery"]);
                            return Err(err(format!(
                                "unknown protocol '{other}'{hint}; valid: \"bfw\", \"bfw+recovery\""
                            )));
                        }
                    };
                }
                "runtime" => {
                    let name = value
                        .as_str()
                        .ok_or_else(|| err("runtime must be a string"))?;
                    self.runtime = match name {
                        "sync" => RuntimeKind::Sync,
                        "async" => RuntimeKind::Async,
                        other => {
                            let hint = did_you_mean(other, &["sync", "async"]);
                            return Err(err(format!(
                                "unknown runtime '{other}'{hint}; valid: \"sync\", \"async\""
                            )));
                        }
                    };
                }
                "scheduler" => {
                    let name = value
                        .as_str()
                        .ok_or_else(|| err("scheduler must be a string"))?;
                    self.scheduler = Some(match name {
                        "uniform" => Scheduler::Uniform,
                        "weighted" => Scheduler::Weighted,
                        "replay" => Scheduler::Replay,
                        other => {
                            let hint = did_you_mean(other, &["uniform", "weighted", "replay"]);
                            return Err(err(format!(
                                "unknown scheduler '{other}'{hint}; valid: \"uniform\", \
                                 \"weighted\", \"replay\""
                            )));
                        }
                    });
                }
                "kernel" => {
                    let name = value
                        .as_str()
                        .ok_or_else(|| err("kernel must be a string"))?;
                    self.kernel = match name {
                        "auto" => KernelKind::Auto,
                        "generic" => KernelKind::Generic,
                        "bit" => KernelKind::Bit,
                        other => {
                            let hint = did_you_mean(other, &["auto", "generic", "bit"]);
                            return Err(err(format!(
                                "unknown kernel '{other}'{hint}; valid: \"auto\", \"generic\", \
                                 \"bit\""
                            )));
                        }
                    };
                }
                "threads" => {
                    let threads = read_u64(value, "threads")?;
                    if threads == 0 {
                        return Err(err("threads must be at least 1"));
                    }
                    self.threads = Some(
                        usize::try_from(threads)
                            .map_err(|_| err(format!("threads: {threads} exceeds usize::MAX")))?,
                    );
                }
                "heartbeat" => self.heartbeat = Some(read_u32(value, "heartbeat")?),
                "timeout" => self.timeout = Some(read_u32(value, "timeout")?),
                "grace" => self.grace = Some(read_u32(value, "grace")?),
                other => {
                    let hint = did_you_mean(other, SCENARIO_KEYS);
                    return Err(err(format!("unknown [scenario] key '{other}'{hint}")));
                }
            }
        }
        Ok(())
    }
}

/// Parses the `[trace]` section into a [`TraceSpec`].
fn read_trace_table(table: &Table) -> Result<TraceSpec, SpecError> {
    let mut trace = TraceSpec::default();
    for (key, value) in table.entries() {
        match key.as_str() {
            "file" => {
                trace.file = Some(
                    value
                        .as_str()
                        .ok_or_else(|| err("file must be a string"))?
                        .to_owned(),
                );
            }
            "last" => {
                let last = read_u64(value, "last")?;
                if last == 0 {
                    return Err(err("last must be at least 1"));
                }
                trace.last = usize::try_from(last)
                    .map_err(|_| err(format!("last: {last} exceeds usize::MAX")))?;
            }
            other => {
                let hint = did_you_mean(other, TRACE_KEYS);
                return Err(err(format!("unknown [trace] key '{other}'{hint}")));
            }
        }
    }
    Ok(trace)
}

/// The legal `[trace]` keys (for "did you mean" hints).
const TRACE_KEYS: &[&str] = &["file", "last"];

/// The legal `[scenario]` keys (for "did you mean" hints).
const SCENARIO_KEYS: &[&str] = &[
    "name",
    "graph",
    "p",
    "rounds",
    "stability",
    "seed",
    "protocol",
    "runtime",
    "scheduler",
    "kernel",
    "threads",
    "heartbeat",
    "timeout",
    "grace",
];

/// The legal `kind` values (for "did you mean" hints).
const EVENT_KINDS: &[&str] = &[
    "crash",
    "crash-random",
    "crash-leader",
    "recover",
    "recover-random",
    "recover-all",
    "add-edge",
    "remove-edge",
    "partition",
    "heal",
    "noise-burst",
    "inject-phantom",
    "inject-dead",
];

fn read_u64(value: &Value, key: &str) -> Result<u64, SpecError> {
    value
        .as_int()
        .and_then(|i| u64::try_from(i).ok())
        .ok_or_else(|| err(format!("{key} must be a non-negative integer")))
}

fn read_u32(value: &Value, key: &str) -> Result<u32, SpecError> {
    read_u64(value, key)
        .and_then(|v| u32::try_from(v).map_err(|_| err(format!("{key}: {v} exceeds u32::MAX"))))
}

fn node_id(id: u64, key: &str) -> Result<NodeId, SpecError> {
    u32::try_from(id)
        .map(NodeId::from_u32)
        .map_err(|_| err(format!("{key}: node id {id} exceeds u32::MAX")))
}

fn read_node(table: &Table, key: &str, kind: &str) -> Result<NodeId, SpecError> {
    let value = table
        .get(key)
        .ok_or_else(|| err(format!("{kind} needs {key} = <node id>")))?;
    node_id(read_u64(value, key)?, key)
}

fn read_prob(table: &Table, key: &str, default: f64) -> Result<f64, SpecError> {
    let Some(value) = table.get(key) else {
        return Ok(default);
    };
    let p = value
        .as_float()
        .ok_or_else(|| err(format!("{key} must be a number")))?;
    if !(0.0..1.0).contains(&p) {
        return Err(err(format!("{key} must be in [0, 1), got {p}")));
    }
    Ok(p)
}

fn parse_schedule(table: &Table) -> Result<Schedule, SpecError> {
    let at = table.get("at");
    let every = table.get("every");
    let rate = table.get("rate");
    match (at, every, rate) {
        (Some(v), None, None) => Ok(Schedule::At(read_u64(v, "at")?)),
        (None, Some(v), None) => {
            let period = read_u64(v, "every")?;
            if period == 0 {
                return Err(err("every must be at least 1"));
            }
            let start = match table.get("start") {
                Some(s) => read_u64(s, "start")?,
                None => period,
            };
            let count = match table.get("count") {
                Some(c) => read_u64(c, "count")?,
                None => 0,
            };
            Ok(Schedule::Every {
                start,
                period,
                count,
            })
        }
        (None, None, Some(v)) => {
            let per_round = v.as_float().ok_or_else(|| err("rate must be a number"))?;
            if !(0.0..1.0).contains(&per_round) {
                return Err(err(format!("rate must be in [0, 1), got {per_round}")));
            }
            let start = match table.get("start") {
                Some(s) => read_u64(s, "start")?,
                None => 1,
            };
            Ok(Schedule::Rate { per_round, start })
        }
        _ => Err(err(
            "each [[event]] needs exactly one of: at = N, every = PERIOD, rate = P",
        )),
    }
}

fn parse_event(table: &Table) -> Result<(Schedule, ScenarioEvent), SpecError> {
    let schedule = parse_schedule(table)?;
    let kind = table
        .get("kind")
        .and_then(Value::as_str)
        .ok_or_else(|| err("each [[event]] needs kind = \"<event kind>\""))?;
    // Only the keys of the schedule form actually used are legal, so a
    // stray `count` on an `at` event errors instead of being ignored.
    let mut allowed: Vec<&str> = vec!["kind"];
    match &schedule {
        Schedule::At(_) => allowed.push("at"),
        Schedule::Every { .. } => allowed.extend(["every", "start", "count"]),
        Schedule::Rate { .. } => allowed.extend(["rate", "start"]),
    }
    let event = match kind {
        "crash" => {
            allowed.push("node");
            ScenarioEvent::CrashNode(read_node(table, "node", kind)?)
        }
        "crash-random" => ScenarioEvent::CrashRandom,
        "crash-leader" => ScenarioEvent::CrashLeader,
        "recover" => {
            allowed.push("node");
            ScenarioEvent::RecoverNode(read_node(table, "node", kind)?)
        }
        "recover-random" => ScenarioEvent::RecoverRandom,
        "recover-all" => ScenarioEvent::RecoverAll,
        "add-edge" | "remove-edge" => {
            allowed.extend(["u", "v"]);
            let u = read_node(table, "u", kind)?;
            let v = read_node(table, "v", kind)?;
            if kind == "add-edge" {
                ScenarioEvent::AddEdge(u, v)
            } else {
                ScenarioEvent::RemoveEdge(u, v)
            }
        }
        "partition" => {
            allowed.push("cut");
            let cut = table
                .get("cut")
                .and_then(Value::as_array)
                .ok_or_else(|| err("partition needs cut = [node ids]"))?;
            let side = cut
                .iter()
                .map(|v| read_u64(v, "cut").and_then(|id| node_id(id, "cut")))
                .collect::<Result<Vec<_>, _>>()?;
            ScenarioEvent::Partition { side }
        }
        "heal" => ScenarioEvent::Heal,
        "noise-burst" => {
            allowed.extend(["fn", "fp", "rounds"]);
            ScenarioEvent::NoiseBurst {
                fn_rate: read_prob(table, "fn", 0.0)?,
                fp_rate: read_prob(table, "fp", 0.0)?,
                rounds: match table.get("rounds") {
                    Some(v) => read_u64(v, "rounds")?,
                    None => return Err(err("noise-burst needs rounds = N")),
                },
            }
        }
        "inject-phantom" => {
            allowed.push("waves");
            let waves = match table.get("waves") {
                Some(v) => read_u64(v, "waves")? as usize,
                None => 1,
            };
            ScenarioEvent::InjectState(InjectKind::PhantomWaves { waves })
        }
        "inject-dead" => ScenarioEvent::InjectState(InjectKind::Dead),
        other => {
            let hint = did_you_mean(other, EVENT_KINDS);
            return Err(err(format!("unknown event kind '{other}'{hint}")));
        }
    };
    for (key, _) in table.entries() {
        if !allowed.contains(&key.as_str()) {
            let hint = did_you_mean(key, &allowed);
            return Err(err(format!("event '{kind}' has unknown key '{key}'{hint}")));
        }
    }
    Ok((schedule, event))
}

#[cfg(test)]
mod tests {
    use super::*;

    const RING_CHURN: &str = r#"
[scenario]
name = "ring churn"
graph = "cycle:16"
p = 0.5
rounds = 9000
stability = 25
seed = 7

[[event]]
at = 2000
kind = "crash-leader"

[[event]]
at = 2300
kind = "recover-all"

[[event]]
every = 1500
start = 3000
count = 2
kind = "crash-random"

[[event]]
rate = 0.001
kind = "recover-random"

[[event]]
at = 4000
kind = "partition"
cut = [0, 1, 2, 3]

[[event]]
at = 4500
kind = "heal"

[[event]]
at = 6000
kind = "noise-burst"
fn = 0.1
fp = 0.01
rounds = 200
"#;

    #[test]
    fn full_spec_round_trips() {
        let spec = ScenarioSpec::parse(RING_CHURN).unwrap();
        assert_eq!(spec.name, "ring churn");
        assert_eq!(spec.graph, "cycle:16");
        assert_eq!(spec.p, 0.5);
        assert_eq!(spec.rounds, 9_000);
        assert_eq!(spec.stability, 25);
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.timeline.entries().len(), 7);
        assert_eq!(spec.timeline.entries()[0].event, ScenarioEvent::CrashLeader);
        assert_eq!(
            spec.timeline.entries()[2].schedule,
            Schedule::Every {
                start: 3_000,
                period: 1_500,
                count: 2
            }
        );
        assert_eq!(
            spec.timeline.entries()[6].event,
            ScenarioEvent::NoiseBurst {
                fn_rate: 0.1,
                fp_rate: 0.01,
                rounds: 200
            }
        );
    }

    #[test]
    fn defaults_are_sensible() {
        let spec = ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"").unwrap();
        assert_eq!(spec.p, 0.5);
        assert_eq!(spec.rounds, 10_000);
        assert_eq!(spec.stability, 50);
        assert_eq!(spec.seed, 0);
        assert!(spec.timeline.entries().is_empty());
    }

    #[test]
    fn inject_events_parse() {
        let text = "[scenario]\ngraph = \"cycle:9\"\n\
                    [[event]]\nat = 5\nkind = \"inject-phantom\"\nwaves = 2\n\
                    [[event]]\nat = 9\nkind = \"inject-dead\"";
        let spec = ScenarioSpec::parse(text).unwrap();
        assert_eq!(
            spec.timeline.entries()[0].event,
            ScenarioEvent::InjectState(InjectKind::PhantomWaves { waves: 2 })
        );
        assert_eq!(
            spec.timeline.entries()[1].event,
            ScenarioEvent::InjectState(InjectKind::Dead)
        );
    }

    #[test]
    fn trace_section_round_trips() {
        // No [trace] section: no tracing requested.
        let spec = ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"").unwrap();
        assert_eq!(spec.trace, None);

        // Bare [trace]: defaults (no file, capacity 256).
        let spec = ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"\n[trace]").unwrap();
        assert_eq!(spec.trace, Some(TraceSpec::default()));
        assert_eq!(spec.trace.unwrap().last, 256);

        // Explicit keys.
        let spec = ScenarioSpec::parse(
            "[scenario]\ngraph = \"path:4\"\n[trace]\nfile = \"out.json\"\nlast = 32",
        )
        .unwrap();
        assert_eq!(
            spec.trace,
            Some(TraceSpec {
                file: Some("out.json".to_owned()),
                last: 32,
            })
        );
    }

    #[test]
    fn trace_section_errors_are_specific() {
        let dup =
            ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"\n[trace]\n[trace]").unwrap_err();
        assert!(dup.to_string().contains("duplicate [trace]"), "{dup}");

        let zero =
            ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"\n[trace]\nlast = 0").unwrap_err();
        assert!(zero.to_string().contains("at least 1"), "{zero}");

        let bad_key =
            ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"\n[trace]\nlst = 9").unwrap_err();
        assert!(
            bad_key
                .to_string()
                .contains("unknown [trace] key 'lst' (did you mean 'last'?)"),
            "{bad_key}"
        );

        // Misspelled section name hints at [trace] too.
        let bad_section =
            ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"\n[tracee]\nlast = 9").unwrap_err();
        assert!(
            bad_section.to_string().contains("did you mean 'trace'?"),
            "{bad_section}"
        );
    }

    #[test]
    fn protocol_key_round_trips() {
        let spec = ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"").unwrap();
        assert_eq!(spec.protocol, ProtocolKind::Bfw);
        assert_eq!(spec.heartbeat, None);

        let spec = ScenarioSpec::parse(
            "[scenario]\ngraph = \"path:4\"\nprotocol = \"bfw+recovery\"\n\
             heartbeat = 12\ntimeout = 40\ngrace = 36",
        )
        .unwrap();
        assert_eq!(spec.protocol, ProtocolKind::BfwRecovery);
        assert_eq!(spec.heartbeat, Some(12));
        assert_eq!(spec.timeout, Some(40));
        assert_eq!(spec.grace, Some(36));
        assert_eq!(spec.protocol.to_string(), "bfw+recovery");
        assert_eq!(ProtocolKind::Bfw.to_string(), "bfw");
    }

    #[test]
    fn runtime_and_scheduler_keys_round_trip() {
        let spec = ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"").unwrap();
        assert_eq!(spec.runtime, RuntimeKind::Sync);
        assert_eq!(spec.scheduler, None);
        assert_eq!(RuntimeKind::Sync.to_string(), "sync");

        let spec = ScenarioSpec::parse(
            "[scenario]\ngraph = \"path:4\"\nruntime = \"async\"\nscheduler = \"replay\"",
        )
        .unwrap();
        assert_eq!(spec.runtime, RuntimeKind::Async);
        assert_eq!(spec.scheduler, Some(Scheduler::Replay));
        assert_eq!(spec.runtime.to_string(), "async");

        // runtime = "sync" is accepted explicitly.
        let spec =
            ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"\nruntime = \"sync\"").unwrap();
        assert_eq!(spec.runtime, RuntimeKind::Sync);
    }

    #[test]
    fn kernel_key_round_trips() {
        let spec = ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"").unwrap();
        assert_eq!(spec.kernel, KernelKind::Auto);
        assert_eq!(KernelKind::Auto.to_string(), "auto");

        for (name, kind) in [
            ("auto", KernelKind::Auto),
            ("generic", KernelKind::Generic),
            ("bit", KernelKind::Bit),
        ] {
            let spec = ScenarioSpec::parse(&format!(
                "[scenario]\ngraph = \"path:4\"\nkernel = \"{name}\""
            ))
            .unwrap();
            assert_eq!(spec.kernel, kind);
            assert_eq!(spec.kernel.to_string(), name);
        }
    }

    #[test]
    fn bit_kernel_rejects_incompatible_stacks() {
        let e = ScenarioSpec::parse(
            "[scenario]\ngraph = \"path:4\"\nkernel = \"bit\"\nprotocol = \"bfw+recovery\"",
        )
        .unwrap_err();
        assert!(e.to_string().contains("epoch-tagged states"), "{e}");
        assert!(
            e.to_string().contains("did you mean kernel = \"generic\"?"),
            "{e}"
        );

        let e = ScenarioSpec::parse(
            "[scenario]\ngraph = \"path:4\"\nkernel = \"bit\"\nruntime = \"async\"",
        )
        .unwrap_err();
        assert!(e.to_string().contains("requires synchronous rounds"), "{e}");

        // Auto never errors: it resolves to generic for these stacks.
        let spec =
            ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"\nprotocol = \"bfw+recovery\"")
                .unwrap();
        assert_eq!(spec.kernel, KernelKind::Auto);
    }

    #[test]
    fn threads_key_round_trips() {
        let spec = ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"").unwrap();
        assert_eq!(spec.threads, None);

        let spec =
            ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"\nkernel = \"bit\"\nthreads = 4")
                .unwrap();
        assert_eq!(spec.threads, Some(4));

        // The default (auto) kernel accepts threads too: auto resolves
        // to the bit kernel whenever the stack allows it.
        let spec = ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"\nthreads = 2").unwrap();
        assert_eq!(spec.threads, Some(2));
        assert_eq!(spec.kernel, KernelKind::Auto);
    }

    #[test]
    fn threads_rejects_zero_and_incompatible_stacks() {
        let e = ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"\nthreads = 0").unwrap_err();
        assert!(e.to_string().contains("threads must be at least 1"), "{e}");

        let e = ScenarioSpec::parse(
            "[scenario]\ngraph = \"path:4\"\nkernel = \"generic\"\nthreads = 4",
        )
        .unwrap_err();
        assert!(
            e.to_string().contains("did you mean kernel = \"bit\"?"),
            "{e}"
        );

        let e =
            ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"\nruntime = \"async\"\nthreads = 4")
                .unwrap_err();
        assert!(
            e.to_string().contains("did you mean runtime = \"sync\"?"),
            "{e}"
        );

        let e = ScenarioSpec::parse(
            "[scenario]\ngraph = \"path:4\"\nprotocol = \"bfw+recovery\"\nthreads = 4",
        )
        .unwrap_err();
        assert!(
            e.to_string()
                .contains("threads requires protocol = \"bfw\""),
            "{e}"
        );
    }

    #[test]
    fn unknown_kernel_value_gets_hint() {
        let e =
            ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"\nkernel = \"bits\"").unwrap_err();
        assert!(
            e.to_string()
                .contains("unknown kernel 'bits' (did you mean 'bit'?)"),
            "{e}"
        );
        let e = ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"\nkernl = \"bit\"").unwrap_err();
        assert!(e.to_string().contains("did you mean 'kernel'?"), "{e}");
    }

    #[test]
    fn async_runtime_rejects_recovery_protocol() {
        // Slot multiplexing needs synchronous rounds: the combination
        // is a hard error with a "did you mean" hint, in either key
        // order.
        for text in [
            "[scenario]\ngraph = \"path:4\"\nruntime = \"async\"\nprotocol = \"bfw+recovery\"",
            "[scenario]\ngraph = \"path:4\"\nprotocol = \"bfw+recovery\"\nruntime = \"async\"",
        ] {
            let e = ScenarioSpec::parse(text).unwrap_err();
            assert!(e.to_string().contains("synchronous rounds"), "{e}");
            assert!(
                e.to_string().contains("did you mean protocol = \"bfw\"?"),
                "{e}"
            );
        }
    }

    #[test]
    fn scheduler_key_requires_async_runtime() {
        let e = ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"\nscheduler = \"uniform\"")
            .unwrap_err();
        assert!(
            e.to_string()
                .contains("scheduler requires runtime = \"async\""),
            "{e}"
        );
    }

    #[test]
    fn unknown_runtime_and_scheduler_values_get_hints() {
        let e =
            ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"\nruntime = \"asink\"").unwrap_err();
        assert!(
            e.to_string()
                .contains("unknown runtime 'asink' (did you mean 'async'?)"),
            "{e}"
        );
        let e = ScenarioSpec::parse(
            "[scenario]\ngraph = \"path:4\"\nruntime = \"async\"\nscheduler = \"unifrm\"",
        )
        .unwrap_err();
        assert!(
            e.to_string()
                .contains("unknown scheduler 'unifrm' (did you mean 'uniform'?)"),
            "{e}"
        );
        let e = ScenarioSpec::parse(
            "[scenario]\ngraph = \"path:4\"\nruntime = \"async\"\nscheduler = \"weigted\"",
        )
        .unwrap_err();
        assert!(e.to_string().contains("did you mean 'weighted'?"), "{e}");
        // Misspelled key names hit the generic key hinting.
        let e =
            ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"\nruntme = \"async\"").unwrap_err();
        assert!(e.to_string().contains("did you mean 'runtime'?"), "{e}");
    }

    #[test]
    fn recovery_keys_require_recovery_protocol() {
        let e = ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"\nheartbeat = 10").unwrap_err();
        assert!(
            e.to_string()
                .contains("requires protocol = \"bfw+recovery\""),
            "{e}"
        );
        let e =
            ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"\nprotocol = \"bfw\"\ntimeout = 10")
                .unwrap_err();
        assert!(e.to_string().contains("timeout requires protocol"), "{e}");
    }

    #[test]
    fn unknown_names_get_did_you_mean_hints() {
        // Misspelled [scenario] key: hard error with a hint, never
        // silently ignored.
        let e =
            ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"\nprotcol = \"bfw\"").unwrap_err();
        assert!(
            e.to_string()
                .contains("unknown [scenario] key 'protcol' (did you mean 'protocol'?)"),
            "{e}"
        );

        let e = ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"\nstabilty = 5").unwrap_err();
        assert!(e.to_string().contains("did you mean 'stability'?"), "{e}");

        // Misspelled protocol value.
        let e = ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"\nprotocol = \"bfw-recovery\"")
            .unwrap_err();
        assert!(
            e.to_string()
                .contains("unknown protocol 'bfw-recovery' (did you mean 'bfw+recovery'?)"),
            "{e}"
        );

        // Misspelled event kind and event key.
        let e = ScenarioSpec::parse(
            "[scenario]\ngraph = \"path:4\"\n[[event]]\nat = 1\nkind = \"crash-leadr\"",
        )
        .unwrap_err();
        assert!(
            e.to_string().contains("did you mean 'crash-leader'?"),
            "{e}"
        );
        let e = ScenarioSpec::parse(
            "[scenario]\ngraph = \"path:4\"\n[[event]]\nat = 1\nkind = \"crash\"\nnode = 3\nnodee = 4",
        )
        .unwrap_err();
        assert!(e.to_string().contains("did you mean 'node'?"), "{e}");

        // Misspelled section name.
        let e = ScenarioSpec::parse("[scenaro]\ngraph = \"path:4\"").unwrap_err();
        assert!(e.to_string().contains("did you mean 'scenario'?"), "{e}");

        // Nothing close: no hint.
        let e = ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"\nxyzzy = 1").unwrap_err();
        assert!(!e.to_string().contains("did you mean"), "{e}");
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(did_you_mean("zzzzzz", &["heal"]), "");
    }

    #[test]
    fn errors_are_specific() {
        let missing_graph = ScenarioSpec::parse("[scenario]\nname = \"x\"").unwrap_err();
        assert!(missing_graph.to_string().contains("graph"));

        let no_section = ScenarioSpec::parse("graph = \"path:4\"").unwrap_err();
        assert!(no_section.to_string().contains("inside sections"));

        let bad_kind = ScenarioSpec::parse(
            "[scenario]\ngraph = \"path:4\"\n[[event]]\nat = 1\nkind = \"explode\"",
        )
        .unwrap_err();
        assert!(bad_kind.to_string().contains("unknown event kind"));

        let no_schedule =
            ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"\n[[event]]\nkind = \"heal\"")
                .unwrap_err();
        assert!(no_schedule.to_string().contains("exactly one of"));

        let two_schedules = ScenarioSpec::parse(
            "[scenario]\ngraph = \"path:4\"\n[[event]]\nat = 1\nrate = 0.1\nkind = \"heal\"",
        )
        .unwrap_err();
        assert!(two_schedules.to_string().contains("exactly one of"));

        let stray_key = ScenarioSpec::parse(
            "[scenario]\ngraph = \"path:4\"\n[[event]]\nat = 1\nkind = \"heal\"\nnode = 3",
        )
        .unwrap_err();
        assert!(stray_key.to_string().contains("unknown key 'node'"));

        // Schedule keys from the *other* forms are rejected too: a
        // `count` on an `at` event would otherwise be silently ignored.
        let stray_count = ScenarioSpec::parse(
            "[scenario]\ngraph = \"path:4\"\n[[event]]\nat = 1\ncount = 3\nkind = \"crash-random\"",
        )
        .unwrap_err();
        assert!(
            stray_count.to_string().contains("unknown key 'count'"),
            "{stray_count}"
        );
        let stray_start = ScenarioSpec::parse(
            "[scenario]\ngraph = \"path:4\"\n[[event]]\nrate = 0.1\ncount = 2\nkind = \"heal\"",
        )
        .unwrap_err();
        assert!(
            stray_start.to_string().contains("unknown key 'count'"),
            "{stray_start}"
        );

        let bad_p = ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"\np = 1.5").unwrap_err();
        assert!(bad_p.to_string().contains("p must be in (0, 1)"));

        // Node ids beyond u32::MAX must error, not panic.
        let huge = ScenarioSpec::parse(
            "[scenario]\ngraph = \"path:4\"\n[[event]]\nat = 1\nkind = \"crash\"\nnode = 4294967296",
        )
        .unwrap_err();
        assert!(huge.to_string().contains("exceeds u32::MAX"), "{huge}");
        let huge_cut = ScenarioSpec::parse(
            "[scenario]\ngraph = \"path:4\"\n[[event]]\nat = 1\nkind = \"partition\"\ncut = [4294967296]",
        )
        .unwrap_err();
        assert!(
            huge_cut.to_string().contains("exceeds u32::MAX"),
            "{huge_cut}"
        );

        let bad_section =
            ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"\n[wat]\nx = 1").unwrap_err();
        assert!(bad_section.to_string().contains("unknown section"));
    }
}
