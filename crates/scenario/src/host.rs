//! The runtime abstraction the engine drives.
//!
//! [`DynamicHost`] is the seam between the scenario engine and the
//! simulators in `bfw-sim`: anything that can step rounds, apply
//! topology deltas, mask nodes and report leaders can be perturbed by a
//! [`Timeline`](crate::Timeline). Since the beeping [`Network`] and the
//! [`StoneAgeNetwork`] are both model adapters over the shared
//! [`TickEngine`], a **single blanket impl** covers every runtime: one
//! scenario drives all models, and every fault hook — crashes,
//! topology deltas, perception noise — behaves identically across
//! them by construction.
//!
//! [`Network`]: bfw_sim::Network
//! [`StoneAgeNetwork`]: bfw_sim::stone_age::StoneAgeNetwork
//! [`TickEngine`]: bfw_sim::TickEngine

use bfw_graph::{Graph, NodeId, TopologyDelta};
use bfw_sim::{
    ActivationEngine, ActivationLeaderModel, BitEngine, BitModel, ComplexityLedger,
    EngineCheckpoint, FlightRecorder, LeaderModel, TickEngine,
};

/// A runtime the scenario engine can perturb mid-run.
///
/// "Round" is the host's own notion of time: synchronous hosts step
/// whole rounds, the asynchronous [`ActivationEngine`] steps single
/// activations — so a timeline driving an asynchronous host has its
/// positions interpreted **in activations**.
pub trait DynamicHost {
    /// Per-node protocol state (for [`InjectState`] events).
    ///
    /// [`InjectState`]: crate::ScenarioEvent::InjectState
    type State: Clone;

    /// Number of nodes (fixed for the lifetime of the run; crashes mask
    /// nodes rather than removing them).
    fn node_count(&self) -> usize;

    /// Completed rounds.
    fn round(&self) -> u64;

    /// Advances one synchronous round.
    fn step(&mut self);

    /// Applies a batch of edge mutations to the communication graph in
    /// `O(deg)` per edge (the delta must be valid against the host's
    /// current edge set).
    fn apply_delta(&mut self, delta: &TopologyDelta);

    /// Crashes a node (idempotent).
    fn crash(&mut self, u: NodeId);

    /// Recovers a crashed node into a fresh protocol-initial state
    /// (no-op on alive nodes).
    fn recover(&mut self, u: NodeId);

    /// Returns `true` if `u` is crashed.
    fn is_crashed(&self, u: NodeId) -> bool;

    /// Sets perception noise (false-negative, false-positive). Returns
    /// `false` if this runtime has no noise model (the event is then
    /// recorded as skipped).
    fn set_perception_noise(&mut self, false_negative: f64, false_positive: f64) -> bool;

    /// Replaces the whole configuration.
    fn set_states(&mut self, states: Vec<Self::State>);

    /// Identifiers of all alive leaders.
    fn leaders(&self) -> Vec<NodeId>;

    /// The whole configuration, in original node-label order on every
    /// kernel (the state half of a snapshot).
    fn states(&self) -> Vec<Self::State>;

    /// Captures the host's [`EngineCheckpoint`]: round counter, crash
    /// mask, noise channels, per-node RNG stream positions and, on the
    /// asynchronous runtime, the scheduler half.
    fn checkpoint(&self) -> EngineCheckpoint;

    /// Restores a [`checkpoint`](Self::checkpoint) onto a host built
    /// from the same seed and the checkpointed topology, installing
    /// `states` (an asynchronous host must already carry the
    /// checkpointed run's scheduler).
    fn restore_checkpoint(&mut self, cp: &EngineCheckpoint, states: Vec<Self::State>);

    /// Turns the host's complexity instrumentation on (see
    /// [`bfw_sim::instrument`]), with a flight recorder holding the last
    /// `recorder_capacity` events when given. Purely passive: it never
    /// changes an execution.
    fn enable_instrumentation(&mut self, recorder_capacity: Option<usize>);

    /// Materializes the host's **current** communication graph: the
    /// topology half of a snapshot. The engine also uses it in debug
    /// builds to assert, after every topology event, that its own
    /// [`DynamicGraph`](bfw_graph::DynamicGraph) mirror and the host's
    /// edge set have not diverged — the two track the same edges
    /// independently, and a silent divergence would invalidate every
    /// event validated against the mirror from that point on.
    fn topology_snapshot(&self) -> Graph;

    /// Returns `true` when the host's complexity instrumentation is on
    /// (see [`bfw_sim::instrument`]). The engine uses this to skip all
    /// trace bookkeeping — leader-set diffing, ledger snapshots — on
    /// untraced runs.
    fn instrumentation_enabled(&self) -> bool;

    /// Returns the host's accumulated complexity counters, if
    /// instrumentation is on.
    fn complexity_ledger(&self) -> Option<&ComplexityLedger>;

    /// Returns the host's flight recorder, if one is attached.
    fn flight_recorder(&self) -> Option<&FlightRecorder>;

    /// Records an event into the host's flight recorder, stamped with
    /// the host's own notion of time (rounds or activations); a no-op
    /// without a recorder.
    fn record_trace_event(&mut self, kind: &str, detail: String);
}

impl<M: LeaderModel> DynamicHost for TickEngine<M> {
    type State = M::State;

    fn node_count(&self) -> usize {
        TickEngine::node_count(self)
    }

    fn round(&self) -> u64 {
        TickEngine::round(self)
    }

    fn step(&mut self) {
        TickEngine::step(self);
    }

    fn apply_delta(&mut self, delta: &TopologyDelta) {
        TickEngine::apply_topology_delta(self, delta);
    }

    fn crash(&mut self, u: NodeId) {
        TickEngine::crash_node(self, u);
    }

    fn recover(&mut self, u: NodeId) {
        TickEngine::recover_node(self, u);
    }

    fn is_crashed(&self, u: NodeId) -> bool {
        TickEngine::is_crashed(self, u)
    }

    fn set_perception_noise(&mut self, false_negative: f64, false_positive: f64) -> bool {
        // The noise model lives in the engine's shared fault layer, so
        // every TickEngine runtime supports it.
        TickEngine::set_noise(self, false_negative, false_positive);
        true
    }

    fn set_states(&mut self, states: Vec<M::State>) {
        TickEngine::set_states(self, states);
    }

    fn leaders(&self) -> Vec<NodeId> {
        TickEngine::leaders(self)
    }

    fn states(&self) -> Vec<M::State> {
        TickEngine::states(self).to_vec()
    }

    fn checkpoint(&self) -> EngineCheckpoint {
        TickEngine::checkpoint(self)
    }

    fn restore_checkpoint(&mut self, cp: &EngineCheckpoint, states: Vec<M::State>) {
        TickEngine::restore_checkpoint(self, cp, states);
    }

    fn enable_instrumentation(&mut self, recorder_capacity: Option<usize>) {
        TickEngine::enable_instrumentation(self, recorder_capacity);
    }

    fn topology_snapshot(&self) -> Graph {
        self.topology().to_graph()
    }

    fn instrumentation_enabled(&self) -> bool {
        TickEngine::instrumentation_enabled(self)
    }

    fn complexity_ledger(&self) -> Option<&ComplexityLedger> {
        TickEngine::complexity_ledger(self)
    }

    fn flight_recorder(&self) -> Option<&FlightRecorder> {
        TickEngine::flight_recorder(self)
    }

    fn record_trace_event(&mut self, kind: &str, detail: String) {
        TickEngine::record_trace_event(self, kind, detail);
    }
}

impl<M: BitModel> DynamicHost for BitEngine<M> {
    type State = M::State;

    fn node_count(&self) -> usize {
        BitEngine::node_count(self)
    }

    fn round(&self) -> u64 {
        BitEngine::round(self)
    }

    fn step(&mut self) {
        BitEngine::step(self);
    }

    fn apply_delta(&mut self, delta: &TopologyDelta) {
        BitEngine::apply_topology_delta(self, delta);
    }

    fn crash(&mut self, u: NodeId) {
        BitEngine::crash_node(self, u);
    }

    fn recover(&mut self, u: NodeId) {
        BitEngine::recover_node(self, u);
    }

    fn is_crashed(&self, u: NodeId) -> bool {
        BitEngine::is_crashed(self, u)
    }

    fn set_perception_noise(&mut self, false_negative: f64, false_positive: f64) -> bool {
        // Same shared fault layer as the generic engines: always
        // supported, and drawn from the same per-node streams.
        BitEngine::set_noise(self, false_negative, false_positive);
        true
    }

    fn set_states(&mut self, states: Vec<M::State>) {
        BitEngine::set_states(self, states);
    }

    fn leaders(&self) -> Vec<NodeId> {
        BitEngine::leaders(self)
    }

    fn states(&self) -> Vec<M::State> {
        BitEngine::states(self)
    }

    fn checkpoint(&self) -> EngineCheckpoint {
        BitEngine::checkpoint(self)
    }

    fn restore_checkpoint(&mut self, cp: &EngineCheckpoint, states: Vec<M::State>) {
        BitEngine::restore_checkpoint(self, cp, states);
    }

    fn enable_instrumentation(&mut self, recorder_capacity: Option<usize>) {
        BitEngine::enable_instrumentation(self, recorder_capacity);
    }

    fn topology_snapshot(&self) -> Graph {
        self.topology().to_graph()
    }

    fn instrumentation_enabled(&self) -> bool {
        BitEngine::instrumentation_enabled(self)
    }

    fn complexity_ledger(&self) -> Option<&ComplexityLedger> {
        BitEngine::complexity_ledger(self)
    }

    fn flight_recorder(&self) -> Option<&FlightRecorder> {
        BitEngine::flight_recorder(self)
    }

    fn record_trace_event(&mut self, kind: &str, detail: String) {
        BitEngine::record_trace_event(self, kind, detail);
    }
}

impl<M: ActivationLeaderModel> DynamicHost for ActivationEngine<M> {
    type State = M::State;

    fn node_count(&self) -> usize {
        ActivationEngine::node_count(self)
    }

    /// Completed **activations** — the asynchronous runtime's unit of
    /// time. Timelines driving this host fire at activation positions.
    fn round(&self) -> u64 {
        self.activations()
    }

    /// One scheduler-chosen activation (a no-op only when every node is
    /// crashed).
    fn step(&mut self) {
        self.activate_next();
    }

    fn apply_delta(&mut self, delta: &TopologyDelta) {
        ActivationEngine::apply_topology_delta(self, delta);
    }

    fn crash(&mut self, u: NodeId) {
        ActivationEngine::crash_node(self, u);
    }

    fn recover(&mut self, u: NodeId) {
        ActivationEngine::recover_node(self, u);
    }

    fn is_crashed(&self, u: NodeId) -> bool {
        ActivationEngine::is_crashed(self, u)
    }

    fn set_perception_noise(&mut self, false_negative: f64, false_positive: f64) -> bool {
        // Same shared fault layer as the synchronous engine, so the
        // asynchronous runtime supports the noise events too.
        ActivationEngine::set_noise(self, false_negative, false_positive);
        true
    }

    fn set_states(&mut self, states: Vec<M::State>) {
        ActivationEngine::set_states(self, states);
    }

    fn leaders(&self) -> Vec<NodeId> {
        ActivationEngine::leaders(self)
    }

    fn states(&self) -> Vec<M::State> {
        ActivationEngine::states(self).to_vec()
    }

    fn checkpoint(&self) -> EngineCheckpoint {
        ActivationEngine::checkpoint(self)
    }

    fn restore_checkpoint(&mut self, cp: &EngineCheckpoint, states: Vec<M::State>) {
        ActivationEngine::restore_checkpoint(self, cp, states);
    }

    fn enable_instrumentation(&mut self, recorder_capacity: Option<usize>) {
        ActivationEngine::enable_instrumentation(self, recorder_capacity);
    }

    fn topology_snapshot(&self) -> Graph {
        self.topology().to_graph()
    }

    fn instrumentation_enabled(&self) -> bool {
        ActivationEngine::instrumentation_enabled(self)
    }

    fn complexity_ledger(&self) -> Option<&ComplexityLedger> {
        ActivationEngine::complexity_ledger(self)
    }

    fn flight_recorder(&self) -> Option<&FlightRecorder> {
        ActivationEngine::flight_recorder(self)
    }

    fn record_trace_event(&mut self, kind: &str, detail: String) {
        ActivationEngine::record_trace_event(self, kind, detail);
    }
}
