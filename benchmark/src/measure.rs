//! One repetition of a workload: untraced or traced on the simulator,
//! or on the threaded backend. Each builds its cluster under a set-up
//! timer and drives it under the watchdog.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use hamband_core::coord::CoordSpec;
use hamband_core::object::WorkloadSupport;
use hamband_core::wire::Wire;
use hamband_runtime::{NodeMetrics, RunConfig, RuntimeConfig, ThreadedCluster};
use rdma_sim::Stats;

use crate::cluster::{build, collect, drive, ClusterEnd, Driven, Watch};
use crate::spans::{self, enter, Layer, LayerTimes};
use crate::traced::{LayerSink, SinkData, TracedNode, TracedSpec, TransportCounts};
use crate::workloads::Workload;

/// Wall-time limit of one repetition before the watchdog ends the
/// process.
pub(crate) const REP_LIMIT: Duration = Duration::from_secs(90);

/// An untraced simulator repetition.
#[derive(Debug, Clone)]
pub struct SimRep {
    /// Wall time to build the cluster.
    pub setup: Duration,
    /// How the drive ended.
    pub driven: Driven,
    /// What the run left behind.
    pub end: ClusterEnd,
}

/// Build the workload's simulator cluster and drop it: one set-up
/// sample.
pub(crate) fn setup_only<O>(spec: &O, coord: &CoordSpec, run: &RunConfig) -> Duration
where
    O: WorkloadSupport + Clone,
    O::Update: Wire,
{
    let t = Instant::now();
    let sim = build(spec, coord, run, |node, _| node);
    let setup = t.elapsed();
    drop(sim);
    setup
}

/// Build, drive and collect one untraced simulator run.
pub fn sim_rep<O>(
    spec: &O,
    coord: &CoordSpec,
    run: &RunConfig,
    watch: &Watch,
    label: &str,
) -> SimRep
where
    O: WorkloadSupport + Clone,
    O::Update: Wire,
{
    let t = Instant::now();
    let mut sim = build(spec, coord, run, |node, _| node);
    let setup = t.elapsed();
    watch.arm(label, REP_LIMIT);
    let driven = drive(&mut sim, run, watch);
    watch.disarm();
    SimRep {
        setup,
        driven,
        end: collect(&sim, spec),
    }
}

/// A traced simulator repetition.
#[derive(Debug)]
pub struct TracedRep {
    /// The run itself, as an untraced repetition would report it.
    pub rep: SimRep,
    /// Self time and span count per layer; the total is the traced
    /// wall time.
    pub times: LayerTimes,
    /// Transport calls summed over the nodes.
    pub counts: TransportCounts,
    /// Poll events handled, over all nodes.
    pub polls: u64,
    /// Poll events after which a node's acknowledged or applied count
    /// moved.
    pub useful_polls: u64,
    /// Calls to the object's `apply`.
    pub state_copies: u64,
    /// The virtual-time events, reduced.
    pub sink: SinkData,
}

/// Build, drive and collect one traced simulator run.
pub fn traced_rep<O>(
    spec: &O,
    coord: &CoordSpec,
    run: &RunConfig,
    watch: &Watch,
    label: &str,
) -> TracedRep
where
    O: WorkloadSupport + Clone,
    O::Update: Wire,
{
    let tspec = TracedSpec::new(spec.clone());
    let t = Instant::now();
    let mut sim = build(&tspec, coord, run, TracedNode::new);
    let setup = t.elapsed();
    let (sink, data) = LayerSink::new();
    sim.set_trace_sink(Box::new(sink));
    watch.arm(label, REP_LIMIT);
    spans::begin();
    let root = enter(Layer::Sim);
    let driven = drive(&mut sim, run, watch);
    drop(root);
    let times = spans::end();
    watch.disarm();
    let end = collect(&sim, &tspec);
    let mut counts = TransportCounts::default();
    let (mut polls, mut useful_polls) = (0, 0);
    for i in 0..sim.len() {
        let node = sim.app(rdma_sim::NodeId(i));
        counts.add(&node.counts);
        polls += node.polls;
        useful_polls += node.useful_polls;
    }
    sim.clear_trace_sink();
    let sink = Rc::try_unwrap(data)
        .map(RefCell::into_inner)
        .unwrap_or_else(|d| d.take());
    TracedRep {
        rep: SimRep { setup, driven, end },
        times,
        counts,
        polls,
        useful_polls,
        state_copies: tspec.state_copies(),
        sink,
    }
}

/// A threaded-backend repetition.
#[derive(Debug, Clone)]
pub struct ThreadedRep {
    /// Wall time to build the cluster.
    pub setup: Duration,
    /// Wall time from spawning the replica threads to joining them.
    pub wall: Duration,
    /// Every replica finished, with equal applied maps and states.
    pub converged: bool,
    /// Verb counters merged across the replica threads.
    pub stats: Stats,
    /// Per-node measurement accumulators (wall-clock nanoseconds).
    pub node_metrics: Vec<NodeMetrics>,
}

/// Build and run the workload's threaded cluster: two replica threads,
/// `RuntimeConfig::default()` sizing, `ops` calls.
pub(crate) fn threaded_rep<O>(
    spec: &O,
    coord: &CoordSpec,
    w: &Workload,
    seed: u64,
    ops: u64,
    watch: &Watch,
) -> ThreadedRep
where
    O: WorkloadSupport + Clone + Send,
    O::Update: Wire + Send,
    O::State: Send,
{
    let t = Instant::now();
    let mut cluster = ThreadedCluster::new(
        w.nodes,
        spec,
        coord,
        RuntimeConfig::default(),
        w.spec(seed, ops),
    );
    let setup = t.elapsed();
    // The replicas belong to their threads while the run lasts, so the
    // watchdog can only show their state from before the start.
    watch.arm(&format!("{} threaded", w.name), REP_LIMIT);
    watch.publish(
        (0..cluster.len())
            .map(|i| cluster.node(i).status().to_string())
            .collect(),
    );
    let t = Instant::now();
    let converged = cluster.run_to_convergence(REP_LIMIT - Duration::from_secs(10));
    let wall = t.elapsed();
    watch.disarm();
    ThreadedRep {
        setup,
        wall,
        converged,
        stats: cluster.stats(),
        node_metrics: (0..cluster.len())
            .map(|i| cluster.node(i).metrics.clone())
            .collect(),
    }
}
