//! Building and driving clusters through the runtime's public
//! constructors, so set-up time can be measured apart from the run.
//!
//! [`build`] does what `Runner::run` does before its first event, and
//! [`drive`] repeats the harness's drive loop (25 µs slices, the
//! all-done-and-agreed test, the stall watchdog, the 300 µs settle), so
//! a run here reproduces `Runner::run`'s report exactly.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hamband_core::coord::{CoordSpec, GroupMapper};
use hamband_core::ids::Pid;
use hamband_core::object::{ObjectSpec, WorkloadSupport};
use hamband_core::wire::Wire;
use hamband_runtime::{HambandNode, Layout, NodeMetrics, RunConfig, SessionStats};
use rdma_sim::{App, NodeId, SimDuration, SimTime, Simulator, Stats};

use crate::spans::{enter, Layer};
use crate::traced::TracedNode;

/// Read access to the replica inside an application wrapper.
pub(crate) trait Replica: App {
    /// The replica's object type.
    type Spec: WorkloadSupport<Update: Wire>;
    /// The wrapped replica.
    fn replica(&self) -> &HambandNode<Self::Spec>;
}

impl<O> Replica for HambandNode<O>
where
    O: WorkloadSupport,
    O::Update: Wire,
{
    type Spec = O;
    fn replica(&self) -> &HambandNode<O> {
        self
    }
}

impl<O> Replica for TracedNode<O>
where
    O: WorkloadSupport,
    O::Update: Wire,
{
    type Spec = O;
    fn replica(&self) -> &HambandNode<O> {
        &self.node
    }
}

/// What the watchdog prints when a run overstays its deadline: the
/// run's label, its deadline, and the latest per-node status lines.
#[derive(Debug, Default)]
pub struct Watch {
    state: Mutex<WatchState>,
}

#[derive(Debug, Default)]
struct WatchState {
    label: String,
    deadline: Option<Instant>,
    statuses: Vec<String>,
}

impl Watch {
    /// A shareable watch with no run armed.
    pub fn new() -> Arc<Watch> {
        Arc::new(Watch::default())
    }

    /// Arm the deadline for the run called `label`.
    pub fn arm(&self, label: &str, limit: Duration) {
        let mut s = self
            .state
            .lock()
            .expect("watch lock poisoned by a panicking run");
        s.label = label.to_string();
        s.deadline = Some(Instant::now() + limit);
        s.statuses.clear();
    }

    /// The run finished in time.
    pub fn disarm(&self) {
        self.state
            .lock()
            .expect("watch lock poisoned by a panicking run")
            .deadline = None;
    }

    /// Publish the latest per-node status lines.
    pub fn publish(&self, statuses: Vec<String>) {
        self.state
            .lock()
            .expect("watch lock poisoned by a panicking run")
            .statuses = statuses;
    }

    /// If the armed run is past its deadline, its label and statuses.
    pub fn expired(&self) -> Option<(String, Vec<String>)> {
        let s = self.state.lock().ok()?;
        match s.deadline {
            Some(d) if Instant::now() >= d => Some((s.label.clone(), s.statuses.clone())),
            _ => None,
        }
    }
}

/// Register the layout, schedule the faults and construct one replica
/// per node, each passed through `wrap` — everything `Runner::run` does
/// before the first event.
pub(crate) fn build<S, A>(
    spec: &S,
    coord: &CoordSpec,
    run: &RunConfig,
    wrap: impl Fn(HambandNode<S>, &Layout) -> A,
) -> Simulator<A>
where
    S: WorkloadSupport + Clone,
    S::Update: Wire,
    A: App,
{
    let n = run.nodes;
    let mut sim: Simulator<A> = Simulator::new(n, run.latency.clone(), run.seed);
    let layout = Layout::install(&mut sim, coord, &run.runtime);
    let leaders: Vec<Pid> = run
        .leaders
        .clone()
        .unwrap_or_else(|| GroupMapper::new(coord, run.runtime.sync_shards).default_leaders(n));
    sim.install_fault_plan(&run.faults);
    sim.set_apps(|id| {
        let node = HambandNode::new(
            spec.clone(),
            coord.clone(),
            run.runtime.clone(),
            layout.clone(),
            id,
            n,
            &leaders,
            run.workload.clone(),
        );
        wrap(node, &layout)
    });
    sim
}

/// How one drive ended.
#[derive(Debug, Clone, Copy)]
pub struct Driven {
    /// Virtual time of the last update applied at any surviving node.
    pub completed_at: SimTime,
    /// Every surviving node finished its workload, their applied maps
    /// agreed, and their final states are equal.
    pub converged: bool,
    /// Wall time of the drive, from the first event to the end of the
    /// settle.
    pub wall: Duration,
}

fn alive<A: Replica>(sim: &Simulator<A>) -> Vec<NodeId> {
    (0..sim.len())
        .map(NodeId)
        .filter(|&id| !sim.is_crashed(id) && !sim.app(id).replica().is_halted())
        .collect()
}

fn statuses<A: Replica>(sim: &Simulator<A>) -> Vec<String> {
    (0..sim.len())
        .map(|i| sim.app(NodeId(i)).replica().status().to_string())
        .collect()
}

/// Slices between two status publications to the watch.
const PUBLISH_EVERY: usize = 1024;

/// Run the cluster until every surviving node finished its workload and
/// all applied maps agree (or the time cap or stall watchdog fires),
/// let stragglers settle, and check state convergence. Mirrors the
/// harness's drive loop; the checks between slices are timed as
/// [`Layer::Harness`] spans.
pub(crate) fn drive<A: Replica>(sim: &mut Simulator<A>, run: &RunConfig, watch: &Watch) -> Driven {
    let start = Instant::now();
    let last_fault_at = run
        .faults
        .entries()
        .iter()
        .map(|&(t, _)| t)
        .max()
        .unwrap_or(SimTime::ZERO);
    let slice = SimDuration::micros(25);
    let mut done = false;
    let mut last_progress = 0u64;
    let mut stalled = 0usize;
    let mut slices = 0usize;
    while sim.now() < run.max_time {
        sim.run_for(slice);
        let _h = enter(Layer::Harness);
        slices += 1;
        if slices.is_multiple_of(PUBLISH_EVERY) {
            watch.publish(statuses(sim));
        }
        let alive = alive(sim);
        if sim.now() > last_fault_at && !alive.is_empty() {
            let all_done = alive
                .iter()
                .all(|&id| sim.app(id).replica().workload_done());
            if all_done {
                let a0 = sim.app(alive[0]).replica().applied_map();
                if alive
                    .iter()
                    .all(|&id| sim.app(id).replica().applied_map() == a0)
                {
                    done = true;
                    break;
                }
            }
        }
        let progress: u64 = alive
            .iter()
            .map(|&id| sim.app(id).replica().applied_updates())
            .sum();
        if progress == last_progress {
            stalled += 1;
            if stalled > 2_000 {
                break;
            }
        } else {
            stalled = 0;
            last_progress = progress;
        }
    }
    sim.run_for(SimDuration::micros(300));
    let _h = enter(Layer::Harness);
    let alive = alive(sim);
    let completed_at = alive
        .iter()
        .map(|&id| sim.app(id).replica().metrics.last_apply)
        .max()
        .unwrap_or(SimTime::ZERO);
    let converged = !alive.is_empty() && done && {
        let s0 = sim.app(alive[0]).replica().state_snapshot();
        alive
            .iter()
            .all(|&id| sim.app(id).replica().state_snapshot() == s0)
    };
    watch.publish(statuses(sim));
    Driven {
        completed_at,
        converged,
        wall: start.elapsed(),
    }
}

/// Everything a finished simulator run leaves for the metrics.
#[derive(Debug, Clone)]
pub struct ClusterEnd {
    /// Per-node measurement accumulators.
    pub node_metrics: Vec<NodeMetrics>,
    /// Every client session's completion stats, node by node.
    pub sessions: Vec<SessionStats>,
    /// Fabric traffic counters.
    pub stats: Stats,
    /// Per node: halted by a suspended heartbeat, or crashed.
    pub stopped: Vec<bool>,
    /// Every surviving node's final state satisfies the object's
    /// invariant.
    pub invariant_holds: bool,
    /// Final per-node status lines.
    pub statuses: Vec<String>,
}

/// Collect what the metrics need from a finished run.
pub(crate) fn collect<A: Replica>(sim: &Simulator<A>, spec: &A::Spec) -> ClusterEnd {
    let n = sim.len();
    let nodes: Vec<&HambandNode<A::Spec>> = (0..n).map(|i| sim.app(NodeId(i)).replica()).collect();
    let stopped: Vec<bool> = (0..n)
        .map(|i| sim.is_crashed(NodeId(i)) || nodes[i].is_halted())
        .collect();
    ClusterEnd {
        node_metrics: nodes.iter().map(|r| r.metrics.clone()).collect(),
        sessions: nodes.iter().flat_map(|r| r.session_stats()).collect(),
        stats: sim.stats().clone(),
        invariant_holds: nodes
            .iter()
            .zip(&stopped)
            .filter(|(_, &s)| !s)
            .all(|(r, _)| spec.invariant(&r.state_snapshot())),
        stopped,
        statuses: statuses(sim),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watch_expires_only_while_armed() {
        let w = Watch::new();
        assert!(w.expired().is_none(), "nothing armed");
        w.arm("bank rep 1", Duration::ZERO);
        w.publish(vec!["node 0 status".into(), "node 1 status".into()]);
        let (label, statuses) = w.expired().expect("past its deadline");
        assert_eq!(label, "bank rep 1");
        assert_eq!(statuses.len(), 2);
        w.disarm();
        assert!(w.expired().is_none(), "disarmed");
        w.arm("bank rep 2", Duration::from_secs(3600));
        assert!(w.expired().is_none(), "within its deadline");
    }
}
