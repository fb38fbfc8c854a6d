//! Cross-backend transport conformance suite.
//!
//! The same `HambandNode` state machine runs over three transports
//! (simulator, loopback, threaded); for each object shape — reducible
//! with a last-writer-wins summary (Counter), reducible with an
//! appending summary (GSet), conflicting (Bank), buffered
//! conflict-free with state-aware updates (OrSet) — each transport and
//! each cluster size 3..=5, a run must
//!
//! 1. **converge**: every replica ends with the same applied-call
//!    count, the same per-(node, method) applied map, and the same
//!    state snapshot;
//! 2. **commit before ack**: nothing was aborted, and every update
//!    acknowledged to a client session is applied on *every* replica
//!    (cluster-wide acked sum == each node's applied count) — an ack
//!    for an update some replica never applies is precisely the
//!    durability lie the protocol's commit rule exists to prevent.
//!
//! The threaded runs execute on real OS threads over shared atomic
//! memory, so under `-Zsanitizer=thread` this suite doubles as the
//! data-race gate for the `threaded` backend's word-level publication
//! discipline — GSet's two-WRITE publish (records, then header)
//! included.
//!
//! Leadership failover is exercised on the loopback backend (the
//! threaded backend injects no faults): suspend the heartbeat of a
//! group leader mid-run and the survivors must elect a replacement
//! and finish without it.

use std::time::Duration;

use hamband_core::coord::CoordSpec;
use hamband_core::counts::CountMap;
use hamband_core::object::WorkloadSupport;
use hamband_core::wire::Wire;
use hamband_runtime::{
    HambandNode, Layout, LoopbackCluster, RuntimeConfig, ThreadedCluster, WorkloadSpec,
};
use hamband_types::{Bank, Counter, GSet, OrSet};
use rdma_sim::{AppFault, LatencyModel, NodeId, SimDuration, SimTime, Simulator};

/// What the conformance checks need from one finished replica.
struct NodeObs<S> {
    applied: u64,
    map: CountMap,
    state: S,
    acked: u64,
    aborted: u64,
    status: String,
}

fn observe<O>(node: &HambandNode<O>) -> NodeObs<O::State>
where
    O: WorkloadSupport,
    O::Update: Wire,
{
    let sessions = node.session_stats();
    NodeObs {
        applied: node.applied_updates(),
        map: node.applied_map().clone(),
        state: node.state_snapshot(),
        acked: sessions.iter().map(|s| s.acked).sum(),
        aborted: sessions.iter().map(|s| s.aborted).sum(),
        status: node.status().to_string(),
    }
}

/// The two conformance properties over a converged, fault-free run.
fn check<S: PartialEq + std::fmt::Debug>(obs: &[NodeObs<S>], what: &str) {
    let cluster_acked: u64 = obs.iter().map(|o| o.acked).sum();
    assert!(cluster_acked > 0, "{what}: no update was ever acknowledged");
    for (i, o) in obs.iter().enumerate() {
        assert_eq!(
            o.applied, obs[0].applied,
            "{what}: node {i} applied-count diverges ({} | {})",
            o.status, obs[0].status
        );
        assert_eq!(o.map, obs[0].map, "{what}: node {i} applied map diverges");
        assert!(o.state == obs[0].state, "{what}: node {i} state snapshot diverges");
        assert_eq!(o.aborted, 0, "{what}: node {i} aborted updates in a fault-free run");
        assert_eq!(
            o.applied, cluster_acked,
            "{what}: node {i} applied {} updates but clients were acked {}",
            o.applied, cluster_acked
        );
    }
}

fn run_sim<O>(spec: &O, coord: &CoordSpec, n: usize, workload: WorkloadSpec, what: &str)
where
    O: WorkloadSupport + Clone,
    O::Update: Wire,
{
    let cfg = RuntimeConfig::default();
    let mut sim: Simulator<HambandNode<O>> = Simulator::new(n, LatencyModel::default(), 0xc0f);
    let layout = Layout::install(&mut sim, coord, &cfg);
    let leaders = coord.default_leaders(n);
    sim.set_apps(|id| {
        HambandNode::new(
            spec.clone(),
            coord.clone(),
            cfg.clone(),
            layout.clone(),
            id,
            n,
            &leaders,
            workload.clone(),
        )
    });
    let done = |sim: &Simulator<HambandNode<O>>| (0..n).all(|i| sim.app(NodeId(i)).workload_done());
    while !done(&sim) && sim.now() < SimTime(500_000_000) {
        sim.run_for(SimDuration::micros(50));
    }
    // Let the last summary writes land and be polled.
    sim.run_for(SimDuration::millis(1));
    assert!(
        done(&sim),
        "{what}: simulated cluster did not converge: {}",
        (0..n).map(|i| sim.app(NodeId(i)).status().to_string()).collect::<Vec<_>>().join(" | "),
    );
    let obs: Vec<_> = (0..n).map(|i| observe(sim.app(NodeId(i)))).collect();
    check(&obs, what);
}

fn run_loopback<O>(spec: &O, coord: &CoordSpec, n: usize, workload: WorkloadSpec, what: &str)
where
    O: WorkloadSupport + Clone,
    O::Update: Wire,
{
    let mut cluster = LoopbackCluster::new(n, spec, coord, RuntimeConfig::default(), workload);
    assert!(
        cluster.run_to_convergence(SimDuration::millis(500)),
        "{what}: loopback cluster did not converge: {}",
        (0..n).map(|i| cluster.node(i).status().to_string()).collect::<Vec<_>>().join(" | "),
    );
    let obs: Vec<_> = (0..n).map(|i| observe(cluster.node(i))).collect();
    check(&obs, what);
}

fn run_threaded<O>(spec: &O, coord: &CoordSpec, n: usize, workload: WorkloadSpec, what: &str)
where
    O: WorkloadSupport + Clone + Send,
    O::Update: Wire + Send,
    O::State: Send,
{
    let mut cluster = ThreadedCluster::new(n, spec, coord, RuntimeConfig::default(), workload);
    assert!(
        cluster.run_to_convergence(Duration::from_secs(60)),
        "{what}: threaded cluster did not converge: {}",
        (0..n).map(|i| cluster.node(i).status().to_string()).collect::<Vec<_>>().join(" | "),
    );
    let obs: Vec<_> = (0..n).map(|i| observe(cluster.node(i))).collect();
    check(&obs, what);
}

/// One object across the three backends and cluster sizes 3..=5,
/// with `ops` calls per run.
fn conform<O>(spec: &O, coord: &CoordSpec, name: &str, ops: u64)
where
    O: WorkloadSupport + Clone + Send,
    O::Update: Wire + Send,
    O::State: Send,
{
    for n in 3..=5 {
        let workload = WorkloadSpec::ops(ops).with_update_ratio(0.6).with_seed(90 + n as u64);
        run_sim(spec, coord, n, workload.clone(), &format!("{name}/sim/n={n}"));
        run_loopback(spec, coord, n, workload.clone(), &format!("{name}/loopback/n={n}"));
        run_threaded(spec, coord, n, workload, &format!("{name}/threaded/n={n}"));
    }
}

#[test]
fn counter_conforms_across_backends() {
    let c = Counter::default();
    conform(&c, &c.coord_spec(), "counter", 240);
}

/// Enough calls that each node's appended payload outgrows the
/// full-image threshold (about 850 B at the default latency model), so
/// publishes take the two-WRITE path.
#[test]
fn gset_conforms_across_backends() {
    let g = GSet::default();
    conform(&g, &g.coord_spec(), "gset", 1_500);
}

#[test]
fn bank_conforms_across_backends() {
    let b = Bank::default();
    conform(&b, &b.coord_spec(), "bank", 240);
}

#[test]
fn orset_conforms_across_backends() {
    let o = OrSet::default();
    conform(&o, &o.coord_spec(), "orset", 240);
}

/// Multi-session ingress over both backends: flat-combining must not
/// change what clients were promised (ack ⇒ applied everywhere).
#[test]
fn sessions_conform_across_backends() {
    let c = Counter::default();
    let coord = c.coord_spec();
    let workload =
        WorkloadSpec::ops(400).with_update_ratio(0.5).with_sessions(40).with_seed(17);
    run_loopback(&c, &coord, 3, workload.clone(), "counter-sessions/loopback");
    run_threaded(&c, &coord, 3, workload, "counter-sessions/threaded");
}

/// Suspend a group leader's heartbeat mid-run over loopback: the
/// survivors must suspect it, elect a replacement, and finish the
/// workload without it (§5's failure-injection method, previously
/// exercised only under the simulator).
#[test]
fn election_under_loopback_replaces_suspended_leader() {
    let b = Bank::default();
    let coord = b.coord_spec();
    let n = 3;
    let workload = WorkloadSpec::ops(300).with_update_ratio(0.8).with_seed(11);
    let mut cluster = LoopbackCluster::new(n, &b, &coord, RuntimeConfig::default(), workload);

    // Let leadership establish, then read group 0's leader.
    cluster.step_until(SimTime(50_000));
    let old = cluster.node(0).leader_view(0);
    cluster.inject_fault(old.index(), AppFault::SuspendHeartbeat);

    // Plenty of virtual time: suspicion, election, ring catch-up, and
    // the survivors' (plus the dead node's adopted) quota.
    cluster.step_until(SimTime(200_000_000));

    let survivors: Vec<usize> = (0..n).filter(|&i| i != old.index()).collect();
    for &i in &survivors {
        let view = cluster.node(i).leader_view(0);
        assert_ne!(view, old, "node {i} still believes the suspended leader leads group 0");
        assert!(!cluster.node(i).is_halted(), "survivor {i} halted");
        assert!(
            cluster.node(i).workload_done(),
            "survivor {i} never finished: {}",
            cluster.node(i).status()
        );
    }
    let s0 = cluster.node(survivors[0]).state_snapshot();
    let m0 = cluster.node(survivors[0]).applied_map().clone();
    for &i in &survivors[1..] {
        assert!(cluster.node(i).state_snapshot() == s0, "survivor {i} state diverges");
        assert_eq!(*cluster.node(i).applied_map(), m0, "survivor {i} applied map diverges");
    }
}
