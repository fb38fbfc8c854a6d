//! End-to-end runtime tests: full Hamband clusters (and baselines)
//! driven to convergence over the simulated fabric.

use hamband_core::demo::Account;
use hamband_runtime::{RunConfig, Runner, RuntimeConfig, System, WorkloadSpec};
use hamband_types::{Counter, Courseware, GSet, Movie, OrSet, Project};
use rdma_sim::{Fault, FaultPlan, NodeId, SimTime};

#[test]
fn counter_reducible_converges() {
    let c = Counter::default();
    let config = RunConfig::new(3, WorkloadSpec::ops(600).with_update_ratio(0.5));
    let report = Runner::new(System::Hamband, config).run(&c, &c.coord_spec()).report;
    assert!(report.converged, "{report}");
    assert!(report.total_updates >= 295, "most updates acked: {report}");
    assert!(report.throughput_ops_per_us > 0.1, "{report}");
}

#[test]
fn gset_buffered_converges() {
    let g = GSet::default();
    let config = RunConfig::new(3, WorkloadSpec::ops(400).with_update_ratio(0.5));
    let report = Runner::new(System::Hamband, config).run(&g, &g.coord_spec_buffered()).report;
    assert!(report.converged, "{report}");
}

#[test]
fn orset_with_dependencies_converges() {
    let o = OrSet::default();
    let config = RunConfig::new(4, WorkloadSpec::ops(600).with_update_ratio(0.5));
    let report = Runner::new(System::Hamband, config).run(&o, &o.coord_spec()).report;
    assert!(report.converged, "{report}");
}

#[test]
fn account_all_categories_converges() {
    let a = Account::new(50);
    let config = RunConfig::new(3, WorkloadSpec::ops(600).with_update_ratio(0.5));
    let report = Runner::new(System::Hamband, config).run(&a, &a.coord_spec()).report;
    assert!(report.converged, "{report}");
    // Some withdrawals must actually have committed.
    assert!(report.per_method_rt_us.contains_key("withdraw"), "{report:?}");
    // Withdrawals go through consensus, so the report must carry a CONF
    // phase distribution alongside REDUCE/FREE.
    assert!(report.phases.contains_key("conf"), "{report:?}");
}

#[test]
fn project_schema_converges() {
    let p = Project::default();
    let config = RunConfig::new(4, WorkloadSpec::ops(600).with_update_ratio(0.5));
    let report = Runner::new(System::Hamband, config).run(&p, &p.coord_spec()).report;
    assert!(report.converged, "{report}");
}

#[test]
fn movie_two_leaders_converges() {
    let m = Movie::default();
    let config = RunConfig::new(4, WorkloadSpec::ops(600).with_update_ratio(1.0));
    let report = Runner::new(System::Hamband, config).run(&m, &m.coord_spec()).report;
    assert!(report.converged, "{report}");
}

#[test]
fn smr_baseline_converges_and_is_slower() {
    let c = Counter::default();
    let config = RunConfig::new(3, WorkloadSpec::ops(600).with_update_ratio(0.5));
    let hb = Runner::new(System::Hamband, config.clone()).run(&c, &c.coord_spec()).report;
    let smr = Runner::new(System::MuSmr, config).run(&c, &c.coord_spec()).report;
    assert!(smr.converged, "{smr}");
    assert!(
        hb.throughput_ops_per_us > smr.throughput_ops_per_us,
        "hamband {hb} should beat smr {smr}"
    );
}

#[test]
fn msg_baseline_converges_and_is_much_slower() {
    let c = Counter::default();
    let config = RunConfig::new(3, WorkloadSpec::ops(600).with_update_ratio(0.5));
    let hb = Runner::new(System::Hamband, config.clone()).run(&c, &c.coord_spec()).report;
    let msg = Runner::new(System::Msg, config).run(&c, &c.coord_spec()).report;
    assert!(msg.converged, "{msg}");
    assert!(
        hb.throughput_ops_per_us > 3.0 * msg.throughput_ops_per_us,
        "hamband {hb} should dominate msg {msg}"
    );
    assert!(hb.mean_rt_us < msg.mean_rt_us, "hamband {hb} rt below msg {msg}");
}

#[test]
fn follower_failure_is_tolerated() {
    let c = Counter::default();
    let config = RunConfig::new(4, WorkloadSpec::ops(800).with_update_ratio(0.5))
        .with_faults(FaultPlan::new().at(SimTime(40_000), Fault::SuspendHeartbeat(NodeId(3))));
    let report = Runner::new(System::Hamband, config).run(&c, &c.coord_spec()).report;
    assert!(report.converged, "{report}");
}

#[test]
fn leader_failure_elects_new_leader() {
    let cw = Courseware::default();
    // Group leader is node 0 by default; suspend its heartbeat mid-run.
    let config = RunConfig::new(4, WorkloadSpec::ops(600).with_update_ratio(0.5))
        .with_faults(FaultPlan::new().at(SimTime(60_000), Fault::SuspendHeartbeat(NodeId(0))));
    let report = Runner::new(System::Hamband, config).run(&cw, &cw.coord_spec()).report;
    assert!(report.converged, "{report}");
}

/// The t=0 query burst, shaped like the benchmark's `counter` workload:
/// 32 sessions per node fill every window in the first pump, leaving
/// only queries to plan. A combiner that drained them all in one round
/// held the simulated CPU for `queries × apply_cost` (the worst update
/// waited 767 µs at 20k calls, 37.8 ms at 1M), and every update completion queued
/// behind it. Rounds bounded to one poll interval of queries keep the
/// worst acked update near the closed loop's steady state.
#[test]
fn query_burst_does_not_set_the_update_tail() {
    let c = Counter::default();
    let spec = WorkloadSpec::ops(20_000).with_update_ratio(0.5).with_sessions(32).with_seed(1);
    let config = RunConfig::new(2, spec).with_runtime(RuntimeConfig::default());
    let out = Runner::new(System::Hamband, config).run(&c, &c.coord_spec());
    assert!(out.report.converged, "{}", out.report);
    assert!(out.report.total_updates >= 9_900, "{}", out.report);
    let max_ns = out.node_metrics.iter().map(|m| m.rt.max_ns()).max().expect("two nodes");
    assert!(max_ns <= 200_000, "worst acked update took {:.1} µs", max_ns as f64 / 1e3);
}
