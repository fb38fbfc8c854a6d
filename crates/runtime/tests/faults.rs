//! Fault-path tests: reliable-broadcast recovery after a crash, the
//! canary protocol under torn writes, and failure detection timing.

use hamband_core::coord::CoordSpec;
use hamband_core::counts::DepMap;
use hamband_core::ids::{Pid, Rid};
use hamband_runtime::chaos::{run_case, ChaosOptions};
use hamband_runtime::codec::{compose_backup_slot, Entry, BACKUP_FREE};
use hamband_runtime::{HambandNode, Layout, RuntimeConfig, WorkloadSpec};
use hamband_types::{Counter, GSet};
use rdma_sim::{Fault, FaultPlan, LatencyModel, NodeId, SimDuration, SimTime, Simulator};

fn counter_cluster(
    n: usize,
    ops: u64,
    plan: &FaultPlan,
) -> (Simulator<HambandNode<Counter>>, Layout) {
    let c = Counter::default();
    let coord = c.coord_spec();
    let cfg = RuntimeConfig::default();
    let workload = WorkloadSpec::ops(ops).with_update_ratio(0.5).with_seed(0xfa01);
    let mut sim = Simulator::new(n, LatencyModel::default(), 0xfa02);
    let layout = Layout::install(&mut sim, &coord, &cfg);
    let leaders = coord.default_leaders(n);
    sim.install_fault_plan(plan);
    {
        let coord = coord.clone();
        let layout = layout.clone();
        sim.set_apps(move |id| {
            HambandNode::new(
                c.clone(),
                coord.clone(),
                cfg.clone(),
                layout.clone(),
                id,
                n,
                &leaders,
                workload.clone(),
            )
        });
    }
    (sim, layout)
}

/// A node crashes (fail-stop) with a pending conflict-free broadcast
/// sitting in its backup slot that never reached anyone. The reliable
/// broadcast's agreement half must kick in: the designated recoverer
/// reads the backup remotely and re-executes the writes, and every
/// alive node applies the rescued call.
#[test]
fn crash_recovery_delivers_pending_broadcast() {
    // Use the buffered GSet so calls flow through F rings.
    let g = GSet::default();
    let coord = g.coord_spec_buffered();
    let cfg = RuntimeConfig::default();
    let n = 3;
    // No client workload: we inject the pending broadcast by hand.
    let workload = WorkloadSpec::ops(0).with_update_ratio(0.5).with_seed(1);
    let mut sim: Simulator<HambandNode<GSet>> = Simulator::new(n, LatencyModel::default(), 7);
    let layout = Layout::install(&mut sim, &coord, &cfg);
    let leaders = coord.default_leaders(n);
    // Crash node 2 shortly after start.
    sim.install_fault_plan(&FaultPlan::new().at(SimTime(30_000), Fault::Crash(NodeId(2))));
    {
        let coord2 = coord.clone();
        let g2 = g.clone();
        let layout = layout.clone();
        sim.set_apps(move |id| {
            HambandNode::new(
                g2.clone(),
                coord2.clone(),
                cfg.clone(),
                layout.clone(),
                id,
                n,
                &leaders,
                workload.clone(),
            )
        });
    }
    // Before the crash fires, plant a pending broadcast in node 2's
    // backup region: a conflict-free call (seq 1 in node 2's F rings)
    // that "was about to be written" but never went out — the crash
    // window between the local backup write and the remote writes.
    sim.run_for(SimDuration::micros(5));
    let entry = Entry {
        rid: Rid::new(Pid(2), 0),
        update: hamband_types::gset::GSetUpdate::AddAll(vec![42, 43]),
        deps: DepMap::empty(),
    };
    let slot = entry.to_slot(1, layout.entry_size());
    let (off, size) = layout.backup_slot(0);
    let backup = compose_backup_slot(BACKUP_FREE, 0xff, 1, &slot, size);
    sim.with_app_ctx(NodeId(2), |_, ctx| {
        ctx.local_write(layout.backup, off, &backup);
    });
    // Run long enough for the crash, suspicion, recovery read, and
    // rebroadcast to complete.
    sim.run_for(SimDuration::millis(2));
    assert!(sim.is_crashed(NodeId(2)));
    for i in 0..2 {
        let state = sim.app(NodeId(i)).state_snapshot();
        assert!(
            state.contains(&42) && state.contains(&43),
            "node {i} missed the rescued broadcast: {state:?}"
        );
    }
    let s0 = sim.app(NodeId(0)).state_snapshot();
    assert_eq!(sim.app(NodeId(1)).state_snapshot(), s0, "survivors agree");
}

/// The canary protocol under torn landings: with the fabric splitting
/// every write to one node, the cluster still converges to the same
/// state (no partially landed entry is ever consumed).
#[test]
fn torn_writes_do_not_corrupt_replication() {
    let plan = FaultPlan::new().at(SimTime::ZERO, Fault::TornWrites(NodeId(1)));
    let (mut sim, _layout) = counter_cluster(3, 400, &plan);
    for _ in 0..400 {
        sim.run_for(SimDuration::micros(50));
        if (0..3).all(|i| sim.app(NodeId(i)).workload_done()) {
            break;
        }
    }
    sim.run_for(SimDuration::millis(1));
    let s0 = sim.app(NodeId(0)).state_snapshot();
    for i in 0..3 {
        assert_eq!(sim.app(NodeId(i)).state_snapshot(), s0, "node {i} diverged under torn writes");
        assert_eq!(sim.app(NodeId(i)).applied_updates(), sim.app(NodeId(0)).applied_updates());
    }
}

/// Crash (not just heartbeat suspension) of a follower: survivors
/// converge among themselves.
#[test]
fn follower_crash_survivors_converge() {
    let plan = FaultPlan::new().at(SimTime(40_000), Fault::Crash(NodeId(3)));
    let (mut sim, _layout) = counter_cluster(4, 400, &plan);
    for _ in 0..800 {
        sim.run_for(SimDuration::micros(50));
        let survivors_done = (0..3).all(|i| sim.app(NodeId(i)).workload_done());
        let agree = (0..3)
            .all(|i| sim.app(NodeId(i)).applied_map() == sim.app(NodeId(0)).applied_map());
        if sim.now() > SimTime(40_000) && survivors_done && agree {
            break;
        }
    }
    sim.run_for(SimDuration::millis(1));
    let s0 = sim.app(NodeId(0)).state_snapshot();
    for i in 1..3 {
        assert_eq!(sim.app(NodeId(i)).state_snapshot(), s0, "survivor {i} diverged");
    }
}

/// The group leader crashes; the next-in-line candidate (node 1)
/// crashes too, while the failover it drives is still in flight (a
/// delay spike stretches its election reads). The survivors must
/// notice that the stuck candidate is gone, run a fresh election among
/// themselves, and still converge on the full surviving workload.
#[test]
fn leader_crash_during_election_reelects() {
    let plan = FaultPlan::new()
        .at(SimTime(40_000), Fault::Crash(NodeId(0)))
        .at(SimTime(55_000), Fault::DelaySpike(NodeId(1), 20, SimDuration::micros(30)))
        .at(SimTime(62_000), Fault::Crash(NodeId(1)));
    // Bank has a conflicting method, so group 0 actually runs
    // leader-based replication (Counter is reduce-only).
    let b = hamband_types::Bank::default();
    let coord = b.coord_spec();
    let cfg = RuntimeConfig::default();
    let n = 5;
    let workload = WorkloadSpec::ops(400).with_update_ratio(0.5).with_seed(0xfa03);
    let mut sim: Simulator<HambandNode<hamband_types::Bank>> =
        Simulator::new(n, LatencyModel::default(), 0xfa04);
    let layout = Layout::install(&mut sim, &coord, &cfg);
    let leaders = coord.default_leaders(n);
    sim.install_fault_plan(&plan);
    {
        let coord = coord.clone();
        sim.set_apps(move |id| {
            HambandNode::new(
                b.clone(),
                coord.clone(),
                cfg.clone(),
                layout.clone(),
                id,
                n,
                &leaders,
                workload.clone(),
            )
        });
    }
    for _ in 0..1600 {
        sim.run_for(SimDuration::micros(50));
        let done = (2..5).all(|i| sim.app(NodeId(i)).workload_done());
        let agree =
            (2..5).all(|i| sim.app(NodeId(i)).applied_map() == sim.app(NodeId(2)).applied_map());
        if sim.now() > SimTime(62_000) && done && agree {
            break;
        }
    }
    sim.run_for(SimDuration::millis(1));
    assert!(sim.is_crashed(NodeId(0)) && sim.is_crashed(NodeId(1)));
    let s2 = sim.app(NodeId(2)).state_snapshot();
    for i in 3..5 {
        assert_eq!(sim.app(NodeId(i)).state_snapshot(), s2, "survivor {i} diverged");
    }
    // Leadership moved past both crashed nodes to the lowest survivor.
    for i in 2..5 {
        assert_eq!(sim.app(NodeId(i)).leader_view(0), Pid(2), "node {i} leader view");
    }
}

/// Regression, shrunk from chaos seed 53 on reducible GSet: a crashed
/// node leaves several summary backups of one group behind, in
/// backup-slot order rather than version order. Recovery used to
/// re-broadcast all of them, so an older image could land last and
/// roll survivors' copies back, leaving them with unequal states. Only
/// the newest image per group may be re-broadcast. Both slot formats
/// are covered: the appending one GSet declares and the
/// last-writer-wins one every other summarization group uses.
#[test]
fn recovery_rebroadcasts_only_the_newest_summary_image() {
    let g = GSet::default();
    let lww = CoordSpec::builder(1).summarization_group([0]).build();
    let cases = [
        (
            4,
            FaultPlan::new()
                .at(SimTime(15383), Fault::Crash(NodeId(3)))
                .at(SimTime(26795), Fault::TornWrites(NodeId(2))),
        ),
        (
            5,
            FaultPlan::new()
                .at(SimTime(15383), Fault::Crash(NodeId(1)))
                .at(SimTime(104593), Fault::TornWrites(NodeId(4))),
        ),
    ];
    for (nodes, plan) in cases {
        let opts = ChaosOptions { nodes, sync_shards: 1, ..ChaosOptions::default() };
        for coord in [g.coord_spec(), lww.clone()] {
            let violations = run_case(&g, &coord, 53, &plan, &opts);
            assert!(violations.is_empty(), "{nodes} nodes: {violations:?}");
        }
    }
}
