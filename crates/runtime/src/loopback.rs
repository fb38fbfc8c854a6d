//! In-process loopback backend: a [`Transport`] over plain memory and
//! FIFO event queues, with no simulator behind it.
//!
//! The simulator ([`rdma_sim`]) models latency, CPU contention, and
//! faults; this backend models *none* of that. Every node's registered
//! regions are byte vectors owned by a [`LoopbackNet`]; a one-sided
//! WRITE copies into the target's vector at post time and the success
//! completion is queued on the issuer's FIFO, so RC ordering (writes
//! from one issuer to one target land in posting order) holds
//! trivially. Virtual time advances only when every FIFO is drained
//! and the earliest armed timer fires.
//!
//! The point of the backend is the seam itself: the same
//! [`HambandNode`] byte-for-byte state machine runs here through
//! [`HambandNode::start`] / [`HambandNode::handle_event`] without any
//! `rdma_sim::Ctx` in sight, which is exactly the property a real
//! ibverbs backend would need. It doubles as the fastest way to smoke
//! test protocol logic when the latency model is irrelevant.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use bytes::Bytes;
use hamband_core::coord::{CoordSpec, GroupMapper};
use hamband_core::ids::Pid;
use hamband_core::object::WorkloadSupport;
use hamband_core::wire::Wire;
use rdma_sim::{
    AppFault, CompletionStatus, Event, LatencyModel, NodeId, RegionId, SimDuration, SimTime,
    TimerId, TraceEvent, VerbKind, WrId,
};

use crate::config::RuntimeConfig;
use crate::driver::WorkloadSpec;
use crate::layout::Layout;
use crate::replica::HambandNode;
use crate::transport::Transport;

/// One node's registered memory: the region byte vectors plus the
/// per-source write-permission bits (the owner is always allowed).
#[derive(Debug)]
struct NodeMem {
    regions: Vec<Vec<u8>>,
    /// `write_allowed[region][source]`.
    write_allowed: Vec<Vec<bool>>,
}

/// An armed timer: fires at `at`, delivering `tag` to `node`. The
/// `seq` breaks deadline ties in arming order, keeping runs
/// deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct TimerEntry {
    at: SimTime,
    seq: u64,
    node: usize,
    id: TimerId,
    tag: u64,
}

/// The shared fabric state of a loopback cluster: per-node memory,
/// per-node FIFO event queues, and one global timer heap.
#[derive(Debug)]
pub struct LoopbackNet {
    n: usize,
    clock: SimTime,
    latency: LatencyModel,
    mem: Vec<NodeMem>,
    inboxes: Vec<VecDeque<Event>>,
    timers: BinaryHeap<Reverse<TimerEntry>>,
    next_wr: u64,
    next_timer: u64,
}

impl LoopbackNet {
    fn new(n: usize) -> LoopbackNet {
        LoopbackNet {
            n,
            clock: SimTime::ZERO,
            latency: LatencyModel::deterministic(),
            mem: (0..n)
                .map(|_| NodeMem { regions: Vec::new(), write_allowed: Vec::new() })
                .collect(),
            inboxes: (0..n).map(|_| VecDeque::new()).collect(),
            timers: BinaryHeap::new(),
            next_wr: 0,
            next_timer: 0,
        }
    }

    /// Register a region of `size` bytes on every node (the loopback
    /// analogue of `Simulator::add_region_all`).
    fn add_region_all(&mut self, size: usize) -> RegionId {
        let id = RegionId(self.mem[0].regions.len());
        for m in &mut self.mem {
            m.regions.push(vec![0; size]);
            m.write_allowed.push(vec![true; self.n]);
        }
        id
    }

    fn mint_wr(&mut self) -> WrId {
        self.next_wr += 1;
        WrId(self.next_wr)
    }

    /// Access check mirroring the simulator's: reads ignore write
    /// permission, the owner's own writes ignore it too.
    fn check(
        &self,
        issuer: NodeId,
        target: NodeId,
        region: RegionId,
        offset: usize,
        len: usize,
        is_write: bool,
    ) -> CompletionStatus {
        let m = &self.mem[target.index()];
        let Some(bytes) = m.regions.get(region.index()) else {
            return CompletionStatus::OutOfBounds;
        };
        if offset + len > bytes.len() {
            return CompletionStatus::OutOfBounds;
        }
        if is_write && issuer != target && !m.write_allowed[region.index()][issuer.index()] {
            return CompletionStatus::AccessDenied;
        }
        CompletionStatus::Success
    }

    fn complete(
        &mut self,
        issuer: NodeId,
        wr: WrId,
        kind: VerbKind,
        status: CompletionStatus,
        data: Option<Bytes>,
    ) {
        let completed_at = self.clock;
        self.inboxes[issuer.index()].push_back(Event::Completion {
            wr,
            kind,
            status,
            data,
            completed_at,
        });
    }
}

/// A [`Transport`] handle binding one node to the shared
/// [`LoopbackNet`]; what [`rdma_sim::Ctx`] is to the simulator.
#[derive(Debug)]
pub struct LoopbackCtx<'a> {
    net: &'a mut LoopbackNet,
    node: NodeId,
}

impl Transport for LoopbackCtx<'_> {
    fn node(&self) -> NodeId {
        self.node
    }

    fn now(&self) -> SimTime {
        self.net.clock
    }

    fn cluster_size(&self) -> usize {
        self.net.n
    }

    /// No CPU model: consuming time is a no-op. Ordering in loopback
    /// comes solely from FIFO delivery and timer deadlines.
    fn consume(&mut self, _cost: SimDuration) {}

    fn latency(&self) -> &LatencyModel {
        &self.net.latency
    }

    /// No trace sink is ever installed on the loopback net, so the
    /// closure is never run.
    fn emit(&mut self, _make: impl FnOnce() -> TraceEvent) {}

    fn note_ring_write(&mut self, _slots: u64) {}

    fn post_write(
        &mut self,
        target: NodeId,
        region: RegionId,
        offset: usize,
        data: &[u8],
    ) -> WrId {
        let wr = self.net.mint_wr();
        let status = self.net.check(self.node, target, region, offset, data.len(), true);
        if status.is_success() {
            self.net.mem[target.index()].regions[region.index()][offset..offset + data.len()]
                .copy_from_slice(data);
        }
        self.net.complete(self.node, wr, VerbKind::Write, status, None);
        wr
    }

    fn post_read(&mut self, target: NodeId, region: RegionId, offset: usize, len: usize) -> WrId {
        let wr = self.net.mint_wr();
        let status = self.net.check(self.node, target, region, offset, len, false);
        let data = status.is_success().then(|| {
            Bytes::copy_from_slice(
                &self.net.mem[target.index()].regions[region.index()][offset..offset + len],
            )
        });
        self.net.complete(self.node, wr, VerbKind::Read, status, data);
        wr
    }

    fn post_cas(
        &mut self,
        target: NodeId,
        region: RegionId,
        offset: usize,
        expected: u64,
        swap: u64,
    ) -> WrId {
        let wr = self.net.mint_wr();
        let status = self.net.check(self.node, target, region, offset, 8, true);
        let data = status.is_success().then(|| {
            let cell = &mut self.net.mem[target.index()].regions[region.index()]
                [offset..offset + 8];
            let prior = u64::from_le_bytes(cell.try_into().expect("8-byte cell"));
            if prior == expected {
                cell.copy_from_slice(&swap.to_le_bytes());
            }
            Bytes::copy_from_slice(&prior.to_le_bytes())
        });
        self.net.complete(self.node, wr, VerbKind::CompareAndSwap, status, data);
        wr
    }

    fn send(&mut self, target: NodeId, payload: Bytes) {
        let from = self.node;
        self.net.inboxes[target.index()].push_back(Event::Message { from, payload });
    }

    fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        self.arm(delay, tag)
    }

    /// Loopback has no busy CPU for a timer to dodge, so the isolated
    /// variant is the plain one.
    fn set_timer_isolated(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        self.arm(delay, tag)
    }

    fn local(&mut self, region: RegionId, offset: usize, len: usize) -> &[u8] {
        &self.net.mem[self.node.index()].regions[region.index()][offset..offset + len]
    }

    fn local_write(&mut self, region: RegionId, offset: usize, data: &[u8]) {
        self.net.mem[self.node.index()].regions[region.index()][offset..offset + data.len()]
            .copy_from_slice(data);
    }

    fn set_write_permission(&mut self, region: RegionId, source: NodeId, allowed: bool) {
        self.net.mem[self.node.index()].write_allowed[region.index()][source.index()] = allowed;
    }
}

impl LoopbackCtx<'_> {
    fn arm(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        self.net.next_timer += 1;
        let id = TimerId(self.net.next_timer);
        self.net.timers.push(Reverse(TimerEntry {
            at: self.net.clock + delay,
            seq: self.net.next_timer,
            node: self.node.index(),
            id,
            tag,
        }));
        id
    }
}

/// A whole Hamband cluster running in-process over a [`LoopbackNet`].
pub struct LoopbackCluster<O: WorkloadSupport> {
    net: LoopbackNet,
    nodes: Vec<HambandNode<O>>,
    started: bool,
}

impl<O> LoopbackCluster<O>
where
    O: WorkloadSupport + Clone,
    O::Update: Wire,
{
    /// Build an `n`-node cluster: allocate the standard region
    /// [`Layout`] on the loopback net and construct each replica with
    /// the coordination spec's default leaders.
    pub fn new(
        n: usize,
        spec: &O,
        coord: &CoordSpec,
        cfg: RuntimeConfig,
        workload: WorkloadSpec,
    ) -> LoopbackCluster<O> {
        let mut net = LoopbackNet::new(n);
        // The loopback backend has no restart faults, so the durable
        // flag carries no meaning here: every region is plain memory.
        let layout = Layout::plan(n, coord, &cfg, |size, _durable| net.add_region_all(size));
        let leaders: Vec<Pid> =
            GroupMapper::new(coord, cfg.sync_shards).default_leaders(n);
        let nodes = (0..n)
            .map(|i| {
                HambandNode::new(
                    spec.clone(),
                    coord.clone(),
                    cfg.clone(),
                    layout.clone(),
                    NodeId(i),
                    n,
                    &leaders,
                    workload.clone(),
                )
            })
            .collect();
        LoopbackCluster { net, nodes, started: false }
    }

    /// Run the cluster's event loop until every replica reports
    /// [`workload_done`](HambandNode::workload_done) and all state
    /// snapshots and applied-call maps agree, or until virtual time
    /// passes `limit`. Returns whether the cluster converged.
    pub fn run_to_convergence(&mut self, limit: SimDuration) -> bool
    where
        O::State: PartialEq,
    {
        let deadline = SimTime::ZERO + limit;
        self.ensure_started();
        loop {
            self.drain_events();
            if self.converged() {
                return true;
            }
            // Quiescent: advance the clock to the earliest timer.
            let Some(Reverse(t)) = self.net.timers.pop() else {
                return false; // no timers left — the cluster is wedged
            };
            if t.at > deadline {
                return false;
            }
            self.net.clock = t.at;
            self.net.inboxes[t.node].push_back(Event::Timer { id: t.id, tag: t.tag });
        }
    }

    fn ensure_started(&mut self) {
        if !self.started {
            self.started = true;
            for i in 0..self.net.n {
                let mut ctx = LoopbackCtx { net: &mut self.net, node: NodeId(i) };
                self.nodes[i].start(&mut ctx);
            }
        }
    }

    /// Deliver an application-level fault straight into node `i`'s
    /// event queue — the loopback analogue of the simulator's fault
    /// plan for the faults that need no fabric (heartbeat suspension,
    /// the paper's §5 failure-injection method). Fabric faults (torn
    /// writes, partitions, crashes) remain simulator-only.
    pub fn inject_fault(&mut self, node: usize, kind: AppFault) {
        self.net.inboxes[node].push_back(Event::Fault { kind });
    }

    /// Drive events and timers until virtual time reaches `until` (or
    /// no timer remains armed). Unlike
    /// [`run_to_convergence`](LoopbackCluster::run_to_convergence)
    /// this makes no claim about workload completion — it is the
    /// stepping primitive for fault/election scenarios that need to
    /// observe the cluster mid-flight.
    pub fn step_until(&mut self, until: SimTime) {
        self.ensure_started();
        loop {
            self.drain_events();
            let Some(Reverse(t)) = self.net.timers.pop() else { return };
            if t.at > until {
                self.net.timers.push(Reverse(t));
                return;
            }
            self.net.clock = t.at;
            self.net.inboxes[t.node].push_back(Event::Timer { id: t.id, tag: t.tag });
        }
    }

    /// Deliver queued events round-robin, one per node per sweep, until
    /// every FIFO is empty (handling an event may enqueue more).
    fn drain_events(&mut self) {
        loop {
            let mut delivered = false;
            for i in 0..self.net.n {
                let Some(ev) = self.net.inboxes[i].pop_front() else { continue };
                let mut ctx = LoopbackCtx { net: &mut self.net, node: NodeId(i) };
                self.nodes[i].handle_event(&mut ctx, ev);
                delivered = true;
            }
            if !delivered {
                return;
            }
        }
    }

    fn converged(&self) -> bool
    where
        O::State: PartialEq,
    {
        // Equal states alone are not enough: calls that cancel out
        // (an OR-set add and its remove) leave equal states on replicas
        // that have not yet applied each other's calls.
        let done = self.nodes.iter().all(|n| n.workload_done());
        let s0 = self.nodes[0].state_snapshot();
        let m0 = self.nodes[0].applied_map();
        done && self.nodes.iter().all(|n| n.state_snapshot() == s0 && n.applied_map() == m0)
    }

    /// Current virtual time of the loopback clock.
    pub fn now(&self) -> SimTime {
        self.net.clock
    }

    /// The replica running on node `i` (for test assertions).
    pub fn node(&self, i: usize) -> &HambandNode<O> {
        &self.nodes[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamband_types::Counter;

    /// Satellite smoke test: a 3-node Counter cluster converges over
    /// the loopback transport — no simulator involved.
    #[test]
    fn three_node_counter_converges_over_loopback() {
        let spec = Counter::default();
        let coord = spec.coord_spec();
        let workload = WorkloadSpec::ops(120).with_update_ratio(1.0).with_seed(42);
        let mut cluster =
            LoopbackCluster::new(3, &spec, &coord, RuntimeConfig::default(), workload);
        assert!(
            cluster.run_to_convergence(SimDuration::millis(50)),
            "loopback cluster failed to converge: {}",
            (0..3).map(|i| cluster.node(i).status().to_string()).collect::<Vec<_>>().join(" | "),
        );
        // Every replica applied the full workload from all three nodes.
        let total = cluster.node(0).applied_updates();
        assert!(total > 0, "no updates applied");
        for i in 1..3 {
            assert_eq!(cluster.node(i).applied_updates(), total);
            assert_eq!(cluster.node(i).applied_map(), cluster.node(0).applied_map());
        }
    }

    /// Regression: OR-set calls cancel out, so at n=4 with this seed
    /// every replica's state equals the empty set while each has applied
    /// only its own calls. Convergence must also wait for equal
    /// applied-call maps, i.e. until every acked call is applied
    /// everywhere.
    #[test]
    fn convergence_waits_for_applied_maps_not_just_equal_states() {
        let spec = hamband_types::OrSet::default();
        let coord = spec.coord_spec();
        let workload = WorkloadSpec::ops(240).with_update_ratio(0.6).with_seed(94);
        let mut cluster =
            LoopbackCluster::new(4, &spec, &coord, RuntimeConfig::default(), workload);
        assert!(cluster.run_to_convergence(SimDuration::millis(500)));
        let acked: u64 = (0..4)
            .flat_map(|i| cluster.node(i).session_stats())
            .map(|s| s.acked)
            .sum();
        for i in 0..4 {
            assert_eq!(cluster.node(i).applied_updates(), acked, "node {i}");
        }
    }

    /// Permission revocation over loopback: a peer's write to a
    /// revoked region completes with `AccessDenied` and leaves the
    /// bytes untouched, matching the simulator's semantics.
    #[test]
    fn loopback_respects_write_permissions() {
        let mut net = LoopbackNet::new(2);
        let region = net.add_region_all(8);
        {
            let mut owner = LoopbackCtx { net: &mut net, node: NodeId(1) };
            owner.set_write_permission(region, NodeId(0), false);
        }
        let mut writer = LoopbackCtx { net: &mut net, node: NodeId(0) };
        writer.post_write(NodeId(1), region, 0, b"denied!!");
        let ev = net.inboxes[0].pop_front().expect("completion queued");
        match ev {
            Event::Completion { status, .. } => {
                assert_eq!(status, CompletionStatus::AccessDenied)
            }
            other => panic!("unexpected event {other:?}"),
        }
        assert_eq!(&net.mem[1].regions[region.index()], &vec![0u8; 8]);
    }
}
