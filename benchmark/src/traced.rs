//! The traced run's instruments, all built from the runtime's public
//! API: an [`App`] wrapper timing each event handler of a
//! [`HambandNode`], a [`Transport`] wrapper timing and counting every
//! fabric call by [`Layout`] region, an [`ObjectSpec`] wrapper timing
//! the data type, and a [`TraceSink`] collecting the virtual-time
//! events the per-layer metrics need.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use bytes::Bytes;
use hamband_core::ids::MethodId;
use hamband_core::object::{KeySkew, ObjectSpec, SpecSampler, WorkloadSupport};
use hamband_core::wire::Wire;
use hamband_runtime::{HambandNode, LatencyHistogram, Layout, Transport};
use rdma_sim::{
    App, Ctx, Event, LatencyModel, NodeId, Phase, RegionId, RingKind, SimDuration, SimTime,
    TimerId, TraceEvent, TraceSink, WrId,
};

use crate::spans::{enter, Layer};

/// `HambandNode` arms its poll timer (buffer traversal plus the client
/// pump) with tag 0; its other timers are heartbeat, failure-detector
/// and retry timers.
const TAG_POLL: u64 = 0;

/// What a registered region holds, by [`Layout`] role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionClass {
    /// The heartbeat counter.
    Heartbeat,
    /// Summary slots of reducible calls.
    Summaries,
    /// Conflict-free `F` rings.
    FreeRings,
    /// Ring-head counters.
    Heads,
    /// Reliable-broadcast backup slots.
    Backup,
    /// Conflicting `L` rings and their commit cells.
    ConfRings,
}

impl RegionClass {
    /// Every class, in report order.
    pub const ALL: [RegionClass; 6] = [
        RegionClass::Summaries,
        RegionClass::FreeRings,
        RegionClass::ConfRings,
        RegionClass::Heads,
        RegionClass::Backup,
        RegionClass::Heartbeat,
    ];

    /// Metric-name fragment.
    pub fn label(self) -> &'static str {
        match self {
            RegionClass::Heartbeat => "heartbeat",
            RegionClass::Summaries => "summaries",
            RegionClass::FreeRings => "free_rings",
            RegionClass::Heads => "heads",
            RegionClass::Backup => "backup",
            RegionClass::ConfRings => "conf_rings",
        }
    }

    fn index(self) -> usize {
        self as usize
    }

    /// The class of every region of `layout`, indexed by region id.
    ///
    /// # Panics
    ///
    /// Panics if the layout has a persist log: every workload runs with
    /// durability off.
    pub fn map(layout: &Layout) -> Vec<RegionClass> {
        assert!(
            layout.persist_log.is_none(),
            "the benchmark runs with durability off"
        );
        let mut named = vec![
            (layout.heartbeat, RegionClass::Heartbeat),
            (layout.summaries, RegionClass::Summaries),
            (layout.free_rings, RegionClass::FreeRings),
            (layout.heads, RegionClass::Heads),
            (layout.backup, RegionClass::Backup),
        ];
        named.extend(layout.conf.iter().map(|&r| (r, RegionClass::ConfRings)));
        let mut map = vec![RegionClass::Heartbeat; named.len()];
        for (r, class) in named {
            map[r.index()] = class;
        }
        map
    }
}

/// Fabric traffic through one region class.
#[derive(Debug, Clone, Copy, Default)]
pub struct RegionCounts {
    /// One-sided WRITEs posted into the class.
    pub remote_writes: u64,
    /// Their payload bytes.
    pub remote_write_bytes: u64,
    /// One-sided READs posted against the class.
    pub reads: u64,
    /// Bytes those READs fetch.
    pub read_bytes: u64,
    /// Compare-and-swaps posted against the class (8 bytes each).
    pub cas: u64,
    /// Local reads of the node's own copy.
    pub local_reads: u64,
    /// Local writes into the node's own copy.
    pub local_writes: u64,
    /// Their bytes.
    pub local_write_bytes: u64,
    /// Durability fences.
    pub fences: u64,
}

impl RegionCounts {
    /// Bytes the class moves: one-sided verb bytes plus local stores.
    /// Local reads are counted, not sized: every poll re-reads slot
    /// headers, which would swamp the traffic figures.
    pub fn bytes(&self) -> u64 {
        self.remote_write_bytes + self.read_bytes + 8 * self.cas + self.local_write_bytes
    }

    fn add(&mut self, o: &RegionCounts) {
        self.remote_writes += o.remote_writes;
        self.remote_write_bytes += o.remote_write_bytes;
        self.reads += o.reads;
        self.read_bytes += o.read_bytes;
        self.cas += o.cas;
        self.local_reads += o.local_reads;
        self.local_writes += o.local_writes;
        self.local_write_bytes += o.local_write_bytes;
        self.fences += o.fences;
    }
}

/// Transport calls of one node (or, summed, of a cluster), by region
/// class.
#[derive(Debug, Clone, Default)]
pub struct TransportCounts {
    /// Per region class, indexed like [`RegionClass::ALL`]'s
    /// discriminants.
    regions: [RegionCounts; RegionClass::ALL.len()],
}

impl TransportCounts {
    /// Traffic through one region class.
    pub fn region(&self, class: RegionClass) -> &RegionCounts {
        &self.regions[class.index()]
    }

    /// Traffic summed over every region class.
    pub fn total(&self) -> RegionCounts {
        let mut t = RegionCounts::default();
        for r in &self.regions {
            t.add(r);
        }
        t
    }

    /// Fold another node's counts into these.
    pub fn add(&mut self, o: &TransportCounts) {
        for (a, b) in self.regions.iter_mut().zip(o.regions.iter()) {
            a.add(b);
        }
    }
}

/// A [`Transport`] that times each call as a [`Layer::Transport`]
/// span and counts it by region class before passing it on.
pub(crate) struct TracedTransport<'a, T: Transport> {
    inner: &'a mut T,
    classes: &'a [RegionClass],
    counts: &'a mut TransportCounts,
}

impl<'a, T: Transport> TracedTransport<'a, T> {
    fn region(&mut self, region: RegionId) -> &mut RegionCounts {
        &mut self.counts.regions[self.classes[region.index()].index()]
    }
}

impl<T: Transport> Transport for TracedTransport<'_, T> {
    fn node(&self) -> NodeId {
        self.inner.node()
    }
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn cluster_size(&self) -> usize {
        self.inner.cluster_size()
    }
    fn consume(&mut self, cost: SimDuration) {
        let _s = enter(Layer::Transport);
        self.inner.consume(cost)
    }
    fn latency(&self) -> &LatencyModel {
        self.inner.latency()
    }
    fn emit(&mut self, make: impl FnOnce() -> TraceEvent) {
        self.inner.emit(make)
    }
    fn note_ring_write(&mut self, slots: u64) {
        let _s = enter(Layer::Transport);
        self.inner.note_ring_write(slots)
    }
    fn post_write(&mut self, target: NodeId, region: RegionId, offset: usize, data: &[u8]) -> WrId {
        let _s = enter(Layer::Transport);
        let c = self.region(region);
        c.remote_writes += 1;
        c.remote_write_bytes += data.len() as u64;
        self.inner.post_write(target, region, offset, data)
    }
    fn post_read(&mut self, target: NodeId, region: RegionId, offset: usize, len: usize) -> WrId {
        let _s = enter(Layer::Transport);
        let c = self.region(region);
        c.reads += 1;
        c.read_bytes += len as u64;
        self.inner.post_read(target, region, offset, len)
    }
    fn post_cas(
        &mut self,
        target: NodeId,
        region: RegionId,
        offset: usize,
        expected: u64,
        swap: u64,
    ) -> WrId {
        let _s = enter(Layer::Transport);
        self.region(region).cas += 1;
        self.inner.post_cas(target, region, offset, expected, swap)
    }
    fn send(&mut self, target: NodeId, payload: Bytes) {
        let _s = enter(Layer::Transport);
        self.inner.send(target, payload)
    }
    fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        let _s = enter(Layer::Transport);
        self.inner.set_timer(delay, tag)
    }
    fn set_timer_isolated(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        let _s = enter(Layer::Transport);
        self.inner.set_timer_isolated(delay, tag)
    }
    fn local(&mut self, region: RegionId, offset: usize, len: usize) -> &[u8] {
        let _s = enter(Layer::Transport);
        self.region(region).local_reads += 1;
        self.inner.local(region, offset, len)
    }
    fn local_write(&mut self, region: RegionId, offset: usize, data: &[u8]) {
        let _s = enter(Layer::Transport);
        let c = self.region(region);
        c.local_writes += 1;
        c.local_write_bytes += data.len() as u64;
        self.inner.local_write(region, offset, data)
    }
    fn set_write_permission(&mut self, region: RegionId, source: NodeId, allowed: bool) {
        let _s = enter(Layer::Transport);
        self.inner.set_write_permission(region, source, allowed)
    }
    fn fence_region(&mut self, region: RegionId) {
        let _s = enter(Layer::Transport);
        self.region(region).fences += 1;
        self.inner.fence_region(region)
    }
}

/// An [`App`] around a [`HambandNode`] that times `start` and each
/// `handle_event` as a span of the event's layer and drives the node
/// through a [`TracedTransport`].
pub(crate) struct TracedNode<O: ObjectSpec> {
    /// The wrapped replica.
    pub node: HambandNode<O>,
    classes: Vec<RegionClass>,
    /// This node's transport calls.
    pub counts: TransportCounts,
    /// Poll events handled.
    pub polls: u64,
    /// Poll events after which the node's acknowledged or applied count
    /// moved.
    pub useful_polls: u64,
}

impl<O> TracedNode<O>
where
    O: WorkloadSupport,
    O::Update: Wire,
{
    /// Wrap `node`, whose regions follow `layout`.
    pub fn new(node: HambandNode<O>, layout: &Layout) -> Self {
        TracedNode {
            node,
            classes: RegionClass::map(layout),
            counts: TransportCounts::default(),
            polls: 0,
            useful_polls: 0,
        }
    }

    fn progress(&self) -> u64 {
        let m = &self.node.metrics;
        m.updates_acked + m.queries + self.node.applied_updates()
    }
}

impl<O> App for TracedNode<O>
where
    O: WorkloadSupport,
    O::Update: Wire,
{
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let _s = enter(Layer::Control);
        let mut t = TracedTransport {
            inner: ctx,
            classes: &self.classes,
            counts: &mut self.counts,
        };
        self.node.start(&mut t);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        let layer = match &event {
            Event::Timer { tag: TAG_POLL, .. } => Layer::Pump,
            Event::Timer { .. } => Layer::Timers,
            Event::Completion { .. } => Layer::Completion,
            Event::Message { .. } | Event::Fault { .. } => Layer::Control,
        };
        let before = (layer == Layer::Pump).then(|| {
            let _h = enter(Layer::Harness);
            self.progress()
        });
        {
            let _s = enter(layer);
            let mut t = TracedTransport {
                inner: ctx,
                classes: &self.classes,
                counts: &mut self.counts,
            };
            self.node.handle_event(&mut t, event);
        }
        if let Some(before) = before {
            let _h = enter(Layer::Harness);
            self.polls += 1;
            if self.progress() != before {
                self.useful_polls += 1;
            }
        }
    }
}

/// An [`ObjectSpec`] that times the wrapped type's calls as
/// [`Layer::TypesApply`], [`Layer::TypesSummarize`],
/// [`Layer::TypesInvariant`] and [`Layer::TypesOther`] spans and counts
/// the fresh states `apply` returns.
#[derive(Debug, Clone)]
pub(crate) struct TracedSpec<O> {
    inner: O,
    state_copies: Rc<Cell<u64>>,
}

impl<O> TracedSpec<O> {
    /// Wrap `inner`; clones share one copy counter.
    pub fn new(inner: O) -> Self {
        TracedSpec {
            inner,
            state_copies: Rc::new(Cell::new(0)),
        }
    }

    /// Calls to `apply` across every clone.
    pub fn state_copies(&self) -> u64 {
        self.state_copies.get()
    }
}

impl<O: ObjectSpec> ObjectSpec for TracedSpec<O> {
    type State = O::State;
    type Update = O::Update;
    type Query = O::Query;
    type Reply = O::Reply;

    fn name(&self) -> &str {
        self.inner.name()
    }
    fn initial(&self) -> O::State {
        let _s = enter(Layer::TypesOther);
        self.inner.initial()
    }
    fn invariant(&self, state: &O::State) -> bool {
        let _s = enter(Layer::TypesInvariant);
        self.inner.invariant(state)
    }
    fn apply(&self, state: &O::State, call: &O::Update) -> O::State {
        let _s = enter(Layer::TypesApply);
        self.state_copies.set(self.state_copies.get() + 1);
        self.inner.apply(state, call)
    }
    fn query(&self, state: &O::State, query: &O::Query) -> O::Reply {
        let _s = enter(Layer::TypesOther);
        self.inner.query(state, query)
    }
    fn method_names(&self) -> Vec<&'static str> {
        self.inner.method_names()
    }
    fn method_of(&self, call: &O::Update) -> MethodId {
        self.inner.method_of(call)
    }
    fn summarize(&self, first: &O::Update, second: &O::Update) -> Option<O::Update> {
        let _s = enter(Layer::TypesSummarize);
        self.inner.summarize(first, second)
    }
    fn apply_mut(&self, state: &mut O::State, call: &O::Update) {
        let _s = enter(Layer::TypesApply);
        self.inner.apply_mut(state, call)
    }
    fn summaries_monotone(&self) -> bool {
        self.inner.summaries_monotone()
    }
    fn method_count(&self) -> usize {
        self.inner.method_count()
    }
    fn shard_key(&self, call: &O::Update) -> Option<u64> {
        self.inner.shard_key(call)
    }
    fn permissible(&self, state: &O::State, call: &O::Update) -> bool {
        let _s = enter(Layer::TypesInvariant);
        self.inner.permissible(state, call)
    }
}

impl<O: SpecSampler> SpecSampler for TracedSpec<O> {
    fn sample_state(&self, rng: &mut rand::rngs::StdRng) -> O::State {
        let _s = enter(Layer::TypesOther);
        self.inner.sample_state(rng)
    }
    fn sample_update_of(&self, method: MethodId, rng: &mut rand::rngs::StdRng) -> O::Update {
        let _s = enter(Layer::TypesOther);
        self.inner.sample_update_of(method, rng)
    }
    fn sample_update(&self, rng: &mut rand::rngs::StdRng) -> O::Update {
        let _s = enter(Layer::TypesOther);
        self.inner.sample_update(rng)
    }
}

impl<O: WorkloadSupport> WorkloadSupport for TracedSpec<O> {
    fn sample_query(&self, rng: &mut rand::rngs::StdRng) -> O::Query {
        let _s = enter(Layer::TypesOther);
        self.inner.sample_query(rng)
    }
    fn gen_update(
        &self,
        state: &O::State,
        node: usize,
        seq: u64,
        method: MethodId,
        rng: &mut rand::rngs::StdRng,
    ) -> Option<O::Update> {
        let _s = enter(Layer::TypesOther);
        self.inner.gen_update(state, node, seq, method, rng)
    }
    fn gen_update_skewed(
        &self,
        state: &O::State,
        node: usize,
        seq: u64,
        method: MethodId,
        rng: &mut rand::rngs::StdRng,
        skew: KeySkew,
    ) -> Option<O::Update> {
        let _s = enter(Layer::TypesOther);
        self.inner
            .gen_update_skewed(state, node, seq, method, rng, skew)
    }
}

/// The virtual-time events of one traced run, reduced as they arrive.
#[derive(Debug, Default)]
pub struct SinkData {
    /// Every event the sink saw.
    pub events: u64,
    /// `Ack` events per [`Phase::index`].
    pub acks: [u64; 4],
    /// `SummaryWrite` events.
    pub summary_writes: u64,
    /// `CommitAdvance` events.
    pub commit_advances: u64,
    /// Append-to-apply lag of ring entries, nanoseconds.
    pub ring_apply_lag: LatencyHistogram,
    /// `(time, suspecting node, suspect)` per `FdSuspect`.
    pub fd_suspects: Vec<(SimTime, NodeId, NodeId)>,
    /// `(time, group, new leader)` per `LeaderChange`.
    pub leader_changes: Vec<(SimTime, usize, NodeId)>,
    /// `(time, acknowledging node)` per acknowledged conflicting call.
    pub conf_acks: Vec<(SimTime, NodeId)>,
    ring_appends: HashMap<(RingKind, NodeId, NodeId, u64), SimTime>,
}

/// A [`TraceSink`] that keeps only what the per-layer metrics use, so a
/// long run's verb-level events never accumulate in memory.
pub(crate) struct LayerSink {
    data: Rc<RefCell<SinkData>>,
}

impl LayerSink {
    /// A sink plus the handle its reductions land in.
    pub fn new() -> (LayerSink, Rc<RefCell<SinkData>>) {
        let data = Rc::new(RefCell::new(SinkData::default()));
        (
            LayerSink {
                data: Rc::clone(&data),
            },
            data,
        )
    }
}

impl TraceSink for LayerSink {
    fn record(&mut self, now: SimTime, event: &TraceEvent) {
        let _s = enter(Layer::Trace);
        let mut d = self.data.borrow_mut();
        d.events += 1;
        match *event {
            TraceEvent::Ack { node, phase, .. } => {
                d.acks[phase.index()] += 1;
                if phase == Phase::Conf {
                    d.conf_acks.push((now, node));
                }
            }
            TraceEvent::SummaryWrite { .. } => d.summary_writes += 1,
            TraceEvent::CommitAdvance { .. } => d.commit_advances += 1,
            TraceEvent::RingAppend {
                ring,
                writer,
                reader,
                seq,
            } => {
                // A retried append keeps its first post time.
                d.ring_appends
                    .entry((ring, writer, reader, seq))
                    .or_insert(now);
            }
            TraceEvent::RingApply {
                ring,
                reader,
                writer,
                seq,
            } => {
                if let Some(at) = d.ring_appends.remove(&(ring, writer, reader, seq)) {
                    d.ring_apply_lag.record(now.since(at).as_nanos());
                }
            }
            TraceEvent::FdSuspect { node, suspect } => d.fd_suspects.push((now, node, suspect)),
            TraceEvent::LeaderChange { group, leader, .. } => {
                d.leader_changes.push((now, group, leader))
            }
            _ => {}
        }
    }
}
