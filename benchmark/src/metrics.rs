//! From finished repetitions to named metrics.

use hamband_core::coord::CoordSpec;
use hamband_runtime::{LatencyHistogram, NodeMetrics, QuotaSplit, SessionStats, WorkloadSpec};
use rdma_sim::{NodeId, Phase, SimTime};

use crate::measure::{SimRep, ThreadedRep, TracedRep};
use crate::spans::Layer;
use crate::traced::RegionClass;

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric called `name`.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The median of `v` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `v` is empty.
pub(crate) fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(|a, b| a.total_cmp(b));
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The `q`-quantile of `h` in nanoseconds, interpolated linearly inside
/// the log-scale bucket that holds it. The histogram's own quantile is
/// the bucket's floor, which moves in 12.5 % steps.
pub(crate) fn quantile_ns(h: &LatencyHistogram, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    // The histogram ranks samples 1..=n; this asks for rank k exactly.
    let at = |k: u64| h.quantile_ns((k as f64 - 0.5) / n as f64);
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    let floor = at(rank);
    if floor < 16 {
        return floor as f64; // exact buckets
    }
    // The bucket's rank range [lo, hi], by binary search on both sides.
    let (mut a, mut b) = (1, rank);
    while a < b {
        let mid = (a + b) / 2;
        if at(mid) < floor {
            a = mid + 1;
        } else {
            b = mid;
        }
    }
    let lo = a;
    let (mut a, mut b) = (rank, n);
    while a < b {
        let mid = (a + b).div_ceil(2);
        if at(mid) > floor {
            b = mid - 1;
        } else {
            a = mid;
        }
    }
    let hi = a;
    let width = 1u64 << (63 - floor.leading_zeros() - 3);
    let top = (floor + width).min(h.max_ns() + 1);
    let pos = (rank - lo) as f64 + 0.5;
    floor as f64 + (top - floor) as f64 * pos / (hi - lo + 1) as f64
}

/// Response times of acknowledged updates (queries excluded), merged
/// over every node.
fn update_histogram(nodes: &[NodeMetrics]) -> LatencyHistogram {
    let mut h = LatencyHistogram::default();
    for m in nodes {
        for p in [Phase::Reduce, Phase::Free, Phase::Conf] {
            h.merge(&m.rt_per_phase[p.index()]);
        }
    }
    h
}

fn phase_histogram(nodes: &[NodeMetrics], phase: Phase) -> LatencyHistogram {
    let mut h = LatencyHistogram::default();
    for m in nodes {
        h.merge(&m.rt_per_phase[phase.index()]);
    }
    h
}

/// The virtual-time results of a simulator run: these repeat exactly
/// for a given seed, traced or not.
#[derive(Debug, Clone, PartialEq)]
pub struct Vt {
    /// Virtual time at which every update was applied everywhere.
    pub completed_at: SimTime,
    /// Whether the run converged.
    pub converged: bool,
    /// Acknowledged updates plus executed queries.
    pub total_calls: u64,
    /// Acknowledged updates.
    pub total_updates: u64,
    /// One-sided WRITEs posted.
    pub writes: u64,
    /// One-sided verb bytes.
    pub one_sided_bytes: u64,
    /// Two-sided message bytes.
    pub message_bytes: u64,
    /// Acknowledged calls per [`Phase::index`].
    pub phase_counts: [u64; 4],
    /// Mean update response time, nanoseconds (exact: the histograms
    /// keep exact sums).
    pub update_mean_ns: f64,
    /// Update response time p50, nanoseconds.
    pub update_p50_ns: f64,
    /// Update response time p99.9, nanoseconds.
    pub update_p999_ns: f64,
    /// Update response time at the highest quantile with at least ten
    /// samples beyond it, `1 - 10 / n` for `n` updates, nanoseconds.
    pub update_tail_ns: f64,
}

impl Vt {
    /// The virtual-time results of `rep`.
    pub fn of(rep: &SimRep) -> Vt {
        let m = &rep.end.node_metrics;
        let updates = update_histogram(m);
        let mut phase_counts = [0; 4];
        for p in Phase::ALL {
            phase_counts[p.index()] = m.iter().map(|n| n.rt_per_phase[p.index()].count()).sum();
        }
        Vt {
            completed_at: rep.driven.completed_at,
            converged: rep.driven.converged,
            total_calls: m.iter().map(|n| n.updates_acked + n.queries).sum(),
            total_updates: m.iter().map(|n| n.updates_acked).sum(),
            writes: rep.end.stats.writes,
            one_sided_bytes: rep.end.stats.one_sided_bytes,
            message_bytes: rep.end.stats.message_bytes,
            phase_counts,
            update_mean_ns: ratio(updates.sum_ns() as f64, updates.count() as f64),
            update_p50_ns: quantile_ns(&updates, 0.5),
            update_p999_ns: quantile_ns(&updates, 0.999),
            update_tail_ns: quantile_ns(&updates, 1.0 - ratio(10.0, updates.count() as f64)),
        }
    }

    /// Calls per microsecond of virtual time (the §5 throughput).
    pub fn tput_ops_per_us(&self) -> f64 {
        ratio(self.total_calls as f64, self.completed_at.as_micros())
    }

    /// Fabric bytes (one-sided plus two-sided) per completed call.
    pub fn bytes_per_op(&self) -> f64 {
        ratio(
            (self.one_sided_bytes + self.message_bytes) as f64,
            self.total_calls as f64,
        )
    }
}

/// Planned calls against calls that failed to complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Tally {
    /// Calls the per-node quota plans issue, plus the global
    /// conflicting quotas.
    pub attempted: u64,
    /// Planned calls refused or never acknowledged.
    pub failed: u64,
}

/// Count failures per node against the `QuotaSplit::for_node` plan.
///
/// A stopped node's unfinished quota is adopted by a survivor, so a
/// stopped node's shortfall counts as failed only where no survivor's
/// excess covers it; a survivor's own shortfall always counts, and
/// excess never offsets it. Conflicting quotas are global and are
/// checked against the conflicting calls acknowledged anywhere.
/// Refused (impermissible) calls count as failed too. A run that did
/// not converge fails every planned call.
pub(crate) fn tally(
    workload: &WorkloadSpec,
    coord: &CoordSpec,
    nodes: &[NodeMetrics],
    stopped: &[bool],
    converged: bool,
) -> Tally {
    let n = nodes.len();
    let mut attempted = 0u64;
    let mut conf_target = 0u64;
    let (mut short_alive, mut short_stopped, mut excess) = (0u64, 0u64, 0u64);
    let mut conf_acked = 0u64;
    let mut refused = 0u64;
    for (i, m) in nodes.iter().enumerate() {
        let plan = QuotaSplit::for_node(workload, coord, i, n);
        let planned = plan.queries + plan.free.iter().sum::<u64>();
        attempted += planned;
        if i == 0 {
            conf_target = plan.conf_target.iter().sum();
        }
        let conf = m.rt_per_phase[Phase::Conf.index()].count();
        conf_acked += conf;
        refused += m.rejected;
        let done = m.updates_acked + m.queries - conf;
        if stopped[i] {
            short_stopped += planned.saturating_sub(done);
        } else {
            short_alive += planned.saturating_sub(done);
            excess += done.saturating_sub(planned);
        }
    }
    attempted += conf_target;
    let failed = if converged {
        short_alive
            + short_stopped.saturating_sub(excess)
            + conf_target.saturating_sub(conf_acked)
            + refused
    } else {
        attempted
    };
    Tally {
        attempted,
        failed: failed.min(attempted),
    }
}

/// Jain's index over the sessions' completed calls, and the p99 across
/// sessions of their mean update response time (µs).
fn fairness(sessions: &[SessionStats]) -> (f64, f64) {
    let done: Vec<f64> = sessions.iter().map(|s| s.completed() as f64).collect();
    let sum: f64 = done.iter().sum();
    let sum_sq: f64 = done.iter().map(|c| c * c).sum();
    let jain = ratio(sum * sum, done.len() as f64 * sum_sq);
    let mut rts: Vec<f64> = sessions
        .iter()
        .filter(|s| s.acked > 0)
        .map(|s| s.mean_rt_us())
        .collect();
    rts.sort_by(|a, b| a.total_cmp(b));
    let p99 = if rts.is_empty() {
        0.0
    } else {
        rts[((0.99 * rts.len() as f64).ceil() as usize).clamp(1, rts.len()) - 1]
    };
    (jain, p99)
}

/// The §5 failover split, in virtual nanoseconds. The three stages add
/// up to the gap exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Failover {
    /// Suspension to the first suspicion of node 0.
    pub detect_ns: u64,
    /// That suspicion to the first leader change of a group node 0
    /// led.
    pub elect_ns: u64,
    /// That leader change to the first conflicting call the new leader
    /// acknowledged.
    pub resume_ns: u64,
    /// Suspension to that acknowledgement.
    pub gap_ns: u64,
}

/// The failover split of a run whose node 0 was suspended at
/// `suspended_at`, or `None` if conflicting service never resumed.
pub fn failover(t: &TracedRep, suspended_at: SimTime) -> Option<Failover> {
    let s = &t.sink;
    let suspect = s
        .fd_suspects
        .iter()
        .filter(|&&(at, _, peer)| peer == NodeId(0) && at >= suspended_at)
        .map(|&(at, _, _)| at)
        .min()?;
    let &(elected, _, leader) = s
        .leader_changes
        .iter()
        .filter(|&&(at, _, leader)| at >= suspect && leader != NodeId(0))
        .min_by_key(|&&(at, _, _)| at)?;
    let resumed = s
        .conf_acks
        .iter()
        .filter(|&&(at, node)| at >= elected && node == leader)
        .map(|&(at, _)| at)
        .min()?;
    Some(Failover {
        detect_ns: suspect.since(suspended_at).as_nanos(),
        elect_ns: elected.since(suspect).as_nanos(),
        resume_ns: resumed.since(elected).as_nanos(),
        gap_ns: resumed.since(suspended_at).as_nanos(),
    })
}

/// Suspicions of a node that was never suspended (or raised before its
/// suspension).
pub(crate) fn false_suspicions(t: &TracedRep, suspended_at: Option<SimTime>) -> u64 {
    t.sink
        .fd_suspects
        .iter()
        .filter(|&&(at, _, peer)| match suspended_at {
            Some(s) => peer != NodeId(0) || at < s,
            None => true,
        })
        .count() as u64
}

/// The per-layer metrics of a traced repetition, with the untraced
/// repetitions of the same run (wall-clock throughput and tracing
/// overhead) and the threaded repetitions (empty for simulator-only
/// workloads).
pub(crate) fn per_layer(
    traced: &TracedRep,
    untraced: &[SimRep],
    suspended_at: Option<SimTime>,
    threaded: &[ThreadedRep],
) -> Vec<Metric> {
    let vt = Vt::of(&traced.rep);
    let ops = vt.total_calls as f64;
    let per_op = |x: f64| ratio(x, ops);
    let t = &traced.times;
    let ns = |l: Layer| per_op(t.self_ns(l) as f64);
    let m = &traced.rep.end.node_metrics;
    let stats = &traced.rep.end.stats;
    let sink = &traced.sink;
    let total = traced.counts.total();
    let summaries = traced.counts.region(RegionClass::Summaries);
    let p50_us = |p: Phase| quantile_ns(&phase_histogram(m, p), 0.5) / 1e3;
    let handled = [
        Layer::Pump,
        Layer::Completion,
        Layer::Timers,
        Layer::Control,
    ]
    .iter()
    .map(|&l| t.calls(l))
    .sum::<u64>();
    let (jain, session_p99) = fairness(&traced.rep.end.sessions);
    let split = suspended_at.and_then(|at| failover(traced, at));
    let us = |x: Option<u64>| x.map_or(0.0, |v| v as f64 / 1e3);
    let untraced_wall_ns = median(
        untraced
            .iter()
            .map(|r| r.driven.wall.as_nanos() as f64)
            .collect(),
    );

    let mut out = vec![
        Metric::new("sim_ops_per_s", ratio(ops, untraced_wall_ns / 1e9), "1/s"),
        Metric::new("vt_update_p50_us", vt.update_p50_ns / 1e3, "us"),
        Metric::new("vt_update_p999_us", vt.update_p999_ns / 1e3, "us"),
        Metric::new("sim.self_ns_per_op", ns(Layer::Sim), "ns/op"),
        Metric::new("sim.events_per_op", per_op(handled as f64), "1/op"),
        Metric::new("harness.ns_per_op", ns(Layer::Harness), "ns/op"),
        Metric::new("control.ns_per_op", ns(Layer::Control), "ns/op"),
        Metric::new("trace.sink_ns_per_op", ns(Layer::Trace), "ns/op"),
        Metric::new("transport.ns_per_op", ns(Layer::Transport), "ns/op"),
        Metric::new(
            "transport.remote_writes_per_op",
            per_op(total.remote_writes as f64),
            "1/op",
        ),
        Metric::new("transport.reads_per_op", per_op(total.reads as f64), "1/op"),
        Metric::new(
            "transport.local_reads_per_op",
            per_op(total.local_reads as f64),
            "1/op",
        ),
        Metric::new(
            "transport.fences_per_op",
            per_op(total.fences as f64),
            "1/op",
        ),
    ];
    for class in RegionClass::ALL {
        let b = traced.counts.region(class).bytes();
        out.push(Metric::new(
            &format!("bytes.{}_per_op", class.label()),
            per_op(b as f64),
            "B/op",
        ));
    }
    out.extend([
        Metric::new("pump.ns_per_op", ns(Layer::Pump), "ns/op"),
        Metric::new("pump.polls_per_op", per_op(traced.polls as f64), "1/op"),
        Metric::new(
            "pump.useful_poll_frac",
            ratio(traced.useful_polls as f64, traced.polls as f64),
            "frac",
        ),
        Metric::new("completion.ns_per_op", ns(Layer::Completion), "ns/op"),
        Metric::new("timers.ns_per_op", ns(Layer::Timers), "ns/op"),
        Metric::new("types.apply_ns_per_op", ns(Layer::TypesApply), "ns/op"),
        Metric::new(
            "types.state_copies_per_op",
            per_op(traced.state_copies as f64),
            "1/op",
        ),
        Metric::new(
            "types.summarize_ns_per_op",
            ns(Layer::TypesSummarize),
            "ns/op",
        ),
        Metric::new(
            "types.invariant_ns_per_op",
            ns(Layer::TypesInvariant),
            "ns/op",
        ),
        Metric::new("types.other_ns_per_op", ns(Layer::TypesOther), "ns/op"),
        Metric::new(
            "reduce.summary_writes_per_ack",
            ratio(
                sink.summary_writes as f64,
                sink.acks[Phase::Reduce.index()] as f64,
            ),
            "1/ack",
        ),
        Metric::new(
            "reduce.summary_bytes_per_write",
            ratio(
                summaries.remote_write_bytes as f64,
                summaries.remote_writes as f64,
            ),
            "B",
        ),
        Metric::new("reduce.ack_p50_us", p50_us(Phase::Reduce), "us"),
        Metric::new(
            "rings.slots_per_write",
            ratio(stats.ring_slots as f64, stats.ring_writes as f64),
            "1/write",
        ),
        Metric::new(
            "rings.apply_lag_p50_us",
            quantile_ns(&sink.ring_apply_lag, 0.5) / 1e3,
            "us",
        ),
        Metric::new("free.ack_p50_us", p50_us(Phase::Free), "us"),
        Metric::new("conf.ack_p50_us", p50_us(Phase::Conf), "us"),
        Metric::new(
            "conf.ack_p999_us",
            quantile_ns(&phase_histogram(m, Phase::Conf), 0.999) / 1e3,
            "us",
        ),
        Metric::new(
            "conf.acks_per_commit_advance",
            ratio(
                sink.acks[Phase::Conf.index()] as f64,
                sink.commit_advances as f64,
            ),
            "1/advance",
        ),
        Metric::new("ingress.jain_index", jain, "frac"),
        Metric::new("ingress.session_rt_p99_us", session_p99, "us"),
        Metric::new("vt_failover_gap_us", us(split.map(|s| s.gap_ns)), "us"),
        Metric::new("fd.detect_us", us(split.map(|s| s.detect_ns)), "us"),
        Metric::new("election.elect_us", us(split.map(|s| s.elect_ns)), "us"),
        Metric::new("recovery.resume_us", us(split.map(|s| s.resume_ns)), "us"),
        Metric::new(
            "election.leader_changes",
            sink.leader_changes.len() as f64,
            "count",
        ),
        Metric::new(
            "fd.false_suspicions",
            false_suspicions(traced, suspended_at) as f64,
            "count",
        ),
        Metric::new(
            "trace.overhead_frac",
            ratio(t.root_ns() as f64, untraced_wall_ns) - 1.0,
            "frac",
        ),
    ]);
    out.extend(threaded_metrics(threaded));
    out
}

/// The threaded backend's counters (all 0 when it did not run). Its
/// event loop is private, so these come from the merged verb counters
/// and the node metrics, not from spans.
fn threaded_metrics(reps: &[ThreadedRep]) -> Vec<Metric> {
    let calls = |r: &ThreadedRep| -> f64 {
        r.node_metrics
            .iter()
            .map(|n| n.updates_acked + n.queries)
            .sum::<u64>() as f64
    };
    let median_or_zero = |v: Vec<f64>| if v.is_empty() { 0.0 } else { median(v) };
    let tput = median_or_zero(
        reps.iter()
            .map(|r| calls(r) / r.wall.as_secs_f64())
            .collect(),
    );
    let p50_us = median_or_zero(
        reps.iter()
            .map(|r| quantile_ns(&update_histogram(&r.node_metrics), 0.5) / 1e3)
            .collect(),
    );
    let ops = reps.last().map_or(0.0, calls);
    let s = reps.last().map(|r| r.stats.clone()).unwrap_or_default();
    vec![
        Metric::new("thr_ops_per_s", tput, "1/s"),
        Metric::new("thr.writes_per_op", ratio(s.writes as f64, ops), "1/op"),
        Metric::new(
            "thr.bytes_per_op",
            ratio((s.one_sided_bytes + s.message_bytes) as f64, ops),
            "B/op",
        ),
        Metric::new("thr.reads_per_op", ratio(s.reads as f64, ops), "1/op"),
        Metric::new(
            "thr.slots_per_write",
            ratio(s.ring_slots as f64, s.ring_writes as f64),
            "1/write",
        ),
        Metric::new("thr.update_p50_us", p50_us, "us"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_quantile_stays_inside_its_bucket() {
        let mut h = LatencyHistogram::default();
        for v in 1_000..2_000u64 {
            h.record(v);
        }
        for q in [0.1, 0.5, 0.9, 0.999] {
            let floor = h.quantile_ns(q) as f64;
            let got = quantile_ns(&h, q);
            assert!(
                got >= floor && got <= floor * 1.125 + 1.0,
                "q={q}: {got} vs {floor}"
            );
        }
        // Uniform samples interpolate close to the true quantile.
        assert!((quantile_ns(&h, 0.5) - 1_500.0).abs() < 60.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn fairness_of_equal_sessions_is_one() {
        let s = SessionStats {
            issued: 5,
            acked: 5,
            aborted: 0,
            queries: 5,
            sum_rt_ns: 50,
            max_rt_ns: 10,
        };
        let (jain, _) = fairness(&[s, s]);
        assert!((jain - 1.0).abs() < 1e-12);
    }
}
