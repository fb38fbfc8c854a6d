//! The four workloads. Each fixes its object, cluster size, client mix,
//! runtime sizing and op budget; only the seed comes from the command
//! line. The op budget is part of the definition because several
//! metrics grow with run length (see `README.md`).

use hamband_core::object::KeySkew;
use hamband_runtime::{RunConfig, RuntimeConfig, WorkloadSpec};
use rdma_sim::{Fault, FaultPlan, NodeId, SimTime};

/// The object a workload replicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Object {
    /// `Bank::new(256, 50)`: `open` is REDUCE, `deposit` FREE,
    /// `withdraw` CONF.
    Bank,
    /// `GSet::default()` with its reducible coordination: set-valued
    /// summaries that grow with the run.
    GSet,
    /// `Counter::default()`: constant-size summaries.
    Counter,
}

/// How the runtime is sized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sizing {
    /// `RunConfig::new`: the summary cap scales with the op budget.
    ScaledToOps,
    /// `RuntimeConfig::default()`, the sizing the `load` bench uses.
    Default,
}

/// One workload's definition.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Command-line name.
    pub name: &'static str,
    /// The replicated object.
    pub object: Object,
    /// Cluster size.
    pub nodes: usize,
    /// Calls per simulator run (the op budget).
    pub ops: u64,
    /// Fraction of calls that are updates.
    pub update_ratio: f64,
    /// Client sessions per node.
    pub sessions: usize,
    /// Key popularity.
    pub skew: KeySkew,
    /// Runtime sizing.
    pub sizing: Sizing,
    /// Virtual time at which node 0's heartbeat is suspended, if any.
    pub suspend_at: Option<SimTime>,
    /// Calls per threaded-backend run (on two replica threads), if the
    /// workload also runs there.
    pub threaded_ops: Option<u64>,
}

/// Every workload name, in report order.
pub const NAMES: [&str; 4] = ["bank", "gset", "counter", "bank-failover"];

/// The workload called `name`.
pub fn workload(name: &str) -> Option<Workload> {
    let bank = Workload {
        name: "bank",
        object: Object::Bank,
        nodes: 4,
        ops: 40_000,
        update_ratio: 0.5,
        sessions: 1,
        skew: KeySkew::Zipfian { theta: 0.9 },
        sizing: Sizing::ScaledToOps,
        suspend_at: None,
        threaded_ops: None,
    };
    Some(match name {
        "bank" => bank,
        "gset" => Workload {
            name: "gset",
            object: Object::GSet,
            update_ratio: 0.25,
            skew: KeySkew::Uniform,
            ..bank
        },
        "counter" => Workload {
            name: "counter",
            object: Object::Counter,
            nodes: 2,
            ops: 1_000_000,
            sessions: 32,
            skew: KeySkew::Uniform,
            sizing: Sizing::Default,
            threaded_ops: Some(2_000_000),
            ..bank
        },
        "bank-failover" => Workload {
            name: "bank-failover",
            suspend_at: Some(SimTime(2_000_000)),
            ..bank
        },
        _ => return None,
    })
}

impl Workload {
    /// The client load for `seed`, with `ops` calls.
    pub fn spec(&self, seed: u64, ops: u64) -> WorkloadSpec {
        WorkloadSpec::ops(ops)
            .with_update_ratio(self.update_ratio)
            .with_sessions(self.sessions)
            .with_skew(self.skew)
            .with_seed(seed)
    }

    /// The simulator run for `seed`: workload seed `seed`, fabric seed
    /// derived from it.
    pub fn run_config(&self, seed: u64) -> RunConfig {
        let mut rc = RunConfig::new(self.nodes, self.spec(seed, self.ops)).with_seed(seed ^ 0xfab);
        if self.sizing == Sizing::Default {
            rc = rc.with_runtime(RuntimeConfig::default());
        }
        if let Some(at) = self.suspend_at {
            rc = rc.with_faults(FaultPlan::new().at(at, Fault::SuspendHeartbeat(NodeId(0))));
        }
        rc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves() {
        for name in NAMES {
            assert_eq!(workload(name).expect("defined").name, name);
        }
        assert!(workload("nope").is_none());
    }

    #[test]
    fn runs_have_enough_updates_for_p999() {
        for name in NAMES {
            let w = workload(name).expect("defined");
            assert!(w.ops as f64 * w.update_ratio >= 10_000.0, "{name}");
        }
    }
}
