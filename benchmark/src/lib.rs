//! The repository benchmark for the Hamband reproduction.
//!
//! Four workloads (`bank`, `gset`, `counter`, `bank-failover`) run
//! closed loop on the `rdma-sim` backend, and `counter` also on the
//! `threaded` backend. An untraced invocation reports the end-to-end
//! metrics; a traced one attributes each workload's wall time to the
//! runtime's layers by timing calls into their public functions. See
//! `README.md` beside this package for the workloads, the metrics and
//! what each layer metric is expected to move.

pub mod cluster;
pub mod measure;
pub mod metrics;
pub mod provenance;
pub mod run;
pub mod spans;
pub mod traced;
pub mod workloads;
