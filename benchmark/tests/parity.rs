//! The benchmark measures the same runs the harness does: its
//! separately-built clusters reproduce `Runner::run`'s report, tracing
//! changes no virtual-time result, a seed repeats exactly, and the
//! traced self times add up to the traced wall time.
//!
//! Workloads are scaled down here so the suite stays quick; run it with
//! `cargo test --release` for realistic speed.

use std::time::Duration;

use hamband_core::coord::CoordSpec;
use hamband_core::object::WorkloadSupport;
use hamband_core::wire::Wire;
use hamband_repo_bench::cluster::Watch;
use hamband_repo_bench::measure::{sim_rep, traced_rep};
use hamband_repo_bench::metrics::{failover, Metric, Vt};
use hamband_repo_bench::run::{run_workload, setup_seconds};
use hamband_repo_bench::spans::Layer;
use hamband_repo_bench::workloads::{workload, Object, Workload, NAMES};
use hamband_runtime::{Runner, System};
use hamband_types::{Bank, Counter, GSet};
use rdma_sim::SimTime;

/// `name` with a small op budget; the failover suspension moves early
/// enough that conflicting service resumes before the run ends.
fn small(name: &str) -> Workload {
    let w = workload(name).expect("defined workload");
    match w.object {
        Object::Counter => Workload {
            ops: 20_000,
            threaded_ops: Some(20_000),
            ..w
        },
        _ => Workload {
            ops: 8_000,
            suspend_at: w.suspend_at.map(|_| SimTime(300_000)),
            ..w
        },
    }
}

/// Run `check` with the workload's object and coordination spec.
fn with_object(w: &Workload, check: impl Fn(&dyn Fn() -> Checked)) {
    match w.object {
        Object::Bank => {
            let b = Bank::new(256, 50);
            check(&|| checked(&b, &b.coord_spec(), w))
        }
        Object::GSet => {
            let g = GSet::default();
            check(&|| checked(&g, &g.coord_spec(), w))
        }
        Object::Counter => {
            let c = Counter::default();
            check(&|| checked(&c, &c.coord_spec(), w))
        }
    }
}

/// What one seed of a workload gives through each path.
struct Checked {
    runner: hamband_runtime::RunReport,
    plain: Vt,
    again: Vt,
    traced: Vt,
    root_ns: u64,
    self_ns: u64,
    layer_sum_ns: u64,
    failover: Option<hamband_repo_bench::metrics::Failover>,
}

fn checked<O>(spec: &O, coord: &CoordSpec, w: &Workload) -> Checked
where
    O: WorkloadSupport + Clone + Send,
    O::Update: Wire + Send,
    O::State: Send,
{
    let run = w.run_config(7);
    let watch = Watch::new();
    let runner = Runner::new(System::Hamband, run.clone())
        .run(spec, coord)
        .report;
    let plain = sim_rep(spec, coord, &run, &watch, "plain");
    let again = sim_rep(spec, coord, &run, &watch, "again");
    let t = traced_rep(spec, coord, &run, &watch, "traced");
    let layer_sum_ns = Layer::ALL.iter().map(|&l| t.times.self_ns(l)).sum();
    Checked {
        runner,
        plain: Vt::of(&plain),
        again: Vt::of(&again),
        traced: Vt::of(&t.rep),
        root_ns: t.times.root_ns(),
        self_ns: t.times.total_ns(),
        layer_sum_ns,
        failover: w.suspend_at.and_then(|at| failover(&t, at)),
    }
}

#[test]
fn sim_runs_reproduce_the_runner_report() {
    for name in NAMES {
        let w = small(name);
        with_object(&w, |go| {
            let c = go();
            let (r, vt) = (&c.runner, &c.plain);
            assert!(r.converged && vt.converged, "{name}: converged");
            assert_eq!(vt.completed_at, r.completed_at, "{name}: completed_at");
            assert_eq!(vt.total_calls, r.total_calls, "{name}: total_calls");
            assert_eq!(vt.total_updates, r.total_updates, "{name}: total_updates");
            assert_eq!(vt.writes, r.writes_posted, "{name}: writes_posted");
            assert_eq!(vt.one_sided_bytes, r.bytes_written, "{name}: bytes_written");
            for p in rdma_sim::Phase::ALL {
                let want = r.phases.get(p.label()).map_or(0, |s| s.count);
                assert_eq!(
                    vt.phase_counts[p.index()],
                    want,
                    "{name}: {} count",
                    p.label()
                );
            }
        });
    }
}

#[test]
fn tracing_and_repetition_leave_virtual_time_unchanged() {
    for name in NAMES {
        let w = small(name);
        with_object(&w, |go| {
            let c = go();
            assert_eq!(c.again, c.plain, "{name}: a seed repeats exactly");
            assert_eq!(c.traced, c.plain, "{name}: tracing perturbs nothing");
        });
    }
}

#[test]
fn traced_self_times_add_up_to_the_traced_wall_time() {
    for name in ["bank", "counter"] {
        with_object(&small(name), |go| {
            let c = go();
            assert!(c.root_ns > 0, "{name}: the root span ran");
            assert_eq!(
                c.self_ns, c.root_ns,
                "{name}: self times sum to the root span"
            );
            assert_eq!(c.layer_sum_ns, c.root_ns, "{name}: every layer is reported");
        });
    }
}

#[test]
fn failover_stages_add_up_to_the_gap() {
    with_object(&small("bank-failover"), |go| {
        let f = go()
            .failover
            .expect("conflicting service resumed under a new leader");
        assert!(
            f.detect_ns > 0 && f.elect_ns > 0 && f.resume_ns > 0,
            "{f:?}"
        );
        assert_eq!(f.detect_ns + f.elect_ns + f.resume_ns, f.gap_ns);
    });
}

#[test]
fn every_workload_passes_its_checks_on_two_seeds() {
    let watch = Watch::new();
    for name in NAMES {
        let w = small(name);
        for seed in [1, 2] {
            for traced in [false, true] {
                let o = run_workload(&w, seed, Duration::ZERO, traced, &watch);
                assert!(
                    o.correct,
                    "{name} seed {seed} traced {traced}: {:?}",
                    o.problems
                );
                assert!(o.attempted > 0 && o.failed == 0, "{name}: {o:?}");
                assert!(o.metrics.iter().all(|m| m.value.is_finite()));
            }
        }
    }
}

/// The unit `BENCHMARK.json` gives the metric called `name`, if it
/// lists one.
fn defined_unit<'a>(def: &'a str, name: &str) -> Option<&'a str> {
    let at = def.find(&format!("\"name\": \"{name}\""))?;
    let rest = &def[at..];
    let unit = &rest[rest.find("\"unit\": \"")? + 9..];
    Some(&unit[..unit.find('"')?])
}

#[test]
fn reported_metrics_are_the_defined_ones() {
    let def = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let watch = Watch::new();
    let mut reported = 0;
    for traced in [false, true] {
        let mut o = run_workload(&small("bank"), 3, Duration::ZERO, traced, &watch);
        if !traced {
            o.metrics.push(Metric::new(
                "setup_s",
                setup_seconds(&small("bank"), 3),
                "s",
            ));
        }
        for m in &o.metrics {
            assert_eq!(defined_unit(&def, &m.name), Some(m.unit), "{}", m.name);
            if !traced {
                assert!(m.value > 0.0, "end-to-end metrics are never 0: {m:?}");
            }
        }
        reported += o.metrics.len();
    }
    assert_eq!(
        reported,
        def.matches("\"unit\":").count(),
        "every defined metric is reported"
    );
}
