//! One benchmark invocation: repeat a workload for the measuring time,
//! check its outputs, and reduce the repetitions to metrics.

use std::time::{Duration, Instant};

use hamband_core::coord::CoordSpec;
use hamband_core::object::WorkloadSupport;
use hamband_core::wire::Wire;
use hamband_runtime::RunConfig;
use hamband_types::{Bank, Counter, GSet};

use crate::cluster::Watch;
use crate::measure::{setup_only, sim_rep, threaded_rep, traced_rep, SimRep, ThreadedRep};
use crate::metrics::{failover, false_suspicions, median, per_layer, tally, Metric, Tally, Vt};
use crate::workloads::{Object, Workload};

/// Cluster builds [`setup_seconds`] times.
const SETUP_SAMPLES: usize = 31;

/// The result of one invocation.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Planned calls over every repetition.
    pub attempted: u64,
    /// Planned calls refused or never acknowledged.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// Each failed output check, described.
    pub problems: Vec<String>,
    /// Repetitions measured.
    pub reps: usize,
}

/// Measure workload `w` with seed `seed` for about `budget` of wall
/// time: the end-to-end metrics untraced, except `setup_s` (see
/// [`setup_seconds`]), or the per-layer metrics from a traced run when
/// `traced`.
pub fn run_workload(
    w: &Workload,
    seed: u64,
    budget: Duration,
    traced: bool,
    watch: &Watch,
) -> Outcome {
    let run = w.run_config(seed);
    match w.object {
        Object::Bank => {
            let b = Bank::new(256, 50);
            measure(&b, &b.coord_spec(), w, &run, budget, traced, watch)
        }
        Object::GSet => {
            let g = GSet::default();
            measure(&g, &g.coord_spec(), w, &run, budget, traced, watch)
        }
        Object::Counter => {
            let c = Counter::default();
            measure(&c, &c.coord_spec(), w, &run, budget, traced, watch)
        }
    }
}

/// Median wall time, in seconds, of [`SETUP_SAMPLES`] builds of the
/// workload's simulator cluster for `seed`, each dropped before the
/// next.
///
/// Call it on the main thread before any run. How long a build takes
/// depends on the allocator's state: on a thread's fresh arena the
/// first builds range from 0.1 to 7 ms for `bank`, and after a run
/// builds took either about 0.6 or about 5 ms. On the main thread of a
/// fresh process the median repeats to within a few percent.
pub fn setup_seconds(w: &Workload, seed: u64) -> f64 {
    let run = w.run_config(seed);
    let samples = |build: &dyn Fn() -> Duration| -> f64 {
        median((0..SETUP_SAMPLES).map(|_| build().as_secs_f64()).collect())
    };
    match w.object {
        Object::Bank => {
            let b = Bank::new(256, 50);
            samples(&|| setup_only(&b, &b.coord_spec(), &run))
        }
        Object::GSet => {
            let g = GSet::default();
            samples(&|| setup_only(&g, &g.coord_spec(), &run))
        }
        Object::Counter => {
            let c = Counter::default();
            samples(&|| setup_only(&c, &c.coord_spec(), &run))
        }
    }
}

/// Output checks and the failure tally, accumulated over an
/// invocation's repetitions.
#[derive(Default)]
struct Checks {
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn count(&mut self, t: Tally) {
        self.attempted += t.attempted;
        self.failed += t.failed;
    }

    /// The checks every simulator repetition must pass.
    fn sim(&mut self, rep: &SimRep, run: &RunConfig, coord: &CoordSpec, label: &str) {
        if !rep.driven.converged {
            self.problems.push(format!(
                "{label}: did not converge to equal states; node status: {}",
                rep.end.statuses.join(" | ")
            ));
        }
        if !rep.end.invariant_holds {
            self.problems.push(format!(
                "{label}: a final state breaks the object's invariant"
            ));
        }
        let t = tally(
            &run.workload,
            coord,
            &rep.end.node_metrics,
            &rep.end.stopped,
            rep.driven.converged,
        );
        if t.failed > 0 {
            self.problems.push(format!(
                "{label}: {} of {} planned calls failed",
                t.failed, t.attempted
            ));
        }
        self.count(t);
    }
}

/// Untraced simulator repetitions until the next one would end after
/// `deadline` (at least one). All of them must give the same
/// virtual-time results. Also returns the peak resident memory after
/// the first: later repetitions reuse a heap that earlier ones grew, so
/// that is where the peak covers exactly one run.
fn repeat_untraced<O>(
    spec: &O,
    coord: &CoordSpec,
    w: &Workload,
    run: &RunConfig,
    deadline: Instant,
    watch: &Watch,
    checks: &mut Checks,
) -> (Vec<SimRep>, f64)
where
    O: WorkloadSupport + Clone,
    O::Update: Wire,
{
    let mut runs: Vec<SimRep> = Vec::new();
    let mut peak_rss = 0.0;
    loop {
        let label = format!("{} rep {}", w.name, runs.len() + 1);
        let r = sim_rep(spec, coord, run, watch, &label);
        checks.sim(&r, run, coord, &label);
        eprintln!(
            "{label}: set-up {:.4} s, run {:.3} s",
            r.setup.as_secs_f64(),
            r.driven.wall.as_secs_f64()
        );
        let last = r.setup + r.driven.wall;
        runs.push(r);
        if runs.len() == 1 {
            peak_rss = peak_rss_mib();
        }
        if Instant::now() + last > deadline {
            break;
        }
    }
    let vt = Vt::of(&runs[0]);
    if runs.iter().any(|r| Vt::of(r) != vt) {
        checks
            .problems
            .push("repetitions with one seed gave different virtual-time results".into());
    }
    (runs, peak_rss)
}

fn measure<O>(
    spec: &O,
    coord: &CoordSpec,
    w: &Workload,
    run: &RunConfig,
    budget: Duration,
    traced: bool,
    watch: &Watch,
) -> Outcome
where
    O: WorkloadSupport + Clone + Send,
    O::Update: Wire + Send,
    O::State: Send,
{
    let start = Instant::now();
    let mut checks = Checks::default();
    let (metrics, reps) = if traced {
        // Half the time goes to untraced repetitions, for the wall-clock
        // throughput and the tracing overhead; the threaded runs get
        // the rest.
        let (plain, _) =
            repeat_untraced(spec, coord, w, run, start + budget / 2, watch, &mut checks);
        let t = traced_rep(spec, coord, run, watch, &format!("{} traced", w.name));
        checks.sim(&t.rep, run, coord, "traced run");
        if Vt::of(&t.rep) != Vt::of(&plain[0]) {
            checks.problems.push(
                "the traced run's virtual-time results differ from the untraced run's".into(),
            );
        }
        if let Some(at) = w.suspend_at {
            if failover(&t, at).is_none() {
                checks
                    .problems
                    .push("no conflicting call was acknowledged under a new leader".into());
            }
        }
        let false_suspicions = false_suspicions(&t, w.suspend_at);
        if false_suspicions > 0 {
            checks
                .problems
                .push(format!("{false_suspicions} false failure suspicions"));
        }
        let mut threaded: Vec<ThreadedRep> = Vec::new();
        if let Some(ops) = w.threaded_ops {
            let workload = w.spec(run.workload.seed, ops);
            loop {
                let r = threaded_rep(spec, coord, w, run.workload.seed, ops, watch);
                if !r.converged {
                    checks.problems.push("threaded run did not converge".into());
                }
                let stopped = vec![false; r.node_metrics.len()];
                checks.count(tally(
                    &workload,
                    coord,
                    &r.node_metrics,
                    &stopped,
                    r.converged,
                ));
                let last = r.setup + r.wall;
                threaded.push(r);
                if start.elapsed() + last > budget {
                    break;
                }
            }
        }
        let reps = plain.len() + 1 + threaded.len();
        (per_layer(&t, &plain, w.suspend_at, &threaded), reps)
    } else {
        let (runs, peak_rss) =
            repeat_untraced(spec, coord, w, run, start + budget, watch, &mut checks);
        let vt = Vt::of(&runs[0]);
        let metrics = vec![
            Metric::new("vt_tput_ops_per_us", vt.tput_ops_per_us(), "ops/us"),
            Metric::new("vt_update_mean_us", vt.update_mean_ns / 1e3, "us"),
            Metric::new("vt_update_tail_us", vt.update_tail_ns / 1e3, "us"),
            Metric::new("bytes_per_op", vt.bytes_per_op(), "B/op"),
            Metric::new("peak_rss_mib", peak_rss, "MiB"),
        ];
        (metrics, runs.len())
    };
    for m in &metrics {
        if !m.value.is_finite() {
            checks
                .problems
                .push(format!("{} is not a finite number", m.name));
        }
    }
    Outcome {
        correct: checks.problems.is_empty(),
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
        problems: checks.problems,
        reps,
    }
}

/// Peak resident set of this process, MiB (0 where the kernel does not
/// report it).
pub(crate) fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
